import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvdetect import PreconditionError
from nvdetect.errors import NumericalInvariantError
from nvdetect.linalg import DensityMatrix2, check_bloch_norms
from oracles import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_vector, expm_small, herm_eigen2

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def hermitian_2x2(a, c, re_b, im_b):
    b = complex(re_b, im_b)
    return np.array([[a, np.conj(b)], [b, c]], dtype=complex)


def bloch_state(x, y, z):
    return DensityMatrix2(
        0.5 * (IDENTITY_2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)
    )


class TestHermEigen2:
    def test_sigma_z_diagonal(self):
        pair = herm_eigen2(SIGMA_Z)
        assert pair.eigenvalues == (1.0, -1.0)
        np.testing.assert_allclose(pair.vector_plus, [1, 0], atol=1e-15)
        np.testing.assert_allclose(pair.vector_minus, [0, 1], atol=1e-15)

    def test_sigma_x(self):
        pair = herm_eigen2(SIGMA_X)
        assert pair.eigenvalues[0] == pytest.approx(1.0, abs=1e-14)
        assert pair.eigenvalues[1] == pytest.approx(-1.0, abs=1e-14)
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(pair.vector_plus, [s, s], atol=1e-14)
        np.testing.assert_allclose(pair.vector_minus, [s, -s], atol=1e-14)

    def test_orthogonal_state_difference(self):
        # half the projector difference between the two poles
        lam = 0.5 * np.diag([0.0, 1.0]) - 0.5 * np.diag([1.0, 0.0])
        pair = herm_eigen2(lam.astype(complex))
        assert pair.eigenvalues == pytest.approx((0.5, -0.5), abs=1e-15)

    def test_degenerate_returns_canonical_basis(self):
        pair = herm_eigen2(3.7 * IDENTITY_2)
        np.testing.assert_array_equal(pair.eigenvectors, np.eye(2))

    def test_non_hermitian_rejected(self):
        with pytest.raises(PreconditionError):
            herm_eigen2(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    @given(a=finite, c=finite, re_b=finite, im_b=finite)
    @settings(max_examples=300)
    def test_reconstruction_and_orthonormality(self, a, c, re_b, im_b):
        m = hermitian_2x2(a, c, re_b, im_b)
        scale = max(1.0, float(np.max(np.abs(m))))
        pair = herm_eigen2(m)
        assert pair.eigenvalues[0] >= pair.eigenvalues[1]
        v_p, v_m = pair.vector_plus, pair.vector_minus
        gram = pair.eigenvectors.conj().T @ pair.eigenvectors
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)
        rebuilt = pair.eigenvalues[0] * np.outer(v_p, v_p.conj()) + pair.eigenvalues[
            1
        ] * np.outer(v_m, v_m.conj())
        assert np.max(np.abs(rebuilt - m)) <= 1e-10 * scale
        for lam, vec in zip(pair.eigenvalues, (v_p, v_m)):
            assert np.max(np.abs(m @ vec - lam * vec)) <= 1e-10 * scale

    @given(a=finite, c=finite, re_b=finite, im_b=finite)
    @settings(max_examples=200)
    def test_phase_convention(self, a, c, re_b, im_b):
        pair = herm_eigen2(hermitian_2x2(a, c, re_b, im_b))
        for vec in (pair.vector_plus, pair.vector_minus):
            first = next(comp for comp in vec if abs(comp) > 1e-14)
            assert abs(first.imag) <= 1e-12
            assert first.real > 0


class TestBlochVector:
    def test_pole_state(self):
        assert bloch_vector(DensityMatrix2.pole_plus()) == pytest.approx((0.0, 0.0, 1.0))

    def test_maximally_mixed(self):
        assert bloch_vector(DensityMatrix2(0.5 * IDENTITY_2)) == pytest.approx((0.0, 0.0, 0.0))

    def test_dephased_precession_snapshot(self):
        # transverse drive at 1.0681415e6 rad/s with dephasing 1e5 1/s, read
        # out at 0.5 us: the state sits at angle 2wt below the pole in the
        # y-z plane, shrunk by exp(-kappa t)
        w = 2 * math.pi * 0.17 * 1e6
        t = 0.5e-6
        decay = math.exp(-1e5 * t)
        rho = DensityMatrix2(
            np.array(
                [
                    [0.5 * (1 + decay * math.cos(2 * w * t)), 0.5j * decay * math.sin(2 * w * t)],
                    [-0.5j * decay * math.sin(2 * w * t), 0.5 * (1 - decay * math.cos(2 * w * t))],
                ],
                dtype=complex,
            )
        )
        x, y, z = bloch_vector(rho)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert y == pytest.approx(-0.8335686989442558, abs=1e-12)
        assert z == pytest.approx(0.45825827016687903, abs=1e-12)
        # the rounded reference values
        assert y == pytest.approx(-0.8345, abs=2e-3)
        assert z == pytest.approx(0.4573, abs=2e-3)

    @given(x=finite, y=finite, z=finite)
    @settings(max_examples=300)
    def test_norm_matches_purity(self, x, y, z):
        r = math.sqrt(x * x + y * y + z * z)
        if r > 1e3:
            x, y, z = (v / r for v in (x, y, z))
            r = 1.0
        elif r > 1.0:
            x, y, z = (v / (r * (1 + 1e-12)) for v in (x, y, z))
        rho = bloch_state(x, y, z)
        norm = np.linalg.norm(bloch_vector(rho))
        assert norm * norm == pytest.approx(2 * rho.purity - 1, abs=1e-10)


class TestBlochNormBound:
    def test_vectors_inside_the_ball_pass(self):
        r = np.array([[[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]], [[0.0, 0.0, 0.0], [1e-300, 0.0, 0.0]]])
        r = r.swapaxes(1, 2)
        assert check_bloch_norms(r) is r
        assert check_bloch_norms(np.zeros((0, 3)).T).shape == (3, 0)

    @pytest.mark.parametrize("bad", [1.0 + 2e-12, math.nan, math.inf, -math.inf])
    def test_longer_or_nan_vectors_breach(self, bad):
        r = np.zeros((2, 4, 3))
        r[1, 2, 0] = bad
        with pytest.raises(NumericalInvariantError):
            check_bloch_norms(r.swapaxes(1, 2))

    @pytest.mark.parametrize("shape", [(2, 4, 3), (5, 3), (3,)])
    def test_other_layouts_are_refused(self, shape):
        # vectors as trailing rows of length 3, or four components, are not read as x, y, z
        with pytest.raises(PreconditionError, match="rows x, y, z"):
            check_bloch_norms(np.zeros(shape))

    def test_bloch_vector_of_a_nan_matrix_breaches(self):
        # DensityMatrix2 rejects NaN entries, so a bare matrix holder stands in
        rho = types.SimpleNamespace(matrix=np.full((2, 2), math.nan, dtype=complex))
        with pytest.raises(NumericalInvariantError):
            bloch_vector(rho)


class TestDensityMatrix2:
    def test_rejects_trace(self):
        with pytest.raises(PreconditionError):
            DensityMatrix2(np.diag([1.0, 0.5]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(PreconditionError):
            DensityMatrix2(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(PreconditionError):
            DensityMatrix2(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))


class TestExpmSmall:
    def test_zero_exponent(self):
        m = np.arange(16, dtype=complex).reshape(4, 4)
        np.testing.assert_array_equal(expm_small(m, 0.0), np.eye(4))

    def test_pauli_rotation(self):
        theta = math.pi / 2
        expected = np.array([[0, -1j], [-1j, 0]], dtype=complex)
        np.testing.assert_allclose(expm_small(SIGMA_X, -1j * theta), expected, atol=1e-14)

    def test_unitary_propagator_matches_closed_form(self):
        from nvdetect import NvParameters
        from oracles import evolve_closed_transverse, hamiltonian_two_level

        params = NvParameters()
        h = hamiltonian_two_level(params, (1e7, 0.0, 0.0), 0.0)
        t = 0.1e-6
        u = expm_small(h, -1j * t)
        rho0 = DensityMatrix2.pole_plus().matrix
        evolved = u @ rho0 @ u.conj().T
        expected = evolve_closed_transverse(h, DensityMatrix2.pole_plus(), t).matrix
        assert np.max(np.abs(evolved - expected)) < 1e-10

    @given(
        entries=st.lists(st.floats(min_value=-30, max_value=30), min_size=8, max_size=8)
    )
    @settings(max_examples=200)
    def test_unitarity_for_hermitian_generators(self, entries):
        a, c, rb, ib = entries[:4]
        m = hermitian_2x2(a, c, rb, ib)
        u = expm_small(m, -1j * 0.01)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-10)

    def test_matches_scipy_on_nonnormal(self):
        from scipy.linalg import expm as scipy_expm

        rng = np.random.default_rng(7)
        for dim in (2, 3, 4):
            for _ in range(25):
                m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                m *= rng.uniform(0.1, 40.0)
                ours = expm_small(m)
                ref = scipy_expm(m)
                assert np.max(np.abs(ours - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))

    def test_dimension_limit(self):
        with pytest.raises(PreconditionError):
            expm_small(np.eye(5, dtype=complex))
