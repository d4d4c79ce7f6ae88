import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvdetect import NoiseModel, NvParameters, PreconditionError, PreparationState
from nvdetect.linalg import DensityMatrix2
from oracles import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_vector,
    hamiltonian_full,
    hamiltonian_two_level,
    lindblad_operator,
    optimal_time_analytic,
    spectrum,
)

PARAMS = NvParameters()
TWO_PI = 2 * math.pi

field_component = st.floats(min_value=-2e7, max_value=2e7, allow_nan=False)
bz_values = st.floats(min_value=-5e-5, max_value=5e-5, allow_nan=False)


class TestHamiltonianFull:
    def test_zero_field(self):
        h = hamiltonian_full(PARAMS, (0.0, 0.0, 0.0), 0.0)
        np.testing.assert_allclose(h, np.diag([TWO_PI * 2.87e9, 0.0, TWO_PI * 2.87e9]), atol=0)

    def test_transverse_coupling_entry(self):
        h = hamiltonian_full(PARAMS, (1e6, 0.0, 0.0), 0.0)
        assert h[2, 0] == pytest.approx(TWO_PI * 0.17 * 1e6)
        assert h[0, 2] == pytest.approx(np.conj(h[2, 0]))
        assert h[2, 0].real == pytest.approx(1.0681415022205298e6, rel=1e-12)
        # |0> stays decoupled
        assert np.all(h[1, :] == 0) and np.all(h[:, 1] == 0)

    def test_axial_field_shifts_diagonal_only(self):
        h0 = hamiltonian_full(PARAMS, (0.0, 0.0, 0.0), 0.0)
        h = hamiltonian_full(PARAMS, (0.0, 0.0, 1e6), 0.0)
        shift = TWO_PI * 0.0035 * 1e6
        # differencing the 1.8e10 rad/s diagonal leaves ~1e-6 float noise
        assert (h[0, 0] - h0[0, 0]).real == pytest.approx(shift, abs=1e-4)
        assert shift == pytest.approx(2.199e4, rel=1e-3)
        assert h[0, 2] == 0 and h[2, 0] == 0


class TestHamiltonianTwoLevel:
    def test_x_field_gives_sigma_x(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0.0, 0.0), 0.0)
        d = TWO_PI * 2.87e9
        expected = 1.0681415022205298e6 * SIGMA_X + d * np.eye(2)
        np.testing.assert_allclose(h, expected, rtol=1e-12)

    def test_y_field_gives_sigma_y(self):
        h = hamiltonian_two_level(PARAMS, (0.0, 1e6, 0.0), 0.0)
        d = TWO_PI * 2.87e9
        expected = 1.0681415022205298e6 * SIGMA_Y + d * np.eye(2)
        np.testing.assert_allclose(h, expected, rtol=1e-12)

    def test_axial_magnetic_gives_sigma_z(self):
        b_z = 20e-6
        h = hamiltonian_two_level(PARAMS, (0.0, 0.0, 0.0), b_z)
        rate = PARAMS.zeeman_rate(b_z)
        expected = rate * SIGMA_Z + TWO_PI * 2.87e9 * np.eye(2)
        np.testing.assert_allclose(h, expected, rtol=1e-12)

    @given(ex=field_component, ey=field_component, ez=field_component, bz=bz_values)
    @settings(max_examples=200)
    def test_matches_corner_block_of_full(self, ex, ey, ez, bz):
        e = (ex, ey, ez)
        h2 = hamiltonian_two_level(PARAMS, e, bz)
        h3 = hamiltonian_full(PARAMS, e, bz)
        block = h3[np.ix_([0, 2], [0, 2])]
        assert np.max(np.abs(h2 - block)) <= 1e-12 * max(1.0, np.max(np.abs(h3)))

    @given(ex=field_component, ey=field_component, bz=bz_values,
           ez1=field_component, ez2=field_component)
    @settings(max_examples=200)
    def test_axial_electric_component_only_moves_the_trace(self, ex, ey, bz, ez1, ez2):
        h1 = hamiltonian_two_level(PARAMS, (ex, ey, ez1), bz)
        h2 = hamiltonian_two_level(PARAMS, (ex, ey, ez2), bz)
        tl1 = h1 - 0.5 * np.trace(h1) * np.eye(2)
        tl2 = h2 - 0.5 * np.trace(h2) * np.eye(2)
        assert np.max(np.abs(tl1 - tl2)) <= 1e-6  # rad/s, vs 1e10 scale


class TestSpectrum:
    def test_degenerate_at_zero_field(self):
        spec = spectrum(PARAMS, (0.0, 0.0, 0.0), 0.0)
        assert spec.eps0 == 0.0
        assert spec.delta_eps == 0.0
        assert spec.eps_plus == spec.eps_minus == pytest.approx(TWO_PI * 2.87e9)

    def test_transverse_splitting(self):
        spec = spectrum(PARAMS, (1e6, 0.0, 0.0), 0.0)
        assert spec.delta_eps == pytest.approx(1.0681415022205298e6, rel=1e-12)

    def test_combined_splitting(self):
        spec = spectrum(PARAMS, (1e6, 0.0, 0.0), 10e-6)
        w = TWO_PI * 0.17 * 1e6
        bz = PARAMS.zeeman_rate(10e-6)
        assert bz == pytest.approx(1761282.3598546104, rel=1e-12)
        assert spec.delta_eps == pytest.approx(math.hypot(w, bz), rel=1e-14)
        assert spec.delta_eps == pytest.approx(2059864.514938047, rel=1e-12)

    @given(ex=field_component, ey=field_component, ez=field_component, bz=bz_values)
    @settings(max_examples=150)
    def test_matches_numpy_eigenvalues_of_full(self, ex, ey, ez, bz):
        e = (ex, ey, ez)
        spec = spectrum(PARAMS, e, bz)
        eigs = np.sort(np.linalg.eigvalsh(hamiltonian_full(PARAMS, e, bz)))
        expected = np.sort([0.0, spec.eps_plus, spec.eps_minus])
        scale = max(abs(spec.eps_plus), 1.0)
        assert np.max(np.abs(eigs - expected)) <= 1e-9 * scale


class TestLindbladOperator:
    def test_x_field_noise(self):
        l = lindblad_operator((1e6, 0.0, 0.0), NoiseModel.electric(1e5))
        np.testing.assert_allclose(l, math.sqrt(5e4) * SIGMA_X, rtol=1e-15)

    def test_y_field_noise(self):
        l = lindblad_operator((0.0, 1e6, 0.0), NoiseModel.electric(1e5))
        np.testing.assert_allclose(l, math.sqrt(5e4) * SIGMA_Y, rtol=1e-15)

    def test_magnetic_axial(self):
        l = lindblad_operator((1e6, 0.0, 0.0), NoiseModel.magnetic(1e5))
        np.testing.assert_allclose(l, math.sqrt(5e4) * SIGMA_Z, rtol=1e-15)

    def test_none_is_zero(self):
        np.testing.assert_array_equal(
            lindblad_operator((1e6, 0.0, 0.0), NoiseModel.none()), np.zeros((2, 2))
        )

    def test_zero_transverse_field_rejected(self):
        with pytest.raises(PreconditionError):
            lindblad_operator((0.0, 0.0, 5e6), NoiseModel.electric(1e5))

    @given(
        ex=field_component,
        ey=field_component,
        kind=st.sampled_from(["electric", "magnetic"]),
        rate=st.floats(min_value=1e3, max_value=1e6),
    )
    @settings(max_examples=200)
    def test_hermitian_and_squares_to_half_rate(self, ex, ey, kind, rate):
        if kind == "electric" and abs(complex(ex, ey)) == 0.0:
            return
        noise = NoiseModel.electric(rate) if kind == "electric" else NoiseModel.magnetic(rate)
        l = lindblad_operator((ex, ey, 0.0), noise)
        assert np.max(np.abs(l - l.conj().T)) <= 1e-12 * math.sqrt(rate)
        np.testing.assert_allclose(l @ l, (rate / 2) * np.eye(2), rtol=1e-12)


class TestParameters:
    def test_kappa(self):
        assert PARAMS.kappa == pytest.approx(1e5)
        assert NvParameters(t2=math.inf).kappa == 0.0

    def test_positive_validation(self):
        with pytest.raises(PreconditionError):
            NvParameters(t2=0.0)
        with pytest.raises(PreconditionError):
            NvParameters(d_perp=-0.17)

    def test_transfer_time_is_the_quarter_period_of_the_transverse_coupling(self):
        for de_x in (3e5, 1e6, 3e6):
            for n in (1, 2, 3):
                assert n * PARAMS.transfer_time((de_x, 0.0, 0.0)) == pytest.approx(
                    optimal_time_analytic(de_x, n), rel=1e-15
                )
        # the phase of the transverse field and any axial part do not matter
        assert PARAMS.transfer_time((0.0, -1e6, 4e6)) == pytest.approx(
            optimal_time_analytic(1e6), rel=1e-15
        )
        assert PARAMS.transfer_time((0.0, 0.0, 1e6)) == math.inf


@pytest.mark.parametrize("preparation", list(PreparationState), ids=lambda p: p.value)
def test_preparation_bloch_vector_is_that_of_its_density_matrix(preparation):
    # bit for bit, signed zeros included, against the matrix elements of the validated state
    rho = getattr(DensityMatrix2, preparation.value)()
    assert np.array(preparation.bloch_vector).tobytes() == np.array(bloch_vector(rho)).tobytes()
    assert all(type(c) is float for c in preparation.bloch_vector)
