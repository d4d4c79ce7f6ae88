import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvdetect import (
    DensityMatrix2,
    FieldConfig,
    NoiseModel,
    NvParameters,
    PreconditionError,
    evolve_pair_grid,
    min_error_grid,
    optimal_time_search,
    standard_basis_error_grid,
)
from nvdetect.errors import NumericalInvariantError
from nvdetect.linalg import check_bloch_norms
from oracles import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    density_matrix,
    helstrom_operator,
    min_error_vectors,
    optimal_time_analytic,
    povm_pair,
    worst_bloch_norm,
)

PARAMS = NvParameters()
POLE = DensityMatrix2.pole_plus()
OMEGA_1E6 = 2 * math.pi * 0.17 * 1e6
TMIN_1E6 = math.pi / (2 * OMEGA_1E6)  # 1.4705882352941176e-06 s

unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
bloch_component = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def bloch(x, y, z):
    """The Bloch vector (x, y, z), pulled just inside the ball if outside."""
    r = math.sqrt(x * x + y * y + z * z)
    if r > 1.0:
        x, y, z = (v / (r * (1 + 1e-9)) for v in (x, y, z))
    return np.array([x, y, z])


def bloch_state(x, y, z):
    x, y, z = bloch(x, y, z)
    return DensityMatrix2(0.5 * (IDENTITY_2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z))


def grid(fields, noise, times):
    """Bloch vectors of both hypotheses from POLE at every time."""
    return evolve_pair_grid(fields, PARAMS, noise, POLE, np.atleast_1d(times))


def states_at(fields, noise, t):
    """Both hypotheses' density matrices at t, from a one-point grid."""
    r0, r1 = grid(fields, noise, t)
    return density_matrix(r0[:, 0]), density_matrix(r1[:, 0])


def report_at(fields, noise, t):
    """The package's one-point error report at t: (p_err, p_dc, p_fn)."""
    curve = min_error_grid(*grid(fields, noise, t), fields.priors)
    return float(curve.p_err[0]), float(curve.p_dc[0]), float(curve.p_fn[0])


class TestHelstromOperator:
    def test_identical_states_give_zero_operator(self):
        dec = helstrom_operator(POLE, POLE)
        assert dec.lambda_plus == pytest.approx(0.0, abs=1e-15)
        assert dec.lambda_minus == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_pure_states(self):
        minus = DensityMatrix2(np.diag([0.0, 1.0]).astype(complex))
        dec = helstrom_operator(POLE, minus)
        assert dec.lambda_plus == pytest.approx(0.5, abs=1e-15)
        assert dec.lambda_minus == pytest.approx(-0.5, abs=1e-15)

    def test_collinear_dephasing_eigenvalues(self):
        # parallel fields with collinear noise: eigenvalues are
        # +- (exp(-kappa t)/2) |sin(w_delta t)| regardless of the baseline
        kappa = 1e5
        fields = FieldConfig(e0=(1e6, 0, 0), de=(1e6, 0, 0))
        noise = NoiseModel.electric(kappa)
        for t in np.linspace(5e-8, 3e-6, 17):
            r0, r1 = states_at(fields, noise, t)
            dec = helstrom_operator(r0, r1)
            expected = 0.5 * math.exp(-kappa * t) * abs(math.sin(OMEGA_1E6 * t))
            assert dec.lambda_plus == pytest.approx(expected, abs=1e-12)
            assert dec.lambda_minus == pytest.approx(-expected, abs=1e-12)

    @given(
        x0=bloch_component, y0=bloch_component, z0=bloch_component,
        x1=bloch_component, y1=bloch_component, z1=bloch_component,
        p0=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_trace_identity(self, x0, y0, z0, x1, y1, z1, p0):
        dec = helstrom_operator(bloch_state(x0, y0, z0), bloch_state(x1, y1, z1), (p0, 1 - p0))
        assert dec.lambda_plus + dec.lambda_minus == pytest.approx(1 - 2 * p0, abs=1e-10)


class TestPovmPair:
    def test_degenerate_convention(self):
        pair = povm_pair(helstrom_operator(POLE, POLE))
        np.testing.assert_allclose(pair.pi1, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(pair.pi0, np.zeros((2, 2)), atol=1e-15)

    def test_orthogonal_states_projectors(self):
        minus = DensityMatrix2(np.diag([0.0, 1.0]).astype(complex))
        pair = povm_pair(helstrom_operator(POLE, minus))
        np.testing.assert_allclose(pair.pi1, np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(pair.pi0, np.diag([1.0, 0.0]), atol=1e-14)

    def test_projects_onto_evolved_state_at_optimal_time(self):
        fields = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
        r0, r1 = states_at(fields, NoiseModel.none(), TMIN_1E6)
        pair = povm_pair(helstrom_operator(r0, r1))
        assert np.trace(r1.matrix @ pair.pi1).real == pytest.approx(1.0, abs=1e-12)

    @given(
        x0=bloch_component, y0=bloch_component, z0=bloch_component,
        x1=bloch_component, y1=bloch_component, z1=bloch_component,
        p0=unit_interval,
    )
    @settings(max_examples=300)
    def test_povm_axioms(self, x0, y0, z0, x1, y1, z1, p0):
        pair = povm_pair(
            helstrom_operator(bloch_state(x0, y0, z0), bloch_state(x1, y1, z1), (p0, 1 - p0))
        )
        for pi in (pair.pi0, pair.pi1):
            assert np.max(np.abs(pi - pi.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(pi)) >= -1e-12
            assert np.max(np.abs(pi @ pi - pi)) <= 1e-10
        assert np.max(np.abs(pair.pi0 + pair.pi1 - np.eye(2))) <= 1e-12


class TestMinError:
    def test_indistinguishable_states(self):
        pole = np.transpose([bloch(0.0, 0.0, 1.0)])
        assert min_error_grid(pole, pole).p_err[0] == pytest.approx(0.5, abs=1e-15)

    def test_perfect_discrimination_at_optimal_time(self):
        fields = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
        assert report_at(fields, NoiseModel.none(), TMIN_1E6)[0] < 1e-10

    def test_dephasing_limited_error(self):
        fields = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
        p_err, p_dc, p_fn = report_at(fields, NoiseModel.electric(1e5), TMIN_1E6)
        expected = 0.5 * (1 - math.exp(-1e5 * TMIN_1E6))
        assert p_err == pytest.approx(expected, abs=1e-13)
        assert p_err == pytest.approx(0.06837840154439662, abs=1e-12)
        assert p_dc == pytest.approx(p_err, abs=1e-10)
        assert p_fn == pytest.approx(p_err, abs=1e-10)

    @given(
        x0=bloch_component, y0=bloch_component, z0=bloch_component,
        x1=bloch_component, y1=bloch_component, z1=bloch_component,
        p0=unit_interval,
    )
    @settings(max_examples=300)
    def test_bound_and_decomposition(self, x0, y0, z0, x1, y1, z1, p0):
        priors = (p0, 1 - p0)
        r0, r1 = np.transpose([bloch(x0, y0, z0)]), np.transpose([bloch(x1, y1, z1)])
        curve = min_error_grid(r0, r1, priors)
        assert -1e-15 <= curve.p_err[0] <= min(priors) + 1e-12
        assert curve.p_err[0] == pytest.approx(
            priors[0] * curve.p_dc[0] + priors[1] * curve.p_fn[0], abs=1e-12
        )

    @pytest.mark.parametrize("row, column", [(0, 0), (3, 2)])
    def test_nan_state_breaches_the_formula_check(self, row, column):
        # the trace and eigenvalue forms of p_err must agree, and NaN agrees with nothing
        r0 = np.zeros((4, 3))
        r1 = np.tile([0.0, 0.0, 1.0], (4, 1))
        r1[row, column] = math.nan
        with pytest.raises(NumericalInvariantError, match=f"at point {row}"):
            min_error_grid(r0.T, r1.T)

    def test_equal_priors_balance_the_two_error_kinds(self):
        # holds whenever the two hypothesis states are equally mixed, which
        # is the case for a shared initial state under equal-rate collinear
        # dephasing; random equal-radius pairs probe the same geometry
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=3)
            w = rng.normal(size=3)
            radius = rng.uniform(0.05, 1.0)
            v *= radius / np.linalg.norm(v)
            w *= radius / np.linalg.norm(w)
            curve = min_error_grid(np.transpose([v]), np.transpose([w]))
            assert abs(curve.p_dc[0] - curve.p_fn[0]) <= 1e-10
        fields = FieldConfig(e0=(2e6, 0, 0), de=(1e6, 0, 0))
        noise = NoiseModel.electric(1e5)
        curve = min_error_grid(*grid(fields, noise, np.linspace(1e-7, 3e-6, 9)))
        assert np.max(np.abs(curve.p_dc - curve.p_fn)) <= 1e-10


row_component = st.one_of(st.sampled_from([0.0, -0.0]), bloch_component)


@st.composite
def row_pairs(draw):
    """Two (3, n) Bloch-vector arrays, rows x, y, z, inside the ball: zero vectors and signed
    zeros, and points where both hypotheses hold one vector (v = 0 at equal priors)."""
    n = draw(st.integers(1, 8))
    r0, r1 = (np.array([bloch(*(draw(row_component) for _ in range(3))) for _ in range(n)])
              for _ in range(2))
    same = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    r1[same] = r0[same]
    return r0.T, r1.T


class TestRowLayout:
    @given(row_pairs(), st.one_of(st.sampled_from([0.5, 0.0, 1.0, 0.3, 0.9]), unit_interval))
    @settings(max_examples=300)
    def test_rows_give_the_bits_of_the_vector_major_formulas(self, rows, p0):
        r0, r1 = rows
        priors = (p0, 1.0 - p0)
        curve = min_error_grid(r0, r1, priors)
        want = min_error_vectors(r0.T, r1.T, priors)
        dec = curve.decision
        assert np.array_equal(curve.p_err, want.p_err)
        assert np.array_equal(curve.p_dc, want.p_dc)
        assert np.array_equal(curve.p_fn, want.p_fn)
        assert np.array_equal(dec.lambda_plus, want.lambda_plus)
        assert np.array_equal(dec.lambda_minus, want.lambda_minus)
        assert np.array_equal(dec.unit, want.unit.T)
        # doubled, most arrays breach the bound, and the message carries the worst norm
        for r in (r0, r1, 2.0 * r1):
            worst = worst_bloch_norm(r.T)
            if worst <= 1.0 + 1e-12:
                assert check_bloch_norms(r) is r
            else:
                with pytest.raises(NumericalInvariantError) as breach:
                    check_bloch_norms(r)
                assert str(breach.value) == f"Bloch norm {worst!r} exceeds 1"


class TestStandardBasis:
    def test_matches_displayed_formula_on_grid(self):
        kappa = 1e5
        w0 = abs(PARAMS.transverse_coupling((1e7, 0, 0)))
        w1 = abs(PARAMS.transverse_coupling((2e7, 0, 0)))
        fields = FieldConfig(e0=(1e7, 0, 0), de=(1e7, 0, 0))
        noise = NoiseModel.electric(kappa)
        times = np.linspace(1e-8, 5e-7, 19)
        got = standard_basis_error_grid(*grid(fields, noise, times))
        for t, p in zip(times, got):
            expected = 0.5 + 0.25 * math.exp(-kappa * t) * (
                math.cos(2 * w1 * t) - math.cos(2 * w0 * t)
            )
            assert p == pytest.approx(expected, abs=1e-12)

    def test_zero_baseline_matches_povm_at_optimal_times(self):
        # odd quarter-period times are the error minima; both readouts vanish
        # there (even multiples are revivals where discrimination is blind)
        fields = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
        for n in (1, 3, 5):
            r0, r1 = grid(fields, NoiseModel.none(), n * TMIN_1E6)
            assert standard_basis_error_grid(r0, r1)[0] < 1e-12
            assert min_error_grid(r0, r1).p_err[0] < 1e-10
        p_err = report_at(fields, NoiseModel.none(), 2 * TMIN_1E6)[0]
        assert p_err == pytest.approx(0.5, abs=1e-10)

    def test_best_assignment_never_exceeds_half(self):
        fields = FieldConfig(e0=(1e7, 0, 0), de=(1e7, 0, 0))
        noise = NoiseModel.electric(1e5)
        r0, r1 = grid(fields, noise, np.linspace(1e-8, 1e-6, 40))
        best = standard_basis_error_grid(r0, r1, best_assignment=True)
        literal = standard_basis_error_grid(r0, r1)
        assert np.all(best <= 0.5 + 1e-12)
        np.testing.assert_allclose(best, np.minimum(literal, 1 - literal), rtol=0, atol=1e-15)

    def test_general_priors_use_trace_formula(self):
        priors = (0.3, 0.7)
        fields = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0), priors=priors)
        r0, r1 = grid(fields, NoiseModel.electric(1e5), 0.6e-6)
        got = standard_basis_error_grid(r0, r1, priors)[0]
        rho0, rho1 = density_matrix(r0[:, 0]), density_matrix(r1[:, 0])
        expected = 0.3 * rho0.matrix[1, 1].real + 0.7 * rho1.matrix[0, 0].real
        assert got == pytest.approx(expected, abs=1e-15)


class TestOptimalTime:
    def test_analytic_values(self):
        assert optimal_time_analytic(1e6) == pytest.approx(1.4705882352941176e-06, rel=1e-12)
        assert optimal_time_analytic(3e6) == pytest.approx(4.901960784313725e-07, rel=1e-12)
        assert optimal_time_analytic(1e6, n=2) == pytest.approx(2 * optimal_time_analytic(1e6))

    def test_zero_switch_rejected(self):
        with pytest.raises(PreconditionError):
            optimal_time_analytic(0.0)

    def test_search_without_decoherence_finds_analytic_time(self):
        fields = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
        t_star, p_min = optimal_time_search(
            fields, PARAMS, NoiseModel.none(), POLE, (1e-8, 2.5e-6)
        )
        assert abs(t_star - TMIN_1E6) < 1e-9
        assert p_min < 1e-10

    def test_search_with_decoherence_shifts_early(self):
        kappa = 1e5
        fields = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
        t_star, p_min = optimal_time_search(
            fields, PARAMS, NoiseModel.electric(kappa), POLE, (1e-7, 2.5e-6)
        )
        # stationarity of exp(-kappa t) sin(w t) gives tan(w t) = w / kappa
        t_pred = math.atan(OMEGA_1E6 / kappa) / OMEGA_1E6
        assert abs(t_star - t_pred) < 1e-9
        assert t_star == pytest.approx(1.383194887154743e-06, abs=1e-9)
        shift = (TMIN_1E6 - t_star) / TMIN_1E6
        assert 0.0 < shift < 0.065
        formula = 0.5 * (1 - math.exp(-kappa * t_star) * abs(math.sin(OMEGA_1E6 * t_star)))
        assert p_min == pytest.approx(formula, abs=1e-6)
        assert p_min == pytest.approx(0.06648547606468985, abs=1e-9)

    def test_small_axial_field_barely_moves_the_error(self):
        # 10 uT and 20 uT axial fields leave p_err near the optimum within 0.05
        fields0 = FieldConfig(e0=(1e7, 0, 0), de=(1e7, 0, 0))
        noise = NoiseModel.electric(1e5)
        tmin = optimal_time_analytic(1e7)
        times = np.linspace(0.75 * tmin, 1.25 * tmin, 21)
        p_0 = min_error_grid(*grid(fields0, noise, times)).p_err
        deltas = {}
        for b_z in (10e-6, 20e-6):
            fields_b = FieldConfig(e0=(1e7, 0, 0), de=(1e7, 0, 0), b_z=b_z)
            p_b = min_error_grid(*grid(fields_b, noise, times)).p_err
            worst = float(np.max(np.abs(p_b - p_0)))
            deltas[b_z] = worst
            assert worst < 0.05
        assert deltas[20e-6] > deltas[10e-6]

    def test_invalid_window_rejected(self):
        fields = FieldConfig()
        with pytest.raises(PreconditionError):
            optimal_time_search(fields, PARAMS, NoiseModel.none(), POLE, (2e-6, 1e-6))


class TestBaselineInvariance:
    def test_eigenvalues_independent_of_parallel_baseline(self):
        for kappa in (0.0, 1e5):
            noise = NoiseModel.electric(kappa) if kappa else NoiseModel.none()
            for t in (3e-7, 1.2e-6):
                spectra = []
                for e0x in (0.0, 1e6, 1e7):
                    fields = FieldConfig(e0=(e0x, 0, 0), de=(1e6, 0, 0))
                    curve = min_error_grid(*grid(fields, noise, t))
                    spectra.append((curve.decision.lambda_plus[0], curve.decision.lambda_minus[0]))
                spread = np.max(np.abs(np.array(spectra) - np.array(spectra[0])))
                assert spread < 1e-10

    def test_transverse_component_breaks_invariance(self):
        t = 4e-7
        spectra = []
        for e0x in (0.0, 1e7):
            fields = FieldConfig(e0=(e0x, 0, 0), de=(1e6, 1e6, 0))
            curve = min_error_grid(*grid(fields, NoiseModel.none(), t))
            spectra.append((curve.decision.lambda_plus[0], curve.decision.lambda_minus[0]))
        spread = np.max(np.abs(np.array(spectra[1]) - np.array(spectra[0])))
        assert spread > 1e-3

    def test_error_is_periodic_without_decoherence(self):
        fields = FieldConfig(e0=(2e6, 0, 0), de=(1e6, 0, 0))
        period = math.pi / OMEGA_1E6
        for t in (1e-7, 6e-7, 1.1e-6):
            p_a = report_at(fields, NoiseModel.none(), t)[0]
            p_b = report_at(fields, NoiseModel.none(), t + period)[0]
            assert p_a == pytest.approx(p_b, abs=1e-10)
