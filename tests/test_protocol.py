import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvdetect import (
    FieldConfig,
    NoiseModel,
    NvParameters,
    PreconditionError,
    PreparationState,
    fit_decay_rate,
    majority_vote_error,
    turn_on_blocks,
)
from nvdetect.linalg import DensityMatrix2
from oracles import IDENTITY_2, helstrom_operator, povm_pair, simulate_click

PARAMS = NvParameters()
POLE = DensityMatrix2.pole_plus()
OMEGA_1E6 = 2 * math.pi * 0.17 * 1e6
TMIN_1E6 = math.pi / (2 * OMEGA_1E6)
P_SINGLE = 0.5 * (1 - math.exp(-1e5 * TMIN_1E6))  # 0.06837840154439662

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def exhaustive_majority_error(n, p01, p10, priors=(0.5, 0.5)):
    """Brute force over all 2^n click patterns."""
    err = 0.0
    for pattern in range(2 ** n):
        bits = [(pattern >> k) & 1 for k in range(n)]
        n_bright = sum(bits)
        pr_h0 = math.prod(p01 if b else 1 - p01 for b in bits)
        pr_h1 = math.prod(1 - p10 if b else p10 for b in bits)
        if n_bright > n / 2:
            err += priors[0] * pr_h0
        else:
            err += priors[1] * pr_h1
    return err


class TestMajorityVoteError:
    def test_single_sensor_reduces_to_plain_error(self):
        assert majority_vote_error(1, 0.1, 0.2, (0.4, 0.6)) == pytest.approx(
            0.4 * 0.1 + 0.6 * 0.2, abs=1e-15
        )

    def test_three_sensors_at_reference_error(self):
        p = P_SINGLE
        expected = p ** 3 + 3 * (1 - p) * p ** 2
        got = majority_vote_error(3, p, p)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.013387396491894219, abs=1e-14)

    def test_perfect_sensors(self):
        for n in (1, 3, 11):
            assert majority_vote_error(n, 0.0, 0.0) == 0.0

    def test_even_count_is_rejected(self):
        for n in (0, 2, 4, 100):
            with pytest.raises(PreconditionError, match="odd"):
                majority_vote_error(n, 0.1, 0.1)

    @given(
        n=st.sampled_from([1, 3, 5, 7, 9, 11]),
        p01=probs,
        p10=probs,
        prior0=probs,
    )
    @settings(max_examples=120)
    def test_matches_exhaustive_enumeration(self, n, p01, p10, prior0):
        priors = (prior0, 1 - prior0)
        got = majority_vote_error(n, p01, p10, priors)
        assert got == pytest.approx(exhaustive_majority_error(n, p01, p10, priors), abs=1e-12)

    def test_strictly_decreasing_for_informative_sensors(self):
        for p in (0.02, 0.1, 0.3, 0.45):
            values = [majority_vote_error(n, p, p) for n in range(1, 30, 2)]
            assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("priors", [(0.7, 0.7), (-0.5, 1.5)])
    def test_rejects_priors_that_are_not_a_distribution(self, priors):
        with pytest.raises(PreconditionError):
            majority_vote_error(3, 0.1, 0.2, priors)

    def test_log_space_path_matches_scipy_tail(self):
        from scipy.stats import binom

        for n, p in ((51, 0.07), (101, 0.2), (151, 0.41)):
            got = majority_vote_error(n, p, p)
            expected = binom.cdf(n // 2, n, 1 - p)
            assert got == pytest.approx(expected, rel=1e-12)


class TestFitDecayRate:
    def test_recovers_exact_exponential(self):
        points = [(n, math.exp(-0.75 * n)) for n in range(1, 16, 2)]
        assert fit_decay_rate(points) == pytest.approx(0.75, abs=1e-12)

    def test_constant_probability_gives_zero(self):
        points = [(n, 0.25) for n in range(1, 12, 2)]
        assert fit_decay_rate(points) == pytest.approx(0.0, abs=1e-12)

    def test_zero_probabilities_excluded(self):
        points = [(1, 0.1), (3, 0.01), (5, 0.001), (7, 0.0)]
        assert fit_decay_rate(points) == pytest.approx(
            fit_decay_rate(points[:3]), abs=1e-12
        )

    def test_too_few_points_rejected(self):
        with pytest.raises(PreconditionError):
            fit_decay_rate([(1, 0.1), (3, 0.01)])

    @pytest.mark.parametrize("points", [
        [(3, 0.01)] * 3,
        [(3, 0.01), (3, 0.02), (3, 0.03), (1, 0.0)],  # the point at another count is not usable
    ])
    def test_one_distinct_count_rejected(self, points):
        # three points at one count fix no slope (lstsq would return its minimum-norm solution)
        with pytest.raises(PreconditionError, match="distinct"):
            fit_decay_rate(points)

    def test_curve_alpha_in_reference_band(self):
        alpha = fit_decay_rate((n, majority_vote_error(n, P_SINGLE, P_SINGLE)) for n in range(1, 16, 2))
        assert 0.5 <= alpha <= 1.1
        assert alpha == pytest.approx(0.7426544537499663, abs=1e-10)


class TestSimulateClick:
    def test_certain_bright_state(self):
        minus = DensityMatrix2(np.diag([0.0, 1.0]).astype(complex))
        pair = povm_pair(helstrom_operator(POLE, minus))
        rng = np.random.default_rng(0)
        assert all(simulate_click(minus, pair, rng) for _ in range(200))

    def test_maximally_mixed_frequency(self):
        minus = DensityMatrix2(np.diag([0.0, 1.0]).astype(complex))
        pair = povm_pair(helstrom_operator(POLE, minus))
        rng = np.random.default_rng(1)
        mixed = DensityMatrix2(0.5 * IDENTITY_2)
        n = 10_000
        freq = sum(simulate_click(mixed, pair, rng) for _ in range(n)) / n
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_frequency_tracks_trace_within_three_sigma(self):
        rng_states = np.random.default_rng(7)
        minus = DensityMatrix2(np.diag([0.0, 1.0]).astype(complex))
        pair = povm_pair(helstrom_operator(POLE, minus))
        for case in range(5):
            v = rng_states.normal(size=3)
            v *= rng_states.uniform(0, 1) / np.linalg.norm(v)
            rho = DensityMatrix2(
                0.5
                * np.array(
                    [[1 + v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], 1 - v[2]]], dtype=complex
                )
            )
            p = float(np.trace(rho.matrix @ pair.pi1).real)
            n = 4000
            rng = np.random.default_rng(100 + case)
            freq = sum(simulate_click(rho, pair, rng) for _ in range(n)) / n
            sigma = math.sqrt(max(p * (1 - p), 1e-9) / n)
            assert abs(freq - p) <= 3.5 * sigma


def one_run(fields, noise, n_cycles, t_star, n_sensors, seed, t_cycle=None):
    """The run of ``seed``, at the cycle time the command line resolves:
    (t_cycle, its sensor clicks, majorities, estimated interval)."""
    t_cycle = t_cycle or PARAMS.transfer_time(fields.de)
    r0 = PreparationState.POLE_PLUS.bloch_vector
    (block,) = turn_on_blocks(fields, PARAMS, noise, r0, t_cycle, n_cycles, t_star, n_sensors, [seed])
    return t_cycle, block.bright[0], block.majority[0], block.intervals[0]


class TestTurnOnProtocol:
    FIELDS = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))

    def test_noise_free_interval_always_contains_switch_time(self):
        for frac in (0.0, 0.3, 1.0, 1.7, 2.5, 3.2, 4.9, 5.0):
            t_star = frac * TMIN_1E6
            t_cycle, _, _, interval = one_run(self.FIELDS, NoiseModel.none(), 7, t_star, 1, seed=5)
            assert interval is not None  # detected
            lo, hi = interval
            assert lo <= t_star <= hi
            assert hi - lo <= 2 * t_cycle + 1e-18

    def test_interior_switch_gives_two_cycle_window(self):
        t_cycle, _, _, interval = one_run(
            self.FIELDS, NoiseModel.electric(1e5), 8, 3.2 * TMIN_1E6, 15, seed=11
        )
        assert interval is not None
        lo, hi = interval
        assert hi - lo == pytest.approx(2 * t_cycle, rel=1e-12)
        assert lo <= 3.2 * TMIN_1E6 <= hi

    def test_switch_from_start_reads_bright(self):
        _, _, majority, interval = one_run(self.FIELDS, NoiseModel.electric(1e5), 6, 0.0, 15, seed=2)
        assert majority.all()
        assert interval is not None
        lo, hi = interval
        assert lo <= 0.0 <= hi

    def test_zero_switch_reports_no_detection(self):
        fields = FieldConfig(e0=(1e6, 0, 0), de=(0.0, 0.0, 0.0))
        _, _, _, interval = one_run(
            fields, NoiseModel.electric(1e5), 6, 2 * TMIN_1E6, 5, seed=3, t_cycle=TMIN_1E6
        )
        assert interval is None

    def test_switch_beyond_horizon_reports_no_detection(self):
        _, _, _, interval = one_run(
            self.FIELDS, NoiseModel.electric(1e5), 5, 50 * TMIN_1E6, 15, seed=4
        )
        assert interval is None

    def test_seeded_runs_reproduce_exactly(self):
        kwargs = dict(n_sensors=9, seed=123)
        _, bright_a, _, interval_a = one_run(
            self.FIELDS, NoiseModel.electric(1e5), 8, 2.6 * TMIN_1E6, **kwargs
        )
        _, bright_b, _, interval_b = one_run(
            self.FIELDS, NoiseModel.electric(1e5), 8, 2.6 * TMIN_1E6, **kwargs
        )
        assert np.array_equal(bright_a, bright_b)
        assert interval_a == interval_b

