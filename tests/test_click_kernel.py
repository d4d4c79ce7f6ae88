"""The vectorized click kernel of the turn-on protocol against numpy.

``_click_uniforms`` must reproduce, bit for bit, the first ``random()`` draw
of ``default_rng(SeedSequence(entropy=seed, spawn_key=(cycle, sensor)))``,
and every run of the ``ClickBlock`` arrays of ``turn_on_blocks`` must be
the transcript of ``oracles.reference_transcript``: a per-click loop built
from ``simulate_click`` and one such generator per sensor, with cycle states
and projectors from the oracle routes (4x4 superoperator, operator form of
the Helstrom measurement). If numpy ever changes SeedSequence,
PCG64 or ``Generator.random``, these tests fail instead of the protocol's
transcripts moving silently. The per-cycle bright probabilities must equal
the operator form's Tr(rho Pi1).
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nvdetect import (
    FieldConfig,
    NoiseModel,
    NvParameters,
    PreconditionError,
    PreparationState,
    evolve_pair_grid,
    helstrom_decision,
    turn_on_blocks,
)
from nvdetect import protocol
from nvdetect.config import ProtocolConfig
from nvdetect.errors import NumericalInvariantError
from nvdetect.protocol import _BLOCK_STREAMS, _click_uniforms, _cycle_bright_probabilities

from oracles import (
    density_matrix,
    helstrom_operator,
    min_error,
    povm_pair,
    reference_transcript,
    straddling_state,
)

PARAMS = NvParameters()
BOUNDARY_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 399]


def numpy_draw(seed, cycle, sensor):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(cycle, sensor))
    return np.random.default_rng(ss).random()


def assert_bitwise_equal(got, seeds, cycles, n_sensors):
    assert got.shape == (len(seeds), len(cycles), n_sensors)
    assert got.dtype == np.float64
    for i, seed in enumerate(seeds):
        for k, cycle in enumerate(cycles):
            for sensor in range(n_sensors):
                want = numpy_draw(seed, cycle, sensor)
                assert got[i, k, sensor].hex() == want.hex(), (seed, cycle, sensor)


class TestClickUniforms:
    @given(
        seeds=st.lists(st.integers(min_value=0, max_value=2**64 + 2**20), min_size=1, max_size=3),
        first_cycle=st.integers(min_value=0, max_value=2**32 - 4),
        n_cycles=st.integers(min_value=1, max_value=4),
        n_sensors=st.integers(min_value=1, max_value=40),
    )
    @example(seeds=BOUNDARY_SEEDS, first_cycle=0, n_cycles=3, n_sensors=4)
    @example(seeds=BOUNDARY_SEEDS, first_cycle=2**32 - 2, n_cycles=2, n_sensors=2)
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_bit_for_bit(self, seeds, first_cycle, n_cycles, n_sensors):
        cycles = range(first_cycle, first_cycle + n_cycles)
        assert_bitwise_equal(_click_uniforms(seeds, cycles, n_sensors), seeds, cycles, n_sensors)

    @pytest.mark.parametrize("seed", [2**96 - 1, 2**96, 2**128 - 1, 2**128 + 5, 2**200 + 3])
    def test_seeds_wider_than_the_pool(self, seed):
        seeds = [seed, 7]  # two entropy lengths in one call
        assert_bitwise_equal(_click_uniforms(seeds, range(2), 3), seeds, range(2), 3)

    def test_numpy_integer_seeds(self):
        seeds = [np.uint64(2**64 - 1), np.int64(12345)]
        assert_bitwise_equal(_click_uniforms(seeds, range(1), 2), [2**64 - 1, 12345], range(1), 2)

    def test_rejects_negative_seed_and_wide_indices(self):
        with pytest.raises(PreconditionError):
            _click_uniforms([-1], range(1), 1)
        with pytest.raises(PreconditionError):
            _click_uniforms([0], range(2**32, 2**32 + 1), 1)

    def test_empty_seed_list(self):
        assert _click_uniforms([], range(3), 2).shape == (0, 3, 2)


X_SWITCH = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
Y_SWITCH = FieldConfig(e0=(0, 0, 0), de=(0, 2e6, 0))
T_CYCLE = ProtocolConfig().cycle_time(X_SWITCH, PARAMS)
ELECTRIC = NoiseModel.electric(1e5)
POLE = PreparationState.POLE_PLUS

# (fields, noise, t_cycle, n_cycles, t_star, n_sensors, seeds, preparation); each
# t_cycle is the one the command line resolves, analytic unless configured
BATCH_CASES = {
    # two blocks of runs, a partial cycle at 3.2 cycles
    "interior_switch": (X_SWITCH, ELECTRIC, T_CYCLE, 8, 3.2 * T_CYCLE, 15, range(40), POLE),
    # the switch lands exactly on the start of cycle 3: no partial cycle
    "switch_on_cycle_boundary": (X_SWITCH, ELECTRIC, T_CYCLE, 6, 3 * T_CYCLE, 9, range(100, 130), POLE),
    "switch_at_zero": (X_SWITCH, ELECTRIC, T_CYCLE, 5, 0.0, 5, range(20), POLE),
    # priors (1, 0): Pi1 = 0, so p_bright = 0 in every cycle
    "p_bright_zero": (FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0), priors=(1.0, 0.0)), ELECTRIC,
                      T_CYCLE, 5, 2.5 * T_CYCLE, 7, range(10), POLE),
    # priors (0, 1): Pi1 = I, so p_bright = 1 in every cycle
    "p_bright_one": (FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0), priors=(0.0, 1.0)), ELECTRIC,
                     T_CYCLE, 5, 2.5 * T_CYCLE, 7, range(10), POLE),
    # noise-free: p_bright within 1e-16 of 0 in dark cycles and of 1 in bright ones
    "noise_free": (X_SWITCH, NoiseModel.none(), T_CYCLE, 6, 1.7 * T_CYCLE, 3, range(25), POLE),
    "one_sensor": (X_SWITCH, ELECTRIC, T_CYCLE, 7, 4.5 * T_CYCLE, 1, range(30), POLE),
    "even_sensors_tie": (X_SWITCH, ELECTRIC, T_CYCLE, 6, 2.2 * T_CYCLE, 4, range(30), POLE),
    # no analytic cycle time: the configured one
    "zero_switch": (FieldConfig(e0=(1e6, 0, 0), de=(0, 0, 0)), ELECTRIC, T_CYCLE, 5, 2 * T_CYCLE, 5,
                    range(10), POLE),
    "superposition_y_switch": (Y_SWITCH, NoiseModel.magnetic(1e5), ProtocolConfig().cycle_time(Y_SWITCH, PARAMS),
                               6, 2.6 * T_CYCLE, 5, range(15), PreparationState.EQUAL_SUPERPOSITION),
    "seeds_across_2_64": (X_SWITCH, ELECTRIC, T_CYCLE, 4, 1.5 * T_CYCLE, 5,
                          [2**64 - 2, 2**64 - 1, 2**64, 2**64 + 1, 0, 2**32], POLE),
    # more streams per run than one block holds: the cycles are split
    "cycles_split_across_blocks": (X_SWITCH, ELECTRIC, T_CYCLE, 300, 150.5 * T_CYCLE, 15, range(2), POLE),
}


def _call_args(case):
    fields, noise, t_cycle, n_cycles, t_star, n_sensors, seeds, preparation = BATCH_CASES[case]
    return fields, PARAMS, noise, t_cycle, n_cycles, t_star, n_sensors, seeds, preparation


class TestTurnOnBatch:
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_transcripts_match_per_click_loop(self, case):
        fields, noise, t_cycle, n_cycles, t_star, n_sensors, seeds, preparation = BATCH_CASES[case]
        blocks = list(turn_on_blocks(*_call_args(case)))
        assert [seed for block in blocks for seed in block.seeds] == list(seeds)
        for block in blocks:
            for i, seed in enumerate(block.seeds):
                want = reference_transcript(
                    fields, PARAMS, noise, t_cycle, n_cycles, t_star, n_sensors, seed, preparation
                )
                got = {
                    "bright": block.bright[i].tolist(),
                    "n_bright": block.n_bright[i].tolist(),
                    "majority": block.majority[i].tolist(),
                    "confident": block.confident[i].tolist(),
                    "interval": block.intervals[i],
                }
                for name, value in want.items():
                    assert got[name] == value, (case, seed, name)

    def test_cases_cover_certain_clicks_and_block_splits(self):
        assert not any(block.bright.any() for block in turn_on_blocks(*_call_args("p_bright_zero")))
        assert all(block.bright.all() for block in turn_on_blocks(*_call_args("p_bright_one")))
        _, _, _, n_cycles, _, n_sensors, seeds, _ = BATCH_CASES["cycles_split_across_blocks"]
        assert n_cycles * n_sensors > _BLOCK_STREAMS
        _, _, _, n_cycles, _, n_sensors, seeds, _ = BATCH_CASES["interior_switch"]
        assert len(seeds) * n_cycles * n_sensors > _BLOCK_STREAMS

    def test_runs_are_drawn_lazily(self):
        fields, params, noise, t_cycle, n_cycles, t_star, n_sensors, _, preparation = _call_args("interior_switch")
        endless = turn_on_blocks(
            fields, params, noise, t_cycle, n_cycles, t_star, n_sensors, itertools.count(5), preparation
        )
        block = next(endless)
        assert block.seeds[:3] == [5, 6, 7]
        assert len(block.seeds) * n_cycles * n_sensors <= _BLOCK_STREAMS

    def test_rejects_bad_arguments(self):
        for t_cycle, n_cycles, t_star, n_sensors, seeds in (
            (T_CYCLE, 8, -1e-9, 3, [0]),
            (T_CYCLE, 8, math.nan, 3, [0]),
            (T_CYCLE, 8, 0.0, 0, [0]),
            (T_CYCLE, 8, 0.0, 3, [-1]),
            (0.0, 8, 0.0, 3, [0]),
            (-1e-9, 8, 0.0, 3, [0]),
            (math.inf, 8, 0.0, 3, [0]),
            (math.nan, 8, 0.0, 3, [0]),
            (T_CYCLE, 0, 0.0, 3, [0]),
        ):
            with pytest.raises(PreconditionError):
                list(turn_on_blocks(X_SWITCH, PARAMS, ELECTRIC, t_cycle, n_cycles, t_star, n_sensors, seeds))

    def test_nan_bright_probability_breaches_before_any_click(self, monkeypatch):
        # a NaN compares False with every uniform, so it would click dark in
        # every draw; a norm check that let the straddling state's NaN pass
        # stands in for the propagator overflow that makes one
        monkeypatch.setattr(protocol, "check_bloch_norms", lambda r: np.full_like(r, math.nan))
        monkeypatch.setattr(protocol, "_click_uniforms", None)  # drawing would fail differently
        with pytest.raises(NumericalInvariantError, match="not finite"):
            turn_on_blocks(X_SWITCH, PARAMS, ELECTRIC, T_CYCLE, 8, 3.2 * T_CYCLE, 3, [0])

    def test_no_seeds_give_no_runs(self):
        assert list(turn_on_blocks(X_SWITCH, PARAMS, ELECTRIC, T_CYCLE, 8, 3.2 * T_CYCLE, 3, [])) == []


def test_cycle_time_is_the_analytic_optimum_or_the_configured_value():
    assert T_CYCLE == math.pi / (2.0 * abs(PARAMS.transverse_coupling((1e6, 0, 0))))
    assert ProtocolConfig(t_cycle=2e-7).cycle_time(X_SWITCH, PARAMS) == 2e-7
    with pytest.raises(PreconditionError):
        ProtocolConfig().cycle_time(FieldConfig(e0=(1e6, 0, 0), de=(0, 0, 0)), PARAMS)
    with pytest.raises(PreconditionError):  # pi / (2 |coupling|) overflows
        ProtocolConfig().cycle_time(FieldConfig(de=(1e-320, 0, 0)), PARAMS)


@st.composite
def turn_on_cells(draw):
    """A turn-on configuration: field pair, noise of each kind, preparation,
    priors from even to one-sided, an analytic or drawn cycle time, and a
    switch time anywhere from 0 to past the last cycle, often inside one.
    Cycles stay below 10 us, where the superoperator oracle holds 1e-12."""
    angle = st.floats(0.0, 2.0 * math.pi)
    e0 = draw(st.sampled_from([0.0, 1e5, 1e6])) * draw(st.floats(0.0, 1.0))
    e0 = (e0 * math.cos(draw(angle)), e0 * math.sin(draw(angle)), 0.0)
    de_mag, de_angle = draw(st.floats(2e5, 3e6)), draw(angle)  # analytic t_cycle <= 7.4 us
    de = (de_mag * math.cos(de_angle), de_mag * math.sin(de_angle), 0.0)
    p0 = draw(st.sampled_from([0.5, 0.3, 0.7, 0.05, 0.95, 0.0, 1.0]))
    fields = FieldConfig(e0=e0, de=de, b_z=draw(st.sampled_from([0.0, 4e-6, -2e-5])),
                         priors=(p0, 1.0 - p0))
    rate = draw(st.floats(0.0, 3e5))
    noise = draw(st.sampled_from([NoiseModel.electric(rate), NoiseModel.magnetic(rate),
                                  NoiseModel.none()]))
    t_cycle = draw(st.one_of(st.none(), st.floats(1e-8, 3e-6)))
    proto = ProtocolConfig(t_cycle=t_cycle, n_cycles=draw(st.integers(1, 10)))
    frac = draw(st.one_of(st.floats(0.0, proto.n_cycles + 1.0),
                          st.integers(0, proto.n_cycles + 1).map(float)))
    t_star = frac * proto.cycle_time(fields, PARAMS)
    preparation = draw(st.sampled_from(list(PreparationState)))
    return fields, noise, proto, t_star, preparation


#: (fields, noise, protocol config, t_star, preparation) of each decision regime
TURN_ON_CELLS = {
    # two-sided decision with skewed priors; the switch straddles cycle 2
    "straddle_skewed": (FieldConfig(de=(1e6, 0.0, 0.0), priors=(0.3, 0.7)), ELECTRIC,
                        ProtocolConfig(n_cycles=5), 2.5 * T_CYCLE, POLE),
    # lambda_minus >= 0: Pi1 = I
    "pi1_identity": (FieldConfig(de=(1e6, 0.0, 0.0), priors=(0.0, 1.0)), ELECTRIC,
                     ProtocolConfig(n_cycles=4), 1.5 * T_CYCLE, POLE),
    # lambda_plus < 0: Pi1 = 0
    "pi1_zero": (FieldConfig(de=(1e6, 0.0, 0.0), priors=(0.95, 0.05)), ELECTRIC,
                 ProtocolConfig(n_cycles=4), 1.5 * T_CYCLE, POLE),
}


def test_example_cells_cover_the_three_decisions():
    regimes = {}
    for name, (fields, noise, proto, t_star, preparation) in TURN_ON_CELLS.items():
        t_cycle = proto.cycle_time(fields, PARAMS)
        r_dark, r_bright = evolve_pair_grid(
            fields, PARAMS, noise, preparation.density_matrix(), [t_cycle]
        )
        dec = helstrom_decision(r_dark, r_bright, fields.priors)
        regimes[name] = ("pi1_identity" if dec.all_pi1[0] else
                         "pi1_zero" if dec.all_pi0[0] else "straddle_skewed")
        assert 0 < t_star % t_cycle and t_star < proto.n_cycles * t_cycle  # a straddled cycle
    assert regimes == {name: name for name in TURN_ON_CELLS}


@given(turn_on_cells())
@example(TURN_ON_CELLS["straddle_skewed"])
@example(TURN_ON_CELLS["pi1_identity"])
@example(TURN_ON_CELLS["pi1_zero"])
@settings(max_examples=100, deadline=None)
def test_cycle_bright_probabilities_are_the_operator_form_trace(cell):
    fields, noise, proto, t_star, preparation = cell
    t_cycle = proto.cycle_time(fields, PARAMS)
    rho_init = preparation.density_matrix()
    p_cycle, informative = _cycle_bright_probabilities(
        fields, PARAMS, noise, t_cycle, proto.n_cycles, t_star, preparation
    )
    # the oracle decides between the package's states at t_cycle, so only the
    # decision is compared there; the straddled cycle comes from the superoperator
    r_dark, r_bright = evolve_pair_grid(fields, PARAMS, noise, rho_init, [t_cycle])
    rho_dark, rho_bright = density_matrix(r_dark[0]), density_matrix(r_bright[0])
    dec = helstrom_operator(rho_dark, rho_bright, fields.priors)
    # Rounding alone picks Pi1 where an eigenvalue is within rounding of zero
    # or, for a two-sided decision, where |v| = lambda_plus - lambda_minus is
    # so small that its direction is rounding (e.g. a state the switch does
    # not move); both forms are right there and need not agree.
    one_sided = dec.lambda_minus >= 0.0 or dec.lambda_plus < 0.0
    assume(min(abs(dec.lambda_plus), abs(dec.lambda_minus)) >= 1e-9)
    assume(one_sided or dec.lambda_plus - dec.lambda_minus >= 1e-4)
    pi1 = povm_pair(dec).pi1
    assert informative == (min_error(rho_dark, rho_bright, fields.priors).p_err < 0.5 - 1e-6)
    for cycle, p in enumerate(p_cycle):
        t_start, t_end = cycle * t_cycle, (cycle + 1) * t_cycle
        if t_star >= t_end:
            rho = rho_dark
        elif t_star <= t_start:
            rho = rho_bright
        else:
            rho = straddling_state(fields, PARAMS, noise, rho_init, t_start, t_end, t_star)
        want = min(max(float(np.trace(rho.matrix @ pi1).real), 0.0), 1.0)
        assert abs(p - want) <= 1e-12, (cycle, p, want)
