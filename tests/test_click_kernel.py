"""The click draws of the turn-on protocol against numpy.

Run i of ``turn_on_blocks`` must draw its clicks from one generator,
``default_rng(seeds[i])``, cycle-major, and every run of its ``ClickBlock``
arrays must be the transcript of ``oracles.reference_transcript``: a
per-click loop built from ``simulate_click`` on that generator, with cycle
states and projectors from the oracle routes (4x4 superoperator, operator
form of the Helstrom measurement). The per-cycle bright probabilities must
equal the operator form's Tr(rho Pi1).
"""
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nvdetect import (
    ConfigError,
    FieldConfig,
    NoiseModel,
    NvParameters,
    PreconditionError,
    PreparationState,
    helstrom_decision,
    turn_on_blocks,
)
from nvdetect import cli, protocol
from nvdetect import config as config_mod
from nvdetect.config import ProtocolConfig
from nvdetect.dynamics import bloch_generators, evolve_bloch
from nvdetect.errors import NumericalInvariantError
from nvdetect.linalg import expm_batch
from nvdetect.protocol import _cycle_bright_probabilities, _intervals

from oracles import (
    bracket,
    density_matrix,
    helstrom_operator,
    min_error,
    povm_pair,
    prepared_state,
    reference_transcript,
    straddling_state,
)

PARAMS = NvParameters()


X_SWITCH = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
Y_SWITCH = FieldConfig(e0=(0, 0, 0), de=(0, 2e6, 0))
T_CYCLE = PARAMS.transfer_time(X_SWITCH.de)
ELECTRIC = NoiseModel.electric(1e5)
POLE = PreparationState.POLE_PLUS
R_POLE = POLE.bloch_vector

# (fields, noise, t_cycle, n_cycles, t_star, n_sensors, seeds, preparation); each
# t_cycle is the one the command line resolves, analytic unless configured. The tests that draw
# every case draw them in blocks of the split_blocks fixture's bound (conftest.py), which
# interior_switch and cycles_split_across_blocks cross
BATCH_CASES = {
    # two blocks of runs at the split_blocks bound, a partial cycle at 3.2 cycles
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
    "superposition_y_switch": (Y_SWITCH, NoiseModel.magnetic(1e5), PARAMS.transfer_time(Y_SWITCH.de),
                               6, 2.6 * T_CYCLE, 5, range(15), PreparationState.EQUAL_SUPERPOSITION),
    "seeds_across_2_64": (X_SWITCH, ELECTRIC, T_CYCLE, 4, 1.5 * T_CYCLE, 5,
                          [2**64 - 2, 2**64 - 1, 2**64, 2**64 + 1, 0, 2**32], POLE),
    # more clicks per run than one block of the split_blocks bound holds: the cycles are split
    "cycles_split_across_blocks": (X_SWITCH, ELECTRIC, T_CYCLE, 300, 150.5 * T_CYCLE, 15, range(2), POLE),
}


def _call_args(case):
    """The arguments of ``turn_on_blocks`` for a case of BATCH_CASES."""
    fields, noise, t_cycle, n_cycles, t_star, n_sensors, seeds, preparation = BATCH_CASES[case]
    return fields, PARAMS, noise, preparation.bloch_vector, t_cycle, n_cycles, t_star, n_sensors, seeds


def assert_runs_draw_one_generator_each(fields, noise, t_cycle, n_cycles, t_star, n_sensors, seeds,
                                        preparation, want_seeds=None):
    """Each run's clicks are ``default_rng(seed).random((n_cycles, n_sensors))``
    below the cycle's bright probability, bit for bit."""
    r0 = preparation.bloch_vector
    p_cycle, _ = _cycle_bright_probabilities(fields, PARAMS, noise, r0, t_cycle, n_cycles, t_star)
    blocks = list(turn_on_blocks(fields, PARAMS, noise, r0, t_cycle, n_cycles, t_star, n_sensors, seeds))
    bright = np.concatenate([block.bright for block in blocks])
    want_seeds = list(seeds) if want_seeds is None else want_seeds
    assert bright.shape == (len(want_seeds), n_cycles, n_sensors)
    for run, seed in zip(bright, want_seeds):
        uniforms = np.random.default_rng(seed).random((n_cycles, n_sensors))
        np.testing.assert_array_equal(run, uniforms < p_cycle[:, None], err_msg=str(seed))


class TestClickUniforms:
    """The uniforms behind the clicks: one numpy generator per run, drawn
    cycle-major."""

    @pytest.mark.usefixtures("split_blocks")
    def test_matches_numpy_bit_for_bit(self):
        for case in BATCH_CASES.values():
            assert_runs_draw_one_generator_each(*case)

    @pytest.mark.parametrize("seed", [2**96 - 1, 2**96, 2**128 - 1, 2**128 + 5, 2**200 + 3])
    def test_seeds_wider_than_the_pool(self, seed):
        # seeds of more than four 32-bit words, next to a one-word seed
        assert_runs_draw_one_generator_each(X_SWITCH, ELECTRIC, T_CYCLE, 3, 1.5 * T_CYCLE, 5,
                                            [seed, 7], POLE)

    def test_numpy_integer_seeds(self):
        seeds = [np.uint64(2**64 - 1), np.int64(12345)]
        assert_runs_draw_one_generator_each(X_SWITCH, ELECTRIC, T_CYCLE, 4, 1.5 * T_CYCLE, 5, seeds,
                                            POLE, want_seeds=[2**64 - 1, 12345])

    @pytest.mark.usefixtures("split_blocks")
    def test_more_cycles_keep_the_first_ones(self):
        # the same seeds and switch over 8 and over 12 cycles: the first 8 agree
        fields, params, noise, r0, t_cycle, _, t_star, n_sensors, seeds = _call_args("interior_switch")
        short, long = (
            list(turn_on_blocks(fields, params, noise, r0, t_cycle, n_cycles, t_star, n_sensors, seeds))
            for n_cycles in (8, 12)
        )
        for name in ("bright", "n_bright", "majority", "confident"):
            got = np.concatenate([getattr(block, name) for block in short])
            want = np.concatenate([getattr(block, name) for block in long])[:, :8]
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_one_click_runs_are_drawn_in_blocks_of_at_most_block_runs(self):
        # 4,099 runs of one click are 4,099 clicks, but two blocks: the runs bound the block
        fields, params, noise, r0, t_cycle, _, t_star, _, _ = _call_args("interior_switch")
        seeds = range(protocol._BLOCK_RUNS + 3)
        blocks = turn_on_blocks(fields, params, noise, r0, t_cycle, 1, t_star, 1, seeds)
        assert [len(block.seeds) for block in blocks] == [protocol._BLOCK_RUNS, 3]
        assert_runs_draw_one_generator_each(fields, noise, t_cycle, 1, t_star, 1, seeds, POLE)

    def test_importing_the_command_line_leaves_numpy_random_unloaded(self):
        # numpy.random is loaded on the first draw: importing it with the
        # package would add its import time to every invocation's start-up
        src = str(Path(protocol.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, nvdetect.cli; sys.exit('numpy.random' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


#: non-negative seeds of every width up to 300 bits, the word and pool boundaries among them,
#: and numpy integers
SEEDS = st.one_of(
    st.integers(0, 300).flatmap(lambda bits: st.integers(0, 2**bits - 1)),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**300 - 1]),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 2**63 - 1).map(np.int64),
)


class TestBlockSeeding:
    """The block seeding of the click draws against numpy's own."""

    @settings(max_examples=300, deadline=None)
    @given(seeds=st.lists(SEEDS, min_size=1, max_size=40))
    @example(seeds=[0])
    @example(seeds=[2**300 - 1, 0, 2**128, 2**128 - 1, 2**160, 5])  # widths mixed in one block
    @example(seeds=[2**128 - 1, 0])  # four words: no per-seed bit lengths
    @example(seeds=[2**128, 0, 1])  # five words, for one seed
    def test_states_are_default_rngs(self, seeds):
        want = [np.random.default_rng(seed).bit_generator.state for seed in seeds]
        states, incs = protocol._pcg64_states(seeds)
        assert [{"state": s, "inc": inc} for s, inc in zip(states, incs)] == [w["state"] for w in want]

    def test_a_seeding_that_is_not_numpys_breaches(self, monkeypatch):
        # a changed multiplier stands in for a numpy whose seeding no longer matches
        monkeypatch.setattr(protocol, "_PCG_MULT", protocol._PCG_MULT + 2)
        with pytest.raises(NumericalInvariantError, match="default_rng"):
            next(turn_on_blocks(*_call_args("interior_switch")))

    def test_every_block_is_checked_against_numpy(self, monkeypatch):
        # 600 runs of 120 clicks are blocks of 273, 273 and 54 runs; only the second block's first
        # state is off, so only a check of that block sees it
        pcg64_states, sizes = protocol._pcg64_states, []

        def second_off(seeds):
            states, incs = pcg64_states(seeds)
            sizes.append(len(states))
            if len(sizes) == 2:
                states[0] += 2
            return states, incs

        monkeypatch.setattr(protocol, "_pcg64_states", second_off)
        *args, _ = _call_args("interior_switch")
        with pytest.raises(NumericalInvariantError, match="default_rng"):
            list(turn_on_blocks(*args, range(600)))
        assert sizes == [273, 273]

    @pytest.mark.parametrize("case", ["interior_switch", "cycles_split_across_blocks"])
    def test_uniforms_are_drawn_into_one_bounded_buffer(self, case, monkeypatch, split_blocks):
        generator, buffers = np.random.Generator, set()

        class Recording:  # the one generator of a call, recording the buffer it draws into
            def __init__(self, bitgen):
                self.rng = generator(bitgen)

            def random(self, out):
                buffers.add((id(out.base), out.base.size))
                return self.rng.random(out=out)

        monkeypatch.setattr(np.random, "Generator", Recording)
        list(turn_on_blocks(*_call_args(case)))
        assert len(buffers) == 1 and next(iter(buffers))[1] <= split_blocks


@st.composite
def votes(draw):
    """(majority, confident) of a block: two boolean (runs, cycles) arrays."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 12)))
    return draw(arrays(bool, shape)), draw(arrays(bool, shape))


def one_run_votes(majority, confident):
    return np.array([majority]), np.array([confident])


# one run each: all dark; nothing confident; bright in cycle 0; a confident
# dark cycle 0 and the first confident bright cycle 5, six cycles apart (clip)
ALL_DARK = one_run_votes([False] * 6, [True] * 6)
NOTHING_CONFIDENT = one_run_votes([True, False, True, True], [False] * 4)
BRIGHT_IN_CYCLE_0 = one_run_votes([True, False, True], [True, True, True])
WIDE_GAP = one_run_votes([False, True, True, True, True, True],
                         [True, False, False, False, False, True])


class TestBracketing:
    """The block bracketing of ``turn_on_blocks`` against ``oracles.bracket``,
    the per-run loop in Python floats."""

    @settings(max_examples=300, deadline=None)
    @given(
        votes=votes(),
        t_cycle=st.one_of(
            st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
            st.sampled_from([T_CYCLE, 0.1, 3.0, 1e308, 5e-324]),
        ),
    )
    @example(votes=ALL_DARK, t_cycle=T_CYCLE)
    @example(votes=NOTHING_CONFIDENT, t_cycle=T_CYCLE)
    @example(votes=BRIGHT_IN_CYCLE_0, t_cycle=T_CYCLE)
    @example(votes=WIDE_GAP, t_cycle=T_CYCLE)
    @example(votes=WIDE_GAP, t_cycle=1e308)  # hi and lo overflow to inf, as Python floats do
    # no confident dark cycle and hi = 2 t = inf: max(0.0, inf - inf) is 0.0, not NaN
    @example(votes=one_run_votes([False, True], [False, True]), t_cycle=1e308)
    def test_block_bracketing_is_the_per_run_oracle(self, votes, t_cycle):
        majority, confident = votes
        got = _intervals(majority, confident, t_cycle)
        want = [bracket(m, c, t_cycle) for m, c in zip(majority.tolist(), confident.tolist())]
        assert got == want  # floats compared by ==
        assert all(type(x) is float for interval in got if interval for x in interval)

    def test_the_named_cases_take_their_branches(self):
        assert _intervals(*ALL_DARK, 0.5) == [None]
        assert _intervals(*NOTHING_CONFIDENT, 0.5) == [None]
        assert _intervals(*BRIGHT_IN_CYCLE_0, 0.5) == [(0.0, 0.5)]
        # [0, 6t] with t = 0.5 is centred at 1.5: clipped to [2t, 4t]
        assert _intervals(*WIDE_GAP, 0.5) == [(1.0, 2.0)]


class TestTurnOnBatch:
    @pytest.mark.usefixtures("split_blocks")
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

    def test_cases_cover_certain_clicks_and_block_splits(self, split_blocks):
        assert not any(block.bright.any() for block in turn_on_blocks(*_call_args("p_bright_zero")))
        assert all(block.bright.all() for block in turn_on_blocks(*_call_args("p_bright_one")))
        _, _, _, n_cycles, _, n_sensors, seeds, _ = BATCH_CASES["cycles_split_across_blocks"]
        assert n_cycles * n_sensors > split_blocks
        _, _, _, n_cycles, _, n_sensors, seeds, _ = BATCH_CASES["interior_switch"]
        assert len(seeds) * n_cycles * n_sensors > split_blocks
        assert len(list(turn_on_blocks(*_call_args("interior_switch")))) > 1

    def test_runs_are_drawn_lazily(self):
        fields, params, noise, r0, t_cycle, n_cycles, t_star, n_sensors, _ = _call_args("interior_switch")
        endless = turn_on_blocks(
            fields, params, noise, r0, t_cycle, n_cycles, t_star, n_sensors, itertools.count(5)
        )
        block = next(endless)
        assert block.seeds[:3] == [5, 6, 7]
        assert len(block.seeds) * n_cycles * n_sensors <= protocol._BLOCK_STREAMS

    def test_a_default_invocation_is_one_block(self):
        # the 200 runs of the default configuration are drawn, seeded and bracketed at once
        config = config_mod.parse({})
        t_cycle, _ = cli._cycle_time(config)
        proto = config.protocol
        blocks = list(turn_on_blocks(
            config.fields, config.parameters, config.noise, config.preparation.bloch_vector, t_cycle,
            proto.n_cycles, 3.2 * t_cycle, proto.n_sensors, range(config.seed, config.seed + proto.n_runs),
        ))
        assert len(blocks) == 1 and len(blocks[0].seeds) == proto.n_runs == 200

    def test_one_cycle_of_the_widest_accepted_run_fits_one_block(self):
        assert config_mod.MAX_PROTOCOL_SENSORS <= protocol._BLOCK_STREAMS

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
                list(turn_on_blocks(X_SWITCH, PARAMS, ELECTRIC, R_POLE, t_cycle, n_cycles, t_star, n_sensors,
                                    seeds))

    def test_nan_bright_probability_breaches_before_any_click(self, monkeypatch):
        # a NaN compares False with every uniform, so it would click dark in
        # every draw; a norm check that let the straddling state's NaN pass
        # stands in for the propagator overflow that makes one
        monkeypatch.setattr(protocol, "check_bloch_norms", lambda r: np.full_like(r, math.nan))
        monkeypatch.setattr(np.random, "PCG64", None)  # drawing would fail differently
        with pytest.raises(NumericalInvariantError, match="not finite"):
            turn_on_blocks(X_SWITCH, PARAMS, ELECTRIC, R_POLE, T_CYCLE, 8, 3.2 * T_CYCLE, 3, [0])

    def test_no_seeds_give_no_runs(self):
        blocks = turn_on_blocks(X_SWITCH, PARAMS, ELECTRIC, R_POLE, T_CYCLE, 8, 3.2 * T_CYCLE, 3, [])
        assert list(blocks) == []


def test_cycle_time_is_the_analytic_optimum_or_the_configured_value():
    t_cycle, _ = cli._cycle_time(config_mod.parse({"fields": {"de": [1e6, 0, 0]}}))
    assert t_cycle == T_CYCLE == math.pi / (2.0 * abs(PARAMS.transverse_coupling((1e6, 0, 0))))
    assert cli._cycle_time(config_mod.parse({"protocol": {"t_cycle": 2e-7}})) == (2e-7, "protocol.t_cycle")
    with pytest.raises(ConfigError, match=r"^fields\.de: "):
        cli._cycle_time(config_mod.parse({"fields": {"e0": [1e6, 0, 0], "de": [0, 0, 0]}}))
    with pytest.raises(ConfigError, match=r"^fields\.de: "):  # pi / (2 |coupling|) overflows
        cli._cycle_time(config_mod.parse({"fields": {"de": [1e-320, 0, 0]}}))


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
    t_star = frac * (proto.t_cycle or PARAMS.transfer_time(fields.de))
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
        t_cycle = PARAMS.transfer_time(fields.de)
        gens = bloch_generators(fields, PARAMS, noise)
        r_dark, r_bright = evolve_bloch(gens, preparation.bloch_vector, [t_cycle])
        dec = helstrom_decision(r_dark, r_bright, fields.priors)
        regimes[name] = ("pi1_identity" if dec.all_pi1[0] else
                         "pi1_zero" if dec.all_pi0[0] else "straddle_skewed")
        assert 0 < t_star % t_cycle and t_star < proto.n_cycles * t_cycle  # a straddled cycle
    assert regimes == {name: name for name in TURN_ON_CELLS}


@pytest.mark.parametrize("name", sorted(TURN_ON_CELLS))
def test_cycle_maps_are_one_exponential_stack(name, monkeypatch):
    # one expm_batch call makes the maps of the states at t_cycle and of the straddled cycle, and
    # the states equal those of evolve_bloch and of a two-matrix stack bit for bit
    fields, noise, proto, t_star, preparation = TURN_ON_CELLS[name]
    t_cycle = PARAMS.transfer_time(fields.de)
    stacks, checked = [], []
    monkeypatch.setattr(protocol, "expm_batch", lambda a: (stacks.append(a), expm_batch(a))[1])
    monkeypatch.setattr(protocol, "check_bloch_norms", lambda r: (checked.append(r), r)[1])
    r_init = preparation.bloch_vector
    _cycle_bright_probabilities(fields, PARAMS, noise, r_init, t_cycle, proto.n_cycles, t_star)
    assert len(stacks) == 1 and len(checked) == 1

    r_dark, r_bright = evolve_bloch(bloch_generators(fields, PARAMS, noise), r_init, [t_cycle])
    c = int(t_star // t_cycle)  # the straddled cycle
    maps = expm_batch(bloch_generators(fields, PARAMS, noise)
                      * np.array([t_star - c * t_cycle, (c + 1) * t_cycle - t_star])[:, None, None])
    straddled = maps[1] @ maps[0] @ np.array(r_init)
    want = [r_dark[:, 0], r_bright[:, 0]] + [r_dark[:, 0]] * c + [straddled]
    want += [r_bright[:, 0]] * (proto.n_cycles - c - 1)
    assert checked[0].shape == (3, 2 + proto.n_cycles)  # dark, bright, then each cycle
    assert checked[0].tobytes() == np.column_stack(want).tobytes()


@given(turn_on_cells())
@example(TURN_ON_CELLS["straddle_skewed"])
@example(TURN_ON_CELLS["pi1_identity"])
@example(TURN_ON_CELLS["pi1_zero"])
@settings(max_examples=100, deadline=None)
def test_cycle_bright_probabilities_are_the_operator_form_trace(cell):
    fields, noise, proto, t_star, preparation = cell
    t_cycle = proto.t_cycle or PARAMS.transfer_time(fields.de)
    rho_init = prepared_state(preparation)
    p_cycle, informative = _cycle_bright_probabilities(
        fields, PARAMS, noise, preparation.bloch_vector, t_cycle, proto.n_cycles, t_star
    )
    # the oracle decides between the package's states at t_cycle, so only the
    # decision is compared there; the straddled cycle comes from the superoperator
    gens = bloch_generators(fields, PARAMS, noise)
    r_dark, r_bright = evolve_bloch(gens, preparation.bloch_vector, [t_cycle])
    rho_dark, rho_bright = density_matrix(r_dark[:, 0]), density_matrix(r_bright[:, 0])
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
