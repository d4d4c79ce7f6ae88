"""Multi-sensor fusion, stochastic readout, and the field turn-on protocol.

Majority voting over N identical sensors suppresses the single-measurement
error exponentially; the turn-on protocol repeats the static-field
measurement on a refreshed sensor every cycle and brackets the switch time
from the dark-to-bright transition of the fused record. Its one entry point
is :func:`turn_on_blocks`, which yields the runs as :class:`ClickBlock`
arrays.

Random streams: run i draws its clicks from the stream of
``numpy.random.default_rng(seeds[i])``, cycle-major: the click of cycle c
(0-based) and sensor s is bright when draw ``c * n_sensors + s`` of that
stream falls below the cycle's bright probability. The streams of a block of
runs are seeded at once (:func:`_pcg64_states`) and drawn by one reused
generator; each call checks its first run's seeding against ``default_rng``
and raises NumericalInvariantError on a mismatch. Transcripts are
reproducible, runs are independent, and a run's first cycles do not depend
on ``n_cycles``; a sensor's clicks do depend on ``n_sensors``. numpy.random
is imported when the first run is drawn, not with the package.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .discrimination import min_error_grid
from .dynamics import bloch_generators
from .errors import NumericalInvariantError, PreconditionError
from .hamiltonian import FieldConfig, NoiseModel, NvParameters, _checked_priors
from .linalg import check_bloch_norms, expm_batch


def majority_vote_error(
    n_sensors: int,
    p01: float,
    p10: float,
    priors: tuple[float, float] = (0.5, 0.5),
) -> float:
    """Fused error probability when more than half of n_sensors vote "field".

    p01 is the per-sensor dark count Tr(rho0 Pi1), p10 the per-sensor false
    negative Tr(rho1 Pi0). The count must be odd, so that every vote has a
    majority. Binomial sums switch to log space above n = 50 to avoid
    underflow.
    """
    if n_sensors < 1 or n_sensors % 2 == 0:
        raise PreconditionError(f"n_sensors must be an odd integer >= 1, got {n_sensors!r}")
    for name, p in (("p01", p01), ("p10", p10)):
        if not 0.0 <= p <= 1.0:
            raise PreconditionError(f"{name} must be in [0, 1], got {p!r}")
    p0, p1 = _checked_priors(priors)

    def tail(p_wrong: float) -> float:
        # probability that at most floor(N/2) sensors vote correctly
        if p_wrong == 0.0:
            return 0.0
        if p_wrong == 1.0:
            return 1.0
        half = n_sensors // 2
        if n_sensors <= 50:
            return sum(
                math.comb(n_sensors, k) * (1.0 - p_wrong) ** k * p_wrong ** (n_sensors - k)
                for k in range(half + 1)
            )
        log_terms = [
            math.lgamma(n_sensors + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n_sensors - k + 1)
            + k * math.log1p(-p_wrong)
            + (n_sensors - k) * math.log(p_wrong)
            for k in range(half + 1)
        ]
        peak = max(log_terms)
        return math.exp(peak) * sum(math.exp(lt - peak) for lt in log_terms)

    return p0 * tail(p01) + p1 * tail(p10)


def fit_decay_rate(points) -> float:
    """Least-squares slope of -ln(p) versus odd sensor count.

    Zero (or negative) probabilities are excluded; at least three usable
    odd-count points are required, at two or more distinct counts (one count
    alone has no slope).
    """
    usable = [(int(n), float(p)) for n, p in points if p > 0.0 and int(n) % 2 == 1]
    if len(usable) < 3 or len({n for n, _ in usable}) < 2:
        raise PreconditionError("need at least 3 odd-count points with p > 0, at 2 or more distinct counts")
    ns = np.array([n for n, _ in usable], dtype=float)
    logs = np.array([-math.log(p) for _, p in usable])
    design = np.column_stack([ns, np.ones_like(ns)])
    (slope, _), *_ = np.linalg.lstsq(design, logs, rcond=None)
    return float(slope)


#: Clicks drawn per block of runs; bounds the drawn uniforms (256 KB) whatever n_runs is (a run
#: with more clicks is drawn in cycle slices of at most this many). The smallest power of two that
#: holds a default invocation, 200 runs x 8 cycles x 15 sensors, so it is drawn as one block.
_BLOCK_STREAMS = 2**15
#: Runs per block at most: a block holds Python objects per run (its seed and interval), so runs
#: of fewer than 8 clicks are drawn in blocks of fewer than _BLOCK_STREAMS clicks.
_BLOCK_RUNS = 2**12


class ClickBlock(NamedTuple):
    """Consecutive runs of the turn-on protocol, drawn together.

    ``bright[i, c, s]`` is the click of sensor s in cycle c of the run with
    seed ``seeds[i]``. ``n_bright``, ``majority`` and ``confident`` are the
    (runs, cycles) per-cycle votes, and ``intervals`` holds each run's
    estimated switch interval (None without a confident bright cycle, and
    for every run when the switch is not informative).
    """

    seeds: list[int]
    bright: np.ndarray
    n_bright: np.ndarray
    majority: np.ndarray
    confident: np.ndarray
    intervals: list[tuple[float, float] | None]


def turn_on_blocks(
    fields: FieldConfig,
    params: NvParameters,
    noise: NoiseModel,
    r0,
    t_cycle: float,
    n_cycles: int,
    true_t_star: float,
    n_sensors: int,
    seeds,
) -> Iterator[ClickBlock]:
    """Run the turn-on detection protocol once per seed, as blocks of runs.

    Each run has ``n_cycles`` cycles of length ``t_cycle`` (positive and
    finite; the command line resolves it with ``cli._cycle_time``),
    and the field switches at ``true_t_star``. Cycle k covers
    [(k-1) t_cycle, k t_cycle]: a fresh sensor is prepared in the Bloch
    vector ``r0`` at the cycle start and read out at its end with the projector pair of the static-field
    problem at t_cycle. The sensor is never kept across cycles, which would
    need measurement back-action bookkeeping this model does not include.
    The per-cycle majority vote is "confident" when its margin is at least two votes (the single vote
    counts when n_sensors = 1); the estimated switch interval runs from the
    start of the last confident dark cycle to the end of the first confident
    bright cycle, clipped symmetrically to a width of two cycles.

    The cycle physics (bright probability per cycle, the informative flag)
    depends only on the configuration and is computed once, by this call.
    The returned iterator draws the runs lazily, one :class:`ClickBlock` of
    at most ``_BLOCK_STREAMS`` = 32,768 clicks and ``_BLOCK_RUNS`` = 4,096
    runs at a time (a run whose clicks exceed that is drawn in cycle slices
    of its one stream but still yielded whole), so a consumer that handles
    each block and drops it holds one block whatever the number of seeds;
    the 200 runs of the default configuration are one block. A seed must be
    a non-negative integer.
    """
    if not 0.0 < t_cycle < math.inf:
        raise PreconditionError(f"t_cycle must be positive and finite, got {t_cycle!r}")
    if n_cycles < 1:
        raise PreconditionError("n_cycles must be >= 1")
    if not true_t_star >= 0.0:
        raise PreconditionError("true_t_star must be >= 0")
    if n_sensors < 1:
        raise PreconditionError("n_sensors must be >= 1")
    p_cycle, informative = _cycle_bright_probabilities(
        fields, params, noise, r0, t_cycle, n_cycles, true_t_star
    )
    return _click_blocks(p_cycle, informative, t_cycle, n_sensors, iter(seeds))


def _cycle_bright_probabilities(fields, params, noise, r0, t_cycle, n_cycles, true_t_star):
    """The bright probability of the readout at the end of every cycle, and
    whether the switch is informative at all.

    A cycle that ends by t* holds the baseline state at t_cycle, one that
    starts at or after t* the switched state; the one cycle that straddles
    t* maps the prepared state r0 by the baseline generator up to t* and by the
    switched one after it (noise axis following the active field). Every
    readout uses the Helstrom measurement of the static problem at t_cycle,
    so its bright probability is Tr(rho Pi1) of that one decision, clipped
    to [0, 1]; readout is treated as instantaneous relative to the spin
    dynamics. The maps of the states at t_cycle and of the straddling cycle
    are one ``expm_batch`` stack; the decision comes from the states at
    t_cycle, then one Bloch-norm check covers every state. Returns the
    (n_cycles,) bright probabilities and the
    informative flag (p_err < 1/2 - 1e-6); a probability that is not finite
    raises NumericalInvariantError.
    """
    gens = bloch_generators(fields, params, noise)
    edges = np.arange(n_cycles + 1) * t_cycle  # cycle c covers [edges[c], edges[c + 1]]
    dark, bright = true_t_star >= edges[1:], true_t_star <= edges[:-1]
    straddled = np.flatnonzero(~dark & ~bright)  # at most one cycle
    # (M0, M1) times (t_cycle, t_cycle), then the straddled cycle's (t* - start, end - t*)
    times = np.concatenate([[t_cycle, t_cycle], true_t_star - edges[straddled],
                            edges[straddled + 1] - true_t_star])
    maps = expm_batch(gens * times.reshape(-1, 2)[..., None, None])
    r_cycle = (maps[0] @ r0).T  # the baseline and switched states at t_cycle, rows x, y, z
    r_cycles = np.where(dark, r_cycle[:, :1], r_cycle[:, 1:])
    if straddled.size:
        r_cycles[:, straddled[0]] = maps[1, 1] @ maps[1, 0] @ r0
    curve = min_error_grid(r_cycle[:, :1], r_cycle[:, 1:], fields.priors)
    checked = check_bloch_norms(np.concatenate([r_cycle, r_cycles], axis=1))
    p_cycle = curve.decision.bright_probability(checked[:, 2:])
    if not np.all(np.isfinite(p_cycle)):  # a NaN would click dark in every draw
        raise NumericalInvariantError(
            f"cycle bright probabilities {p_cycle.tolist()!r} are not finite"
        )
    return np.clip(p_cycle, 0.0, 1.0), bool(curve.p_err[0] < 0.5 - 1e-6)


def _intervals(majority, confident, t_cycle):
    """Each run's switch interval (lo, hi) of :func:`turn_on_blocks` from the
    (runs, cycles) votes, or None without a confident bright cycle."""
    cycles = np.arange(majority.shape[1])
    bright = majority & confident
    first = bright.argmax(axis=1)
    last_dark = np.where(confident & ~majority & (cycles < first[:, None]), cycles, -1).max(axis=1)
    # a time past 1.8e308 s is inf, as in Python floats; fmax, like max(0.0, x), drops inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        hi = (first + 1) * t_cycle
        lo = np.where(last_dark >= 0, last_dark * t_cycle, np.fmax(0.0, hi - 2.0 * t_cycle))
        clip = (last_dark >= 0) & (hi - lo > 2.0 * t_cycle)
        center = 0.5 * (lo + hi)
        lo, hi = np.where(clip, center - t_cycle, lo), np.where(clip, center + t_cycle, hi)
    detected = bright.any(axis=1).tolist()
    return [(a, b) if hit else None for a, b, hit in zip(lo.tolist(), hi.tolist(), detected)]


#: numpy's SeedSequence constants as uint32 columns: its hashmix call k xors with INIT * MULT**k and
#: multiplies by INIT * MULT**(k + 1), mod 2**32 (A for the 4-word pool, B for the 8 output words)
_HASH_A, _HASH_B = (np.array([[init * pow(mult, k, 2**32) % 2**32] for k in range(n)], np.uint32)
                    for init, mult, n in ((0x43B0D7E5, 0x931E8875, 21), (0x8B51F9DD, 0x58F38DED, 9)))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_U128 = 2**128 - 1  # x & _U128 is x % 2**128 for x >= 0


def _pcg64_states(seeds):
    """The ``state`` and ``inc`` ints of ``np.random.default_rng(seed).bit_generator.state`` of
    every seed, a non-negative integer, as two lists: SeedSequence's pool hash on uint32 arrays
    over the seeds, then PCG64's srandom on Python ints, reduced mod 2**128 by the mask
    ``_U128`` (CPython's ``%`` runs a long division). A run's state dict is built where it is
    set, so a block holds two ints per run, not two nested dicts."""
    def hashmix(value, consts):  # len(consts) - 1 consecutive calls, one per row of the broadcast value
        value = (value ^ consts[:-1]) * consts[1:]
        return value ^ value >> 16

    def mix(into, value, consts):  # SeedSequence's mix of each row of into with its hashmix of value
        mixed = 0xCA01F9DD * into - 0x4973F715 * hashmix(value, consts)
        return mixed ^ mixed >> 16

    seeds = list(map(operator.index, seeds))
    if min(seeds) < 0:  # default_rng would raise ValueError
        raise PreconditionError(f"seeds must be non-negative integers, got {min(seeds)!r}")
    width = max(4, -(-max(seeds).bit_length() // 32))  # 32-bit words per seed, zero-padded to 4
    bits = np.array([s.bit_length() for s in seeds]) if width > 4 else None  # only for the words past 4
    raw = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    words = np.frombuffer(raw, "<u4").reshape(len(seeds), width).T  # (width, seeds)
    pool = hashmix(words[:4], _HASH_A[:5])
    for src, dst in enumerate([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]):  # word src into the others
        pool[dst] = mix(pool[dst], pool[src], _HASH_A[4 + 3 * src:8 + 3 * src])
    consts = _HASH_A[16:]  # the four calls of word 4; each later word's are MULT**4 times them
    for j in range(4, width):  # a seed's words past the pool's four, for the seeds that have them
        pool = np.where(bits > 32 * j, mix(pool, words[j], consts), pool)
        consts = consts * pow(0x931E8875, 4, 2**32)
    out = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    incs = [(hi << 65 | lo << 1 | 1) & _U128 for hi, lo in zip(inc_hi, inc_lo)]
    return [((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _U128
            for inc, hi, lo in zip(incs, seed_hi, seed_lo)], incs


def _click_blocks(p_cycle, informative, t_cycle, n_sensors, seeds):
    """The blocks of :func:`turn_on_blocks`, drawn as they are consumed."""
    n_cycles = len(p_cycle)
    runs_per_block = max(1, min(_BLOCK_RUNS, _BLOCK_STREAMS // (n_cycles * n_sensors)))
    rows = min(n_cycles, max(1, _BLOCK_STREAMS // n_sensors))  # cycles per slice of a run
    rng, state = None, {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}  # one run's at a time
    while block := list(itertools.islice(seeds, runs_per_block)):
        states, incs = _pcg64_states(block)
        if rng is None:  # the first draw loads numpy.random and checks the seeding against it
            state["state"] = {"state": states[0], "inc": incs[0]}
            if np.random.default_rng(block[0]).bit_generator.state != state:
                raise NumericalInvariantError(f"seed {block[0]!r}: block seeding differs from default_rng")
            rng = np.random.Generator(bitgen := np.random.PCG64(0))  # every run sets its state
            uniforms = np.empty((runs_per_block, rows, n_sensors))
        bright = np.empty((len(block), n_cycles, n_sensors), dtype=bool)
        for c in range(0, n_cycles, rows):  # one slice, unless a run is split (then alone in its block)
            for row, s, inc in zip(uniforms[:, :n_cycles - c], states, incs):  # a view per run
                if c == 0:  # a later slice continues its run's stream
                    state["state"] = {"state": s, "inc": inc}
                    bitgen.state = state
                rng.random(out=row)
            bright[:, c:c + rows] = uniforms[:len(block), :n_cycles - c] < p_cycle[c:c + rows, None]
        n_bright = bright.sum(axis=2)
        majority = 2 * n_bright > n_sensors
        confident = (np.abs(2 * n_bright - n_sensors) >= 2) | (n_sensors == 1)
        intervals = _intervals(majority, confident, t_cycle) if informative else [None] * len(block)
        yield ClickBlock(block, bright, n_bright, majority, confident, intervals)


def sweep_window(window, params: NvParameters) -> tuple[float, float]:
    """The axial-field sweep's time window: ``window``, or (1e-9, min(1e-5, 10 t2)) s for None."""
    return window if window is not None else (1e-9, min(1e-5, 10.0 * params.t2))
