"""Multi-sensor fusion, stochastic readout, and the field turn-on protocol.

Majority voting over N identical sensors suppresses the single-measurement
error exponentially; the turn-on protocol repeats the static-field
measurement on a refreshed sensor every cycle and brackets the switch time
from the dark-to-bright transition of the fused record. Its one entry point
is :func:`turn_on_blocks`, which yields the runs as :class:`ClickBlock`
arrays.

Random streams: run i draws its clicks from one generator,
``numpy.random.default_rng(seeds[i])``, cycle-major: the click of cycle c
(0-based) and sensor s is bright when draw ``c * n_sensors + s`` of that
stream falls below the cycle's bright probability. Transcripts are
reproducible, runs are independent, and a run's first cycles do not depend
on ``n_cycles``; a sensor's clicks do depend on ``n_sensors``. numpy.random
is imported when the first run is drawn, not with the package.
"""
from __future__ import annotations

import enum
import itertools
import math
import operator
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .discrimination import min_error_grid
from .dynamics import bloch_generators, evolve_bloch
from .errors import NumericalInvariantError, PreconditionError
from .hamiltonian import FieldConfig, NoiseModel, NvParameters, _checked_priors
from .linalg import DensityMatrix2, bloch_vector, check_bloch_norms, expm_batch


class PreparationState(enum.Enum):
    """Supported sensor initializations."""

    POLE_PLUS = "pole_plus"
    EQUAL_SUPERPOSITION = "equal_superposition"

    def density_matrix(self) -> DensityMatrix2:
        if self is PreparationState.POLE_PLUS:
            return DensityMatrix2.pole_plus()
        return DensityMatrix2.equal_superposition()


class ArrayErrorCurve(NamedTuple):
    """Fused error probability versus odd sensor count, with the fitted
    per-sensor exponential suppression rate."""

    n_values: tuple[int, ...]
    p_err_n: tuple[float, ...]
    alpha: float


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


def array_error_curve(
    n_values,
    p01: float,
    p10: float,
    priors: tuple[float, float] = (0.5, 0.5),
) -> ArrayErrorCurve:
    """Evaluate the fused error over odd sensor counts and fit its decay rate."""
    n_values = tuple(int(n) for n in n_values)
    p_err = tuple(majority_vote_error(n, p01, p10, priors) for n in n_values)
    alpha = fit_decay_rate(zip(n_values, p_err))
    return ArrayErrorCurve(n_values=n_values, p_err_n=p_err, alpha=alpha)


def fit_decay_rate(points) -> float:
    """Least-squares slope of -ln(p) versus odd sensor count.

    Zero (or negative) probabilities are excluded; at least three usable
    odd-count points are required.
    """
    usable = [(int(n), float(p)) for n, p in points if p > 0.0 and int(n) % 2 == 1]
    if len(usable) < 3:
        raise PreconditionError("need at least 3 odd-count points with p > 0")
    ns = np.array([n for n, _ in usable], dtype=float)
    logs = np.array([-math.log(p) for _, p in usable])
    design = np.column_stack([ns, np.ones_like(ns)])
    (slope, _), *_ = np.linalg.lstsq(design, logs, rcond=None)
    return float(slope)


#: Clicks drawn per block of runs; bounds the drawn uniforms whatever n_runs
#: is (a run with more clicks is drawn in cycle slices of at most this many).
_BLOCK_STREAMS = 4096


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
    t_cycle: float,
    n_cycles: int,
    true_t_star: float,
    n_sensors: int,
    seeds,
    preparation: PreparationState = PreparationState.POLE_PLUS,
) -> Iterator[ClickBlock]:
    """Run the turn-on detection protocol once per seed, as blocks of runs.

    Each run has ``n_cycles`` cycles of length ``t_cycle`` (positive and
    finite; the command line resolves it with ``ProtocolConfig.cycle_time``),
    and the field switches at ``true_t_star``. Cycle k covers
    [(k-1) t_cycle, k t_cycle]: a fresh sensor is prepared at the cycle start
    and read out at its end with the projector pair of the static-field
    problem at t_cycle. The sensor is never kept across cycles, which would
    need measurement back-action bookkeeping this model does not include.
    The per-cycle majority vote is "confident" when its margin is at least two votes (the single vote
    counts when n_sensors = 1); the estimated switch interval runs from the
    start of the last confident dark cycle to the end of the first confident
    bright cycle, clipped symmetrically to a width of two cycles.

    The cycle physics (bright probability per cycle, the informative flag)
    depends only on the configuration and is computed once, by this call.
    The returned iterator draws the runs lazily, one :class:`ClickBlock` of
    at most ``_BLOCK_STREAMS`` clicks at a time (a run whose clicks exceed
    that is drawn in cycle slices of its one generator but still yielded
    whole), so a consumer that handles each block and drops it holds one
    block whatever the number of seeds. A seed must be a non-negative
    integer.
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
        fields, params, noise, t_cycle, n_cycles, true_t_star, preparation
    )
    return _click_blocks(p_cycle, informative, t_cycle, n_sensors, iter(seeds))


def _cycle_bright_probabilities(
    fields, params, noise, t_cycle, n_cycles, true_t_star, preparation
):
    """The bright probability of the readout at the end of every cycle, and
    whether the switch is informative at all.

    A cycle that ends by t* holds the baseline state at t_cycle, one that
    starts at or after t* the switched state; the one cycle that straddles
    t* maps the prepared state by the baseline generator up to t* and by the
    switched one after it (noise axis following the active field). Every
    readout uses the Helstrom measurement of the static problem at t_cycle,
    so its bright probability is Tr(rho Pi1) of that one decision, clipped
    to [0, 1]; readout is treated as instantaneous relative to the spin
    dynamics. Returns the (n_cycles,) bright probabilities and the
    informative flag (p_err < 1/2 - 1e-6); a probability that is not finite
    raises NumericalInvariantError.
    """
    gens = bloch_generators(fields, params, noise)
    r_init = np.array(bloch_vector(preparation.density_matrix()))
    r_dark, r_bright = evolve_bloch(gens, r_init, [t_cycle])
    curve = min_error_grid(r_dark, r_bright, fields.priors)
    r_cycles = np.empty((n_cycles, 3))
    for cycle in range(n_cycles):
        t_start, t_end = cycle * t_cycle, (cycle + 1) * t_cycle
        if true_t_star >= t_end:
            r_cycles[cycle] = r_dark[0]
        elif true_t_star <= t_start:
            r_cycles[cycle] = r_bright[0]
        else:
            segments = np.array([true_t_star - t_start, t_end - true_t_star])
            maps = expm_batch(gens * segments[:, None, None])  # baseline, then switched
            r_cycles[cycle] = check_bloch_norms(maps[1] @ maps[0] @ r_init)
    p_cycle = curve.decision.bright_probability(r_cycles)
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


def _click_blocks(p_cycle, informative, t_cycle, n_sensors, seeds):
    """The blocks of :func:`turn_on_blocks`, drawn as they are consumed."""
    n_cycles = len(p_cycle)
    runs_per_block = max(1, _BLOCK_STREAMS // (n_cycles * n_sensors))
    cycles_per_block = max(1, _BLOCK_STREAMS // n_sensors)
    while block := list(itertools.islice(seeds, runs_per_block)):
        bright = np.empty((len(block), n_cycles, n_sensors), dtype=bool)
        for run, seed in enumerate(map(operator.index, block)):
            if seed < 0:  # default_rng would raise ValueError
                raise PreconditionError(f"seeds must be non-negative integers, got {seed!r}")
            rng = np.random.default_rng(seed)
            for c in range(0, n_cycles, cycles_per_block):
                p = p_cycle[c:c + cycles_per_block, None]
                bright[run, c:c + len(p)] = rng.random((len(p), n_sensors)) < p
        n_bright = bright.sum(axis=2)
        majority = 2 * n_bright > n_sensors
        confident = (np.abs(2 * n_bright - n_sensors) >= 2) | (n_sensors == 1)
        intervals = _intervals(majority, confident, t_cycle) if informative else [None] * len(block)
        yield ClickBlock(block, bright, n_bright, majority, confident, intervals)


def sweep_window(window, params: NvParameters) -> tuple[float, float]:
    """The axial-field sweep's time window: ``window``, or (1e-9, min(1e-5, 10 t2)) s for None."""
    return window if window is not None else (1e-9, min(1e-5, 10.0 * params.t2))
