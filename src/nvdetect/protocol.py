"""Multi-sensor fusion, stochastic readout, and the field turn-on protocol.

Majority voting over N identical sensors suppresses the single-measurement
error exponentially; the turn-on protocol repeats the static-field
measurement on a refreshed sensor every cycle and brackets the switch time
from the dark-to-bright transition of the fused record.

Random streams: the click of cycle c (0-based) and sensor s in the run with
seed ``seed`` is bright when the first ``random()`` draw of
``numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(c, s)))``
falls below the cycle's bright probability, so transcripts are reproducible
and sensors/cycles are independent. The protocol does not build those
generators: ``_click_uniforms`` reproduces the draws bit for bit in one
vectorized pass over integer arrays (SeedSequence mixing, PCG64 seeding,
one XSL-RR output), and a test pins it against numpy so that a change of
numpy's SeedSequence, PCG64 or ``Generator.random`` fails loudly instead of
moving the transcripts.
"""
from __future__ import annotations

import enum
import itertools
import math
import operator
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .discrimination import PovmPair, helstrom_operator, min_error, optimal_time_search, povm_pair
from .dynamics import bloch_propagators, evolve_pair
from .errors import PreconditionError
from .hamiltonian import FieldConfig, NoiseModel, NvParameters
from .linalg import DensityMatrix2, bloch_vector


class Click(enum.Enum):
    DARK = "dark"
    BRIGHT = "bright"


#: Click by outcome: _CLICK[bright].
_CLICK = (Click.DARK, Click.BRIGHT)


class PreparationState(enum.Enum):
    """Supported sensor initializations."""

    POLE_PLUS = "pole_plus"
    EQUAL_SUPERPOSITION = "equal_superposition"

    def density_matrix(self) -> DensityMatrix2:
        if self is PreparationState.POLE_PLUS:
            return DensityMatrix2.pole_plus()
        return DensityMatrix2.equal_superposition()


@dataclass(frozen=True)
class ArrayErrorCurve:
    """Fused error probability versus odd sensor count, with the fitted
    per-sensor exponential suppression rate."""

    n_values: tuple[int, ...]
    p_err_n: tuple[float, ...]
    alpha: float


@dataclass(frozen=True)
class MeasurementSchedule:
    """Cycle layout of the turn-on protocol. ``t_cycle=None`` resolves to the
    analytic optimal time of the configured field switch. The sensor is
    refreshed and re-prepared after every readout (reinit=False would need
    measurement back-action bookkeeping this model does not include)."""

    t_cycle: float | None = None
    n_cycles: int = 8
    reinit: bool = True

    def __post_init__(self) -> None:
        if self.t_cycle is not None and not self.t_cycle > 0.0:
            raise PreconditionError("t_cycle must be positive")
        if self.n_cycles < 1:
            raise PreconditionError("n_cycles must be >= 1")
        if not self.reinit:
            raise PreconditionError("only refresh-and-reinitialize cycles are modeled")

    def cycle_time(self, fields: FieldConfig, params: NvParameters) -> float:
        """The configured t_cycle, else pi / (2 |coupling|) of the field switch."""
        if self.t_cycle is not None:
            return self.t_cycle
        de_mag = abs(params.transverse_coupling(fields.de))
        if de_mag == 0.0:
            raise PreconditionError("cannot derive a cycle time from a zero field switch")
        return math.pi / (2.0 * de_mag)


@dataclass(frozen=True)
class DetectionRun:
    """Transcript of one protocol run.

    ``estimated_interval`` brackets the inferred switch time (width equals
    two cycles when a dark-to-bright transition was resolved); ``status`` is
    one of "detected" / "no_detection".
    """

    true_t_star: float
    clicks: tuple[Click, ...]
    estimated_interval: tuple[float, float] | None
    seed: int
    status: str
    t_cycle: float
    n_sensors: int
    sensor_clicks: tuple[tuple[Click, ...], ...] = field(repr=False)
    confident: tuple[bool, ...] = field(repr=False)


def majority_vote_error(
    n_sensors: int,
    p01: float,
    p10: float,
    priors: tuple[float, float] = (0.5, 0.5),
) -> float:
    """Fused error probability when more than half of n_sensors vote "field".

    p01 is the per-sensor dark count Tr(rho0 Pi1), p10 the per-sensor false
    negative Tr(rho1 Pi0). Even counts fall back to the preceding odd count
    (a tie carries no extra information). Binomial sums switch to log space
    above n = 50 to avoid underflow.
    """
    if n_sensors < 1:
        raise PreconditionError("n_sensors must be >= 1")
    for name, p in (("p01", p01), ("p10", p10)):
        if not 0.0 <= p <= 1.0:
            raise PreconditionError(f"{name} must be in [0, 1], got {p!r}")
    p0, p1 = priors
    if n_sensors % 2 == 0:
        warnings.warn(
            f"even sensor count {n_sensors}: using value at {n_sensors - 1}",
            RuntimeWarning,
            stacklevel=2,
        )
        n_sensors -= 1

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
    if any(n < 1 or n % 2 == 0 for n in n_values):
        raise PreconditionError("n_values must be odd integers >= 1")
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


def _bright_probability(rho: DensityMatrix2, povm: PovmPair) -> float:
    """Tr(rho Pi1), clipped to [0, 1]."""
    p_bright = float(np.trace(rho.matrix @ povm.pi1).real)
    return min(max(p_bright, 0.0), 1.0)


def simulate_click(rho_true: DensityMatrix2, povm: PovmPair, rng: np.random.Generator) -> Click:
    """One stochastic readout: bright with probability Tr(rho Pi1).

    Readout is treated as instantaneous relative to the spin dynamics. This
    is the per-click reference of the turn-on protocol, which draws the same
    ``rng.random()`` values in bulk with :func:`_click_uniforms`.
    """
    return Click.BRIGHT if rng.random() < _bright_probability(rho_true, povm) else Click.DARK


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 constants.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341

#: Click streams evaluated together; bounds the kernel's working arrays
#: (a few dozen arrays of this many 64-bit words) whatever n_runs is.
_BLOCK_STREAMS = 4096


def _hash_constants(h: int, mult: int):
    """SeedSequence's running hash constant: (value, value * mult) pairs."""
    while True:
        nxt = (h * mult) & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor_const, mult_const = next(constants)
    value = (value ^ xor_const) * mult_const
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """state * multiplier + inc mod 2**128 on (high, low) uint64 words; the
    high word of the low product comes from 32-bit limbs."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1 = lo & m32, lo >> s32
    b0, b1 = np.uint64(_PCG_MULT_LO & _MASK32), np.uint64(_PCG_MULT_LO >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> s32) + (p01 & m32) + (p10 & m32)
    carry = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    hi = hi * np.uint64(_PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI) + carry
    return _add128(hi, lo * np.uint64(_PCG_MULT_LO), inc_hi, inc_lo)


def _add128(hi, lo, add_hi, add_lo):
    total = lo + add_lo
    return hi + add_hi + (total < lo).astype(np.uint64), total


def _click_uniforms(seeds, cycles: range, n_sensors: int) -> np.ndarray:
    """First ``random()`` draw of every (seed, cycle, sensor) click stream.

    Entry [i, k, s] is bitwise equal to ``numpy.random.default_rng(
    SeedSequence(entropy=seeds[i], spawn_key=(cycles[k], s))).random()``:
    the SeedSequence pool mixing of [seed words padded to 4, cycle, sensor],
    ``generate_state(4, uint64)``, PCG64 seeding, one XSL-RR output and
    (x >> 11) * 2**-53, all in 32/64-bit integer arrays.
    """
    seeds = [operator.index(seed) for seed in seeds]
    if any(seed < 0 for seed in seeds):
        raise PreconditionError("seeds must be non-negative integers")
    if cycles.stop > _MASK32 + 1 or n_sensors > _MASK32 + 1:
        raise PreconditionError("cycle and sensor indices must fit in 32 bits")
    out = np.empty((len(seeds), len(cycles), n_sensors))
    n_words = [max(_POOL_SIZE, (seed.bit_length() + 31) // 32) for seed in seeds]
    for length in set(n_words):
        rows = [i for i, n in enumerate(n_words) if n == length]
        entropy = np.array(
            [[(seeds[i] >> (32 * k)) & _MASK32 for k in range(length)] for i in rows],
            dtype=np.uint32,
        ).reshape(len(rows), length, 1, 1)
        hash_a = _hash_constants(_INIT_A, _MULT_A)
        pool = [_hashmix(entropy[:, k], hash_a) for k in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a))
        spawn_key = (
            *(entropy[:, k] for k in range(_POOL_SIZE, length)),
            np.arange(cycles.start, cycles.stop, dtype=np.uint32).reshape(1, -1, 1),
            np.arange(n_sensors, dtype=np.uint32).reshape(1, 1, -1),
        )
        for word in spawn_key:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], _hashmix(word, hash_a))
        hash_b = _hash_constants(_INIT_B, _MULT_B)
        state = [_hashmix(pool[k % _POOL_SIZE], hash_b).astype(np.uint64) for k in range(8)]
        init_hi, init_lo, seq_hi, seq_lo = (
            state[k] | (state[k + 1] << np.uint64(32)) for k in range(0, 8, 2)
        )
        inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        hi, lo = _add128(inc_hi, inc_lo, init_hi, init_lo)  # the step from state 0 gives inc
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)  # the first draw's step
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[rows] = (x >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return out


def _cycle_state(
    fields: FieldConfig,
    params: NvParameters,
    noise: NoiseModel,
    rho_init: DensityMatrix2,
    t_start: float,
    t_end: float,
    t_star: float,
) -> DensityMatrix2:
    """Propagate a freshly prepared sensor across one cycle of the piecewise
    field (baseline before t_star, switched after), noise axis following the
    active field in each segment. The cycle's Bloch map is the switched map
    over [t_switch, t_end] times the baseline map over [t_start, t_switch],
    with t_switch = t_star clipped to the cycle."""
    t_switch = min(max(t_star, t_start), t_end)
    maps = bloch_propagators(fields, params, noise, [t_switch - t_start, t_end - t_switch])
    return DensityMatrix2.from_bloch(maps[1, 1] @ maps[0, 0] @ np.array(bloch_vector(rho_init)))


def _bracket(bright: list[bool], confident: list[bool], t_cycle: float):
    """Switch interval (lo, hi) from the per-cycle majorities, or None
    without a confident bright cycle."""
    first_bright = next((i for i, (b, conf) in enumerate(zip(bright, confident)) if conf and b), None)
    if first_bright is None:
        return None
    last_dark = next(
        (i for i in range(first_bright - 1, -1, -1) if confident[i] and not bright[i]), None
    )
    hi = (first_bright + 1) * t_cycle
    if last_dark is None:
        return (max(0.0, hi - 2.0 * t_cycle), hi)
    lo = last_dark * t_cycle
    if hi - lo > 2.0 * t_cycle:
        center = 0.5 * (lo + hi)
        lo, hi = center - t_cycle, center + t_cycle
    return (lo, hi)


@dataclass(frozen=True)
class ClickBlock:
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
    schedule: MeasurementSchedule,
    true_t_star: float,
    n_sensors: int,
    seeds,
    preparation: PreparationState = PreparationState.POLE_PLUS,
) -> Iterator[ClickBlock]:
    """Run the turn-on detection protocol once per seed, as blocks of runs.

    Each cycle k covers [(k-1) t_cycle, k t_cycle]; a fresh sensor is
    prepared at the cycle start and read out at its end with the projector
    pair of the static-field problem at t_cycle. The per-cycle majority vote
    is "confident" when its margin is at least two votes (the single vote
    counts when n_sensors = 1); the estimated switch interval runs from the
    start of the last confident dark cycle to the end of the first confident
    bright cycle, clipped symmetrically to a width of two cycles.

    The cycle physics (bright probability per cycle, the informative flag)
    depends only on the configuration and is computed once, by this call.
    The returned iterator draws the runs lazily, one :class:`ClickBlock` of
    at most ``_BLOCK_STREAMS`` click streams at a time (a run whose clicks
    exceed that is drawn in cycle slices but still yielded whole), so a
    consumer that handles each block and drops it holds one block whatever
    the number of seeds.
    """
    if not true_t_star >= 0.0:
        raise PreconditionError("true_t_star must be >= 0")
    if n_sensors < 1:
        raise PreconditionError("n_sensors must be >= 1")
    t_cycle = schedule.cycle_time(fields, params)
    n_cycles = schedule.n_cycles

    rho_init = preparation.density_matrix()
    rho_dark, rho_bright = evolve_pair(fields, params, noise, rho_init, t_cycle)
    povm = povm_pair(helstrom_operator(rho_dark, rho_bright, fields.priors))
    informative = min_error(rho_dark, rho_bright, fields.priors).p_err < 0.5 - 1e-6
    p_cycle = np.empty(n_cycles)
    for cycle in range(n_cycles):
        t_start, t_end = cycle * t_cycle, (cycle + 1) * t_cycle
        if true_t_star >= t_end:
            rho = rho_dark
        elif true_t_star <= t_start:
            rho = rho_bright
        else:
            rho = _cycle_state(fields, params, noise, rho_init, t_start, t_end, true_t_star)
        p_cycle[cycle] = _bright_probability(rho, povm)

    return _click_blocks(p_cycle, informative, t_cycle, n_sensors, iter(seeds))


def _click_blocks(p_cycle, informative, t_cycle, n_sensors, seeds):
    """The blocks of :func:`turn_on_blocks`, drawn as they are consumed."""
    n_cycles = len(p_cycle)
    runs_per_block = max(1, _BLOCK_STREAMS // (n_cycles * n_sensors))
    cycles_per_block = max(1, _BLOCK_STREAMS // n_sensors)
    while block := list(itertools.islice(seeds, runs_per_block)):
        bright = np.concatenate(
            [
                _click_uniforms(block, range(c, min(c + cycles_per_block, n_cycles)), n_sensors)
                < p_cycle[c:c + cycles_per_block, None]
                for c in range(0, n_cycles, cycles_per_block)
            ],
            axis=1,
        )
        n_bright = bright.sum(axis=2)
        majority = 2 * n_bright > n_sensors
        confident = (np.abs(2 * n_bright - n_sensors) >= 2) | (n_sensors == 1)
        intervals = (
            [_bracket(m, c, t_cycle) for m, c in zip(majority.tolist(), confident.tolist())]
            if informative else [None] * len(block)
        )
        yield ClickBlock(block, bright, n_bright, majority, confident, intervals)


def run_turn_on_batch(
    fields: FieldConfig,
    params: NvParameters,
    noise: NoiseModel,
    schedule: MeasurementSchedule,
    true_t_star: float,
    n_sensors: int,
    seeds,
    preparation: PreparationState = PreparationState.POLE_PLUS,
) -> Iterator[DetectionRun]:
    """The runs of :func:`turn_on_blocks`, one :class:`DetectionRun` per
    seed, drawn just as lazily."""
    blocks = turn_on_blocks(
        fields, params, noise, schedule, true_t_star, n_sensors, seeds, preparation
    )
    return _detection_runs(blocks, true_t_star, schedule.cycle_time(fields, params), n_sensors)


def _detection_runs(blocks, true_t_star, t_cycle, n_sensors):
    for block in blocks:
        for seed, sensors, maj, conf, interval in zip(
            block.seeds, block.bright.tolist(), block.majority.tolist(),
            block.confident.tolist(), block.intervals,
        ):
            yield DetectionRun(
                true_t_star=true_t_star,
                clicks=tuple(_CLICK[b] for b in maj),
                estimated_interval=interval,
                seed=seed,
                status="no_detection" if interval is None else "detected",
                t_cycle=t_cycle,
                n_sensors=n_sensors,
                sensor_clicks=tuple(tuple(_CLICK[b] for b in row) for row in sensors),
                confident=tuple(conf),
            )


def run_turn_on_protocol(
    fields: FieldConfig,
    params: NvParameters,
    noise: NoiseModel,
    schedule: MeasurementSchedule,
    true_t_star: float,
    n_sensors: int,
    seed: int,
    preparation: PreparationState = PreparationState.POLE_PLUS,
) -> DetectionRun:
    """Run the turn-on detection protocol once: :func:`run_turn_on_batch`
    with a single seed."""
    return next(run_turn_on_batch(
        fields, params, noise, schedule, true_t_star, n_sensors, (seed,), preparation
    ))


@dataclass(frozen=True)
class BzSweepPoint:
    """One cell of the axial-field sweep: best achievable error and its time."""

    orientation: str
    e_magnitude: float
    b_z: float
    t_opt: float
    p_err_min: float


def superposition_bz_sweep(
    e_magnitudes,
    b_z_values,
    orientations=("x", "y"),
    params: NvParameters | None = None,
    noise: NoiseModel | None = None,
    preparation: PreparationState = PreparationState.EQUAL_SUPERPOSITION,
    window: tuple[float, float] | None = None,
    n_grid: int = 2048,
) -> list[BzSweepPoint]:
    """Best-case error versus axial magnetic field for a superposition-prepared
    sensor under axial magnetic dephasing.

    For each (orientation, magnitude, B_z) cell the hypotheses are "no field"
    versus "field of the given magnitude along the chosen transverse axis";
    the error is minimized over measurement time within the window.
    """
    params = params or NvParameters()
    noise = noise or NoiseModel.magnetic(params.kappa)
    window = window or (1e-9, params.t2)
    rho0 = preparation.density_matrix()
    points: list[BzSweepPoint] = []
    for orientation in orientations:
        if orientation not in ("x", "y"):
            raise PreconditionError(f"orientation must be 'x' or 'y', got {orientation!r}")
        for e_mag in e_magnitudes:
            de = (float(e_mag), 0.0, 0.0) if orientation == "x" else (0.0, float(e_mag), 0.0)
            for b_z in b_z_values:
                fields = FieldConfig(e0=(0.0, 0.0, 0.0), de=de, b_z=float(b_z))
                t_opt, p_min = optimal_time_search(
                    fields, params, noise, rho0, window, n_grid=n_grid
                )
                points.append(
                    BzSweepPoint(
                        orientation=orientation,
                        e_magnitude=float(e_mag),
                        b_z=float(b_z),
                        t_opt=t_opt,
                        p_err_min=p_min,
                    )
                )
    return points
