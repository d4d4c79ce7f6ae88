"""Multi-sensor fusion, stochastic readout, and the field turn-on protocol.

Majority voting over N identical sensors suppresses the single-measurement
error exponentially; the turn-on protocol repeats the static-field
measurement on a refreshed sensor every cycle and brackets the switch time
from the dark-to-bright transition of the fused record.

Random streams: the generator for cycle c (0-based) and sensor s is
``numpy.random.default_rng(SeedSequence(entropy=seed, spawn_key=(c, s)))``,
so transcripts are reproducible and sensors/cycles are independent.
"""
from __future__ import annotations

import enum
import math
import warnings
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


def simulate_click(rho_true: DensityMatrix2, povm: PovmPair, rng: np.random.Generator) -> Click:
    """One stochastic readout: bright with probability Tr(rho Pi1).

    Readout is treated as instantaneous relative to the spin dynamics.
    """
    p_bright = float(np.trace(rho_true.matrix @ povm.pi1).real)
    p_bright = min(max(p_bright, 0.0), 1.0)
    return Click.BRIGHT if rng.random() < p_bright else Click.DARK


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
    """Run the turn-on detection protocol once.

    Each cycle k covers [(k-1) t_cycle, k t_cycle]; a fresh sensor is
    prepared at the cycle start and read out at its end with the projector
    pair of the static-field problem at t_cycle. The per-cycle majority vote
    is "confident" when its margin is at least two votes (the single vote
    counts when n_sensors = 1); the estimated switch interval runs from the
    start of the last confident dark cycle to the end of the first confident
    bright cycle, clipped symmetrically to a width of two cycles.
    """
    if true_t_star < 0.0:
        raise PreconditionError("true_t_star must be >= 0")
    if n_sensors < 1:
        raise PreconditionError("n_sensors must be >= 1")
    t_cycle = schedule.t_cycle
    if t_cycle is None:
        de_mag = abs(params.transverse_coupling(fields.de))
        if de_mag == 0.0:
            raise PreconditionError("cannot derive a cycle time from a zero field switch")
        t_cycle = math.pi / (2.0 * de_mag)

    rho_init = preparation.density_matrix()
    rho_dark, rho_bright = evolve_pair(fields, params, noise, rho_init, t_cycle)
    povm = povm_pair(helstrom_operator(rho_dark, rho_bright, fields.priors))
    p_single = min_error(rho_dark, rho_bright, fields.priors).p_err
    informative = p_single < 0.5 - 1e-6

    clicks: list[Click] = []
    sensor_clicks: list[tuple[Click, ...]] = []
    confident: list[bool] = []
    for cycle in range(schedule.n_cycles):
        t_start, t_end = cycle * t_cycle, (cycle + 1) * t_cycle
        if true_t_star >= t_end:
            rho = rho_dark
        elif true_t_star <= t_start:
            rho = rho_bright
        else:
            rho = _cycle_state(fields, params, noise, rho_init, t_start, t_end, true_t_star)
        votes = tuple(
            simulate_click(
                rho,
                povm,
                np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(cycle, s))),
            )
            for s in range(n_sensors)
        )
        sensor_clicks.append(votes)
        n_bright = sum(v is Click.BRIGHT for v in votes)
        margin = abs(2 * n_bright - n_sensors)
        clicks.append(Click.BRIGHT if 2 * n_bright > n_sensors else Click.DARK)
        confident.append(margin >= 2 or n_sensors == 1)

    interval = None
    status = "no_detection"
    if informative:
        first_bright = next(
            (i for i, (c, conf) in enumerate(zip(clicks, confident)) if conf and c is Click.BRIGHT),
            None,
        )
        if first_bright is not None:
            last_dark = next(
                (
                    i
                    for i in range(first_bright - 1, -1, -1)
                    if confident[i] and clicks[i] is Click.DARK
                ),
                None,
            )
            hi = (first_bright + 1) * t_cycle
            if last_dark is None:
                lo = max(0.0, hi - 2.0 * t_cycle)
            else:
                lo = last_dark * t_cycle
                if hi - lo > 2.0 * t_cycle:
                    center = 0.5 * (lo + hi)
                    lo, hi = center - t_cycle, center + t_cycle
            interval = (lo, hi)
            status = "detected"

    return DetectionRun(
        true_t_star=true_t_star,
        clicks=tuple(clicks),
        estimated_interval=interval,
        seed=seed,
        status=status,
        t_cycle=t_cycle,
        n_sensors=n_sensors,
        sensor_clicks=tuple(sensor_clicks),
        confident=tuple(confident),
    )


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
