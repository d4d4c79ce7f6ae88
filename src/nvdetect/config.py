"""Run configuration: a versioned, strictly validated JSON file.

Unknown keys are rejected with their full path so typos never silently fall
back to defaults. ``parse(serialize(cfg))`` is idempotent, and all CSV output
uses :func:`format_float` (17 significant digits, LF line endings) so equal
configurations and seeds reproduce byte-identical files.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .hamiltonian import FieldConfig, NoiseKind, NoiseModel, NvParameters
from .protocol import MeasurementSchedule, PreparationState

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    """Deterministic decimal text for CSV cells: 17 significant digits."""
    return format(float(x), ".17g")


def _check_keys(node: dict, allowed, path: str) -> None:
    unknown = set(node) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) at {path or '<root>'}: {sorted(unknown)}")


def _get_number(node: dict, key: str, default, path: str, allow_none: bool = False):
    value = node.get(key, default)
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number, got {value!r}")
    return float(value)


def _get_count(node: dict, key: str, default: int, path: str, minimum: int = 1) -> int:
    value = node.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{path}.{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _get_numbers(node: dict, key: str, default, path: str, length: int | None = None):
    """A list of numbers as a tuple of floats, of exactly ``length`` entries if given."""
    value = node.get(key, default)
    where = f"{path}.{key}" if path else key
    if not isinstance(value, (list, tuple)) or (length is not None and len(value) != length):
        size = "a list" if length is None else f"a {length}-element list"
        raise ConfigError(f"{where} must be {size} of numbers, got {value!r}")
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{where}[{i}] must be a number, got {v!r}")
    return tuple(float(v) for v in value)


def _check_finite(node, path: str) -> None:
    """Reject NaN and infinite numbers anywhere in the raw config, naming
    their path (``json.load`` accepts NaN, Infinity and overflowing literals)."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{path} must be a finite number, got {node!r}")
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{path}.{key}" if path else str(key))
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _check_finite(value, f"{path}[{i}]")


@dataclass(frozen=True)
class TimeGrid:
    t_max: float = 4e-6
    n_points: int = 801


@dataclass(frozen=True)
class ProtocolConfig:
    t_cycle: float | None = None
    n_cycles: int = 8
    n_sensors: int = 15
    true_t_star: float | None = None  # None -> 3.2 cycles
    n_runs: int = 200

    def schedule(self) -> MeasurementSchedule:
        return MeasurementSchedule(t_cycle=self.t_cycle, n_cycles=self.n_cycles)


@dataclass(frozen=True)
class BzSweepConfig:
    """Axial-field sweep settings. Unlike the other commands this sweep has
    its own preparation and noise defaults (superposition-prepared sensor
    under axial magnetic dephasing)."""

    e_magnitudes: tuple[float, ...] = (1e6,)
    orientations: tuple[str, ...] = ("x", "y")
    b_z_values: tuple[float, ...] = (0.0, 1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6, 8e-6, 1e-5, 1.4e-5, 2e-5)
    t_window: tuple[float, float] = (1e-9, 1e-5)
    preparation: PreparationState = PreparationState.EQUAL_SUPERPOSITION
    noise_kind: NoiseKind = NoiseKind.MAGNETIC_AXIAL
    noise_rate: float | None = None  # None -> 1/T2
    bloch_traces: bool = False


@dataclass(frozen=True)
class FieldPair:
    """One sweep cell for the error-versus-time command."""

    e0: tuple[float, float, float]
    de: tuple[float, float, float]
    kappa: float


@dataclass(frozen=True)
class RunConfig:
    parameters: NvParameters = field(default_factory=NvParameters)
    fields: FieldConfig = field(default_factory=FieldConfig)
    noise: NoiseModel = field(default_factory=lambda: NoiseModel.electric(1e5))
    preparation: PreparationState = PreparationState.POLE_PLUS
    time_grid: TimeGrid = field(default_factory=TimeGrid)
    field_pairs: tuple[FieldPair, ...] = ()
    b_z_values: tuple[float, ...] = (1e-5, 2e-5)
    sensor_counts: tuple[int, ...] = (1, 3, 5, 7, 9, 11, 13, 15)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    bz_sweep: BzSweepConfig = field(default_factory=BzSweepConfig)
    method: str = "auto"
    seed: int = 20260808
    output_dir: str = "out"

    def bz_sweep_noise(self) -> NoiseModel:
        """Noise model of the axial-field sweep (its own defaults, not the
        top-level noise block)."""
        sweep = self.bz_sweep
        if sweep.noise_kind is NoiseKind.NONE:
            return NoiseModel.none()
        rate = sweep.noise_rate if sweep.noise_rate is not None else self.parameters.kappa
        return NoiseModel(sweep.noise_kind, rate)

    def default_field_pairs(self) -> tuple[FieldPair, ...]:
        """Fall back to the canonical two switch magnitudes, with and without
        dephasing, when the config lists no explicit pairs."""
        if self.field_pairs:
            return self.field_pairs
        kappa = self.noise.rate
        pairs = []
        for de_x in (1e6, 3e6):
            for k in (0.0, kappa):
                pairs.append(FieldPair(e0=(0.0, 0.0, 0.0), de=(de_x, 0.0, 0.0), kappa=k))
        return tuple(pairs)


_NOISE_NAMES = {
    "electric_along_field": NoiseKind.ELECTRIC_ALONG_FIELD,
    "magnetic_axial": NoiseKind.MAGNETIC_AXIAL,
    "none": NoiseKind.NONE,
}


def parse(data: dict) -> RunConfig:
    """Validate a JSON-compatible dict into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    _check_keys(
        data,
        {
            "schema_version", "parameters", "fields", "noise", "preparation",
            "time_grid", "field_pairs", "b_z_values", "sensor_counts",
            "protocol", "bz_sweep", "method", "seed", "output_dir",
        },
        "",
    )
    _check_finite(data, "")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")

    node = data.get("parameters", {})
    _check_keys(node, {"zero_field_splitting", "d_parallel", "d_perp", "t2", "t1", "g_factor"}, "parameters")
    t1 = _get_number(node, "t1", None, "parameters", allow_none=True)
    t2 = _get_number(node, "t2", None, "parameters", allow_none=True)
    try:
        params = NvParameters(
            zero_field_splitting=_get_number(node, "zero_field_splitting", 2.87e9, "parameters"),
            d_parallel=_get_number(node, "d_parallel", 0.0035, "parameters"),
            d_perp=_get_number(node, "d_perp", 0.17, "parameters"),
            t2=math.inf if t2 is None else t2,
            t1=math.inf if t1 is None else t1,
            g_factor=_get_number(node, "g_factor", 2.0028, "parameters"),
        ) if node else NvParameters()
    except ValueError as exc:
        raise ConfigError(f"parameters: {exc}") from exc

    node = data.get("fields", {})
    _check_keys(node, {"e0", "de", "b_z", "priors"}, "fields")
    e0 = _get_numbers(node, "e0", (0.0, 0.0, 0.0), "fields", length=3)
    de = _get_numbers(node, "de", (1e6, 0.0, 0.0), "fields", length=3)
    b_z = _get_number(node, "b_z", 0.0, "fields")
    priors = _get_numbers(node, "priors", (0.5, 0.5), "fields", length=2)
    try:
        fields = FieldConfig(e0=e0, de=de, b_z=b_z, priors=priors)
    except ValueError as exc:
        raise ConfigError(f"fields: {exc}") from exc

    node = data.get("noise", {})
    _check_keys(node, {"kind", "rate"}, "noise")
    kind_name = node.get("kind", "electric_along_field")
    if kind_name not in _NOISE_NAMES:
        raise ConfigError(f"noise.kind must be one of {sorted(_NOISE_NAMES)}, got {kind_name!r}")
    rate = _get_number(node, "rate", None, "noise", allow_none=True)
    if rate is None:
        rate = params.kappa if kind_name != "none" else 0.0
    try:
        noise = NoiseModel(_NOISE_NAMES[kind_name], rate)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc

    prep_name = data.get("preparation", "pole_plus")
    try:
        preparation = PreparationState(prep_name)
    except ValueError as exc:
        raise ConfigError(
            f"preparation must be one of {[p.value for p in PreparationState]}, got {prep_name!r}"
        ) from exc

    node = data.get("time_grid", {})
    _check_keys(node, {"t_max", "n_points"}, "time_grid")
    time_grid = TimeGrid(
        t_max=_get_number(node, "t_max", 4e-6, "time_grid"),
        n_points=_get_count(node, "n_points", 801, "time_grid", minimum=2),
    )
    if time_grid.t_max <= 0:
        raise ConfigError(f"time_grid.t_max must be > 0, got {time_grid.t_max!r}")

    pairs = []
    for i, raw in enumerate(data.get("field_pairs", [])):
        if not isinstance(raw, dict):
            raise ConfigError(f"field_pairs[{i}] must be an object")
        _check_keys(raw, {"e0", "de", "kappa"}, f"field_pairs[{i}]")
        pairs.append(
            FieldPair(
                e0=_get_numbers(raw, "e0", (0.0, 0.0, 0.0), f"field_pairs[{i}]", length=3),
                de=_get_numbers(raw, "de", (1e6, 0.0, 0.0), f"field_pairs[{i}]", length=3),
                kappa=_get_number(raw, "kappa", 0.0, f"field_pairs[{i}]"),
            )
        )

    b_z_values = _get_numbers(data, "b_z_values", (1e-5, 2e-5), "")
    if not b_z_values:
        raise ConfigError("b_z_values must be a non-empty list")

    sensor_counts = data.get("sensor_counts", [1, 3, 5, 7, 9, 11, 13, 15])
    if not isinstance(sensor_counts, (list, tuple)) or len(sensor_counts) < 3:
        # the decay-rate fit of the array command needs three points
        raise ConfigError(f"sensor_counts must list at least 3 sensor counts, got {sensor_counts!r}")
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 or n % 2 == 0
           for n in sensor_counts):
        raise ConfigError(f"sensor_counts must be odd integers >= 1, got {sensor_counts!r}")

    node = data.get("protocol", {})
    _check_keys(node, {"t_cycle", "n_cycles", "n_sensors", "true_t_star", "n_runs"}, "protocol")
    protocol = ProtocolConfig(
        t_cycle=_get_number(node, "t_cycle", None, "protocol", allow_none=True),
        n_cycles=_get_count(node, "n_cycles", 8, "protocol"),
        n_sensors=_get_count(node, "n_sensors", 15, "protocol"),
        true_t_star=_get_number(node, "true_t_star", None, "protocol", allow_none=True),
        n_runs=_get_count(node, "n_runs", 200, "protocol"),
    )
    if protocol.t_cycle is not None and not protocol.t_cycle > 0.0:
        raise ConfigError(f"protocol.t_cycle must be > 0, got {protocol.t_cycle!r}")
    if protocol.true_t_star is not None and not protocol.true_t_star >= 0.0:
        raise ConfigError(f"protocol.true_t_star must be >= 0, got {protocol.true_t_star!r}")

    node = data.get("bz_sweep", {})
    _check_keys(
        node,
        {"e_magnitudes", "orientations", "b_z_values", "t_window",
         "preparation", "noise_kind", "noise_rate", "bloch_traces"},
        "bz_sweep",
    )
    orientations = tuple(node.get("orientations", ("x", "y")))
    if any(o not in ("x", "y") for o in orientations):
        raise ConfigError("bz_sweep.orientations entries must be 'x' or 'y'")
    window = _get_numbers(node, "t_window", (1e-9, 1e-5), "bz_sweep", length=2)
    if not 0.0 <= window[0] < window[1] <= 10.0 * params.t2:
        raise ConfigError(
            f"bz_sweep.t_window must be [t_lo, t_hi] with 0 <= t_lo < t_hi <= "
            f"10 * parameters.t2 = {10.0 * params.t2!r}, got {list(window)!r}"
        )
    sweep_prep = node.get("preparation", "equal_superposition")
    try:
        sweep_preparation = PreparationState(sweep_prep)
    except ValueError as exc:
        raise ConfigError(f"bz_sweep.preparation invalid: {sweep_prep!r}") from exc
    bloch_traces = node.get("bloch_traces", False)
    if not isinstance(bloch_traces, bool):
        raise ConfigError(f"bz_sweep.bloch_traces must be true or false, got {bloch_traces!r}")
    sweep_kind = node.get("noise_kind", "magnetic_axial")
    if sweep_kind not in _NOISE_NAMES:
        raise ConfigError(f"bz_sweep.noise_kind must be one of {sorted(_NOISE_NAMES)}")
    bz_sweep = BzSweepConfig(
        e_magnitudes=_get_numbers(node, "e_magnitudes", (1e6,), "bz_sweep"),
        orientations=orientations,
        b_z_values=_get_numbers(node, "b_z_values", BzSweepConfig.b_z_values, "bz_sweep"),
        t_window=window,
        preparation=sweep_preparation,
        noise_kind=_NOISE_NAMES[sweep_kind],
        noise_rate=_get_number(node, "noise_rate", None, "bz_sweep", allow_none=True),
        bloch_traces=bloch_traces,
    )

    method = data.get("method", "auto")
    if method not in ("closed", "rk4", "superop", "auto"):
        raise ConfigError(f"method must be closed|rk4|superop|auto, got {method!r}")
    seed = data.get("seed", 20260808)
    if not isinstance(seed, int) or seed < 0 or seed > 2**64 - 1:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")

    return RunConfig(
        parameters=params,
        fields=fields,
        noise=noise,
        preparation=preparation,
        time_grid=time_grid,
        field_pairs=tuple(pairs),
        b_z_values=b_z_values,
        sensor_counts=tuple(int(n) for n in sensor_counts),
        protocol=protocol,
        bz_sweep=bz_sweep,
        method=method,
        seed=seed,
        output_dir=output_dir,
    )


def serialize(config: RunConfig) -> dict:
    """RunConfig back to a JSON-compatible dict (inverse of :func:`parse`)."""
    p = config.parameters
    return {
        "schema_version": SCHEMA_VERSION,
        "parameters": {
            "zero_field_splitting": p.zero_field_splitting,
            "d_parallel": p.d_parallel,
            "d_perp": p.d_perp,
            "t2": None if math.isinf(p.t2) else p.t2,
            "t1": None if math.isinf(p.t1) else p.t1,
            "g_factor": p.g_factor,
        },
        "fields": {
            "e0": list(config.fields.e0),
            "de": list(config.fields.de),
            "b_z": config.fields.b_z,
            "priors": list(config.fields.priors),
        },
        "noise": {"kind": config.noise.kind.value, "rate": config.noise.rate},
        "preparation": config.preparation.value,
        "time_grid": {"t_max": config.time_grid.t_max, "n_points": config.time_grid.n_points},
        "field_pairs": [
            {"e0": list(fp.e0), "de": list(fp.de), "kappa": fp.kappa} for fp in config.field_pairs
        ],
        "b_z_values": list(config.b_z_values),
        "sensor_counts": list(config.sensor_counts),
        "protocol": {
            "t_cycle": config.protocol.t_cycle,
            "n_cycles": config.protocol.n_cycles,
            "n_sensors": config.protocol.n_sensors,
            "true_t_star": config.protocol.true_t_star,
            "n_runs": config.protocol.n_runs,
        },
        "bz_sweep": {
            "e_magnitudes": list(config.bz_sweep.e_magnitudes),
            "orientations": list(config.bz_sweep.orientations),
            "b_z_values": list(config.bz_sweep.b_z_values),
            "t_window": list(config.bz_sweep.t_window),
            "preparation": config.bz_sweep.preparation.value,
            "noise_kind": config.bz_sweep.noise_kind.value,
            "noise_rate": config.bz_sweep.noise_rate,
            "bloch_traces": config.bz_sweep.bloch_traces,
        },
        "method": config.method,
        "seed": config.seed,
        "output_dir": config.output_dir,
    }


def load(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse(data)


def dump(config: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(serialize(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
