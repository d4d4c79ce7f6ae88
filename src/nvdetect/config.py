"""Run configuration: a versioned, strictly validated JSON file.

One declaration is the schema: the dataclasses below, with ``NvParameters``,
``FieldConfig`` and ``NoiseModel`` from :mod:`.hamiltonian` nested in them.
Each field declares its key:

- the annotation gives the JSON type and whether ``null`` is allowed
  (``float``, ``int``, ``bool``, ``str``, ``X | None``, ``tuple[X, ...]``, a
  fixed-length tuple, an enum given by its value, a nested dataclass given
  as an object);
- the dataclass default is the key's default;
- the field metadata gives the range: ``min``/``max`` (inclusive), ``above``
  (exclusive), ``odd``, ``choices`` (of a string), ``min_len`` (of a list,
  whose entries the other bounds apply to) and ``null`` (the number that a
  JSON ``null`` stands for).

:func:`parse` walks that declaration over the JSON data and :func:`serialize`
walks it back, so ``parse(serialize(cfg)) == cfg``. Unknown keys, wrong types,
non-finite numbers and out-of-range values raise :class:`ConfigError` naming
the full key path (e.g. ``fields.de[0]``), so typos never silently fall back to
defaults. The rules that tie two keys together are written out in
:func:`parse`; :func:`check_cells` checks the cells a subcommand propagates.
"""
import dataclasses
import enum
import functools
import json
import math
import operator
import types
import typing
from dataclasses import dataclass, field

from .errors import ConfigError, PreconditionError
from .hamiltonian import FieldConfig, NoiseKind, NoiseModel, NvParameters
from .protocol import _BLOCK_STREAMS, PreparationState

SCHEMA_VERSION = 1

#: Upper bounds of the counts; each one caps what grows with it (README).
#: Time-grid points: the (2, 3, n) Bloch vectors and n rows per curve.
MAX_GRID_POINTS = 100_000
#: Protocol cycles: one run's n_cycles x n_sensors clicks are held at once.
MAX_CYCLES = 1_000
#: Sensors per protocol cycle: one cycle's clicks fit in one click block.
MAX_PROTOCOL_SENSORS = _BLOCK_STREAMS
#: Protocol runs: one JSON text per run is kept for protocol_summary.json.
MAX_RUNS = 100_000
#: Fused sensor count: the majority-vote error sums N/2 + 1 binomial terms.
MAX_FUSED_SENSORS = 100_001

#: The propagator envelope (README): the rotation angle 2 (|Re c| + |Im c| + |w_z|) t and the
#: dephasing kappa t of every Bloch generator up to each time key t. Measured: a Bloch-norm excess of
#: 2.4e-13 at 1e3 rad (1.3e-12 at 4e3), an oblique-axis drift of 8.2e-13 at 1.5e3 (1.15e-12 at 2e3).
MAX_ROTATION = 1e3
MAX_DEPHASING = 1.5e3


@dataclass(frozen=True)
class TimeGrid:
    t_max: float = field(default=4e-6, metadata={"above": 0.0})
    n_points: int = field(default=801, metadata={"min": 2, "max": MAX_GRID_POINTS})


@dataclass(frozen=True)
class ProtocolConfig:
    """Turn-on protocol settings; the array command also measures at the cycle
    time, which ``cli._cycle_time`` resolves. A null ``true_t_star`` means 3.2 cycles."""

    t_cycle: float | None = field(default=None, metadata={"above": 0.0})
    n_cycles: int = field(default=8, metadata={"min": 1, "max": MAX_CYCLES})
    n_sensors: int = field(default=15, metadata={"min": 1, "max": MAX_PROTOCOL_SENSORS})
    true_t_star: float | None = field(default=None, metadata={"min": 0.0})
    n_runs: int = field(default=200, metadata={"min": 1, "max": MAX_RUNS})


@dataclass(frozen=True)
class BzSweepConfig:
    """Axial-field sweep settings. Unlike the other commands this sweep has
    its own preparation and noise defaults (superposition-prepared sensor
    under axial magnetic dephasing)."""

    e_magnitudes: tuple[float, ...] = field(default=(1e6,), metadata={"min_len": 1})
    orientations: tuple[str, ...] = field(
        default=("x", "y"), metadata={"min_len": 1, "choices": ("x", "y")}
    )
    b_z_values: tuple[float, ...] = field(
        default=(0.0, 1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6, 8e-6, 1e-5, 1.4e-5, 2e-5),
        metadata={"min_len": 1},
    )
    t_window: tuple[float, float] | None = field(default=None, metadata={"min": 0.0})  # None -> sweep_window
    preparation: PreparationState = PreparationState.EQUAL_SUPERPOSITION
    noise_kind: NoiseKind = NoiseKind.MAGNETIC_AXIAL
    noise_rate: float | None = field(default=None, metadata={"min": 0.0})  # None -> 1/T2
    bloch_traces: bool = False


@dataclass(frozen=True)
class FieldPair:
    """One sweep cell for the error-versus-time command."""

    e0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    de: tuple[float, float, float] = (1e6, 0.0, 0.0)
    kappa: float = field(default=0.0, metadata={"min": 0.0})


@dataclass(frozen=True)
class RunConfig:
    parameters: NvParameters = field(default_factory=NvParameters)
    fields: FieldConfig = field(default_factory=FieldConfig)
    noise: NoiseModel = field(default_factory=lambda: NoiseModel.electric(1e5))
    preparation: PreparationState = PreparationState.POLE_PLUS
    time_grid: TimeGrid = field(default_factory=TimeGrid)
    field_pairs: tuple[FieldPair, ...] = ()
    b_z_values: tuple[float, ...] = field(default=(1e-5, 2e-5), metadata={"min_len": 1})
    # the array command fits a decay rate, which needs three points
    sensor_counts: tuple[int, ...] = field(
        default=(1, 3, 5, 7, 9, 11, 13, 15),
        metadata={"min_len": 3, "min": 1, "max": MAX_FUSED_SENSORS, "odd": True},
    )
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    bz_sweep: BzSweepConfig = field(default_factory=BzSweepConfig)
    # one propagator: "auto" is the one admissible value, kept so that older configs still load
    method: str = field(default="auto", metadata={"choices": ("auto",)})
    seed: int = field(default=20260808, metadata={"min": 0, "max": 2**64 - 1})
    output_dir: str = "out"


@functools.cache
def _schema(cls) -> tuple[tuple[str, object, dataclasses.Field], ...]:
    """(key, annotation, field) of each field of a config dataclass (evaluated annotations)."""
    return tuple((f.name, f.type, f) for f in dataclasses.fields(cls))


#: JSON type of each scalar annotation: accepted Python types and their name.
_SCALARS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}
_BOUNDS = (("min", operator.ge, ">="), ("above", operator.gt, ">"), ("max", operator.le, "<="))


@functools.cache
def _generic(tp) -> tuple[object, tuple]:
    """Origin and arguments of a generic annotation (``None, ()`` for a class)."""
    return typing.get_origin(tp), typing.get_args(tp)


def _read(tp, value, path: str, meta):
    """The value of annotation ``tp`` at key ``path``, checked against ``meta``."""
    origin, args = _generic(tp)
    if origin is types.UnionType:  # X | None
        return None if value is None else _read(args[0], value, path, meta)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
            if len(value) < meta.get("min_len", 0):
                raise ConfigError(f"{path} must have length >= {meta['min_len']}, got {value!r}")
        elif len(value) != len(args):
            raise ConfigError(f"{path} must be a list of {len(args)} entries, got {value!r}")
        return tuple(_read(t, v, f"{path}[{i}]", meta) for i, (t, v) in enumerate(zip(args, value)))
    if value is None and "null" in meta:
        return meta["null"]
    if tp not in _SCALARS:
        if dataclasses.is_dataclass(tp):
            return _read_section(tp, value, path)
        choices = [member.value for member in tp]  # an enum
        if value not in choices:
            raise ConfigError(f"{path} must be one of {choices}, got {value!r}")
        return tp(value)
    kinds, noun = _SCALARS[tp]
    if not isinstance(value, kinds) or isinstance(value, bool) != (tp is bool):
        raise ConfigError(f"{path} must be {noun}, got {value!r}")
    if tp is float:
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path} must be a finite number, got {value!r}")
    for key, holds, phrase in _BOUNDS:
        if key in meta and not holds(value, meta[key]):
            raise ConfigError(f"{path} must be {phrase} {meta[key]!r}, got {value!r}")
    if meta.get("odd") and value % 2 == 0:
        raise ConfigError(f"{path} must be odd, got {value!r}")
    if "choices" in meta and value not in meta["choices"]:
        raise ConfigError(f"{path} must be one of {list(meta['choices'])}, got {value!r}")
    return value


def _read_section(cls, node, path: str):
    """An instance of config dataclass ``cls`` from the JSON object ``node``;
    an absent key takes the field's default."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be an object, got {node!r}")
    schema = _schema(cls)
    unknown = set(node) - {key for key, _, _ in schema}
    if unknown:
        raise ConfigError(f"unknown config key(s) at {path or '<root>'}: {sorted(unknown, key=str)}")
    values = {}
    for key, tp, f in schema:
        if key in node:
            values[key] = _read(tp, node[key], f"{path}.{key}" if path else key, f.metadata)
        else:
            values[key] = f.default_factory() if f.default is dataclasses.MISSING else f.default
    try:
        return cls(**values)
    except PreconditionError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _write(value, meta):
    """The JSON form of a config value (inverse of :func:`_read`)."""
    if dataclasses.is_dataclass(value):
        return {key: _write(getattr(value, key), f.metadata) for key, _, f in _schema(type(value))}
    if isinstance(value, tuple):
        return [_write(v, meta) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    return None if "null" in meta and value == meta["null"] else value


def parse(data: dict) -> RunConfig:
    """Validate a JSON-compatible dict into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    data = dict(data)
    version = data.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    # population relaxation is not modelled: null (T1 = infinity) is the one admissible t1
    params = data.get("parameters")
    if isinstance(params, dict) and "t1" in params:
        if params["t1"] is not None:
            raise ConfigError(f"parameters.t1 must be null (T1 is not modelled), got {params['t1']!r}")
        data["parameters"] = {k: v for k, v in params.items() if k != "t1"}
    # a null or absent noise.rate means 1/T2 (0 for kind none), known once t2 is read
    noise = data.get("noise", {})
    rate_from_t2 = isinstance(noise, dict) and noise.get("rate") is None
    if rate_from_t2:
        data["noise"] = {**noise, "rate": 0.0}

    config = _read_section(RunConfig, data, "")

    params, noise = config.parameters, config.noise
    if noise.kind is NoiseKind.NONE:
        if noise.rate != 0.0:
            raise ConfigError(f"noise.rate must be 0 or null when noise.kind is none, got {noise.rate!r}")
        for i, pair in enumerate(config.field_pairs):
            if pair.kappa != 0.0:
                raise ConfigError(
                    f"field_pairs[{i}].kappa must be 0 when noise.kind is none, got {pair.kappa!r}"
                )
    elif rate_from_t2:
        config = dataclasses.replace(config, noise=NoiseModel(noise.kind, params.kappa))
    sweep = config.bz_sweep
    if sweep.noise_kind is NoiseKind.NONE and sweep.noise_rate not in (None, 0.0):
        raise ConfigError(
            f"bz_sweep.noise_rate must be 0 or null when bz_sweep.noise_kind is none, "
            f"got {sweep.noise_rate!r}"
        )
    return config


def check_cells(params: NvParameters, time_key: str, t: float, cells) -> None:
    """Refuse, naming the key, a cell that cannot be propagated up to ``t``, the value of
    ``time_key``, within the propagator envelope. A cell is ``(fields, noise, keys)``: the two
    hypotheses, their noise, and the key paths of de, e0, e0 + de, the B_z and the rate."""
    for fields, noise, (de_key, e0_key, e1_key, b_z_key, rate_key) in cells:
        # electric noise fluctuates along the transverse field, which e0 or e0 + de must have
        if (noise.kind is NoiseKind.ELECTRIC_ALONG_FIELD and noise.rate > 0.0
                and not any(e[0] != 0.0 or e[1] != 0.0 for e in (fields.e0, fields.e1))):
            raise ConfigError(
                f"{de_key} must give e0 or e0 + de an x or y component under electric noise "
                f"of nonzero rate, got e0={list(fields.e0)!r}, e0 + de={list(fields.e1)!r}"
            )
        # the larger |Re c| + |Im c| of e0 and e0 + de, and |w_z| of the B_z, with their key paths
        c = max((params.transverse_coupling((abs(e[0]) + abs(e[1]), 0.0)).real, k)
                for e, k in ((fields.e0, e0_key), (fields.e1, e1_key)))
        w = (abs(params.zeeman_rate(fields.b_z)), b_z_key)
        theta = 2.0 * (c[0] + w[0]) * t
        if not theta <= MAX_ROTATION:
            raise ConfigError(f"{time_key} = {t!r} s turns the Bloch vector through 2(|Re c| + "
                              f"|Im c| + |w_z|) t = {theta:.4g} rad (largest term: {max(c, w)[1]}), "
                              f"outside the propagator envelope of {MAX_ROTATION:g} rad")
        if not noise.rate * t <= MAX_DEPHASING:
            raise ConfigError(f"{time_key} = {t!r} s gives {rate_key} = {noise.rate!r}/s a kappa t of "
                              f"{noise.rate * t:.4g}, outside the propagator envelope of {MAX_DEPHASING:g}")


def serialize(config: RunConfig) -> dict:
    """RunConfig back to a JSON-compatible dict (inverse of :func:`parse`)."""
    return {"schema_version": SCHEMA_VERSION, **_write(config, {})}


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
