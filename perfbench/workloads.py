"""Seeded inputs for the three benchmark workloads.

Each workload is a JSON config plus the CLI subcommands that run on it, one
after the other. The seed draws field magnitudes and angles, B_z values,
noise rates and the switch time t*. It never changes which propagator route
applies, so a workload keeps its character on every seed. The ranges are
narrow where the cost of a point depends on the field (the number of
squarings in the matrix exponential grows with |generator| * t), so the
work per pass hardly depends on the seed:

- time-sweep: pole-plus preparation, electric noise along the field and
  B_z = 0 for ``perr-time`` and ``bloch`` (closed forms), seeded nonzero B_z
  values for ``bz-sensitivity`` (4x4 superoperator), one ``array`` point.
- optimal-search: ``appendix-b`` cells with superposition preparation and
  axial magnetic noise, which no closed form covers.
- turn-on: ``protocol`` runs at the default shape (8 cycles, 15 sensors).

Every timed operation takes about 0.2 to 3 s, so the host-speed probes that
bracket each one (see run.py) follow the host closely.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Physical parameters pinned for every workload (the package defaults,
#: written out so the reference check reads the same numbers).
PARAMETERS = {
    "zero_field_splitting": 2.87e9,
    "d_parallel": 0.0035,
    "d_perp": 0.17,
    "t2": 1e-5,
    "t1": None,
    "g_factor": 2.0028,
}

#: Time-grid size of the time-sweep workload, chosen so one pass of its four
#: subcommands takes about 2.5 s on a 2-vCPU Xeon.
TIME_SWEEP_POINTS = 501
#: Protocol runs per turn-on pass (about 3 s on the same machine).
TURN_ON_RUNS = 400


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[tuple[str, dict], ...]  # (subcommand, config) in the order they run
    units: dict  # work units of one pass, so throughput follows from wall_s


def _transverse(rng: random.Random, lo: float, hi: float) -> list[float]:
    """A transverse field of seeded magnitude in [lo, hi] V/m and seeded angle."""
    mag = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [mag * math.cos(phi), mag * math.sin(phi), 0.0]


def cycle_time(de) -> float:
    """pi / (2 |coupling|) with coupling = 2 pi d_perp |E_perp|, in seconds."""
    return 1.0 / (4.0 * PARAMETERS["d_perp"] * math.hypot(de[0], de[1]))


def _time_sweep(rng: random.Random, seed: int) -> Workload:
    pairs = []
    for _ in range(2):
        e0 = _transverse(rng, 1e5, 4e5)
        de = _transverse(rng, 8e5, 3e6)
        pairs.append({"e0": e0, "de": de, "kappa": 0.0})
        pairs.append({"e0": e0, "de": de, "kappa": rng.uniform(5e4, 2e5)})
    config = {
        "parameters": PARAMETERS,
        "fields": {"e0": _transverse(rng, 1e5, 4e5), "de": _transverse(rng, 1e6, 1.5e6),
                   "b_z": 0.0, "priors": [0.5, 0.5]},
        "noise": {"kind": "electric_along_field", "rate": rng.uniform(5e4, 2e5)},
        "preparation": "pole_plus",
        "time_grid": {"t_max": 4e-6, "n_points": TIME_SWEEP_POINTS},
        "field_pairs": pairs,
        "b_z_values": [rng.uniform(1e-5, 1.5e-5), rng.uniform(1.5e-5, 2e-5)],
        "method": "auto",
        "seed": seed,
    }
    n = TIME_SWEEP_POINTS
    units = {"perr_time_rows": len(pairs) * n, "bz_sensitivity_rows": 2 * n,
             "bloch_rows": n, "array_rows": 8}
    commands = ("perr-time", "bz-sensitivity", "bloch", "array")
    return Workload("time-sweep", tuple((c, config) for c in commands), units)


def _optimal_search(rng: random.Random, seed: int) -> Workload:
    """One cell per invocation, orientation x then y, so that no single
    timed operation runs much longer than the others."""
    config = {
        "parameters": PARAMETERS,
        "bz_sweep": {
            "e_magnitudes": [rng.uniform(1e6, 1.4e6)],
            "orientations": ["x"],
            "b_z_values": [rng.uniform(3e-6, 6e-6)],
            "t_window": [1e-9, 1e-5],
            "preparation": "equal_superposition",
            "noise_kind": "magnetic_axial",
            "noise_rate": rng.uniform(5e4, 1.5e5),
            "bloch_traces": False,
        },
        "method": "auto",
        "seed": seed,
    }
    config_y = {**config, "bz_sweep": {**config["bz_sweep"], "orientations": ["y"]}}
    return Workload("optimal-search", (("appendix-b", config), ("appendix-b", config_y)), {"cells": 2})


def _turn_on(rng: random.Random, seed: int) -> Workload:
    """Two invocations of TURN_ON_RUNS / 2 runs; the second starts its
    per-run seeds where the first ends, so together they are runs
    0 .. TURN_ON_RUNS - 1 of one seed."""
    de = _transverse(rng, 8e5, 2e6)
    t_star = (rng.randint(2, 5) + rng.uniform(0.1, 0.9)) * cycle_time(de)
    config = {
        "parameters": PARAMETERS,
        "fields": {"e0": [0.0, 0.0, 0.0], "de": de, "b_z": 0.0, "priors": [0.5, 0.5]},
        "noise": {"kind": "electric_along_field", "rate": rng.uniform(5e4, 1.5e5)},
        "preparation": "pole_plus",
        "protocol": {"t_cycle": None, "n_cycles": 8, "n_sensors": 15,
                     "true_t_star": t_star, "n_runs": TURN_ON_RUNS // 2},
        "method": "auto",
        "seed": rng.getrandbits(63),
    }
    second = {**config, "seed": config["seed"] + TURN_ON_RUNS // 2}
    return Workload("turn-on", (("protocol", config), ("protocol", second)), {"runs": TURN_ON_RUNS})


_BUILDERS = {"time-sweep": _time_sweep, "optimal-search": _optimal_search, "turn-on": _turn_on}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload's inputs for one seed; equal seeds give equal inputs."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), seed)
