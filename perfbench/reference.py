"""Independent reference for the benchmark's output checks.

Nothing here imports nvdetect. Each hypothesis is propagated as a Bloch
vector, r' = M r, with the real 3x3 generator

    M = [Omega]_x + kappa (n n^T - I),

where Omega = 2 (Re c, Im c, w_z) is the precession vector of
H = D + Re(c) sigma_x + Im(c) sigma_y + w_z sigma_z (c = 2 pi d_perp
(E_x + i E_y), w_z = g mu_B B_z / hbar) and n is the axis of the dephasing
jump operator sqrt(kappa/2) sigma_n. The error of the best measurement is the
2x2 trace-distance (Helstrom) error

    p_err = (1 - max(|P1 - P0|, |P1 r1 - P0 r0|)) / 2.

The checks compare a sample of rows against this reference within stated
tolerances instead of comparing digests, so a change that moves only the last
bits of the output still passes.
"""
from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

#: Absolute tolerance on every error probability.
P_TOL = 1e-9
#: Absolute tolerance on the optimal measurement time (seconds).
T_OPT_TOL = 1e-10
#: Absolute tolerance on Bloch-vector components.
BLOCH_TOL = 1e-9
#: Rows sampled per CSV file.
SAMPLE_ROWS = 48
#: Lowest acceptable bracketing rate of the turn-on protocol.
MIN_SUCCESS_RATE = 0.99

HBAR = 1.054571817e-34  # J s (CODATA 2018)
MU_B = 9.2740100783e-24  # J/T (CODATA 2018)

POLE_PLUS = np.array([0.0, 0.0, 1.0])
EQUAL_SUPERPOSITION = np.array([1.0, 0.0, 0.0])


class CheckFailed(Exception):
    """An output file disagrees with the reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expm3(a: np.ndarray) -> np.ndarray:
    """exp(a) for a small real matrix: Taylor series after scaling to norm 1/4,
    then repeated squaring."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    b = a / 2.0 ** squarings
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 30):
        term = term @ b / k
        out = out + term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


class Physics:
    """The parameters block of a config, as rates in rad/s."""

    def __init__(self, parameters: dict):
        self.d_perp = parameters["d_perp"]
        self.g = parameters["g_factor"]
        t2 = parameters["t2"]
        self.kappa_default = 0.0 if t2 is None else 1.0 / t2

    def coupling(self, e) -> complex:
        return 2.0 * math.pi * self.d_perp * complex(e[0], e[1])

    def cycle(self, de) -> float:
        """Quarter period pi / (2 |coupling|) of a switch de, in seconds."""
        return 1.0 / (4.0 * self.d_perp * math.hypot(de[0], de[1]))

    def zeeman(self, b_z: float) -> float:
        return self.g * MU_B * b_z / HBAR

    def generator(self, e, b_z: float, axis, kappa: float) -> np.ndarray:
        c = self.coupling(e)
        ox, oy, oz = 2.0 * c.real, 2.0 * c.imag, 2.0 * self.zeeman(b_z)
        m = np.array([[0.0, -oz, oy], [oz, 0.0, -ox], [-oy, ox, 0.0]])
        if kappa > 0.0:
            n = np.asarray(axis, dtype=float)
            m = m + kappa * (np.outer(n, n) - np.eye(3))
        return m


def noise_axes(kind: str, e0, e1):
    """Dephasing axis per hypothesis. Electric noise follows each hypothesis's
    own transverse field; a hypothesis without one takes the other's."""
    if kind == "magnetic_axial":
        return (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)

    def unit(e):
        mag = math.hypot(e[0], e[1])
        return None if mag == 0.0 else (e[0] / mag, e[1] / mag, 0.0)

    u0, u1 = unit(e0), unit(e1)
    return (u0 or u1), (u1 or u0)


class Pair:
    """Both hypotheses of one detection problem, propagated on demand."""

    def __init__(self, physics: Physics, e0, de, b_z, kind: str, kappa: float, r0, priors):
        e1 = [a + b for a, b in zip(e0, de)]
        if kind == "none":
            kappa = 0.0
        ax0, ax1 = noise_axes(kind, e0, e1) if kappa > 0.0 else (None, None)
        self.m0 = physics.generator(e0, b_z, ax0, kappa)
        self.m1 = physics.generator(e1, b_z, ax1, kappa)
        self.r0 = np.asarray(r0, dtype=float)
        self.priors = priors

    def states(self, t: float):
        return expm3(self.m0 * t) @ self.r0, expm3(self.m1 * t) @ self.r0

    def p_err(self, t: float) -> float:
        r0, r1 = self.states(t)
        p0, p1 = self.priors
        return 0.5 * (1.0 - max(abs(p1 - p0), float(np.linalg.norm(p1 * r1 - p0 * r0))))

    def p_err_scan(self, times: np.ndarray) -> np.ndarray:
        """p_err on a whole grid through the generators' eigendecompositions
        (Taylor series point by point if an eigenbasis is ill-conditioned)."""
        states = []
        for m in (self.m0, self.m1):
            lam, vecs = np.linalg.eig(m)
            if np.linalg.cond(vecs) > 1e6:
                states.append(np.array([expm3(m * t) @ self.r0 for t in times]))
                continue
            coeff = np.linalg.solve(vecs, self.r0.astype(complex))
            states.append(((np.exp(np.outer(times, lam)) * coeff) @ vecs.T).real)
        p0, p1 = self.priors
        dist = np.linalg.norm(p1 * states[1] - p0 * states[0], axis=1)
        return 0.5 * (1.0 - np.maximum(abs(p1 - p0), dist))

    def p_standard(self, t: float) -> float:
        """Fixed fluorescence readout, better of the two outcome labelings."""
        r0, r1 = self.states(t)
        p0, p1 = self.priors
        p = p0 * 0.5 * (1.0 - r0[2]) + p1 * 0.5 * (1.0 + r1[2])
        return min(p, 1.0 - p)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows), f"{path.name} is empty")
    return rows[0], rows[1:]


def _sample(n_rows: int, rng: random.Random) -> list[int]:
    picks = {0, n_rows - 1}
    picks.update(rng.sample(range(n_rows), min(SAMPLE_ROWS, n_rows)))
    return sorted(picks)


def _close(name: str, got: float, want: float, tol: float) -> None:
    _require(abs(got - want) <= tol, f"{name}: got {got!r}, reference {want!r} (tol {tol})")


def _grid(config: dict) -> np.ndarray:
    grid = config["time_grid"]
    return np.linspace(0.0, grid["t_max"], grid["n_points"])


def _check_grid_column(name: str, values, times: np.ndarray) -> None:
    scale = 1e-12 * float(times[-1])
    _require(len(values) == len(times), f"{name}: {len(values)} grid rows, expected {len(times)}")
    worst = float(np.max(np.abs(np.asarray(values, dtype=float) - times)))
    _require(worst <= scale, f"{name}: time grid off by {worst!r} s")


def check_perr_time(out: Path, config: dict, rng: random.Random) -> None:
    physics = Physics(config["parameters"])
    header, rows = _read_csv(out / "perr_time.csv")
    _require(header == ["pair", "kappa", "t", "p_err_povm", "p_err_standard", "p_dc", "p_fn",
                        "is_tmin"], f"perr_time.csv header {header}")
    pairs = config["field_pairs"]
    times = _grid(config)
    _require(len(rows) == len(pairs) * len(times), f"perr_time.csv has {len(rows)} rows")
    with open(out / "perr_time_pairs.json") as fh:
        listed = json.load(fh)
    _require([(p["e0"], p["de"], p["kappa"]) for p in listed]
             == [(p["e0"], p["de"], p["kappa"]) for p in pairs], "perr_time_pairs.json differs from inputs")
    priors = tuple(config["fields"]["priors"])
    kind = config["noise"]["kind"]
    for index, pair in enumerate(pairs):
        block = rows[index * len(times):(index + 1) * len(times)]
        _require(all(r[0] == str(index) for r in block), f"pair {index}: rows out of order")
        _check_grid_column(f"perr_time pair {index}", [float(r[2]) for r in block], times)
        cycle = physics.cycle(pair["de"])
        flagged = {int(np.argmin(np.abs(times - n * cycle)))
                   for n in range(1, int(times[-1] / cycle) + 2) if n * cycle <= times[-1]}
        got = {k for k, r in enumerate(block) if r[7] == "1"}
        _require(got == flagged, f"pair {index}: is_tmin rows {sorted(got)}, expected {sorted(flagged)}")
        ref = Pair(physics, pair["e0"], pair["de"], 0.0, kind, pair["kappa"], POLE_PLUS, priors)
        for k in _sample(len(block), rng):
            t = float(times[k])
            _, _, _, p_err, p_std, p_dc, p_fn, _ = block[k]
            where = f"perr_time pair {index} t={t!r}"
            _close(where + " p_err_povm", float(p_err), ref.p_err(t), P_TOL)
            _close(where + " p_err_standard", float(p_std), ref.p_standard(t), P_TOL)
            _close(where + " p_dc/p_fn", priors[0] * float(p_dc) + priors[1] * float(p_fn),
                   float(p_err), P_TOL)


def check_bz_sensitivity(out: Path, config: dict, rng: random.Random) -> None:
    physics = Physics(config["parameters"])
    header, rows = _read_csv(out / "bz_sensitivity.csv")
    _require(header == ["b_z", "t", "p_err", "p_err_b0", "dp_err"], f"bz_sensitivity.csv header {header}")
    times = _grid(config)
    b_values = config["b_z_values"]
    _require(len(rows) == len(b_values) * len(times), f"bz_sensitivity.csv has {len(rows)} rows")
    f = config["fields"]
    kind, rate = config["noise"]["kind"], config["noise"]["rate"]
    base = Pair(physics, f["e0"], f["de"], 0.0, kind, rate, POLE_PLUS, tuple(f["priors"]))
    for index, b_z in enumerate(b_values):
        block = rows[index * len(times):(index + 1) * len(times)]
        _require(all(float(r[0]) == b_z for r in block), f"bz_sensitivity b_z={b_z!r}: rows out of order")
        _check_grid_column(f"bz_sensitivity b_z={b_z!r}", [float(r[1]) for r in block], times)
        ref = Pair(physics, f["e0"], f["de"], b_z, kind, rate, POLE_PLUS, tuple(f["priors"]))
        for k in _sample(len(block), rng):
            t = float(times[k])
            p, p0, dp = (float(v) for v in block[k][2:])
            where = f"bz_sensitivity b_z={b_z!r} t={t!r}"
            _close(where + " p_err", p, ref.p_err(t), P_TOL)
            _close(where + " p_err_b0", p0, base.p_err(t), P_TOL)
            _close(where + " dp_err", dp, p - p0, 1e-12)


def check_bloch(out: Path, config: dict, rng: random.Random) -> None:
    physics = Physics(config["parameters"])
    header, rows = _read_csv(out / "bloch.csv")
    _require(header == ["t", "x", "y", "z"], f"bloch.csv header {header}")
    times = _grid(config)
    _check_grid_column("bloch", [float(r[0]) for r in rows], times)
    f = config["fields"]
    ref = Pair(physics, f["e0"], f["de"], f["b_z"], config["noise"]["kind"], config["noise"]["rate"],
               POLE_PLUS, tuple(f["priors"]))
    for k in _sample(len(rows), rng):
        t = float(times[k])
        _, r1 = ref.states(t)
        got = np.array([float(v) for v in rows[k][1:]])
        worst = float(np.max(np.abs(got - r1)))
        _require(worst <= BLOCH_TOL, f"bloch t={t!r}: off by {worst!r}")


def _majority_error(n: int, p01: float, p10: float, priors) -> float:
    def tail(p_wrong):
        return sum(math.comb(n, k) * (1.0 - p_wrong) ** k * p_wrong ** (n - k) for k in range(n // 2 + 1))
    return priors[0] * tail(p01) + priors[1] * tail(p10)


def check_array(out: Path, config: dict, rng: random.Random) -> None:
    physics = Physics(config["parameters"])
    with open(out / "array_alpha.json") as fh:
        alpha = json.load(fh)
    f = config["fields"]
    priors = tuple(f["priors"])
    t_meas = physics.cycle(f["de"])
    _close("array t_measure", alpha["t_measure"], t_meas, 1e-12 * t_meas)
    ref = Pair(physics, f["e0"], f["de"], f["b_z"], config["noise"]["kind"], config["noise"]["rate"],
               POLE_PLUS, priors)
    p_single = priors[0] * alpha["p_dc"] + priors[1] * alpha["p_fn"]
    _close("array single-sensor error", p_single, ref.p_err(t_meas), P_TOL)
    header, rows = _read_csv(out / "array_scaling.csv")
    _require(header == ["n_sensors", "p_err"], f"array_scaling.csv header {header}")
    _require([int(r[0]) for r in rows] == [1, 3, 5, 7, 9, 11, 13, 15], "array_scaling.csv sensor counts")
    for n, p in rows:
        want = _majority_error(int(n), alpha["p_dc"], alpha["p_fn"], priors)
        _close(f"array n={n}", float(p), want, 1e-12 + 1e-9 * want)


def _golden_min(fn, lo: float, hi: float, tol: float) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi)


def check_bz_error_sweep(out: Path, config: dict, rng: random.Random) -> None:
    """Each cell's t_opt must be a minimizer of the reference error (within
    T_OPT_TOL), its p_err_min the reference error there (within P_TOL), and no
    point of a dense reference scan of the window may beat it by more than P_TOL."""
    physics = Physics(config["parameters"])
    sweep = config["bz_sweep"]
    header, rows = _read_csv(out / "bz_error_sweep.csv")
    _require(header == ["orientation", "e_magnitude", "b_z", "t_opt", "p_err_min"],
             f"bz_error_sweep.csv header {header}")
    cells = [(o, e, b) for o in sweep["orientations"] for e in sweep["e_magnitudes"]
             for b in sweep["b_z_values"]]
    _require(len(rows) == len(cells), f"bz_error_sweep.csv has {len(rows)} rows, expected {len(cells)}")
    r0 = EQUAL_SUPERPOSITION if sweep["preparation"] == "equal_superposition" else POLE_PLUS
    rate = sweep["noise_rate"] if sweep["noise_rate"] is not None else physics.kappa_default
    t_lo, t_hi = sweep["t_window"]
    scan = np.linspace(t_lo, t_hi, 4097)
    step = (t_hi - t_lo) / 2048
    for row, (orientation, e_mag, b_z) in zip(rows, cells):
        where = f"bz_error_sweep cell ({orientation}, {e_mag!r}, {b_z!r})"
        _require(row[0] == orientation and float(row[1]) == e_mag and float(row[2]) == b_z,
                 f"{where}: row {row[:3]}")
        t_opt, p_min = float(row[3]), float(row[4])
        de = [e_mag, 0.0, 0.0] if orientation == "x" else [0.0, e_mag, 0.0]
        ref = Pair(physics, [0.0, 0.0, 0.0], de, b_z, sweep["noise_kind"], rate, r0, (0.5, 0.5))
        _close(where + " p_err_min", p_min, ref.p_err(t_opt), P_TOL)
        t_ref = _golden_min(ref.p_err, max(t_lo, t_opt - 2 * step), min(t_hi, t_opt + 2 * step), 1e-13)
        _close(where + " t_opt", t_opt, t_ref, T_OPT_TOL)
        best = float(np.min(ref.p_err_scan(scan)))
        _require(p_min <= best + P_TOL, f"{where}: p_err_min {p_min!r} above scan minimum {best!r}")


def check_protocol(out: Path, config: dict, rng: random.Random) -> None:
    """The summary must follow from the transcript by the documented rule,
    and at least MIN_SUCCESS_RATE of the runs must bracket t*."""
    physics = Physics(config["parameters"])
    proto, f = config["protocol"], config["fields"]
    with open(out / "protocol_summary.json") as fh:
        summary = json.load(fh)
    t_cycle = physics.cycle(f["de"])
    _close("protocol t_cycle", summary["t_cycle"], t_cycle, 1e-12 * t_cycle)
    single = Pair(physics, f["e0"], f["de"], f["b_z"], config["noise"]["kind"], config["noise"]["rate"],
                  POLE_PLUS, tuple(f["priors"]))
    informative = single.p_err(t_cycle) < 0.5 - 1e-6
    _require(summary["true_t_star"] == proto["true_t_star"], "protocol true_t_star differs from input")
    n_runs, n_cycles, n_sensors = proto["n_runs"], proto["n_cycles"], proto["n_sensors"]
    _require(summary["n_runs"] == n_runs and len(summary["runs"]) == n_runs, "protocol run count")
    header, rows = _read_csv(out / "protocol_runs.csv")
    _require(header == ["run", "cycle", "t_start", "t_end", "clicks", "n_bright", "majority", "confident"],
             f"protocol_runs.csv header {header}")
    _require(len(rows) == n_runs * n_cycles, f"protocol_runs.csv has {len(rows)} rows")
    t_star = proto["true_t_star"]
    successes = 0
    for run_index, run in enumerate(summary["runs"]):
        _require(run["run"] == run_index and run["seed"] == config["seed"] + run_index,
                 f"protocol run {run_index}: index or seed")
        majority, confident = [], []
        for cycle, row in enumerate(rows[run_index * n_cycles:(run_index + 1) * n_cycles]):
            where = f"protocol run {run_index} cycle {cycle}"
            _require(row[0] == str(run_index) and row[1] == str(cycle), f"{where}: out of order")
            _close(where + " t_start", float(row[2]), cycle * t_cycle, 1e-12 * t_cycle)
            _close(where + " t_end", float(row[3]), (cycle + 1) * t_cycle, 1e-12 * t_cycle)
            clicks = row[4]
            _require(len(clicks) == n_sensors and set(clicks) <= {"B", "D"}, f"{where}: clicks {clicks}")
            n_bright = clicks.count("B")
            _require(row[5] == str(n_bright), f"{where}: n_bright {row[5]} for {clicks}")
            bright = 2 * n_bright > n_sensors
            _require(row[6] == ("B" if bright else "D"), f"{where}: majority {row[6]}")
            sure = abs(2 * n_bright - n_sensors) >= 2 or n_sensors == 1
            _require(row[7] == ("1" if sure else "0"), f"{where}: confident {row[7]}")
            majority.append(bright)
            confident.append(sure)
        interval = _bracket(majority, confident, t_cycle) if informative else None
        got = run["interval"]
        if interval is None:
            _require(got is None and run["status"] == "no_detection", f"protocol run {run_index}: expected no detection")
        else:
            _require(got is not None and run["status"] == "detected", f"protocol run {run_index}: expected detection")
            _close(f"protocol run {run_index} interval start", got[0], interval[0], 1e-12 * t_cycle)
            _close(f"protocol run {run_index} interval end", got[1], interval[1], 1e-12 * t_cycle)
        success = interval is not None and interval[0] <= t_star <= interval[1]
        _require(run["success"] == success, f"protocol run {run_index}: success flag")
        successes += success
    _close("protocol success_rate", summary["success_rate"], successes / n_runs, 1e-15)
    _require(summary["success_rate"] >= MIN_SUCCESS_RATE,
             f"protocol success_rate {summary['success_rate']} below {MIN_SUCCESS_RATE}")


def _bracket(bright, confident, t_cycle):
    """From the last confident dark cycle before the first confident bright
    one to the end of that bright cycle, clipped to two cycles around its
    centre."""
    first = next((i for i, (b, c) in enumerate(zip(bright, confident)) if b and c), None)
    if first is None:
        return None
    last_dark = next((i for i in range(first - 1, -1, -1) if confident[i] and not bright[i]), None)
    hi = (first + 1) * t_cycle
    if last_dark is None:
        return max(0.0, hi - 2.0 * t_cycle), hi
    lo = last_dark * t_cycle
    if hi - lo > 2.0 * t_cycle:
        centre = 0.5 * (lo + hi)
        lo, hi = centre - t_cycle, centre + t_cycle
    return lo, hi


#: Output check of each subcommand.
CHECKS = {
    "perr-time": check_perr_time,
    "bz-sensitivity": check_bz_sensitivity,
    "bloch": check_bloch,
    "array": check_array,
    "appendix-b": check_bz_error_sweep,
    "protocol": check_protocol,
}
