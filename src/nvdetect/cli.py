"""Command-line front end: deterministic CSV/JSON datasets for every sweep.

Subcommands
-----------
perr-time       error probability versus measurement time per field pair
bz-sensitivity  error shift caused by an axial magnetic field
array           fused error versus sensor count, with the fitted decay rate
protocol        seeded turn-on runs and their inferred switch intervals
appendix-b      superposition-prepared sensor: error versus axial field
bloch           Bloch trajectory of a chosen hypothesis

Identical config and seed reproduce byte-identical output files. Exit codes:
0 success, 2 config error, 3 numeric-invariant breach.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from .config import RunConfig, format_float
from .discrimination import min_error, min_error_grid, standard_basis_error_grid
from .dynamics import Method, evolve_pair, evolve_pair_grid
from .errors import ConfigError, NumericalInvariantError, PreconditionError
from .hamiltonian import FieldConfig, NoiseModel
from .protocol import Click, array_error_curve, run_turn_on_batch, superposition_bz_sweep

_METHODS = {
    "auto": Method.AUTO,
    "closed": Method.CLOSED,
    "rk4": Method.RK4,
    "superop": Method.SUPEROPERATOR,
}


def _writer(path: Path):
    fh = open(path, "w", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def _noise_for(config: RunConfig, kappa: float) -> NoiseModel:
    if kappa == 0.0:
        return NoiseModel.none()
    return NoiseModel(config.noise.kind, kappa)


def cmd_perr_time(config: RunConfig, out: Path) -> list[Path]:
    """Error-versus-time sweep for each configured field pair."""
    method = _METHODS[config.method]
    params = config.parameters
    rho0 = config.preparation.density_matrix()
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)
    pairs = config.default_field_pairs()

    csv_path = out / "perr_time.csv"
    fh, writer = _writer(csv_path)
    with fh:
        writer.writerow(
            ["pair", "kappa", "t", "p_err_povm", "p_err_standard", "p_dc", "p_fn", "is_tmin"]
        )
        for index, pair in enumerate(pairs):
            fields = FieldConfig(e0=pair.e0, de=pair.de, b_z=config.fields.b_z,
                                 priors=config.fields.priors)
            noise = _noise_for(config, pair.kappa)
            de_mag = abs(params.transverse_coupling(pair.de))
            tmin_rows: set[int] = set()
            if de_mag > 0.0:
                n = 1
                while True:
                    t_opt = n * math.pi / (2.0 * de_mag)
                    if t_opt > times[-1]:
                        break
                    tmin_rows.add(int(np.argmin(np.abs(times - t_opt))))
                    n += 1
            r0, r1 = evolve_pair_grid(fields, params, noise, rho0, times, method=method)
            curve = min_error_grid(r0, r1, fields.priors)
            p_std = standard_basis_error_grid(r0, r1, fields.priors, best_assignment=True)
            for k, t in enumerate(times):
                writer.writerow(
                    [
                        str(index),
                        format_float(pair.kappa),
                        format_float(t),
                        format_float(curve.p_err[k]),
                        format_float(p_std[k]),
                        format_float(curve.p_dc[k]),
                        format_float(curve.p_fn[k]),
                        "1" if k in tmin_rows else "0",
                    ]
                )
    manifest = out / "perr_time_pairs.json"
    with open(manifest, "w") as mh:
        json.dump(
            [{"pair": i, "e0": list(p.e0), "de": list(p.de), "kappa": p.kappa}
             for i, p in enumerate(pairs)],
            mh, indent=2, sort_keys=True,
        )
        mh.write("\n")
    return [csv_path, manifest]


def cmd_bz_sensitivity(config: RunConfig, out: Path) -> list[Path]:
    """Error shift p_err(B_z) - p_err(0) on the configured time grid."""
    method = _METHODS[config.method]
    if method is Method.CLOSED:
        raise ConfigError("bz-sensitivity needs a numeric method (no closed form with B_z and noise)")
    params = config.parameters
    rho0 = config.preparation.density_matrix()
    noise = config.noise
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)

    def p_err(b_z: float) -> np.ndarray:
        fields = dataclasses.replace(config.fields, b_z=b_z)
        r0, r1 = evolve_pair_grid(fields, params, noise, rho0, times, method=method)
        return min_error_grid(r0, r1, fields.priors).p_err

    base = p_err(0.0)

    csv_path = out / "bz_sensitivity.csv"
    fh, writer = _writer(csv_path)
    with fh:
        writer.writerow(["b_z", "t", "p_err", "p_err_b0", "dp_err"])
        for b_z in config.b_z_values:
            curve = p_err(float(b_z))
            for k, t in enumerate(times):
                writer.writerow(
                    [
                        format_float(b_z),
                        format_float(t),
                        format_float(curve[k]),
                        format_float(base[k]),
                        format_float(curve[k] - base[k]),
                    ]
                )
    return [csv_path]


def cmd_array(config: RunConfig, out: Path) -> list[Path]:
    """Fused error versus sensor count at the optimal single-shot time."""
    params = config.parameters
    rho0 = config.preparation.density_matrix()
    fields = config.fields
    noise = config.noise
    try:
        t_meas = config.protocol.schedule().cycle_time(fields, params)
    except PreconditionError as exc:
        raise ConfigError("array command needs a nonzero transverse field switch") from exc
    r0, r1 = evolve_pair(fields, params, noise, rho0, t_meas, method=_METHODS[config.method])
    report = min_error(r0, r1, fields.priors, t=t_meas)

    try:
        curve = array_error_curve(config.sensor_counts, report.p_dc, report.p_fn, fields.priors)
    except PreconditionError as exc:  # the fused error underflows to 0 at large counts
        raise ConfigError(f"sensor_counts: {exc}") from exc
    csv_path = out / "array_scaling.csv"
    fh, writer = _writer(csv_path)
    with fh:
        writer.writerow(["n_sensors", "p_err"])
        for n, p in zip(curve.n_values, curve.p_err_n):
            writer.writerow([str(n), format_float(p)])
    json_path = out / "array_alpha.json"
    with open(json_path, "w") as jh:
        json.dump(
            {
                "alpha": curve.alpha,
                "p_dc": report.p_dc,
                "p_fn": report.p_fn,
                "t_measure": t_meas,
            },
            jh, indent=2, sort_keys=True,
        )
        jh.write("\n")
    return [csv_path, json_path]


def cmd_protocol(config: RunConfig, out: Path) -> list[Path]:
    """Seeded turn-on runs: per-cycle transcripts plus a summary."""
    params = config.parameters
    fields = config.fields
    noise = config.noise
    proto = config.protocol
    schedule = proto.schedule()
    try:
        t_cycle = schedule.cycle_time(fields, params)
    except PreconditionError as exc:
        raise ConfigError("protocol command needs a nonzero transverse field switch") from exc
    true_t_star = proto.true_t_star if proto.true_t_star is not None else 3.2 * t_cycle
    runs = run_turn_on_batch(
        fields, params, noise, schedule, true_t_star, proto.n_sensors,
        range(config.seed, config.seed + proto.n_runs),  # documented per-run seed offset
        preparation=config.preparation,
    )
    bounds = [
        (format_float(cycle * t_cycle), format_float((cycle + 1) * t_cycle))
        for cycle in range(proto.n_cycles)
    ]

    csv_path = out / "protocol_runs.csv"
    fh, writer = _writer(csv_path)
    run_summaries = []
    with fh:
        writer.writerow(
            ["run", "cycle", "t_start", "t_end", "clicks", "n_bright", "majority", "confident"]
        )
        for run_index, run in enumerate(runs):
            for cycle, votes in enumerate(run.sensor_clicks):
                pattern = "".join("B" if v is Click.BRIGHT else "D" for v in votes)
                writer.writerow(
                    [
                        str(run_index),
                        str(cycle),
                        *bounds[cycle],
                        pattern,
                        str(pattern.count("B")),
                        "B" if run.clicks[cycle] is Click.BRIGHT else "D",
                        "1" if run.confident[cycle] else "0",
                    ]
                )
            contains = (
                run.estimated_interval is not None
                and run.estimated_interval[0] <= true_t_star <= run.estimated_interval[1]
            )
            run_summaries.append(
                {
                    "run": run_index,
                    "seed": run.seed,
                    "status": run.status,
                    "interval": list(run.estimated_interval) if run.estimated_interval else None,
                    "true_t_star": true_t_star,
                    "success": bool(contains),
                }
            )
    json_path = out / "protocol_summary.json"
    with open(json_path, "w") as jh:
        json.dump(
            {
                "t_cycle": t_cycle,
                "true_t_star": true_t_star,
                "n_runs": proto.n_runs,
                "n_sensors": proto.n_sensors,
                "success_rate": sum(r["success"] for r in run_summaries) / max(1, len(run_summaries)),
                "runs": run_summaries,
            },
            jh, indent=2, sort_keys=True,
        )
        jh.write("\n")
    return [csv_path, json_path]


def cmd_appendix_b(config: RunConfig, out: Path) -> list[Path]:
    """Superposition-prepared sensor under axial magnetic dephasing: minimal
    error versus axial field, per field magnitude and orientation."""
    sweep = config.bz_sweep
    sweep_noise = config.bz_sweep_noise()
    points = superposition_bz_sweep(
        sweep.e_magnitudes,
        sweep.b_z_values,
        orientations=sweep.orientations,
        params=config.parameters,
        noise=sweep_noise,
        preparation=sweep.preparation,
        window=sweep.t_window,
    )

    csv_path = out / "bz_error_sweep.csv"
    fh, writer = _writer(csv_path)
    with fh:
        writer.writerow(["orientation", "e_magnitude", "b_z", "t_opt", "p_err_min"])
        for p in points:
            writer.writerow(
                [p.orientation, format_float(p.e_magnitude), format_float(p.b_z),
                 format_float(p.t_opt), format_float(p.p_err_min)]
            )
    written = [csv_path]

    if sweep.bloch_traces:
        rho0 = sweep.preparation.density_matrix()
        times = np.linspace(0.0, sweep.t_window[1], 201)
        for i, p in enumerate(points):
            de = (p.e_magnitude, 0.0, 0.0) if p.orientation == "x" else (0.0, p.e_magnitude, 0.0)
            fields = FieldConfig(e0=(0.0, 0.0, 0.0), de=de, b_z=p.b_z)
            _, r1 = evolve_pair_grid(fields, config.parameters, sweep_noise, rho0, times)
            path = out / f"bz_sweep_bloch_{i:03d}.csv"
            bh, bwriter = _writer(path)
            with bh:
                bwriter.writerow(["t", "x", "y", "z"])
                for t, r in zip(times, r1):
                    bwriter.writerow([format_float(v) for v in (t, *r)])
            written.append(path)
    return written


def cmd_bloch(config: RunConfig, out: Path, hypothesis: int = 1) -> list[Path]:
    """Bloch trajectory (t, x, y, z) for the selected hypothesis."""
    params = config.parameters
    rho0 = config.preparation.density_matrix()
    method = _METHODS[config.method]
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)
    csv_path = out / "bloch.csv"
    fh, writer = _writer(csv_path)
    with fh:
        writer.writerow(["t", "x", "y", "z"])
        pair = evolve_pair_grid(config.fields, params, config.noise, rho0, times, method=method)
        for t, (x, y, z) in zip(times, pair[hypothesis]):
            writer.writerow([format_float(t), format_float(x), format_float(y), format_float(z)])
    return [csv_path]


_COMMANDS = {
    "perr-time": cmd_perr_time,
    "bz-sensitivity": cmd_bz_sensitivity,
    "array": cmd_array,
    "protocol": cmd_protocol,
    "appendix-b": cmd_appendix_b,
    "bloch": cmd_bloch,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvdetect",
        description="Datasets for single-photon detection with an NV spin electrometer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0] if fn.__doc__ else None)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="64-bit unsigned seed")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted for compatibility; sweeps run in this process and start no workers",
        )
        p.add_argument(
            "--method",
            choices=sorted(_METHODS),
            default=None,
            help="propagator: auto (the batched Bloch-vector kernel) or a cross-check "
            "route: closed, rk4, superop",
        )
        if name == "bloch":
            p.add_argument("--hypothesis", type=int, choices=(0, 1), default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_mod.load(args.config) if args.config else config_mod.parse({})
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=args.out)
        if args.seed is not None:
            if args.seed < 0 or args.seed > 2**64 - 1:
                raise ConfigError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
            config = dataclasses.replace(config, seed=args.seed)
        if args.method is not None:
            config = dataclasses.replace(config, method=args.method)
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        kwargs = {"hypothesis": args.hypothesis} if args.command == "bloch" else {}
        written = _COMMANDS[args.command](config, out, **kwargs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalInvariantError as exc:
        print(f"numeric invariant breach: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
