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
import dataclasses
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from .config import RunConfig
from .discrimination import min_error, min_error_grid, standard_basis_error_grid
from .dynamics import Method, evolve_pair, evolve_pair_grid
from .errors import ConfigError, NumericalInvariantError, PreconditionError
from .hamiltonian import FieldConfig, NoiseModel
from .protocol import array_error_curve, superposition_bz_sweep, turn_on_blocks

_METHODS = {
    "auto": Method.AUTO,
    "closed": Method.CLOSED,
    "rk4": Method.RK4,
    "superop": Method.SUPEROPERATOR,
}


#: Rows formatted per write: bounds the text held at once on large grids.
_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: str, row_format: str, blocks) -> Path:
    """Write the ``header`` line, then every block of ``blocks`` (an iterable
    of row tuples) with one write, each row as ``row_format % row``.

    The cells follow one format: ``%.17g`` for floats (17 significant digits,
    byte-equal to ``format(float(x), ".17g")``), ``%d`` for integers and
    ``%s`` for text, with LF line endings, as ``csv.writer`` would
    write them; no text cell holds a comma, quote or line break, so none
    needs quoting. The directory is created here, on the first write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for rows in blocks:
            fh.write("".join([row_format % row for row in rows]))
    return path


def _column_blocks(*columns):
    """Rows of equal-length array columns, in blocks of ``_BLOCK_ROWS`` rows;
    a scalar column repeats its value on every row."""
    n = len(next(c for c in columns if isinstance(c, np.ndarray)))
    for lo in range(0, n, _BLOCK_ROWS):
        yield zip(*(
            c[lo:lo + _BLOCK_ROWS].tolist() if isinstance(c, np.ndarray) else itertools.repeat(c)
            for c in columns
        ))


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


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

    def blocks():
        for index, pair in enumerate(pairs):
            fields = FieldConfig(e0=pair.e0, de=pair.de, b_z=config.fields.b_z,
                                 priors=config.fields.priors)
            noise = _noise_for(config, pair.kappa)
            de_mag = abs(params.transverse_coupling(pair.de))
            is_tmin = np.zeros(times.size, dtype=np.int8)
            if de_mag > 0.0:
                n = 1
                while (t_opt := n * math.pi / (2.0 * de_mag)) <= times[-1]:
                    is_tmin[np.argmin(np.abs(times - t_opt))] = 1
                    n += 1
            r0, r1 = evolve_pair_grid(fields, params, noise, rho0, times, method=method)
            curve = min_error_grid(r0, r1, fields.priors)
            p_std = standard_basis_error_grid(r0, r1, fields.priors, best_assignment=True)
            yield from _column_blocks(
                index, pair.kappa, times, curve.p_err, p_std, curve.p_dc, curve.p_fn, is_tmin
            )

    csv_path = _write_csv(
        out / "perr_time.csv",
        "pair,kappa,t,p_err_povm,p_err_standard,p_dc,p_fn,is_tmin",
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n",
        blocks(),
    )
    manifest = _write_json(
        out / "perr_time_pairs.json",
        [{"pair": i, "e0": list(p.e0), "de": list(p.de), "kappa": p.kappa}
         for i, p in enumerate(pairs)],
    )
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

    def blocks():
        for b_z in config.b_z_values:
            curve = p_err(float(b_z))
            yield from _column_blocks(b_z, times, curve, base, curve - base)

    csv_path = _write_csv(
        out / "bz_sensitivity.csv", "b_z,t,p_err,p_err_b0,dp_err",
        "%.17g,%.17g,%.17g,%.17g,%.17g\n", blocks(),
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
    csv_path = _write_csv(
        out / "array_scaling.csv", "n_sensors,p_err", "%d,%.17g\n",
        [zip(curve.n_values, curve.p_err_n)],
    )
    json_path = _write_json(
        out / "array_alpha.json",
        {"alpha": curve.alpha, "p_dc": report.p_dc, "p_fn": report.p_fn, "t_measure": t_meas},
    )
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
    n_sensors, n_cycles = proto.n_sensors, proto.n_cycles
    blocks = turn_on_blocks(
        fields, params, noise, schedule, true_t_star, n_sensors,
        range(config.seed, config.seed + proto.n_runs),  # documented per-run seed offset
        preparation=config.preparation,
    )
    # the "cycle,t_start,t_end" cells are the same in every run
    cycle_cells = ["%d,%.17g,%.17g" % (c, c * t_cycle, (c + 1) * t_cycle) for c in range(n_cycles)]
    run_summaries = []  # one per run, appended as each block is written

    def rows():
        for block in blocks:
            first = len(run_summaries)  # index of the block's first run
            # one byte per click, B or D, so each cycle's clicks view as one S<n_sensors> string
            patterns = np.where(block.bright, np.uint8(ord("B")), np.uint8(ord("D")))
            patterns = patterns.view(f"S{n_sensors}")
            yield zip(
                np.repeat(np.arange(first, first + len(block.seeds)), n_cycles).tolist(),
                cycle_cells * len(block.seeds),
                [p.decode() for p in patterns.reshape(-1).tolist()],
                block.n_bright.reshape(-1).tolist(),
                np.where(block.majority, "B", "D").reshape(-1).tolist(),
                block.confident.reshape(-1).tolist(),
            )
            for run_index, (seed, interval) in enumerate(zip(block.seeds, block.intervals), first):
                run_summaries.append({
                    "run": run_index,
                    "seed": seed,
                    "status": "no_detection" if interval is None else "detected",
                    "interval": list(interval) if interval else None,
                    "true_t_star": true_t_star,
                    "success": interval is not None and interval[0] <= true_t_star <= interval[1],
                })

    csv_path = _write_csv(
        out / "protocol_runs.csv",
        "run,cycle,t_start,t_end,clicks,n_bright,majority,confident",
        "%d,%s,%s,%d,%s,%d\n",
        rows(),
    )
    json_path = _write_json(
        out / "protocol_summary.json",
        {
            "t_cycle": t_cycle,
            "true_t_star": true_t_star,
            "n_runs": proto.n_runs,
            "n_sensors": n_sensors,
            "success_rate": sum(r["success"] for r in run_summaries) / max(1, len(run_summaries)),
            "runs": run_summaries,
        },
    )
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

    csv_path = _write_csv(
        out / "bz_error_sweep.csv", "orientation,e_magnitude,b_z,t_opt,p_err_min",
        "%s,%.17g,%.17g,%.17g,%.17g\n",
        [[(p.orientation, p.e_magnitude, p.b_z, p.t_opt, p.p_err_min) for p in points]],
    )
    written = [csv_path]

    if sweep.bloch_traces:
        rho0 = sweep.preparation.density_matrix()
        times = np.linspace(0.0, sweep.t_window[1], 201)
        for i, p in enumerate(points):
            de = (p.e_magnitude, 0.0, 0.0) if p.orientation == "x" else (0.0, p.e_magnitude, 0.0)
            fields = FieldConfig(e0=(0.0, 0.0, 0.0), de=de, b_z=p.b_z)
            _, r1 = evolve_pair_grid(fields, config.parameters, sweep_noise, rho0, times)
            written.append(_write_csv(
                out / f"bz_sweep_bloch_{i:03d}.csv", "t,x,y,z", "%.17g,%.17g,%.17g,%.17g\n",
                _column_blocks(times, *r1.T),
            ))
    return written


def cmd_bloch(config: RunConfig, out: Path, hypothesis: int = 1) -> list[Path]:
    """Bloch trajectory (t, x, y, z) for the selected hypothesis."""
    params = config.parameters
    rho0 = config.preparation.density_matrix()
    method = _METHODS[config.method]
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)
    pair = evolve_pair_grid(config.fields, params, config.noise, rho0, times, method=method)
    return [_write_csv(
        out / "bloch.csv", "t,x,y,z", "%.17g,%.17g,%.17g,%.17g\n",
        _column_blocks(times, *pair[hypothesis].T),
    )]


_COMMANDS = {
    "perr-time": cmd_perr_time,
    "bz-sensitivity": cmd_bz_sensitivity,
    "array": cmd_array,
    "protocol": cmd_protocol,
    "appendix-b": cmd_appendix_b,
    "bloch": cmd_bloch,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared."""
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
