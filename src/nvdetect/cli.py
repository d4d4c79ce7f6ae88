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
0 success, 2 config error (an unusable output directory included), 3
numeric-invariant breach.
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
from .discrimination import min_error_grid, optimal_time_search, standard_basis_error_grid
from .dynamics import evolve_pair_grid
from .errors import ConfigError, NumericalInvariantError, PreconditionError
from .hamiltonian import FieldConfig, NoiseModel
from .protocol import array_error_curve, sweep_window, turn_on_blocks

#: Rows formatted per write: bounds the text held at once on large grids.
_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: str, row_format: str, blocks) -> Path:
    """Write the ``header`` line, then every block of ``blocks`` (an iterable
    of row tuples) with one write, each row as ``row_format % row``.

    The cells follow one format: ``%.17g`` for floats (17 significant digits,
    byte-equal to ``format(float(x), ".17g")``), ``%d`` for integers and
    ``%s`` for text, with LF line endings, as ``csv.writer`` would
    write them; no text cell holds a comma, quote or line break, so none
    needs quoting. The directory is created here, on the first write. If a
    block raises, the partial file is removed before the error propagates,
    and so is each directory created here that is then empty, so no file
    that looks complete and no empty output directory is left behind.
    """
    created = list(itertools.takewhile(lambda d: not d.exists(), path.parents))
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            for rows in blocks:
                fh.write("".join([row_format % row for row in rows]))
    except BaseException:
        path.unlink(missing_ok=True)
        for directory in created:  # innermost first
            if any(directory.iterdir()):
                break
            directory.rmdir()
        raise
    return path


def _column_blocks(*columns):
    """Rows of equal-length array or list columns (a list of text cells formatted once, for
    ``%s``), in blocks of ``_BLOCK_ROWS`` rows; a scalar column repeats its value on every row."""
    n = len(next(c for c in columns if isinstance(c, (np.ndarray, list))))
    for lo in range(0, n, _BLOCK_ROWS):
        yield zip(*(
            c[lo:lo + _BLOCK_ROWS].tolist() if isinstance(c, np.ndarray)
            else c[lo:lo + _BLOCK_ROWS] if isinstance(c, list) else itertools.repeat(c)
            for c in columns
        ))


#: protocol_summary.json as ``json.dumps(summary, indent=2, sort_keys=True) + "\n"`` writes it:
#: floats go through ``%r`` (float.__repr__, as in json), and each run is one ``_RUN_JSON``.
_SUMMARY_JSON = ('{\n  "n_runs": %d,\n  "n_sensors": %d,\n  "runs": [\n%s\n  ],\n'
                 '  "success_rate": %r,\n  "t_cycle": %r,\n  "true_t_star": %r\n}\n')
_RUN_JSON = ('    {\n      "interval": %s,\n      "run": %d,\n      "seed": %d,\n'
             '      "status": "%s",\n      "success": %s,\n      "true_t_star": %r\n    }')


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def _quarter_period_marks(times: np.ndarray, params, de) -> np.ndarray:
    """1 at the grid point nearest to each quarter period t_n of the switch
    ``de`` up to times[-1], else 0, for a sorted grid of at least two points.

    t_n is computed as :meth:`NvParameters.transfer_time` computes it, and
    ties go to the earlier point, as ``np.argmin(np.abs(times - t_n))``
    breaks them. The nearest point is monotone in t, so every marked row is
    also reached by an n nearest to its own time from one side; only n within
    2 of times[k] / t_1 for some row k are tried, at most five per row
    however many quarter periods fit.
    """
    marks = np.zeros(times.size, dtype=np.int8)
    if params.transfer_time(de) > times[-1]:  # also without a transverse switch
        return marks
    coupling = abs(params.transverse_coupling(de))
    nearest = np.rint(times * (2.0 * coupling / math.pi))  # nondecreasing, as times is sorted
    nearest = nearest[np.diff(nearest, prepend=-1.0) > 0.0]
    n = (nearest[:, None] + np.arange(-2.0, 3.0)).ravel()
    t_n = n * math.pi / (2.0 * coupling)
    t_n = t_n[(n >= 1.0) & (t_n <= times[-1])]
    j = np.clip(np.searchsorted(times, t_n), 1, times.size - 1)
    marks[j - (np.abs(times[j - 1] - t_n) <= np.abs(times[j] - t_n))] = 1
    return marks


def cmd_perr_time(config: RunConfig, out: Path) -> list[Path]:
    """Error-versus-time sweep for each configured field pair."""
    params = config.parameters
    rho0 = config.preparation.density_matrix()
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)
    pairs = config.default_field_pairs()
    time_cells = ["%.17g" % t for t in times.tolist()]

    def blocks():
        for index, pair in enumerate(pairs):
            fields = FieldConfig(e0=pair.e0, de=pair.de, b_z=config.fields.b_z,
                                 priors=config.fields.priors)
            noise = NoiseModel(config.noise.kind, pair.kappa)
            is_tmin = _quarter_period_marks(times, params, pair.de)
            r0, r1 = evolve_pair_grid(fields, params, noise, rho0, times)
            curve = min_error_grid(r0, r1, fields.priors)
            p_std = standard_basis_error_grid(r0, r1, fields.priors, best_assignment=True)
            yield from _column_blocks(
                index, "%.17g" % pair.kappa, time_cells, curve.p_err, p_std, curve.p_dc,
                curve.p_fn, is_tmin,
            )

    csv_path = _write_csv(
        out / "perr_time.csv",
        "pair,kappa,t,p_err_povm,p_err_standard,p_dc,p_fn,is_tmin",
        "%d,%s,%s,%.17g,%.17g,%.17g,%.17g,%d\n",
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
    params = config.parameters
    rho0 = config.preparation.density_matrix()
    noise = config.noise
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)

    def p_err(b_z: float) -> np.ndarray:
        fields = dataclasses.replace(config.fields, b_z=b_z)
        r0, r1 = evolve_pair_grid(fields, params, noise, rho0, times)
        return min_error_grid(r0, r1, fields.priors).p_err

    base = p_err(0.0)
    time_cells = ["%.17g" % t for t in times.tolist()]
    base_cells = ["%.17g" % p for p in base.tolist()]

    def blocks():
        for b_z in config.b_z_values:
            curve = p_err(float(b_z))
            yield from _column_blocks("%.17g" % b_z, time_cells, curve, base_cells, curve - base)

    csv_path = _write_csv(
        out / "bz_sensitivity.csv", "b_z,t,p_err,p_err_b0,dp_err",
        "%s,%s,%.17g,%s,%.17g\n", blocks(),
    )
    return [csv_path]


def _cycle_time(config: RunConfig) -> float:
    """The protocol's cycle time; one that cannot be derived from the field
    switch is a config error at ``fields.de``."""
    try:
        return config.protocol.cycle_time(config.fields, config.parameters)
    except PreconditionError as exc:
        raise ConfigError(f"fields.de: {exc}") from exc


def cmd_array(config: RunConfig, out: Path) -> list[Path]:
    """Fused error versus sensor count at the optimal single-shot time."""
    params = config.parameters
    rho0 = config.preparation.density_matrix()
    fields = config.fields
    noise = config.noise
    t_meas = _cycle_time(config)
    r0, r1 = evolve_pair_grid(fields, params, noise, rho0, [t_meas])
    single = min_error_grid(r0, r1, fields.priors)
    p_dc, p_fn = float(single.p_dc[0]), float(single.p_fn[0])

    try:
        curve = array_error_curve(config.sensor_counts, p_dc, p_fn, fields.priors)
    except PreconditionError as exc:
        if single.p_err[0] == 0.0:  # no sensor count helps
            raise ConfigError(
                f"fields.de: the hypotheses are perfectly distinguishable at t = {t_meas!r} s, so "
                f"every fused error is 0 and there is no decay rate to fit"
            ) from exc
        raise ConfigError(f"sensor_counts: {exc}") from exc  # the fused error underflows to 0
    csv_path = _write_csv(
        out / "array_scaling.csv", "n_sensors,p_err", "%d,%.17g\n",
        [zip(curve.n_values, curve.p_err_n)],
    )
    json_path = _write_json(
        out / "array_alpha.json",
        {"alpha": curve.alpha, "p_dc": p_dc, "p_fn": p_fn, "t_measure": t_meas},
    )
    return [csv_path, json_path]


def cmd_protocol(config: RunConfig, out: Path) -> list[Path]:
    """Seeded turn-on runs: per-cycle transcripts plus a summary."""
    proto = config.protocol
    t_cycle = _cycle_time(config)
    true_t_star = proto.true_t_star if proto.true_t_star is not None else 3.2 * t_cycle
    n_sensors, n_cycles = proto.n_sensors, proto.n_cycles
    blocks = turn_on_blocks(
        config.fields, config.parameters, config.noise, t_cycle, n_cycles, true_t_star, n_sensors,
        range(config.seed, config.seed + proto.n_runs),  # documented per-run seed offset
        preparation=config.preparation,
    )
    # the "cycle,t_start,t_end" cells are the same in every run
    cycle_cells = ["%d,%.17g,%.17g" % (c, c * t_cycle, (c + 1) * t_cycle) for c in range(n_cycles)]
    run_texts, successes = [], []  # one JSON object and one bool per run, as blocks are written

    def rows():
        for block in blocks:
            first = len(run_texts)  # index of the block's first run
            # one byte per click, B or D, so each cycle's clicks view as one S<n_sensors> string
            patterns = np.where(block.bright, np.uint8(ord("B")), np.uint8(ord("D")))
            yield zip(
                np.repeat(np.arange(first, first + len(block.seeds)), n_cycles).tolist(),
                cycle_cells * len(block.seeds),
                patterns.view(f"S{n_sensors}").astype(f"U{n_sensors}").reshape(-1).tolist(),
                block.n_bright.reshape(-1).tolist(),
                np.where(block.majority, "B", "D").reshape(-1).tolist(),
                block.confident.reshape(-1).tolist(),
            )
            hits = [iv is not None and iv[0] <= true_t_star <= iv[1] for iv in block.intervals]
            successes.extend(hits)
            run_texts.extend(_RUN_JSON % (
                "null" if iv is None else "[\n        %r,\n        %r\n      ]" % iv, run, seed,
                "no_detection" if iv is None else "detected", "true" if hit else "false", true_t_star,
            ) for run, (seed, iv, hit) in enumerate(zip(block.seeds, block.intervals, hits), first))

    csv_path = _write_csv(
        out / "protocol_runs.csv",
        "run,cycle,t_start,t_end,clicks,n_bright,majority,confident",
        "%d,%s,%s,%d,%s,%d\n",
        rows(),
    )
    json_path = out / "protocol_summary.json"
    json_path.write_text(_SUMMARY_JSON % (
        proto.n_runs, n_sensors, ",\n".join(run_texts),
        sum(successes) / max(1, len(successes)), t_cycle, true_t_star,
    ))
    return [csv_path, json_path]


def cmd_appendix_b(config: RunConfig, out: Path) -> list[Path]:
    """Superposition-prepared sensor under axial magnetic dephasing: minimal
    error versus axial field, per field magnitude and orientation.

    Each cell, orientation first, then magnitude, then B_z, tells "no field"
    from a field of that magnitude along x or y at that B_z, with the error
    minimized over measurement time within the window; Bloch trace i is the
    switched hypothesis of cell i.
    """
    sweep, params = config.bz_sweep, config.parameters
    noise, rho0 = config.bz_sweep_noise(), sweep.preparation.density_matrix()
    window = sweep_window(sweep.t_window, params)
    cells = [(o, e, b, FieldConfig(de=(e, 0.0, 0.0) if o == "x" else (0.0, e, 0.0), b_z=b))
             for o in sweep.orientations for e in sweep.e_magnitudes for b in sweep.b_z_values]
    csv_path = _write_csv(
        out / "bz_error_sweep.csv", "orientation,e_magnitude,b_z,t_opt,p_err_min",
        "%s,%.17g,%.17g,%.17g,%.17g\n",
        [[(o, e, b, *optimal_time_search(fields, params, noise, rho0, window))
          for o, e, b, fields in cells]],
    )
    written = [csv_path]

    if sweep.bloch_traces:
        times = np.linspace(0.0, window[1], 201)
        time_cells = ["%.17g" % t for t in times.tolist()]
        for i, (*_, fields) in enumerate(cells):
            _, r1 = evolve_pair_grid(fields, params, noise, rho0, times)
            written.append(_write_csv(
                out / f"bz_sweep_bloch_{i:03d}.csv", "t,x,y,z", "%s,%.17g,%.17g,%.17g\n",
                _column_blocks(time_cells, *r1.T),
            ))
    return written


def cmd_bloch(config: RunConfig, out: Path, hypothesis: int = 1) -> list[Path]:
    """Bloch trajectory (t, x, y, z) for the selected hypothesis."""
    params = config.parameters
    rho0 = config.preparation.density_matrix()
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)
    pair = evolve_pair_grid(config.fields, params, config.noise, rho0, times)
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
        out = Path(config.output_dir)
        kwargs = {"hypothesis": args.hypothesis} if args.command == "bloch" else {}
        written = _COMMANDS[args.command](config, out, **kwargs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # config_mod.load turns its own into a ConfigError, so a write failed
        print(f"config error: output_dir cannot be written: {exc}", file=sys.stderr)
        return 2
    except NumericalInvariantError as exc:
        print(f"numeric invariant breach: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
