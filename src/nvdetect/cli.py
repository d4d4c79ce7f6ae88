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
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from .config import FieldPair, RunConfig, check_cells
from .discrimination import min_error_grid, optimal_time_search, standard_basis_error_grid
from .dynamics import evolve_pair_grid
from .errors import ConfigError, NumericalInvariantError, PreconditionError
from .hamiltonian import FieldConfig, NoiseKind, NoiseModel
from .protocol import array_error_curve, sweep_window, turn_on_blocks
from .writer import _BLOCK_ROWS, _write_csv

#: protocol_summary.json as ``json.dumps(summary, indent=2, sort_keys=True) + "\n"`` writes it:
#: the head, the runs joined by ",\n", the tail. Floats go through ``%r`` (float.__repr__, as in
#: json). A run's text is ``_RUN_JSON`` filled in once per distinct interval, then by run and seed.
_SUMMARY_HEAD = '{\n  "n_runs": %d,\n  "n_sensors": %d,\n  "runs": [\n'
_SUMMARY_TAIL = '\n  ],\n  "success_rate": %r,\n  "t_cycle": %r,\n  "true_t_star": %r\n}\n'
_RUN_JSON = ('    {\n      "interval": %s,\n      "run": %%d,\n      "seed": %%d,\n'
             '      "status": "%s",\n      "success": %s,\n      "true_t_star": %r\n    }')


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def _quarter_period_marks(times: np.ndarray, params, de) -> np.ndarray:
    """1 at the grid point nearest to each quarter period t_n of the switch
    ``de`` up to times[-1], else 0, for a sorted grid of at least two points.

    t_n is computed as :meth:`NvParameters.transfer_time` computes it, for
    n = 1 .. floor(times[-1] 2|c| / pi) + 1, and ties go to the earlier point,
    as ``np.argmin(np.abs(times - t_n))`` breaks them.
    """
    marks = np.zeros(times.size, dtype=np.int8)
    if params.transfer_time(de) > times[-1]:  # also without a transverse switch
        return marks
    coupling = abs(params.transverse_coupling(de))
    t_n = np.arange(1.0, times[-1] * (2.0 * coupling / math.pi) + 2.0) * math.pi / (2.0 * coupling)
    t_n = t_n[t_n <= times[-1]]
    j = np.clip(np.searchsorted(times, t_n), 1, times.size - 1)
    marks[j - (np.abs(times[j - 1] - t_n) <= np.abs(times[j] - t_n))] = 1
    return marks


def _keys(name: str, b_z_key="fields.b_z", rate_key="noise.rate") -> tuple[str, ...]:
    """The key paths of a cell of :func:`config.check_cells` whose switch is the key ``name``."""
    return f"{name}.de", f"{name}.e0", f"{name}.e0 + {name}.de", b_z_key, rate_key


def cmd_perr_time(config: RunConfig, out: Path) -> list[Path]:
    """Error-versus-time sweep for each configured field pair."""
    params, f = config.parameters, config.fields
    # an empty field_pairs stands for four default pairs, which no key names: 1e6 and 3e6 V/m
    # along x, each at kappa 0 and at noise.rate
    pairs = config.field_pairs or [FieldPair(de=(de_x, 0.0, 0.0), kappa=kappa)
                                   for de_x in (1e6, 3e6) for kappa in (0.0, config.noise.rate)]
    cells = [(FieldConfig(e0=p.e0, de=p.de, b_z=f.b_z, priors=f.priors),
              NoiseModel(config.noise.kind, p.kappa),
              _keys(f"field_pairs[{i}]", rate_key=f"field_pairs[{i}].kappa") if config.field_pairs
              else (f"default field pair {i}",) * 3 + ("fields.b_z", "noise.rate"))
             for i, p in enumerate(pairs)]
    check_cells(params, "time_grid.t_max", config.time_grid.t_max, cells)
    rho0 = config.preparation.density_matrix()
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)

    def blocks():
        for index, (fields, noise, _) in enumerate(cells):
            is_tmin = _quarter_period_marks(times, params, fields.de)
            r0, r1 = evolve_pair_grid(fields, params, noise, rho0, times)
            curve = min_error_grid(r0, r1, fields.priors)
            p_std = standard_basis_error_grid(r0, r1, fields.priors, best_assignment=True)
            yield index, noise.rate, times, curve.p_err, p_std, curve.p_dc, curve.p_fn, is_tmin

    csv_path = _write_csv(
        out / "perr_time.csv", "pair,kappa,t,p_err_povm,p_err_standard,p_dc,p_fn,is_tmin", blocks(),
    )
    manifest = _write_json(
        out / "perr_time_pairs.json",
        [{"pair": i, "e0": list(fields.e0), "de": list(fields.de), "kappa": noise.rate}
         for i, (fields, noise, _) in enumerate(cells)],
    )
    return [csv_path, manifest]


def cmd_bz_sensitivity(config: RunConfig, out: Path) -> list[Path]:
    """Error shift p_err(B_z) - p_err(0) on the configured time grid."""
    params = config.parameters
    b_zs = [(0.0, "B_z = 0")] + [(b, f"b_z_values[{i}]") for i, b in enumerate(config.b_z_values)]
    cells = [(dataclasses.replace(config.fields, b_z=b), config.noise, _keys("fields", b_z_key=k))
             for b, k in b_zs]
    check_cells(params, "time_grid.t_max", config.time_grid.t_max, cells)
    rho0 = config.preparation.density_matrix()
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)

    def p_err(fields, noise, _) -> np.ndarray:
        r0, r1 = evolve_pair_grid(fields, params, noise, rho0, times)
        return min_error_grid(r0, r1, fields.priors).p_err

    base = p_err(*cells[0])

    def blocks():
        for cell in cells[1:]:
            curve = p_err(*cell)
            yield cell[0].b_z, times, curve, base, curve - base

    csv_path = _write_csv(out / "bz_sensitivity.csv", "b_z,t,p_err,p_err_b0,dp_err", blocks())
    return [csv_path]


def _cycle_time(config: RunConfig) -> tuple[float, str]:
    """The protocol's cycle time and its key: ``protocol.t_cycle``, else pi / (2|c|) of the field
    switch, which must be finite and nonzero; one that cannot be derived is a config error at
    ``fields.de``."""
    if config.protocol.t_cycle is not None:
        return config.protocol.t_cycle, "protocol.t_cycle"
    t_cycle = config.parameters.transfer_time(config.fields.de)
    if math.isinf(t_cycle):
        raise ConfigError("fields.de: deriving the cycle time needs a nonzero transverse field switch")
    if t_cycle == 0.0:  # pi / (2 inf)
        raise ConfigError("fields.de: the transverse coupling |c| of the field switch overflows")
    return t_cycle, "the cycle time pi / (2|c|) of fields.de"


def cmd_array(config: RunConfig, out: Path) -> list[Path]:
    """Fused error versus sensor count at the optimal single-shot time."""
    params = config.parameters
    rho0 = config.preparation.density_matrix()
    fields, noise = config.fields, config.noise
    t_meas, key = _cycle_time(config)
    check_cells(params, key, t_meas, [(fields, noise, _keys("fields"))])
    r0, r1 = evolve_pair_grid(fields, params, noise, rho0, [t_meas])
    single = min_error_grid(r0, r1, fields.priors)
    p_dc, p_fn = float(single.p_dc[0]), float(single.p_fn[0])

    try:
        curve = array_error_curve(config.sensor_counts, p_dc, p_fn, fields.priors)
    except PreconditionError as exc:
        if 0.0 in fields.priors:  # one hypothesis is certain: every error is 0
            raise ConfigError(f"fields.priors: a prior of 0 makes every fused error 0, so there is no "
                              f"decay rate to fit, got {list(fields.priors)!r}") from exc
        if single.p_err[0] == 0.0:  # no sensor count helps
            raise ConfigError(
                f"fields.de: the hypotheses are perfectly distinguishable at t = {t_meas!r} s, so "
                f"every fused error is 0 and there is no decay rate to fit"
            ) from exc
        raise ConfigError(f"sensor_counts: {exc}") from exc  # the fused error underflows to 0
    csv_path = _write_csv(out / "array_scaling.csv", "n_sensors,p_err", [(curve.n_values, curve.p_err_n)])
    json_path = _write_json(
        out / "array_alpha.json",
        {"alpha": curve.alpha, "p_dc": p_dc, "p_fn": p_fn, "t_measure": t_meas},
    )
    return [csv_path, json_path]


def cmd_protocol(config: RunConfig, out: Path) -> list[Path]:
    """Seeded turn-on runs: per-cycle transcripts plus a summary."""
    proto = config.protocol
    t_cycle, key = _cycle_time(config)
    check_cells(config.parameters, key, t_cycle, [(config.fields, config.noise, _keys("fields"))])
    # every protocol time stays finite: twice n_cycles t_cycle (an interval's center sums two times
    # of a run), and the 3.2 t_cycle that a null true_t_star stands for
    if not math.isfinite(max(2.0 * proto.n_cycles, 3.2 if proto.true_t_star is None else 0.0) * t_cycle):
        raise ConfigError(f"{key} = {t_cycle!r} s puts 2 protocol.n_cycles t_cycle or the 3.2 "
                          f"t_cycle of a null protocol.true_t_star past the float range")
    true_t_star = proto.true_t_star if proto.true_t_star is not None else 3.2 * t_cycle
    n_sensors, n_cycles = proto.n_sensors, proto.n_cycles
    seeds = range(config.seed, config.seed + proto.n_runs)  # documented per-run seed offset
    blocks = turn_on_blocks(
        config.fields, config.parameters, config.noise, t_cycle, n_cycles, true_t_star, n_sensors,
        seeds, preparation=config.preparation,
    )
    cycles = np.arange(n_cycles)[None]
    # a run's summary text depends only on its interval, save for its run and seed: one template
    # and one success flag per distinct interval, and per run the index of its template
    template_of, templates, hits, run_templates = {}, [], [], []

    def rows():
        for block in blocks:
            first, runs = len(run_templates), len(block.seeds)  # the block's first run, its run count
            # one byte per click, B or D, so each cycle's clicks view as one S<n_sensors> string
            patterns = np.where(block.bright, np.uint8(ord("B")), np.uint8(ord("D")))
            yield (np.arange(first, first + runs)[:, None], cycles, cycles * t_cycle, (cycles + 1) * t_cycle,
                   patterns.view(f"S{n_sensors}")[..., 0], block.n_bright,
                   np.where(block.majority, b"B", b"D"), block.confident)
            for iv in set(block.intervals).difference(template_of):
                template_of[iv] = len(templates)
                hits.append(iv is not None and iv[0] <= true_t_star <= iv[1])
                templates.append(_RUN_JSON % (
                    "null" if iv is None else "[\n        %r,\n        %r\n      ]" % iv,
                    "no_detection" if iv is None else "detected", "true" if hits[-1] else "false",
                    true_t_star,
                ))
            run_templates.extend(map(template_of.__getitem__, block.intervals))

    csv_path = _write_csv(
        out / "protocol_runs.csv",
        "run,cycle,t_start,t_end,clicks,n_bright,majority,confident",
        rows(),
    )
    json_path = out / "protocol_summary.json"
    with open(json_path, "w") as fh:  # straight to the file, the run texts _BLOCK_ROWS at a time
        fh.write(_SUMMARY_HEAD % (proto.n_runs, n_sensors))
        for lo in range(0, len(run_templates), _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            fh.write(",\n" if lo else "")
            fh.write(",\n".join([templates[k] % (run, seed) for run, seed, k in
                                 zip(range(lo, hi), seeds[lo:hi], run_templates[lo:hi])]))
        successes = sum(map(hits.__getitem__, run_templates))
        fh.write(_SUMMARY_TAIL % (successes / max(1, len(run_templates)), t_cycle, true_t_star))
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
    # a null bz_sweep.noise_rate means 1/T2, and kind none means rate 0 (parse refuses another)
    rate = 0.0 if sweep.noise_kind is NoiseKind.NONE else (
        params.kappa if sweep.noise_rate is None else sweep.noise_rate)
    noise, rho0 = NoiseModel(sweep.noise_kind, rate), sweep.preparation.density_matrix()
    window = sweep_window(sweep.t_window, params)
    if not window[0] < window[1] <= 10.0 * params.t2:
        raise ConfigError(f"bz_sweep.t_window must be [t_lo, t_hi] with 0 <= t_lo < t_hi <= 10 * "
                          f"parameters.t2 = {10.0 * params.t2!r}, got {list(window)!r}")
    # (orientation, magnitude, B_z, cell of check_cells)
    cells = [(o, e, b, (FieldConfig(de=(e, 0.0, 0.0) if o == "x" else (0.0, e, 0.0), b_z=b), noise,
                        (f"bz_sweep.e_magnitudes[{i}]",) * 3
                        + (f"bz_sweep.b_z_values[{j}]", "bz_sweep.noise_rate")))
             for o in sweep.orientations for i, e in enumerate(sweep.e_magnitudes)
             for j, b in enumerate(sweep.b_z_values)]
    check_cells(params, "bz_sweep.t_window[1]", window[1], [cell for *_, cell in cells])
    rows = [(o.encode(), e, b, *optimal_time_search(fields, params, noise, rho0, window))
            for o, e, b, (fields, *_) in cells]
    csv_path = _write_csv(out / "bz_error_sweep.csv", "orientation,e_magnitude,b_z,t_opt,p_err_min",
                          [[np.array(column) for column in zip(*rows)]])
    written = [csv_path]

    if sweep.bloch_traces:
        times = np.linspace(0.0, window[1], 201)
        for i, (*_, (fields, _, _)) in enumerate(cells):
            _, r1 = evolve_pair_grid(fields, params, noise, rho0, times)
            written.append(_write_csv(out / f"bz_sweep_bloch_{i:03d}.csv", "t,x,y,z", [(times, *r1)]))
    return written


def cmd_bloch(config: RunConfig, out: Path, hypothesis: int = 1) -> list[Path]:
    """Bloch trajectory (t, x, y, z) for the selected hypothesis."""
    params = config.parameters
    check_cells(params, "time_grid.t_max", config.time_grid.t_max,
                [(config.fields, config.noise, _keys("fields"))])
    rho0 = config.preparation.density_matrix()
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)
    pair = evolve_pair_grid(config.fields, params, config.noise, rho0, times)
    return [_write_csv(out / "bloch.csv", "t,x,y,z", [(times, *pair[hypothesis])])]


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
        if "\0" in config.output_dir:  # no path can hold one
            raise ConfigError(f"output_dir must not hold a NUL character, got {config.output_dir!r}")
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
