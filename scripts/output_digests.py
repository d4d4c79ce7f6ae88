#!/usr/bin/env python3
"""Write every deterministic output of the byte-identity check, then print
one ``sha256  path`` line per file, sorted by path (relative to ``--out``).

The files are those of the check recorded in ``BENCH_10.json`` (88 files), since
``BENCH_25.json`` two protocol runs more (92 files), a third protocol run, whose run indexes
pass 9,999, since the writer makes such ints with ``%d`` (94 files), and three runs whose CSV
blocks the writer cuts into chunks (99 files):

- the six subcommands on the default config with ``bz_sweep.bloch_traces``
  true, in ``default/``;
- ``bloch --hypothesis 0`` on that config, in ``default_h0/``;
- ``protocol`` on the default config with ``--seed`` 1 to 10, in
  ``protocol_seed<k>/``;
- every op of the three benchmark workloads (``perfbench/workloads.py``) on
  seeds 1 to 3, in ``<workload>-<seed>/op<i>/``;
- the (command, config) runs of ``BLOCK_RUNS``, in ``<name>/``: ``protocol`` on 700 runs,
  drawn in three click blocks, on two runs of 4,096 sensors and 9 cycles, each drawn in two
  cycle slices, and on 10,050 runs of one sensor and one cycle, whose run indexes pass the
  writer's table of ints [0, 9999] (a default invocation is one block); and three blocks of
  more than the writer's 4,096 rows: ``perr-time`` on 8 field pairs at 801 points, cut into
  chunks of 5 and 3 pairs, ``bloch`` on 10,001 points, cut into three chunks, and ``protocol``
  on 40 runs of one sensor and 1,000 cycles, cut into ten chunks of 4 runs.

Two checkouts that print the same listing wrote byte-identical outputs, and
two runs in one checkout must print the same listing. From the root of a
checkout::

    PYTHONPATH=src python scripts/output_digests.py --out digests
"""
import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from nvdetect.cli import _COMMANDS, main as cli_main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py, the benchmark's seeded configs)

#: (command, config) runs whose click blocks cross ``protocol._BLOCK_STREAMS``, whose run
#: indexes pass 9,999, or whose CSV blocks exceed the writer's ``_BLOCK_ROWS``
BLOCK_RUNS = {
    "protocol_runs700": ("protocol", {"protocol": {"n_runs": 700}}),
    "protocol_split_runs": ("protocol", {"protocol": {"n_sensors": 4096, "n_cycles": 9, "n_runs": 2}}),
    "protocol_runs10050": ("protocol", {"protocol": {"n_sensors": 1, "n_cycles": 1, "n_runs": 10050}}),
    "perr_time_cut": ("perr-time", {"field_pairs": [
        {"de": [de, 0.0, 0.0], "kappa": kappa} for de in (1e6, 2e6, 3e6, 4e6) for kappa in (0.0, 1e5)]}),
    "bloch_cut": ("bloch", {"time_grid": {"n_points": 10001}}),
    "protocol_cut": ("protocol", {"protocol": {"n_sensors": 1, "n_cycles": 1000, "n_runs": 40}}),
}


def run(argv: list[str]) -> None:
    """One CLI call; its stdout (the written paths) is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"nvdetect {' '.join(argv)} exited {code}")


def write_config(path: Path, data: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return str(path)


def write_outputs(out: Path, configs: Path) -> None:
    traces = write_config(configs / "bloch_traces.json", {"bz_sweep": {"bloch_traces": True}})
    for command in _COMMANDS:
        run([command, "--config", traces, "--out", str(out / "default")])
    run(["bloch", "--hypothesis", "0", "--config", traces, "--out", str(out / "default_h0")])
    for seed in range(1, 11):
        run(["protocol", "--seed", str(seed), "--out", str(out / f"protocol_seed{seed}")])
    for name in workloads.NAMES:
        for seed in (1, 2, 3):
            for index, (command, data) in enumerate(workloads.build(name, seed).ops):
                config = write_config(configs / f"{name}-{seed}-op{index}.json", data)
                run([command, "--config", config, "--out", str(out / f"{name}-{seed}" / f"op{index}")])
    for name, (command, data) in BLOCK_RUNS.items():
        run([command, "--config", write_config(configs / f"{name}.json", data), "--out", str(out / name)])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the outputs; must not exist")
    args = parser.parse_args()
    out = Path(args.out)
    if out.exists():
        parser.error(f"--out {out} exists; give a fresh directory")
    write_outputs(out / "outputs", out / "configs")
    files = {p.relative_to(out / "outputs").as_posix(): p for p in (out / "outputs").rglob("*")
             if p.is_file()}
    for name in sorted(files):
        print(f"{hashlib.sha256(files[name].read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
