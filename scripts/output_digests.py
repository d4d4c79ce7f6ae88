#!/usr/bin/env python3
"""Write every deterministic output of the byte-identity check, then print
one ``sha256  path`` line per file, sorted by path (relative to ``--out``).

The files are those of the check recorded in ``BENCH_10.json`` (88 files):

- the six subcommands on the default config with ``bz_sweep.bloch_traces``
  true, in ``default/``;
- ``bloch --hypothesis 0`` on that config, in ``default_h0/``;
- ``protocol`` on the default config with ``--seed`` 1 to 10, in
  ``protocol_seed<k>/``;
- every op of the three benchmark workloads (``perfbench/workloads.py``) on
  seeds 1 to 3, in ``<workload>-<seed>/op<i>/``.

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

from nvdetect.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py, the benchmark's seeded configs)

COMMANDS = ["perr-time", "bz-sensitivity", "array", "protocol", "appendix-b", "bloch"]


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
    for command in COMMANDS:
        run([command, "--config", traces, "--out", str(out / "default")])
    run(["bloch", "--hypothesis", "0", "--config", traces, "--out", str(out / "default_h0")])
    for seed in range(1, 11):
        run(["protocol", "--seed", str(seed), "--out", str(out / f"protocol_seed{seed}")])
    for name in workloads.NAMES:
        for seed in (1, 2, 3):
            for index, (command, data) in enumerate(workloads.build(name, seed).ops):
                config = write_config(configs / f"{name}-{seed}-op{index}.json", data)
                run([command, "--config", config, "--out", str(out / f"{name}-{seed}" / f"op{index}")])


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
