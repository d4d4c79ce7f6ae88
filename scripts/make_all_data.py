#!/usr/bin/env python3
"""Produce the full set of datasets with default parameters.

Runs every CLI subcommand into a common output directory. Pass a config file
to override parameters, e.g.::

    python scripts/make_all_data.py --out out --config my_run.json
"""
import argparse
import sys

from nvdetect.cli import main as cli_main

COMMANDS = ["perr-time", "bz-sensitivity", "array", "protocol", "appendix-b", "bloch"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    for command in COMMANDS:
        argv = [command, "--out", args.out]
        if args.config:
            argv += ["--config", args.config]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        print(f"== nvdetect {' '.join(argv)}")
        code = cli_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
