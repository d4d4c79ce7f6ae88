#!/usr/bin/env python3
"""Produce the full set of datasets with default parameters.

Runs every CLI subcommand into a common output directory, prints each one's
exit code and returns the first non-zero one: a config may suit some
subcommands and not others, and each still runs. Pass a config file to
override parameters, e.g.::

    python scripts/make_all_data.py --out out --config my_run.json
"""
import argparse
import sys

from nvdetect.cli import _COMMANDS, main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    codes = []
    for command in _COMMANDS:
        argv = [command, "--out", args.out]
        if args.config:
            argv += ["--config", args.config]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        print(f"== nvdetect {' '.join(argv)}")
        codes.append(cli_main(argv))
        print(f"== exit {codes[-1]}")
    return next((code for code in codes if code != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
