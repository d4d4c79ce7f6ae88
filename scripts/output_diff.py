#!/usr/bin/env python3
"""Compare two output trees file by file: the largest absolute difference of
each numeric column, and every text cell that differs.

A and B are directories of CSV and JSON outputs, for example the
``outputs/`` trees that ``scripts/output_digests.py`` writes in two
checkouts. For each file path found under either one it prints
``identical`` when the bytes agree, else one line per numeric column,
``<column>  max |a - b| = <d>  (row <k>)``, and one line per text cell that
differs. A CSV column is a header field and its rows are the data lines; a
JSON column is a key path with the list indices written ``[]`` (so all runs'
``runs[].interval[]`` are one column) and its rows are the full paths. A
column is numeric when every cell of it on both sides is a number; two equal
infinities or two NaNs differ by 0. From the root of a checkout::

    python scripts/output_diff.py parent/outputs change/outputs
"""
import argparse
import csv
import io
import json
import math
import re
import sys
from pathlib import Path


def _number(cell):
    """The cell as a float, or None if it is text."""
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _leaves(node, path=""):
    """(path, value) of every scalar of a JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def _columns(path: Path) -> dict:
    """{column: {row: cell}} of a CSV or JSON file."""
    text = path.read_text()
    columns: dict = {}
    if path.suffix == ".json":
        for leaf, value in _leaves(json.loads(text)):
            columns.setdefault(re.sub(r"\[\d+\]", "[]", leaf), {})[leaf] = value
        return columns
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    for row, cells in enumerate(reader):
        for name, cell in zip(header, cells):
            columns.setdefault(name, {})[row] = cell
    return columns


def _difference(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b)  # inf against a finite value is inf, and NaN against a number NaN


def compare(a: Path, b: Path) -> list[str]:
    """The report lines of one file present in both trees."""
    if a.read_bytes() == b.read_bytes():
        return ["identical"]
    cols_a, cols_b = _columns(a), _columns(b)
    lines = []
    for name in sorted(cols_a.keys() | cols_b.keys()):
        cells_a, cells_b = cols_a.get(name, {}), cols_b.get(name, {})
        rows = sorted(cells_a.keys() & cells_b.keys(), key=str)
        if cells_a.keys() != cells_b.keys():
            lines.append(f"{name}  {len(cells_a)} cells in A, {len(cells_b)} in B")
        pairs = [(row, _number(cells_a[row]), _number(cells_b[row])) for row in rows]
        if pairs and all(x is not None and y is not None for _, x, y in pairs):
            worst = max(pairs, key=lambda p: math.inf if math.isnan(_difference(p[1], p[2]))
                        else _difference(p[1], p[2]))  # NaN counts as the worst
            lines.append(f"{name}  max |a - b| = {_difference(worst[1], worst[2]):.3g}  (row {worst[0]})")
            continue
        lines += [f"{name}  row {row}: {cells_a[row]!r} | {cells_b[row]!r}"
                  for row in rows if cells_a[row] != cells_b[row]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first output directory")
    parser.add_argument("b", type=Path, help="second output directory")
    args = parser.parse_args()
    files = {p.relative_to(root).as_posix() for root in (args.a, args.b)
             for p in root.rglob("*") if p.is_file()}
    for name in sorted(files):
        a, b = args.a / name, args.b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {'A' if a.is_file() else 'B'}")
            continue
        lines = compare(a, b)
        if lines == ["identical"]:
            print(f"{name}: identical")
        else:
            print(f"{name}:")
            print("".join(f"  {line}\n" for line in lines), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
