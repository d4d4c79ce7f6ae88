"""The CLI's one CSV writer against ``csv.writer``, its float and int kernels
against ``%``, the sweep CSVs whose shared cells it formats once against
per-cell formatting, and the turn-on transcript it writes against the
per-click runs of ``oracles.reference_transcript``.

The writer formats a chunk of rows as numpy bytes: floats through a
vectorized ``%.17g`` kernel, ints through a vectorized ``%d``; a chunk of at
most ``_SMALL_CELLS`` cells is made by ``%`` cell by cell instead, and so are
the floats of a larger chunk that holds at most that many. The
reference here is the per-cell route: ``csv.writer`` over cells formatted
with ``format(float(x), ".17g")`` and ``str(n)``.
"""
import csv
import io
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvdetect import config as config_mod
from nvdetect import min_error_grid, protocol, standard_basis_error_grid, writer
from nvdetect.cli import _quarter_period_marks, _write_csv, main
from nvdetect.writer import _BLOCK_ROWS
from nvdetect.dynamics import evolve_pair_grid
from nvdetect.errors import NumericalInvariantError
from nvdetect.hamiltonian import FieldConfig, NoiseModel
from oracles import reference_transcript

FLOATS = st.one_of(
    st.floats(),  # includes -0.0, subnormals, +-inf and nan
    st.floats(min_value=1e16, max_value=1e17),
    st.floats(min_value=-1e17, max_value=-1e16),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308, 9007199254740993.0, 1e16, 1e17]),
)
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=',"'))


def reference_csv(header, rows) -> bytes:
    """csv.writer with the per-cell formatting of the writer's cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


#: The columns of a writer block, in n_rows rows (see block_columns).
BLOCK_COLUMNS = dict(
    floats=st.lists(FLOATS, min_size=1, max_size=12),
    ints=st.lists(st.integers(min_value=-(2**64), max_value=2**64), min_size=1, max_size=12),
    int64s=st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=12),
    bools=st.lists(st.booleans(), min_size=1, max_size=12),
    texts=st.lists(TEXT, min_size=1, max_size=12),
    scalar=FLOATS,
    n_rows=st.one_of(
        st.integers(1, 40), st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    ),
)


def block_columns(floats, ints, int64s, bools, texts, scalar, n_rows):
    """A float, an object int, an int64, a bool and a text column of n_rows cycling through the
    drawn values, a float scalar, and text that looks like float cells: a bytes column and a
    text scalar."""
    column_f = np.array([floats[k % len(floats)] for k in range(n_rows)])
    column_i = np.array([ints[k % len(ints)] for k in range(n_rows)], dtype=object)
    column_n = np.array([int64s[k % len(int64s)] for k in range(n_rows)], np.int64)
    column_b = np.array([bools[k % len(bools)] for k in range(n_rows)])
    column_s = np.array([texts[k % len(texts)] for k in range(n_rows)], dtype=object)
    column_p = ["%.17g" % f for f in column_f[::-1].tolist()]
    return (column_f, column_i, column_n, column_b, column_s, scalar, np.array(column_p, "S"),
            "%.17g" % scalar)


@settings(max_examples=60, deadline=None)
@given(**BLOCK_COLUMNS)
@example(floats=[0.1], ints=[2**64], int64s=[-(2**63)], bools=[True], texts=["x"], scalar=-0.0,
         n_rows=_BLOCK_ROWS + 1)
def test_writer_matches_csv_writer(tmp_path_factory, floats, ints, int64s, bools, texts, scalar,
                                   n_rows):
    column_f, column_i, column_n, column_b, column_s, scalar, column_p, scalar_p = block_columns(
        floats, ints, int64s, bools, texts, scalar, n_rows)
    path = tmp_path_factory.mktemp("csv") / "sub" / "table.csv"
    blocks = [(column_f, column_i, column_n, column_b, column_s.astype("S"), scalar, column_p,
               scalar_p)]
    _write_csv(path, "f,i,n,b,s,c,p,q", blocks)
    want = reference_csv(
        ["f", "i", "n", "b", "s", "c", "p", "q"],
        [
            [format(float(f), ".17g"), str(i), str(n), str(int(b)), s,
             format(float(scalar), ".17g"), format(float(p), ".17g"), format(float(scalar), ".17g")]
            for f, i, n, b, s, p in zip(column_f, column_i, column_n, column_b, column_s,
                                        column_f[::-1])
        ],
    )
    assert path.read_bytes() == want


@settings(max_examples=60, deadline=None)
@given(**BLOCK_COLUMNS)
def test_small_chunks_and_the_kernels_write_the_same_bytes(tmp_path_factory, floats, ints, int64s,
                                                           bools, texts, scalar, n_rows):
    column_f, column_i, column_n, column_b, column_s, scalar, column_p, scalar_p = block_columns(
        floats, ints, int64s, bools, texts, scalar, n_rows)
    blocks = [(column_f, column_i, column_n, column_b, column_s.astype("S"), scalar, column_p,
               scalar_p),
              # a 2-d block: (3, 1) and (1, 2) columns broadcast to its 6 rows
              (column_f[:3, None], column_i[None, :2], column_n[:3, None], column_b[None, :2], b"t",
               7, column_p[None, :2], "q")]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    written = []
    for bound in (0, 10**9):  # every chunk through the kernels, then every chunk through %
        with mock.patch.object(writer, "_SMALL_CELLS", bound):
            _write_csv(path, "f,i,n,b,s,c,p,q", blocks)
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_writer_formats_chunks_of_at_most_block_rows(tmp_path, monkeypatch):
    shapes, floats = [], []
    chunk_bytes, float_cells = writer._chunk_bytes, writer._float_cells
    monkeypatch.setattr(writer, "_chunk_bytes",
                        lambda c, shape, v: (shapes.append(shape), chunk_bytes(c, shape, v))[1])
    monkeypatch.setattr(writer, "_float_cells", lambda x: (floats.append(x.size), float_cells(x))[1])
    _write_csv(tmp_path / "a.csv", "x,y", [(np.arange(2 * _BLOCK_ROWS + 1), 7)])
    assert [a * b for a, b in shapes] == [_BLOCK_ROWS, _BLOCK_ROWS, 1]
    # consecutive blocks with one row length join; a 2-d block is cut along its first axis
    shapes.clear()
    _write_csv(tmp_path / "b.csv", "x,y", [(np.arange(3.0), i) for i in range(5)])
    _write_csv(tmp_path / "c.csv", "x,y", [(np.arange(_BLOCK_ROWS // 2 + 1.0), np.arange(3)[:, None])])
    assert shapes == [(5, 3)] + [(1, _BLOCK_ROWS // 2 + 1)] * 3
    # the 30 cells of b.csv's chunk are made by %; each chunk of c.csv goes through the kernels
    assert 5 * 3 * 2 <= writer._SMALL_CELLS < (_BLOCK_ROWS // 2 + 1) * 2
    assert sum(floats) == 3 * (_BLOCK_ROWS // 2 + 1)
    assert (tmp_path / "b.csv").read_bytes() == b"x,y\n" + b"".join(
        b"%d,%d\n" % (x, i) for i in range(5) for x in range(3))
    assert (tmp_path / "c.csv").read_bytes() == b"x,y\n" + b"".join(
        b"%d,%d\n" % (x, i) for i in range(3) for x in range(_BLOCK_ROWS // 2 + 1))


def test_few_floats_of_a_large_chunk_take_percent_and_leave_the_check(tmp_path, monkeypatch):
    # a transcript-like chunk: 40 x 8 rows of 3 cells, and only the 8 cycle times are floats
    runs, times = np.arange(40)[:, None], np.linspace(0.0, 7e-7, 8)[None]
    later = np.linspace(0.1, 3.0, 300)  # a later chunk of a new row length, through the kernels
    assert 40 * 8 * 3 > writer._SMALL_CELLS >= times.size and later.size > writer._SMALL_CELLS
    blocks = [(runs, times, b"B"), (later, 9, b"D")]
    rows = [[str(r), g(t), "B"] for r in range(40) for t in times[0]] + [[g(x), "9", "D"] for x in later]
    sizes, float_cells = [], writer._float_cells
    monkeypatch.setattr(writer, "_float_cells", lambda x: (sizes.append(x.size), float_cells(x))[1])
    _write_csv(tmp_path / "a.csv", "r,t,s", blocks)
    assert (tmp_path / "a.csv").read_bytes() == reference_csv(["r", "t", "s"], rows)
    assert sizes == [later.size]

    def rolled(x):  # every kernel cell one row off: the later chunk is the one checked against %
        cells, fast = float_cells(x)
        return np.roll(cells, 1, axis=0), fast

    monkeypatch.setattr(writer, "_float_cells", rolled)
    with pytest.raises(NumericalInvariantError, match="the CSV float formatter wrote"):
        _write_csv(tmp_path / "b.csv", "r,t,s", blocks)


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: 10^k and its neighbours, the %g switch points and their neighbours, 1e+-99 and 1e+-100.
EDGES = sorted({float(f"1e{k}") for k in range(-30, 31)} | {
    1e-5, 1e-4, 1e16, 1e17, 1e99, 1e100, 1e-99, 1e-100, 9007199254740993.0, 5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e-291, 1e296, 0.5, 1000000000000000.25,
})
KERNEL_FLOATS = st.one_of(
    st.floats(),  # includes -0.0, subnormals, +-inf and nan
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.sampled_from(EDGES).flatmap(lambda v: st.sampled_from(
        [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)])),
    st.builds(lambda m, e: float(m * 10**e), st.integers(1, 10**6), st.integers(0, 15)),
    st.builds(lambda m, e: m * 10.0**-e, st.integers(1, 10**6), st.integers(0, 40)),
).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(KERNEL_FLOATS, min_size=1, max_size=40))
@example(values=[0.0, -0.0, 1e16, np.nextafter(1e16, 0.0), 1e17, np.nextafter(1e17, 0.0), 1e-5,
                 np.nextafter(1e-5, 0.0), 1e-4, np.nextafter(1e-4, 0.0), 1e100, 1e-100, 1e99,
                 1e-99, 1000000000000000.25, 120000000.0, 5e-324, float("nan"), float("-inf")])
def test_float_kernel_matches_percent(values):
    x = np.array(values)
    cells, fast = writer._float_cells(x)
    # each cell is its % text, then NULs
    assert [c.tobytes() for c in cells] == [(b"%.17g" % v).ljust(cells.shape[1], b"\0") for v in values]
    assert fast[x == 0].all()  # +-0 is made without %


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-10**5, 10**5)),
                       min_size=1, max_size=40))
@example(values=[-(2**63), 2**63 - 1, 0, -1, 9, 10, 9999, 10000, -10000])
def test_int_kernel_matches_percent(values):
    cells = writer._cells(np.array(values, np.int64))
    # each cell is NULs, then its % text
    assert [c.tobytes() for c in cells] == [(b"%d" % v).rjust(cells.shape[1], b"\0") for v in values]


def test_every_float_through_the_fallback(monkeypatch):
    # a margin of 1 puts every fraction within reach of a tie: nothing is made without %
    monkeypatch.setattr(writer, "_TIE_MARGIN", 1.0)
    values = [0.1, -2.5e-7, 3.0, 1e16, 6.02214076e23, float("nan")]
    cells, fast = writer._float_cells(np.array(values))
    assert not fast.any()
    assert [c.tobytes() for c in cells] == [(b"%.17g" % v).ljust(cells.shape[1], b"\0") for v in values]


def test_a_wrong_float_cell_exits_3(tmp_path, monkeypatch, capsys):
    # every digit group one too low: the per-file check against % catches the first float cell
    # of the 4 columns of the default bloch grid, a chunk that goes through the kernels
    assert 4 * config_mod.parse({}).time_grid.n_points > writer._SMALL_CELLS
    words = writer._WORDS.copy()
    words[:10000] = np.roll(words[:10000], 1)
    monkeypatch.setattr(writer, "_WORDS", words)
    assert main(["bloch", "--out", str(tmp_path / "out")]) == 3
    assert "the CSV float formatter wrote" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_default_appendix_b_skips_the_float_kernel_and_bloch_reaches_it(tmp_path, monkeypatch):
    sizes = []
    float_cells = writer._float_cells
    monkeypatch.setattr(writer, "_float_cells", lambda x: (sizes.append(x.size), float_cells(x))[1])
    assert main(["appendix-b", "--out", str(tmp_path / "b")]) == 0
    assert sizes == []  # its 22 rows of 5 cells are made by %
    assert main(["bloch", "--out", str(tmp_path / "a")]) == 0
    rows = (tmp_path / "a" / "bloch.csv").read_bytes().count(b"\n") - 1
    assert sum(sizes) == 4 * rows  # t, x, y, z


def g(x) -> str:
    return format(float(x), ".17g")


# two pairs with e0 off the axis and two B_z values: every shared cell (time grid,
# kappa, B_z, the B_z = 0 baseline) repeats over several blocks of rows
SWEEP = {
    "time_grid": {"t_max": 3e-6, "n_points": 37},
    "field_pairs": [{"e0": [2e5, -1e5, 0], "de": [1e6, 3e5, 0], "kappa": 0.0},
                    {"e0": [0, 0, 0], "de": [2e6, 0, 0], "kappa": 1e5 / 3}],
    "fields": {"e0": [1e5, 2e5, 0], "de": [1.2e6, -4e5, 0]},
    "b_z_values": [1.3e-5, 2.9e-5],
}


def test_sweep_csvs_match_per_cell_formatting(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SWEEP))
    for command in ("perr-time", "bz-sensitivity"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    config = config_mod.parse(SWEEP)
    params, rho0 = config.parameters, config.preparation.density_matrix()
    times = np.linspace(0.0, config.time_grid.t_max, config.time_grid.n_points)

    rows = []
    for index, pair in enumerate(config.field_pairs):
        fields = FieldConfig(e0=pair.e0, de=pair.de, b_z=config.fields.b_z)
        noise = NoiseModel(config.noise.kind, pair.kappa)
        r0, r1 = evolve_pair_grid(fields, params, noise, rho0, times)
        curve = min_error_grid(r0, r1, fields.priors)
        p_std = standard_basis_error_grid(r0, r1, fields.priors, best_assignment=True)
        marks = _quarter_period_marks(times, params, pair.de)
        rows += [
            [str(index), g(pair.kappa), g(t), g(a), g(b), g(c), g(d), str(m)]
            for t, a, b, c, d, m in zip(times, curve.p_err, p_std, curve.p_dc, curve.p_fn, marks)
        ]
    header = ["pair", "kappa", "t", "p_err_povm", "p_err_standard", "p_dc", "p_fn", "is_tmin"]
    assert (tmp_path / "out" / "perr_time.csv").read_bytes() == reference_csv(header, rows)

    def p_err(b_z):
        fields = FieldConfig(e0=config.fields.e0, de=config.fields.de, b_z=b_z)
        r0, r1 = evolve_pair_grid(fields, params, config.noise, rho0, times)
        return min_error_grid(r0, r1, fields.priors).p_err

    base = p_err(0.0)
    rows = [
        [g(b_z), g(t), g(p), g(p0), g(p - p0)]
        for b_z in config.b_z_values
        for t, p, p0 in zip(times, p_err(b_z), base)
    ]
    header = ["b_z", "t", "p_err", "p_err_b0", "dp_err"]
    assert (tmp_path / "out" / "bz_sensitivity.csv").read_bytes() == reference_csv(header, rows)


#: The cases that cross a click block's bound are drawn in blocks of the split_blocks fixture's
#: bound (conftest.py); the others are one block at either bound.
PROTOCOL_CASES = {
    "one_sensor": {"protocol": {"n_sensors": 1, "n_runs": 40}},
    # 8,192 click streams per run: each run is drawn in two cycle slices of the split_blocks bound
    "wide_run_split_across_cycle_blocks": {
        "protocol": {"n_sensors": 4096, "n_cycles": 2, "n_runs": 3},
    },
    "priors_1_0": {"fields": {"priors": [1.0, 0.0]}, "protocol": {"n_runs": 6}},
    "priors_0_1": {"fields": {"priors": [0.0, 1.0]}, "protocol": {"n_runs": 6}},
    "non_informative_switch": {
        "fields": {"e0": [1e6, 0, 0], "de": [0, 0, 0]},
        "protocol": {"t_cycle": 1e-6, "n_runs": 6},
    },
    # 9,600 clicks: three blocks of the split_blocks bound
    "several_blocks": {"protocol": {"n_runs": 80}, "seed": 2**64 - 40},
    # 84,000 clicks: three blocks of the default bound, whose runs share their intervals
    "three_default_blocks": {"protocol": {"n_runs": 700}},
    "one_run": {"protocol": {"n_runs": 1}},
    # the largest cycle time that 8 cycles admit (twice the run's span is 1.76e308 s), with the
    # switch's quarter period there: every interval bound is near the top of the float range
    "times_at_the_top_of_the_float_range": {
        "fields": {"de": [1.3364e-307, 0, 0]}, "noise": {"kind": "none"},
        "protocol": {"t_cycle": 1.1e307, "true_t_star": 5e307, "n_runs": 4},
    },
}


SPLIT_PROTOCOL_CASES = ("several_blocks", "wide_run_split_across_cycle_blocks")


def _intervals_of(runs):
    return {tuple(run["interval"] or ()) for run in runs}


#: What the summary of each of these cases shows: the summary is made from one text per distinct
#: interval, and these cases cover each kind of it.
SUMMARY_CASES = {
    "non_informative_switch": lambda summary: _intervals_of(summary["runs"]) == {()},  # all null
    # a detected interval that misses t*, so success is false
    "one_sensor": lambda summary: summary["n_sensors"] == 1 and any(
        run["interval"] and not run["success"] for run in summary["runs"]),
    # the first and last of the three blocks (273 runs each at most) share an interval
    "three_default_blocks": lambda summary: 700 * 8 * 15 > 2 * protocol._BLOCK_STREAMS
    and bool(_intervals_of(summary["runs"][:273]) & _intervals_of(summary["runs"][546:])),
}


def test_split_protocol_cases_cross_the_block_bound(split_blocks):
    several, wide = (config_mod.parse(PROTOCOL_CASES[case]).protocol for case in SPLIT_PROTOCOL_CASES)
    assert several.n_runs * several.n_cycles * several.n_sensors > 2 * split_blocks
    assert wide.n_cycles * wide.n_sensors > split_blocks


@pytest.mark.parametrize("case", sorted(PROTOCOL_CASES))
def test_protocol_transcript_is_the_batch_runs(tmp_path, request, case):
    if case in SPLIT_PROTOCOL_CASES:
        request.getfixturevalue("split_blocks")
    data = PROTOCOL_CASES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    config = config_mod.parse(data)
    proto, fields = config.protocol, config.fields
    t_cycle = proto.t_cycle or config.parameters.transfer_time(fields.de)
    t_star = proto.true_t_star if proto.true_t_star is not None else 3.2 * t_cycle
    seeds = range(config.seed, config.seed + proto.n_runs)
    runs = [
        reference_transcript(
            fields, config.parameters, config.noise, t_cycle, proto.n_cycles, t_star,
            proto.n_sensors, seed, config.preparation,
        )
        for seed in seeds
    ]
    rows = [
        [
            str(i), str(c), format(c * t_cycle, ".17g"), format((c + 1) * t_cycle, ".17g"),
            "".join("B" if v else "D" for v in votes),
            str(sum(votes)),
            "B" if run["majority"][c] else "D",
            "1" if run["confident"][c] else "0",
        ]
        for i, run in enumerate(runs)
        for c, votes in enumerate(run["bright"])
    ]
    header = ["run", "cycle", "t_start", "t_end", "clicks", "n_bright", "majority", "confident"]
    assert (tmp_path / "out" / "protocol_runs.csv").read_bytes() == reference_csv(header, rows)

    summaries = [
        {
            "run": i,
            "seed": seed,
            "status": "no_detection" if run["interval"] is None else "detected",
            "interval": list(run["interval"]) if run["interval"] else None,
            "true_t_star": t_star,
            "success": run["interval"] is not None
            and run["interval"][0] <= t_star <= run["interval"][1],
        }
        for i, (seed, run) in enumerate(zip(seeds, runs))
    ]
    reference = {
        "t_cycle": t_cycle,
        "true_t_star": t_star,
        "n_runs": proto.n_runs,
        "n_sensors": proto.n_sensors,
        "success_rate": sum(r["success"] for r in summaries) / len(summaries),
        "runs": summaries,
    }
    want = json.dumps(reference, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "out" / "protocol_summary.json").read_bytes() == want.encode()
    assert SUMMARY_CASES.get(case, bool)(reference)


def test_runs_do_not_depend_on_the_block_that_draws_them(tmp_path):
    # 200 default runs (8 cycles of 15 sensors) are one click block; 700 are three, the first of
    # them ending after run 272, so the first block boundary moves past the 200 runs
    assert 200 * 8 * 15 <= protocol._BLOCK_STREAMS < 700 * 8 * 15 / 2
    lines, runs = {}, {}
    for n_runs in (200, 700):
        cfg = tmp_path / f"runs{n_runs}.json"
        cfg.write_text(json.dumps({"protocol": {"n_runs": n_runs}}))
        assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / f"out{n_runs}")]) == 0
        lines[n_runs] = (tmp_path / f"out{n_runs}" / "protocol_runs.csv").read_bytes().splitlines(True)
        runs[n_runs] = json.loads((tmp_path / f"out{n_runs}" / "protocol_summary.json").read_text())["runs"]
    assert len(lines[200]) == 1 + 1600 and len(lines[700]) == 1 + 5600
    assert lines[700][:1 + 1600] == lines[200]
    assert runs[700][:200] == runs[200]
