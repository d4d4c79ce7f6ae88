"""The CLI's one CSV writer against ``csv.writer``, and the turn-on transcript
it writes against the runs of ``run_turn_on_batch``.

The writer formats whole blocks of rows with one ``%`` template per row. The
reference here is the per-cell route it replaced: ``csv.writer`` over cells
formatted with ``format(float(x), ".17g")`` and ``str(n)``.
"""
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvdetect import Click, run_turn_on_batch
from nvdetect import config as config_mod
from nvdetect.cli import _BLOCK_ROWS, _column_blocks, _write_csv, main

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


@settings(max_examples=60, deadline=None)
@given(
    floats=st.lists(FLOATS, min_size=1, max_size=12),
    ints=st.lists(st.integers(min_value=-(2**64), max_value=2**64), min_size=1, max_size=12),
    texts=st.lists(TEXT, min_size=1, max_size=12),
    scalar=FLOATS,
    n_rows=st.one_of(
        st.integers(1, 40), st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    ),
)
@example(floats=[0.1], ints=[2**64], texts=["x"], scalar=-0.0, n_rows=_BLOCK_ROWS + 1)
def test_writer_matches_csv_writer(tmp_path_factory, floats, ints, texts, scalar, n_rows):
    column_f = np.array([floats[k % len(floats)] for k in range(n_rows)])
    column_i = np.array([ints[k % len(ints)] for k in range(n_rows)], dtype=object)
    column_s = np.array([texts[k % len(texts)] for k in range(n_rows)], dtype=object)
    path = tmp_path_factory.mktemp("csv") / "sub" / "table.csv"
    blocks = _column_blocks(column_f, column_i, column_s, scalar)
    _write_csv(path, "f,i,s,c", "%.17g,%d,%s,%.17g\n", blocks)
    want = reference_csv(
        ["f", "i", "s", "c"],
        [
            [format(float(f), ".17g"), str(i), s, format(float(scalar), ".17g")]
            for f, i, s in zip(column_f, column_i, column_s)
        ],
    )
    assert path.read_bytes() == want


def test_column_blocks_have_the_block_row_count():
    sizes = [len(list(rows)) for rows in _column_blocks(np.arange(2 * _BLOCK_ROWS + 1), 7)]
    assert sizes == [_BLOCK_ROWS, _BLOCK_ROWS, 1]


PROTOCOL_CASES = {
    "one_sensor": {"protocol": {"n_sensors": 1, "n_runs": 40}},
    # 8,192 click streams per run: each run is drawn in two cycle slices
    "wide_run_split_across_cycle_blocks": {
        "protocol": {"n_sensors": 4096, "n_cycles": 2, "n_runs": 3},
    },
    "priors_1_0": {"fields": {"priors": [1.0, 0.0]}, "protocol": {"n_runs": 6}},
    "priors_0_1": {"fields": {"priors": [0.0, 1.0]}, "protocol": {"n_runs": 6}},
    "non_informative_switch": {
        "fields": {"e0": [1e6, 0, 0], "de": [0, 0, 0]},
        "protocol": {"t_cycle": 1e-6, "n_runs": 6},
    },
    "several_blocks": {"protocol": {"n_runs": 80}, "seed": 2**64 - 40},
}


@pytest.mark.parametrize("case", sorted(PROTOCOL_CASES))
def test_protocol_transcript_is_the_batch_runs(tmp_path, case):
    data = PROTOCOL_CASES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    config = config_mod.parse(data)
    proto, fields = config.protocol, config.fields
    schedule = proto.schedule()
    t_cycle = schedule.cycle_time(fields, config.parameters)
    t_star = 3.2 * t_cycle
    runs = list(run_turn_on_batch(
        fields, config.parameters, config.noise, schedule, t_star, proto.n_sensors,
        range(config.seed, config.seed + proto.n_runs), config.preparation,
    ))
    rows = [
        [
            str(i), str(c), format(c * t_cycle, ".17g"), format((c + 1) * t_cycle, ".17g"),
            "".join("B" if v is Click.BRIGHT else "D" for v in votes),
            str(sum(v is Click.BRIGHT for v in votes)),
            "B" if run.clicks[c] is Click.BRIGHT else "D",
            "1" if run.confident[c] else "0",
        ]
        for i, run in enumerate(runs)
        for c, votes in enumerate(run.sensor_clicks)
    ]
    header = ["run", "cycle", "t_start", "t_end", "clicks", "n_bright", "majority", "confident"]
    assert (tmp_path / "out" / "protocol_runs.csv").read_bytes() == reference_csv(header, rows)

    summary = json.loads((tmp_path / "out" / "protocol_summary.json").read_text())
    assert summary["runs"] == [
        {
            "run": i,
            "seed": run.seed,
            "status": run.status,
            "interval": list(run.estimated_interval) if run.estimated_interval else None,
            "true_t_star": t_star,
            "success": run.estimated_interval is not None
            and run.estimated_interval[0] <= t_star <= run.estimated_interval[1],
        }
        for i, run in enumerate(runs)
    ]
