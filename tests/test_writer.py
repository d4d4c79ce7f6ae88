"""The CLI's one CSV writer against ``csv.writer``, the sweep CSVs whose
shared cells it formats once against per-cell formatting, and the turn-on
transcript it writes against the per-click runs of
``oracles.reference_transcript``.

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

from nvdetect import config as config_mod
from nvdetect import min_error_grid, standard_basis_error_grid
from nvdetect.cli import (
    _BLOCK_ROWS, _column_blocks, _quarter_period_marks, _write_csv, main,
)
from nvdetect.dynamics import evolve_pair_grid
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
    # cells formatted once, as the CLI formats a time grid that several blocks share:
    # a list column and a text scalar, both written with %s
    column_p = ["%.17g" % f for f in column_f[::-1].tolist()]
    scalar_p = "%.17g" % scalar
    path = tmp_path_factory.mktemp("csv") / "sub" / "table.csv"
    blocks = _column_blocks(column_f, column_i, column_s, scalar, column_p, scalar_p)
    _write_csv(path, "f,i,s,c,p,q", "%.17g,%d,%s,%.17g,%s,%s\n", blocks)
    want = reference_csv(
        ["f", "i", "s", "c", "p", "q"],
        [
            [format(float(f), ".17g"), str(i), s, format(float(scalar), ".17g"),
             format(float(p), ".17g"), format(float(scalar), ".17g")]
            for f, i, s, p in zip(column_f, column_i, column_s, column_f[::-1])
        ],
    )
    assert path.read_bytes() == want


def test_column_blocks_have_the_block_row_count():
    sizes = [len(list(rows)) for rows in _column_blocks(np.arange(2 * _BLOCK_ROWS + 1), 7)]
    assert sizes == [_BLOCK_ROWS, _BLOCK_ROWS, 1]


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
    "one_run": {"protocol": {"n_runs": 1}},
    # the largest cycle time that 8 cycles admit (twice the run's span is 1.76e308 s), with the
    # switch's quarter period there: every interval bound is near the top of the float range
    "times_at_the_top_of_the_float_range": {
        "fields": {"de": [1.3364e-307, 0, 0]}, "noise": {"kind": "none"},
        "protocol": {"t_cycle": 1.1e307, "true_t_star": 5e307, "n_runs": 4},
    },
}


@pytest.mark.parametrize("case", sorted(PROTOCOL_CASES))
def test_protocol_transcript_is_the_batch_runs(tmp_path, case):
    data = PROTOCOL_CASES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["protocol", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    config = config_mod.parse(data)
    proto, fields = config.protocol, config.fields
    t_cycle = proto.cycle_time(fields, config.parameters)
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
