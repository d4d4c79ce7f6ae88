import contextlib
import dataclasses
import enum
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from nvdetect import (
    ConfigError,
    FieldConfig,
    NoiseModel,
    NvParameters,
    PreconditionError,
    PreparationState,
    bloch_generators,
    evolve_bloch,
    optimal_time_search,
)
from nvdetect import cli, dynamics
from nvdetect import config as config_mod
from nvdetect.cli import _quarter_period_marks, main

OMEGA_1E6 = 2 * math.pi * 0.17 * 1e6
TMIN_1E6 = math.pi / (2 * OMEGA_1E6)


def quarter_period_multiple(params, de, n):
    """n pi / (2 |c|), n pi rounded first, of the switch de: n quarter periods (inf without one)."""
    c = params.transverse_coupling(de)
    coupling = math.hypot(c.real, c.imag)
    return n * math.pi / (2.0 * coupling) if coupling else math.inf


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


SMALL_GRID = {"t_max": 2.0e-6, "n_points": 41}
COMMANDS = ["perr-time", "bz-sensitivity", "array", "protocol", "appendix-b", "bloch"]


def assert_finite_outputs(out):
    """No file written to ``out`` holds a NaN or infinity."""
    for path in out.iterdir():
        text = path.read_text().lower()
        assert "nan" not in text and "inf" not in text, path.name


def _build(cls, kwargs):
    try:
        return cls(**kwargs)
    except PreconditionError:  # e.g. priors that do not sum to 1
        return None


def from_schema(tp, meta=types.MappingProxyType({})):
    """Values of annotation ``tp`` drawn from the declarations that
    ``config.parse`` walks (annotations, defaults, range metadata), so a new
    config key is drawn without listing it here. Each field takes its default
    half the time."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        keys = {}
        for f in dataclasses.fields(tp):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            keys[f.name] = st.one_of(st.just(default), from_schema(hints[f.name], f.metadata))
        built = st.fixed_dictionaries(keys).map(lambda kw: _build(tp, kw))
        return built.filter(lambda c: c is not None)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:
        return st.one_of(st.none(), from_schema(args[0], meta))
    if typing.get_origin(tp) is tuple:
        if args[-1] is Ellipsis:
            entries = st.lists(from_schema(args[0], meta), min_size=meta.get("min_len", 0), max_size=4)
            return entries.map(tuple)
        return st.tuples(*(from_schema(a, meta) for a in args))
    if issubclass(tp, enum.Enum):
        return st.sampled_from(tp)
    if "choices" in meta:
        return st.sampled_from(meta["choices"])
    if tp is bool:
        return st.booleans()
    if tp is str:
        return st.text(max_size=8)
    if tp is int:
        ints = st.integers(meta.get("min"), meta.get("max"))
        return ints.filter(lambda n: n % 2 == 1) if meta.get("odd") else ints
    bounds = {"min_value": meta["above"], "exclude_min": True} if "above" in meta else {
        "min_value": meta.get("min")}
    floats = st.floats(max_value=meta.get("max"), allow_nan=False, allow_infinity=False, **bounds)
    return st.one_of(st.just(meta["null"]), floats) if "null" in meta else floats


class TestConfig:
    def test_defaults_parse(self):
        cfg = config_mod.parse({})
        assert cfg.parameters.t2 == pytest.approx(10e-6)
        assert cfg.fields.priors == (0.5, 0.5)
        assert cfg.seed == 20260808

    def test_round_trip_is_idempotent(self):
        cfg = config_mod.parse({"seed": 7, "fields": {"de": [3e6, 0, 0]}})
        once = config_mod.serialize(cfg)
        twice = config_mod.serialize(config_mod.parse(once))
        assert once == twice

    def test_unknown_root_key_rejected(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            config_mod.parse({"frobnicate": 1})

    def test_unknown_nested_key_reports_path(self):
        with pytest.raises(ConfigError, match="parameters"):
            config_mod.parse({"parameters": {"t2_seconds": 1e-5}})

    def test_bad_noise_kind(self):
        with pytest.raises(ConfigError, match="noise.kind"):
            config_mod.parse({"noise": {"kind": "thermal"}})

    def test_bad_priors(self):
        with pytest.raises(ConfigError):
            config_mod.parse({"fields": {"priors": [0.7, 0.7]}})

    def test_even_sensor_count_rejected(self):
        with pytest.raises(ConfigError):
            config_mod.parse({"sensor_counts": [1, 2, 3]})

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            config_mod.parse({"seed": -1})
        with pytest.raises(ConfigError):
            config_mod.parse({"seed": 2 ** 64})

    @settings(max_examples=200, deadline=None)
    @given(config=from_schema(config_mod.RunConfig))
    def test_parse_inverts_serialize(self, config):
        data = json.loads(json.dumps(config_mod.serialize(config), allow_nan=False))
        try:
            parsed = config_mod.parse(data)
        except ConfigError as exc:
            # only the rules that tie two keys together reject a declared value
            assert any(
                rule in str(exc)
                for rule in ("noise.kind is none", "bz_sweep.noise_rate")
            ), exc
            reject()
        assert parsed == config
        assert config_mod.serialize(parsed) == data

    def test_readme_configuration_shows_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        assert config_mod.parse(json.loads(block)) == config_mod.parse({})

    def test_readme_library_sketch_runs(self):
        # the sketch calls the package's public names, so a removed or renamed one fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(block, namespace)
        point, curve = namespace["point"], namespace["curve"]
        assert point.p_err[0] == pytest.approx(0.0684, abs=5e-5)
        assert point.p_dc[0] == pytest.approx(point.p_fn[0], rel=1e-14)  # equal to rounding
        assert curve.p_err.shape == namespace["p_bright"].shape == (801,)

    def test_partial_parameters_keep_the_other_defaults(self):
        # a missing t2 is the default 10 us, not null (no dephasing)
        cfg = config_mod.parse({"parameters": {"d_perp": 0.17}})
        assert cfg == config_mod.parse({})
        assert cfg.noise.rate == pytest.approx(1e5)

    def test_null_t2_means_no_dephasing(self):
        cfg = config_mod.parse({"parameters": {"t2": None}})
        assert math.isinf(cfg.parameters.t2)
        assert cfg.parameters.kappa == 0.0

    def test_dump_and_load(self, tmp_path):
        cfg = config_mod.parse({"seed": 99})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_mod.serialize(cfg)))
        assert config_mod.load(path) == cfg

    @pytest.mark.parametrize("name", ["missing.json", ".", "a\0b"], ids=["missing", "directory", "nul_byte"])
    def test_unreadable_path_is_named_as_unreadable(self, tmp_path, name):
        # open raises OSError for the first two and ValueError for the NUL byte, before any decode
        with pytest.raises(ConfigError, match="^cannot read config "):
            config_mod.load(tmp_path / name)


class TestCliExitCodes:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json", {"nope": 1})
        code = main(["perr-time", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["bloch", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("text", [
        b'{"seed": "\xff"}',  # not UTF-8: UnicodeDecodeError
        b'{"seed": ' + b"1" * 5000 + b"}",  # past Python's 4,300-digit int limit: ValueError
        b"[" * 200_000,  # nested past the recursion limit: RecursionError
    ], ids=["not_utf8", "int_past_the_digit_limit", "nested_past_the_recursion_limit"])
    def test_undecodable_json_exits_2_naming_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        code = main(["bloch", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and f"config {path} is not valid JSON" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_boolean_bloch_traces_exits_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path / "bad.json", {"bz_sweep": {"bloch_traces": value}})
        code = main(["appendix-b", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bz_sweep.bloch_traces" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, data, key",
        [
            ("protocol", {"protocol": {"n_runs": "x"}}, "protocol.n_runs"),
            ("protocol", {"protocol": {"n_runs": True}}, "protocol.n_runs"),
            ("protocol", {"protocol": {"n_runs": 2.0}}, "protocol.n_runs"),
            ("protocol", {"protocol": {"n_cycles": 2.9}}, "protocol.n_cycles"),
            ("protocol", {"protocol": {"n_cycles": 1e9}}, "protocol.n_cycles"),
            ("protocol", {"protocol": {"n_cycles": 0}}, "protocol.n_cycles"),
            ("protocol", {"protocol": {"n_sensors": "15"}}, "protocol.n_sensors"),
            ("protocol", {"protocol": {"n_sensors": False}}, "protocol.n_sensors"),
            ("protocol", {"protocol": {"n_sensors": None}}, "protocol.n_sensors"),
            ("protocol", {"protocol": {"true_t_star": -1e-7}}, "protocol.true_t_star"),
            ("protocol", {"protocol": {"true_t_star": float("nan")}}, "protocol.true_t_star"),
            ("protocol", {"protocol": {"t_cycle": -1e-7}}, "protocol.t_cycle"),
            ("protocol", {"protocol": {"t_cycle": 0}}, "protocol.t_cycle"),
            ("array", {"sensor_counts": [True]}, "sensor_counts"),
            ("array", {"sensor_counts": [1, 3.0, 5]}, "sensor_counts"),
            ("array", {"sensor_counts": [1, 3]}, "sensor_counts"),
            ("appendix-b", {"bz_sweep": {"t_window": [1e-5, 1e-9]}}, "bz_sweep.t_window"),
            ("appendix-b", {"bz_sweep": {"t_window": [-1e-9, 1e-5]}}, "bz_sweep.t_window"),
            ("appendix-b", {"bz_sweep": {"t_window": [1e-9, 2e-4]}}, "bz_sweep.t_window"),
            ("appendix-b", {"bz_sweep": {"t_window": [1e-9]}}, "bz_sweep.t_window"),
            ("appendix-b", {"bz_sweep": {"t_window": ["0", 1e-5]}}, "bz_sweep.t_window[0]"),
            ("appendix-b", {"bz_sweep": {"t_window": [1e-9, float("inf")]}},
             "bz_sweep.t_window[1]"),
            ("appendix-b", {"bz_sweep": {"e_magnitudes": "ab"}}, "bz_sweep.e_magnitudes"),
            ("appendix-b", {"bz_sweep": {"b_z_values": [0.0, "x"]}}, "bz_sweep.b_z_values[1]"),
            ("perr-time", {"time_grid": {"n_points": "abc"}}, "time_grid.n_points"),
            ("perr-time", {"time_grid": {"n_points": 50.5}}, "time_grid.n_points"),
            ("bloch", {"fields": {"de": [float("nan"), 0, 0]}}, "fields.de[0]"),
            ("bloch", {"fields": {"e0": [0, "1e5", 0]}}, "fields.e0[1]"),
            ("bloch", {"fields": {"priors": [0.5, None]}}, "fields.priors[1]"),
            ("perr-time", {"noise": {"rate": float("inf")}}, "noise.rate"),
            ("bz-sensitivity", {"b_z_values": [float("-inf")]}, "b_z_values[0]"),
            ("perr-time", {"parameters": []}, "parameters"),
            ("perr-time", {"fields": 3}, "fields"),
            ("perr-time", {"noise": {"kind": ["x"]}}, "noise.kind"),
            ("appendix-b", {"bz_sweep": {"noise_kind": ["x"]}}, "bz_sweep.noise_kind"),
            ("perr-time", {"field_pairs": [{"kappa": -1}]}, "field_pairs[0].kappa"),
            ("appendix-b", {"bz_sweep": {"noise_rate": -5}}, "bz_sweep.noise_rate"),
            ("protocol", {"seed": True}, "seed"),
            ("appendix-b", {"bz_sweep": {"orientations": "xy"}}, "bz_sweep.orientations"),
            ("appendix-b", {"bz_sweep": {"e_magnitudes": []}}, "bz_sweep.e_magnitudes"),
            ("appendix-b", {"bz_sweep": {"b_z_values": []}}, "bz_sweep.b_z_values"),
            ("appendix-b", {"bz_sweep": {"orientations": []}}, "bz_sweep.orientations"),
            ("appendix-b", {"bz_sweep": {"orientations": ["z"]}}, "bz_sweep.orientations"),
            ("perr-time", {"method": "fast"}, "method"),
            ("perr-time", {"noise": {"kind": "none", "rate": 1e5}}, "noise.rate"),
            ("perr-time", {"noise": {"kind": "none"}, "field_pairs": [{"kappa": 1e5}]},
             "field_pairs[0].kappa"),
            ("perr-time", {"parameters": {"t1": 1e-3}}, "parameters.t1"),
            ("protocol", {"protocol": {"n_sensors": config_mod.MAX_PROTOCOL_SENSORS + 1}},
             "protocol.n_sensors"),
            ("protocol", {"protocol": {"n_cycles": config_mod.MAX_CYCLES + 1}}, "protocol.n_cycles"),
            ("protocol", {"protocol": {"n_runs": config_mod.MAX_RUNS + 1}}, "protocol.n_runs"),
            ("perr-time", {"time_grid": {"n_points": config_mod.MAX_GRID_POINTS + 1}},
             "time_grid.n_points"),
            ("array", {"sensor_counts": [1, 3, config_mod.MAX_FUSED_SENSORS + 2]}, "sensor_counts[2]"),
            ("array", {"sensor_counts": [1, 3, 5001]}, "sensor_counts"),
            ("appendix-b", {"bz_sweep": {"noise_kind": "none", "noise_rate": 1e5}},
             "bz_sweep.noise_rate"),
            ("perr-time", {"method": "closed"}, "method"),
            ("perr-time", {"method": "rk4"}, "method"),
            ("perr-time", {"method": "superop"}, "method"),
            ("perr-time", {"field_pairs": [{"e0": [0, 0, 0], "de": [0, 0, 1e6], "kappa": 1e5}]},
             "field_pairs[0].de"),
            ("bloch", {"fields": {"e0": [0, 0, 0], "de": [0, 0, 1e6]}}, "fields.de"),
            ("bz-sensitivity", {"fields": {"e0": [0, 0, 0], "de": [0, 0, 1e6]}}, "fields.de"),
            ("appendix-b", {"bz_sweep": {"e_magnitudes": [0.0], "noise_kind": "electric_along_field"}},
             "bz_sweep.e_magnitudes[0]"),
            ("appendix-b",
             {"bz_sweep": {"e_magnitudes": [1e6, 0.0], "noise_kind": "electric_along_field"}},
             "bz_sweep.e_magnitudes[1]"),
            # 2 |coupling| or 2 |Zeeman rate| overflows to inf, an infinite rotation angle (which
            # would also derive a cycle time of 0.0)
            ("protocol", {"parameters": {"d_perp": 1e300}, "fields": {"de": [1e10, 0, 0]}},
             "fields.de"),
            ("array", {"parameters": {"d_perp": 1e300}, "fields": {"de": [1e10, 0, 0]}},
             "fields.de"),
            ("bloch", {"parameters": {"d_perp": 1e300}, "fields": {"de": [1e10, 0, 0]}},
             "fields.de"),
            ("bz-sensitivity", {"parameters": {"d_perp": 1e300}, "fields": {"de": [1e10, 0, 0]}},
             "fields.de"),
            ("bloch", {"fields": {"b_z": 1e300}}, "fields.b_z"),
            ("bz-sensitivity", {"b_z_values": [0.0, 1e300]}, "b_z_values[1]"),
            ("appendix-b", {"bz_sweep": {"b_z_values": [1e300]}}, "bz_sweep.b_z_values[0]"),
            ("perr-time", {"field_pairs": [{"e0": [1e308, 0, 0], "de": [1e308, 0, 0]}]},
             "field_pairs[0].e0"),
            # every generator entry is finite, but the rotation angle at the configured time is not
            ("bloch", {"time_grid": {"t_max": 1e305}}, "time_grid.t_max"),
            ("perr-time", {"time_grid": {"t_max": 1e305}}, "time_grid.t_max"),
            ("protocol", {"protocol": {"t_cycle": 1e305}}, "protocol.t_cycle"),
            ("array", {"protocol": {"t_cycle": 1e305}}, "protocol.t_cycle"),
            ("appendix-b", {"bz_sweep": {"t_window": [0, 1e305]}, "parameters": {"t2": None}},
             "bz_sweep.t_window[1]"),
            # a derived cycle time pi / (2|c|) of 1.5e300 s puts kappa t past the envelope (at a rate
            # that keeps kappa time_grid.t_max inside it)
            ("protocol", {"fields": {"de": [1e-300, 0, 0]}, "noise": {"rate": 1e8}}, "fields.de"),
            ("array", {"fields": {"de": [1e-300, 0, 0]}, "noise": {"rate": 1e8}}, "fields.de"),
            # the generator stays finite, but the protocol's times pass 1.8e308 s
            ("protocol", {"fields": {"de": [1.47e-308, 0, 0]}, "noise": {"kind": "none"},
                          "protocol": {"t_cycle": 1e308, "true_t_star": 5e307}}, "protocol.t_cycle"),
            ("protocol", {"fields": {"de": [1e-308, 0, 0]}, "noise": {"kind": "none"}}, "fields.de"),
            # 8 cycles end at 1.6e308 s, but the center of a clipped interval sums two such times
            ("protocol", {"fields": {"de": [1.47e-308, 0, 0]}, "noise": {"kind": "none"},
                          "protocol": {"t_cycle": 2e307, "true_t_star": 5e307}}, "protocol.n_cycles"),
            ("protocol", {"fields": {"de": [1.47e-308, 0, 0]}, "noise": {"kind": "none"},
                          "protocol": {"t_cycle": 8e307, "n_cycles": 1}}, "protocol.true_t_star"),
            # past the propagator envelope: a rotation angle 2(|Re c| + |Im c| + |w_z|) t over
            # 1e3 rad (the Bloch-norm excess passes 1e-12 by 4e3 rad), or a dephasing kappa t over
            # 1.5e3 (an oblique noise axis drifts by about eps kappa t)
            ("perr-time", {"field_pairs": [{"de": [1e6, 0, 0]}, {"de": [1e9, 0, 0]}]},
             "field_pairs[1].e0 + field_pairs[1].de"),
            ("perr-time", {"field_pairs": [{"de": [1e9, 0, 0]}]}, "time_grid.t_max"),
            ("bloch", {"fields": {"de": [1e9, 0, 0]}, "noise": {"kind": "none"}}, "fields.e0 + fields.de"),
            ("bloch", {"fields": {"de": [3e8, 0, 0]}, "noise": {"kind": "none"}}, "time_grid.t_max"),
            ("bloch", {"parameters": {"d_perp": 1e300}}, "time_grid.t_max"),
            ("perr-time", {"parameters": {"d_perp": 1e300}}, "time_grid.t_max"),
            ("bz-sensitivity", {"parameters": {"d_perp": 1e300}}, "time_grid.t_max"),
            ("bz-sensitivity", {"b_z_values": [1e-5, 2e-3]}, "b_z_values[1]"),
            ("bloch", {"fields": {"de": [9.55e5, 2.96e5, 0]}, "noise": {"rate": 1e25},
                       "time_grid": {"t_max": 1e-5, "n_points": 11}}, "noise.rate"),
            ("perr-time", {"field_pairs": [{"de": [9.55e5, 2.96e5, 0], "kappa": 1e9}]},
             "field_pairs[0].kappa"),
            ("protocol", {"protocol": {"t_cycle": 1e-3}}, "protocol.t_cycle"),
            ("array", {"fields": {"de": [1e-3, 0, 0]}}, "the cycle time pi / (2|c|) of fields.de"),
            ("appendix-b", {"bz_sweep": {"e_magnitudes": [1e6, 1e8]}}, "bz_sweep.e_magnitudes[1]"),
            ("appendix-b", {"bz_sweep": {"noise_rate": 1e9}}, "bz_sweep.noise_rate"),
            # |c| of a switch whose parts are finite passes the float range (abs(complex) would
            # raise OverflowError while deriving the cycle time, and pi / (2|c|) is 0)
            ("bloch", {"fields": {"de": [1.1900679858530585e+308, 1.1900679858530587e+308, 0]}},
             "fields.e0 + fields.de"),
            ("array", {"fields": {"de": [1.1900679858530585e+308, 1.1900679858530587e+308, 0]}},
             "fields.de"),
            # p_dc = p_fn = 0 at the cycle time: every fused error is 0, whatever the sensor counts
            ("array", {"noise": {"kind": "none"}, "fields": {"de": [1e6, 1e5, 0]}}, "fields.de"),
            # each subcommand checks the cells it propagates: bz-sensitivity its B_z values,
            # perr-time the four default pairs (their 3e6 V/m switch)
            ("bz-sensitivity", {"time_grid": {"t_max": 2e-4}}, "time_grid.t_max"),
            ("perr-time", {"time_grid": {"t_max": 1.6e-4}, "b_z_values": [0.0]}, "time_grid.t_max"),
            # checked before the time grid is built, whose steps overflow here
            ("bloch", {"time_grid": {"t_max": 1.7976931348623157e308, "n_points": 64}},
             "time_grid.t_max"),
            # |c| overflows, so the derived cycle time pi / (2|c|) is 0 (array's row is above)
            ("protocol", {"fields": {"de": [1.1900679858530585e+308, 1.1900679858530587e+308, 0]}},
             "fields.de"),
            # a prior of 0 makes one hypothesis certain, so every fused error is 0 as well
            ("array", {"fields": {"priors": [1.0, 0.0]}}, "fields.priors"),
            ("array", {"fields": {"priors": [0.0, 1.0]}}, "fields.priors"),
            # three odd points at one count fix no decay rate
            ("array", {"sensor_counts": [3, 3, 3]}, "sensor_counts"),
            ("perr-time", {"schema_version": True}, "schema_version"),
            ("perr-time", {"schema_version": 1.0}, "schema_version"),
            ("perr-time", {"schema_version": 2}, "schema_version"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # from numpy too, not only nvdetect
    def test_malformed_protocol_key_exits_2(self, tmp_path, capsys, command, data, key):
        cfg = write_config(tmp_path / "bad.json", data)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err
        if "nan" not in repr(data):  # a message quotes a NaN only where the config holds one
            assert "nan" not in err
        if "field_pairs" not in data:  # the four default pairs of perr-time are not config keys
            assert "field_pairs[" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, data", [
        ("bloch", {"time_grid": {"t_max": 2e-4}}),  # past the envelope only with b_z_values
        ("appendix-b", {"fields": {"e0": [0, 0, 0], "de": [0, 0, 1e6]}}),  # no transverse field
        ("array", {"bz_sweep": {"t_window": [1e-9, 2e-4]}}),  # past 10 T2
    ])
    def test_a_key_the_subcommand_does_not_read_exits_0(self, tmp_path, command, data):
        # the rows above refuse each config on bz-sensitivity, bloch and appendix-b
        cfg = write_config(tmp_path / "cfg.json", data)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert_finite_outputs(tmp_path / "out")

    @pytest.mark.parametrize("command", ["protocol", "array"])
    def test_zero_switch_without_cycle_time_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "cfg.json", {"fields": {"e0": [1e6, 0, 0], "de": [0, 0, 0]}})
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nonzero transverse field switch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["protocol", "array"])
    def test_vanishing_switch_without_cycle_time_exits_2(self, tmp_path, capsys, command):
        # pi / (2 |coupling|) of a subnormal switch overflows to an infinite cycle
        cfg = write_config(tmp_path / "cfg.json", {"fields": {"de": [1e-320, 0, 0]}})
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nonzero transverse field switch" in capsys.readouterr().err

    def test_method_flag_is_gone(self, tmp_path):
        # this call once ended in a PreconditionError traceback from the
        # superoperator route; the flag no longer exists, so argparse rejects it
        cfg = write_config(tmp_path / "cfg.json", {"field_pairs": [{"de": [1e9, 0, 0]}]})
        env = {**os.environ, "PYTHONPATH": str(Path(config_mod.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "nvdetect.cli", "perr-time", "--method", "superop",
             "--config", cfg, "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert "--method" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["protocol", "array"])
    def test_zero_switch_leaves_no_output_directory(self, tmp_path, command):
        cfg = write_config(tmp_path / "cfg.json", {"fields": {"e0": [1e6, 0, 0], "de": [0, 0, 0]}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_underflowing_sensor_count_exits_2(self, tmp_path, capsys):
        # the fused error of 5001 sensors is 0.0, which leaves two points to fit
        cfg = write_config(tmp_path / "cfg.json", {"sensor_counts": [1, 3, 5001]})
        code = main(["array", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "sensor_counts" in capsys.readouterr().err

    @pytest.mark.parametrize("out, data", [
        ("file", {}), ("file/sub", {}), (None, {"output_dir": "file/sub"}),
        ("a\0b", {}), (None, {"output_dir": "a\u0000b"}),
    ], ids=["out_is_a_file", "out_below_a_file", "output_dir_below_a_file", "out_holds_a_nul",
            "output_dir_holds_a_nul"])
    def test_unusable_output_dir_exits_2(self, tmp_path, capsys, monkeypatch, out, data):
        monkeypatch.chdir(tmp_path)
        Path("file").write_text("kept\n")
        cfg = write_config(tmp_path / "cfg.json", {"time_grid": SMALL_GRID, **data})
        code = main(["bloch", "--config", cfg] + (["--out", out] if out else []))
        err = capsys.readouterr().err
        assert code == 2
        assert "output_dir" in err and "Traceback" not in err
        assert Path("file").read_text() == "kept\n"

    @pytest.mark.parametrize("pairs", [
        [{"de": [1e6, 0, 0]}, {"de": [3e6, 0, 0]}],  # the first pair's rows were written
        [{"de": [3e6, 0, 0]}],
    ])
    def test_numeric_breach_exits_3_without_a_csv(self, tmp_path, capsys, monkeypatch, pairs):
        # a kernel that lengthens the last pair's maps by 1e-9 breaches the Bloch-norm bound; a
        # group budget of one grid makes each pair its own stack, so the rows of the first of two
        # pairs are written before the second stack breaches
        monkeypatch.setattr(cli, "_STACK_POINTS", config_mod.parse({}).time_grid.n_points)
        calls = iter([1.0] * (len(pairs) - 1) + [1.0 + 1e-9])
        expm_batch = dynamics.expm_batch

        def lengthened(a):
            maps = expm_batch(a)
            maps[-2:] *= next(calls)  # the generator pair of the stack's last cell
            return maps

        monkeypatch.setattr(dynamics, "expm_batch", lengthened)
        cfg = write_config(tmp_path / "cfg.json", {"field_pairs": pairs})
        code = main(["perr-time", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 3 and next(calls, None) is None  # one stack per pair
        assert "Bloch norm" in capsys.readouterr().err
        assert not (tmp_path / "out" / "perr_time.csv").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, written", [
        ("bloch", "bloch.csv"), ("perr-time", "perr_time.csv"), ("bz-sensitivity", "bz_sensitivity.csv"),
    ])
    def test_nan_states_exit_3_without_a_csv(self, tmp_path, capsys, monkeypatch, command, written):
        # NaN Bloch vectors from the kernel must breach the norm bound instead of passing it
        monkeypatch.setattr(dynamics, "expm_batch", lambda a: np.full_like(a, math.nan))
        cfg = write_config(tmp_path / "cfg.json", {"time_grid": SMALL_GRID})
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 3
        assert "Bloch norm nan" in capsys.readouterr().err
        assert not (tmp_path / "out" / written).exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, data", [
        ("perr-time", {"parameters": {"zero_field_splitting": 1e308}}),
        ("bloch", {"parameters": {"d_parallel": 1e308}, "fields": {"de": [1e6, 0, 1e6]}}),
    ])
    def test_common_shift_overflow_exits_0_without_nan(self, tmp_path, command, data):
        # the shift of |+1> and |-1> together cancels from the dynamics, so
        # even one that overflows a float does not reach the outputs
        cfg = write_config(tmp_path / "cfg.json", {**data, "time_grid": SMALL_GRID})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert_finite_outputs(tmp_path / "out")

    @pytest.mark.parametrize("command", ["bloch", "perr-time"])
    @pytest.mark.parametrize("data", [
        {"noise": {"rate": 3e8}},  # kappa t_max = 1.2e3
        {"parameters": {"t2": 3e-9}, "noise": {"rate": None}, "bz_sweep": {"t_window": [1e-10, 3e-8]}},
    ], ids=["rate_3e8", "t2_3ns"])
    def test_strong_dephasing_exits_0_without_nan(self, tmp_path, command, data):
        # exp(M t) of a strongly dephased generator is a contraction onto the noise axis, so it
        # must come out finite rather than breach the Bloch-norm bound
        cfg = write_config(tmp_path / "cfg.json", data)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert_finite_outputs(tmp_path / "out")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_short_t2_exits_0_on_every_subcommand(self, tmp_path, command):
        # the default bz_sweep.t_window follows T2 down to 10 T2 = 30 ns, so a key that only
        # appendix-b reads no longer refuses the other five
        cfg = write_config(tmp_path / "cfg.json", {"parameters": {"t2": 3e-9}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert_finite_outputs(tmp_path / "out")

    @settings(max_examples=80, deadline=None)
    @given(config=from_schema(config_mod.RunConfig).map(lambda c: dataclasses.replace(
        c,  # only the counts are capped, so that each draw runs in milliseconds
        time_grid=dataclasses.replace(c.time_grid, n_points=min(c.time_grid.n_points, 64)),
        protocol=dataclasses.replace(c.protocol, n_cycles=min(c.protocol.n_cycles, 12),
                                     n_sensors=min(c.protocol.n_sensors, 16),
                                     n_runs=min(c.protocol.n_runs, 4)),
        sensor_counts=tuple(min(n, 101) for n in c.sensor_counts),
    )))
    def test_every_config_exits_0_or_2(self, config):
        # exit 3 is a defect: the config rules, the propagator envelope among them, refuse with
        # exit 2 and a key path every config the kernel cannot evaluate within its invariants
        key_path = re.compile(r"\b(%s)\b" % "|".join(f.name for f in dataclasses.fields(config)))
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # from numpy too, not only nvdetect
            cfg = write_config(Path(tmp) / "cfg.json", config_mod.serialize(config))
            for command in COMMANDS:
                out, err = Path(tmp) / command, io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([command, "--config", cfg, "--out", str(out)])
                assert code in (0, 2), (command, err.getvalue())
                if code == 2:
                    assert key_path.search(err.getvalue()), (command, err.getvalue())
                else:
                    assert_finite_outputs(out)

    def test_success_exits_0(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"time_grid": SMALL_GRID, "field_pairs": [{"e0": [0, 0, 0], "de": [1e6, 0, 0], "kappa": 1e5}]},
        )
        code = main(["perr-time", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "perr_time.csv").exists()


class TestStackedSweeps:
    """perr-time and bz-sensitivity propagate their cells in groups of at most
    max(1, cli._STACK_POINTS // n) cells, one evolve_bloch stack each."""

    @pytest.mark.parametrize("command, data, cells, name", [
        ("perr-time", {"field_pairs": [{"de": [1e6 * k, 0, 0], "kappa": 1e5 * (k % 2)} for k in (1, 2, 3)]},
         3, "perr_time.csv"),
        ("bz-sensitivity", {"b_z_values": [1e-5, 2e-5, 0.0, 3e-5]}, 5, "bz_sensitivity.csv"),
    ])
    def test_one_stack_per_group_writes_each_row_once_in_order(self, tmp_path, monkeypatch, command, data,
                                                                cells, name):
        n = SMALL_GRID["n_points"]
        cfg = write_config(tmp_path / "cfg.json", {**data, "time_grid": SMALL_GRID})
        stacks, evolve_bloch = [], cli.evolve_bloch
        monkeypatch.setattr(cli, "evolve_bloch",
                            lambda gens, *a: (stacks.append(len(gens)), evolve_bloch(gens, *a))[1])
        texts = []  # one stack, stacks of 2 cells and a last of 1, one cell per stack
        for budget, sizes in [(cli._STACK_POINTS, [cells]), (2 * n, [2] * (cells // 2) + [1]),
                              (n - 1, [1] * cells)]:
            monkeypatch.setattr(cli, "_STACK_POINTS", budget)
            stacks.clear()
            assert main([command, "--config", cfg, "--out", str(tmp_path / str(budget))]) == 0
            assert stacks == [2 * size for size in sizes]  # a generator pair per cell
            texts.append((tmp_path / str(budget) / name).read_bytes())
        assert texts[1] == texts[0] and texts[2] == texts[0]
        assert texts[0].count(b"\n") == 1 + (cells - (command == "bz-sensitivity")) * n

    def test_a_grid_of_max_points_is_one_cell_per_group(self, monkeypatch):
        times = np.linspace(0.0, 4e-6, config_mod.MAX_GRID_POINTS)
        cells = [(FieldConfig(de=(1e6 * k, 0.0, 0.0)), NoiseModel.electric(1e5), None) for k in range(1, 9)]
        stacks = []
        monkeypatch.setattr(cli, "evolve_bloch", lambda gens, r0, t: (stacks.append(gens.shape),
                                                                      np.zeros((len(gens), 3, t.size)))[1])
        groups = [group for group, *_ in cli._stacked_pairs(cells, NvParameters(), (0.0, 0.0, 1.0), times)]
        assert groups == [range(k, k + 1) for k in range(8)] and stacks == [(2, 3, 3)] * 8


class TestPerrTimeCommand:
    def test_columns_and_tmin_marks(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "time_grid": {"t_max": 2.0e-6, "n_points": 201},
                "field_pairs": [{"e0": [0, 0, 0], "de": [1e6, 0, 0], "kappa": 0.0}],
            },
        )
        main(["perr-time", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "perr_time.csv").read_text().splitlines()
        assert lines[0] == "pair,kappa,t,p_err_povm,p_err_standard,p_dc,p_fn,is_tmin"
        rows = [line.split(",") for line in lines[1:]]
        marked = [r for r in rows if r[7] == "1"]
        assert len(marked) == 1
        assert float(marked[0][2]) == pytest.approx(TMIN_1E6, rel=0.01)
        # and the marked row sits at the error minimum
        assert float(marked[0][3]) == min(float(r[3]) for r in rows)
        manifest = json.loads((tmp_path / "out" / "perr_time_pairs.json").read_text())
        assert manifest[0]["de"] == [1e6, 0, 0]

    @given(
        n_points=st.integers(2, 300),
        t_lo=st.sampled_from([0.0, 0.3]),
        t_max=st.floats(1e-8, 1e-4),
        jitter=st.booleans(),
        de=st.tuples(st.floats(-3e8, 3e8), st.sampled_from([0.0, 2e5, -7e7]), st.just(0.0)),
        ties=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    # a coupling whose abs() and math.hypot() differ by 1 ulp: t_517 lies on a tie
    @example(n_points=2, t_lo=0.0, t_max=1.4e-05, jitter=True,
             de=(111035372.67411149, -70000000.0, 0.0), ties=1, seed=2)
    @settings(max_examples=200, deadline=None)
    def test_quarter_period_marks_equal_the_argmin_loop(
        self, n_points, t_lo, t_max, jitter, de, ties, seed
    ):
        params = NvParameters()
        times = np.linspace(t_lo * t_max, t_max, n_points)
        rng = np.random.default_rng(seed)
        if jitter:  # a sorted non-uniform grid
            times = np.unique(np.concatenate([times[:1], rng.uniform(times[0], t_max, n_points)]))
        if ties and params.transfer_time(de) < t_max:
            # put quarter periods exactly halfway between two grid points
            step = 2.0 ** math.floor(math.log2(params.transfer_time(de) / 4))
            n = rng.integers(1, 1 + int(t_max / params.transfer_time(de)), size=ties)
            centres = [quarter_period_multiple(params, de, int(k)) for k in n]
            times = np.unique(np.concatenate([times, [c - step for c in centres],
                                              [c + step for c in centres]]))
            times = times[times <= t_max]
        expected = np.zeros(times.size, dtype=np.int8)
        n = 1
        while (t_n := quarter_period_multiple(params, de, n)) <= times[-1]:
            expected[np.argmin(np.abs(times - t_n))] = 1
            n += 1
        assert np.array_equal(_quarter_period_marks(times, params, de), expected)

    @pytest.mark.parametrize("priors", [[0.5, 0.5], [0.3, 0.7]])
    def test_first_row_assigns_identical_states_to_switched(self, tmp_path, priors):
        # at t = 0 the hypotheses coincide and zero eigenvalues go to pi1
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "time_grid": SMALL_GRID,
                "fields": {"priors": priors},
                "field_pairs": [{"e0": [0, 0, 0], "de": [1e6, 0, 0], "kappa": 1e5}],
            },
        )
        main(["perr-time", "--config", cfg, "--out", str(tmp_path / "out")])
        first = (tmp_path / "out" / "perr_time.csv").read_text().splitlines()[1].split(",")
        assert float(first[2]) == 0.0
        assert (float(first[3]), float(first[5]), float(first[6])) == (priors[0], 1.0, 0.0)

    def test_no_field_pairs_run_the_four_default_pairs(self, tmp_path):
        # 1e6 and 3e6 V/m along x, each at kappa 0 and at noise.rate, whose null is 1/T2
        cfg = write_config(tmp_path / "cfg.json", {"time_grid": SMALL_GRID})
        assert main(["perr-time", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "perr_time_pairs.json").read_text())
        rate = 1.0 / NvParameters().t2
        assert [(p["pair"], p["e0"], p["de"], p["kappa"]) for p in manifest] == [
            (0, [0, 0, 0], [1e6, 0, 0], 0.0), (1, [0, 0, 0], [1e6, 0, 0], rate),
            (2, [0, 0, 0], [3e6, 0, 0], 0.0), (3, [0, 0, 0], [3e6, 0, 0], rate),
        ]
        assert rate == pytest.approx(1e5)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"time_grid": SMALL_GRID, "field_pairs": [{"e0": [0, 0, 0], "de": [1e6, 0, 0], "kappa": 1e5}]},
        )
        main(["perr-time", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "5"])
        main(["perr-time", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "5"])
        assert (tmp_path / "a" / "perr_time.csv").read_bytes() == (
            tmp_path / "b" / "perr_time.csv"
        ).read_bytes()


class TestBlochCommand:
    def test_great_circle_and_initial_row(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "time_grid": {"t_max": 3e-6, "n_points": 121},
                "fields": {"e0": [0, 0, 0], "de": [1e6, 0, 0]},
                "noise": {"kind": "none"},
            },
        )
        main(["bloch", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "bloch.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,z"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.max(np.abs(rows[:, 1])) < 1e-10  # x stays on the great circle
        assert rows[0, 1:] == pytest.approx([0.0, 0.0, 1.0])

    def test_axial_field_limits_the_excursion(self, tmp_path):
        # with b and w the axial/transverse rates, min z = (b^2-w^2)/(b^2+w^2)
        b_z_tesla = 1e-5
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "time_grid": {"t_max": 8e-6, "n_points": 2001},
                "fields": {"e0": [0, 0, 0], "de": [1e6, 0, 0], "b_z": b_z_tesla},
                "noise": {"kind": "none"},
            },
        )
        main(["bloch", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "bloch.csv").read_text().splitlines()
        z = np.array([float(line.split(",")[3]) for line in lines[1:]])
        from nvdetect import NvParameters

        w = abs(NvParameters().transverse_coupling((1e6, 0, 0)))
        b = NvParameters().zeeman_rate(b_z_tesla)
        predicted = (b * b - w * w) / (b * b + w * w)
        assert z.min() == pytest.approx(predicted, abs=2e-4)

    def test_hypothesis_zero_is_stationary(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "time_grid": SMALL_GRID,
                "fields": {"e0": [0, 0, 0], "de": [1e6, 0, 0]},
                "noise": {"kind": "none"},
            },
        )
        main(["bloch", "--config", cfg, "--out", str(tmp_path / "out"), "--hypothesis", "0"])
        lines = (tmp_path / "out" / "bloch.csv").read_text().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.max(np.abs(rows[:, 3] - 1.0)) < 1e-12


class TestBzSensitivityCommand:
    def test_zero_field_row_has_zero_shift(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "time_grid": {"t_max": 1.2e-6, "n_points": 25},
                "fields": {"e0": [1e7, 0, 0], "de": [1e7, 0, 0]},
                "b_z_values": [0.0, 1e-5],
            },
        )
        main(["bz-sensitivity", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "bz_sensitivity.csv").read_text().splitlines()
        assert lines[0] == "b_z,t,p_err,p_err_b0,dp_err"
        for line in lines[1:]:
            cells = line.split(",")
            if float(cells[0]) == 0.0:
                assert float(cells[4]) == 0.0


class TestArrayCommand:
    def test_outputs_and_alpha(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"fields": {"e0": [0, 0, 0], "de": [1e6, 0, 0]}},
        )
        main(["array", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "array_scaling.csv").read_text().splitlines()
        assert lines[0] == "n_sensors,p_err"
        values = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert values[1] == pytest.approx(0.06837840154439662, abs=1e-10)
        meta = json.loads((tmp_path / "out" / "array_alpha.json").read_text())
        assert 0.5 <= meta["alpha"] <= 1.1


class TestProtocolCommand:
    def test_transcript_and_summary(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "fields": {"e0": [0, 0, 0], "de": [1e6, 0, 0]},
                "protocol": {"n_cycles": 6, "n_sensors": 15, "n_runs": 20},
                "seed": 33,
            },
        )
        main(["protocol", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "protocol_runs.csv").read_text().splitlines()
        assert lines[0] == "run,cycle,t_start,t_end,clicks,n_bright,majority,confident"
        assert len(lines) == 1 + 20 * 6
        summary = json.loads((tmp_path / "out" / "protocol_summary.json").read_text())
        assert summary["n_runs"] == 20
        assert summary["success_rate"] >= 0.95
        assert summary["runs"][0]["seed"] == 33

    def test_seeded_reproducibility(self, tmp_path):
        data = {
            "fields": {"e0": [0, 0, 0], "de": [1e6, 0, 0]},
            "protocol": {"n_cycles": 5, "n_sensors": 5, "n_runs": 10},
        }
        cfg = write_config(tmp_path / "cfg.json", data)
        main(["protocol", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "77"])
        main(["protocol", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "77"])
        for name in ("protocol_runs.csv", "protocol_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestAppendixBCommand:
    def test_small_sweep_with_default_physics(self, tmp_path):
        # the sweep brings its own defaults: superposition preparation and
        # axial magnetic dephasing, independent of the top-level blocks
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "bz_sweep": {
                    "e_magnitudes": [1e6],
                    "orientations": ["x"],
                    "b_z_values": [0.0, 4e-6],
                    "t_window": [1e-9, 1e-5],
                },
            },
        )
        main(["appendix-b", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "bz_error_sweep.csv").read_text().splitlines()
        assert lines[0] == "orientation,e_magnitude,b_z,t_opt,p_err_min"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        p_at_zero = float(rows[0][4])
        p_at_finite = float(rows[1][4])
        assert p_at_zero == pytest.approx(0.5, abs=1e-6)
        assert p_at_finite < 0.45

    @pytest.mark.parametrize("kind, rate", [("magnetic_axial", 1e5), ("none", 0.0)])
    def test_null_noise_rate_is_one_over_t2_or_0_without_noise(self, tmp_path, monkeypatch, kind,
                                                                rate):
        # a null bz_sweep.noise_rate means 1/T2 = 1e5/s, and 0 when bz_sweep.noise_kind is none;
        # kind none ignores its rate in the physics, so the rate is read off every search's noise
        search, noises = cli.optimal_time_search, []
        monkeypatch.setattr(cli, "optimal_time_search", lambda fields, params, noise, *rest: (
            noises.append(noise), search(fields, params, noise, *rest))[1])
        written = []
        for noise_rate in (None, rate):
            out = tmp_path / f"out_{noise_rate}"
            cfg = write_config(tmp_path / "cfg.json", {"bz_sweep": {
                "e_magnitudes": [1e6], "b_z_values": [0.0, 4e-6], "t_window": [1e-9, 4e-6],
                "noise_kind": kind, "noise_rate": noise_rate,
            }})
            assert main(["appendix-b", "--config", cfg, "--out", str(out)]) == 0
            written.append((out / "bz_error_sweep.csv").read_bytes())
        assert written[0] == written[1]
        # 1/T2 is 99999.99999999999/s in floats
        assert noises and all(noise.kind.value == kind and noise.rate == pytest.approx(rate, rel=1e-15)
                              for noise in noises)

    def test_y_drive_detects_without_axial_field(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"bz_sweep": {"e_magnitudes": [1e6], "orientations": ["y"], "b_z_values": [0.0]}},
        )
        assert main(["appendix-b", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "bz_error_sweep.csv").read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[4]) < 0.1

    def test_rows_and_traces_follow_the_cells(self, tmp_path):
        # cells run orientation first, then magnitude, then B_z; row i and Bloch trace i are cell i
        magnitudes, b_zs, window = [1e6, 2e6], [0.0, 4e-6], (1e-9, 4e-6)
        cfg = write_config(tmp_path / "cfg.json", {"bz_sweep": {
            "e_magnitudes": magnitudes, "orientations": ["x", "y"], "b_z_values": b_zs,
            "t_window": list(window), "bloch_traces": True,
        }})
        assert main(["appendix-b", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        params = NvParameters()
        noise, r0 = NoiseModel.magnetic(params.kappa), PreparationState.EQUAL_SUPERPOSITION.bloch_vector
        times = np.linspace(0.0, window[1], 201)
        lines = (tmp_path / "out" / "bz_error_sweep.csv").read_text().splitlines()[1:]
        cells = [(o, e, b) for o in ("x", "y") for e in magnitudes for b in b_zs]
        assert len(lines) == len(cells) == 8
        for i, ((o, e, b), line) in enumerate(zip(cells, lines)):
            fields = FieldConfig(de=(e, 0.0, 0.0) if o == "x" else (0.0, e, 0.0), b_z=b)
            row = line.split(",")
            expected = optimal_time_search(fields, params, noise, r0, window)
            assert (row[0], *map(float, row[1:])) == (o, e, b, *expected)
            _, r1 = evolve_bloch(bloch_generators(fields, params, noise), r0, times)
            trace = np.loadtxt(tmp_path / "out" / f"bz_sweep_bloch_{i:03d}.csv", delimiter=",",
                               skiprows=1)
            assert np.array_equal(trace, np.column_stack([times, r1.T]))
        assert not (tmp_path / "out" / "bz_sweep_bloch_008.csv").exists()

    def test_bloch_traces_flag_emits_per_cell_files(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "bz_sweep": {
                    "e_magnitudes": [1e6],
                    "orientations": ["y"],
                    "b_z_values": [0.0],
                    "t_window": [1e-9, 4e-6],
                    "bloch_traces": True,
                },
            },
        )
        main(["appendix-b", "--config", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "bz_sweep_bloch_000.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,z"
        first = [float(v) for v in lines[1].split(",")]
        # superposition preparation starts on the +x axis
        assert first[1:] == pytest.approx([1.0, 0.0, 0.0])
