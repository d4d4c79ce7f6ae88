"""The package holds one propagator, one closed-form Bloch generator and
one Helstrom decision; the reference routes stay in the tests.

``tests/oracles.py`` imports the package, never the other way round: the
command line must load no test module, no ``Method`` choice of propagator
may come back, and neither the 2x2 Hamiltonian, jump operator and
Liouvillian route to the Bloch generator, nor the operator form of the
Helstrom measurement, nor the removed per-run views of the turn-on protocol
may come back into the package (``turn_on_blocks`` is its one entry point).
"""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import nvdetect

PACKAGE_DIR = Path(nvdetect.__file__).resolve().parent

PROBE = """
import json, sys
import nvdetect, nvdetect.cli
test_modules = sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("oracles", "tests", "conftest") or m.startswith("test_")
)
with_method = sorted(
    name for name, module in sys.modules.items()
    if (name == "nvdetect" or name.startswith("nvdetect.")) and hasattr(module, "Method")
)
print(json.dumps({"test_modules": test_modules, "with_method": with_method}))
"""


def test_cli_loads_no_test_module_and_no_method_enum(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=tmp_path, env=env, capture_output=True, text=True,
        check=True,
    )
    loaded = json.loads(result.stdout)
    assert loaded == {"test_modules": [], "with_method": []}


def test_only_linalg_names_the_density_matrix_and_nothing_calls_bloch_vector():
    # the package works on Bloch vectors end to end: DensityMatrix2 is defined in linalg only for
    # the oracles, and no module builds one or maps one back
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert callee != "bloch_vector", path.name
        if path.name != "linalg.py":
            assert "DensityMatrix2" not in names, path.name


def test_package_sources_import_nothing_from_the_tests():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert not {"oracles", "tests", "conftest"} & set(roots), (path.name, roots)


#: The operator-form Helstrom measurement, the per-click readout, the
#: Hamiltonian -> Liouvillian -> Pauli-projection route to the Bloch
#: generator and the density-matrix -> Bloch-vector map, now only in
#: ``tests/oracles.py``, and the removed per-run views of the turn-on protocol
#: and their cycle-layout mirror of ``ProtocolConfig``.
ORACLE_ONLY = (
    "helstrom_operator", "povm_pair", "herm_eigen2", "min_error", "evolve_pair", "simulate_click",
    "Click", "_CLICK", "DetectionRun", "run_turn_on_batch", "_detection_runs",
    "run_turn_on_protocol", "MeasurementSchedule",
    "liouvillian", "hamiltonian_two_level", "lindblad_operator", "_kron2", "dagger",
    "_hypothesis_operators", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY_2", "bloch_vector",
)


def test_package_exposes_no_operator_form_decision():
    modules = [nvdetect] + [
        importlib.import_module(f"nvdetect.{path.stem}")
        for path in sorted(PACKAGE_DIR.glob("*.py")) if path.stem != "__init__"
    ]
    exposed = sorted(
        f"{module.__name__}.{name}" for module in modules for name in ORACLE_ONLY
        if hasattr(module, name)
    )
    assert exposed == []
    assert not hasattr(importlib.import_module("nvdetect.config").ProtocolConfig, "schedule")
    assert not hasattr(nvdetect.NvParameters, "axial_shift")
    assert not hasattr(nvdetect.PreparationState, "density_matrix")
