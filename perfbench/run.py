"""nvdetect benchmark: seeded CLI workloads, end-to-end timing, per-layer tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload time-sweep --seed 1 --seconds 25 --trace 0

The workload's subcommands run in this process through ``nvdetect.cli.main``
with ``--jobs 1``, one after the other (one closed-loop caller). Passes over
the whole sequence repeat until ``--seconds`` have elapsed (at least
MIN_PASSES). The outputs of the first pass are checked against the
independent reference in ``reference.py``; every later pass must reproduce
them byte for byte.

``--trace 0`` reports the end-to-end metrics: setup_s, wall_s, peak_rss_mb.
``--trace 1`` also runs three traced passes (see ``tracer.py``) and reports the
per-layer metrics instead. The last line of stdout is the result as JSON; a
run record with the environment and every sample is written under
``.perfbench/records/``.
"""
from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Fewest untraced passes a run makes, however short --seconds is.
MIN_PASSES = 3
#: Fresh interpreters timed per run for setup_s (after one warm-up).
SETUP_SAMPLES = 7
#: On a shared host the speed of identical work drifts by up to 2x within
#: seconds (other tenants on the same cores), and all code slows by about the
#: same factor. A short fixed probe before and after each operation measures
#: that factor, and setup_s and wall_s divide it out. PROBE_REFERENCE_S is the
#: probe's time on an idle 2-vCPU Xeon host, so both read as seconds there.
PROBE_ROUNDS = 6000
PROBE_REFERENCE_S = 0.18

#: Propagator routes: which ones serve a workload must not depend on the seed.
ROUTES = (
    "dynamics.evolve_closed_transverse",
    "dynamics.evolve_closed_dephasing",
    "dynamics.evolve_closed_axial_field",
    "dynamics.integrate_master_equation",
    "dynamics.propagate_superoperator",
)

#: Functions each workload calls on the seed commit. A later change may stop
#: calling one (it is then listed as idle in the record); a call that skips
#: its wrapper fails the run instead, see tracer.bypassed_calls.
EXPECTED = {
    "time-sweep": (
        "dynamics.evolve_pair", "dynamics.propagate_superoperator", "dynamics.liouvillian",
        "linalg.expm_small", "discrimination.min_error", "discrimination.helstrom_operator",
        "discrimination.povm_pair", "discrimination.standard_basis_error", "linalg.herm_eigen2",
        "linalg.DensityMatrix2", "protocol.array_error_curve", "config.format_float",
        "config.load", "config.parse", "hamiltonian.hamiltonian_two_level",
        "hamiltonian.lindblad_operator",
    ),
    "optimal-search": (
        "dynamics.evolve_pair", "dynamics.propagate_superoperator", "dynamics.liouvillian",
        "linalg.expm_small", "discrimination.optimal_time_search", "discrimination.min_error",
        "discrimination.helstrom_operator", "discrimination.povm_pair", "linalg.herm_eigen2",
        "linalg.DensityMatrix2", "config.format_float", "config.load", "config.parse",
        "config.serialize", "hamiltonian.hamiltonian_two_level", "hamiltonian.lindblad_operator",
    ),
    "turn-on": (
        "dynamics.propagate_superoperator", "dynamics.liouvillian", "linalg.expm_small",
        "protocol.run_turn_on_protocol", "protocol.simulate_click", "discrimination.min_error",
        "discrimination.helstrom_operator", "discrimination.povm_pair", "linalg.herm_eigen2",
        "linalg.DensityMatrix2", "config.format_float", "config.load", "config.parse",
        "hamiltonian.hamiltonian_two_level", "hamiltonian.lindblad_operator",
    ),
}

#: Per-layer metrics: exact call counts ...
CALLS = (
    "dynamics.evolve_pair", "dynamics.propagate_superoperator", "dynamics.liouvillian",
    "linalg.expm_small", *ROUTES[:4],
    "discrimination.min_error", "discrimination.helstrom_operator", "discrimination.povm_pair",
    "discrimination.standard_basis_error", "linalg.herm_eigen2", "linalg.DensityMatrix2",
    "discrimination.optimal_time_search", "protocol.run_turn_on_protocol", "protocol.simulate_click",
    "protocol.array_error_curve", "config.format_float", "config.load", "config.parse",
    "config.serialize", "hamiltonian.hamiltonian_two_level", "hamiltonian.lindblad_operator",
)
#: ... and self times of the functions every workload calls. Self times of
#: functions only some workloads call would read 0 on the others; they are in
#: the run record and the printed table.
SELF = (
    "dynamics.propagate_superoperator", "dynamics.liouvillian", "linalg.expm_small",
    "discrimination.min_error", "discrimination.helstrom_operator", "discrimination.povm_pair",
    "linalg.herm_eigen2", "linalg.DensityMatrix2", "config.format_float", "config.load",
    "config.parse", "hamiltonian.hamiltonian_two_level", "hamiltonian.lindblad_operator",
)


@dataclass
class Op:
    """One subcommand invocation."""

    command: str
    wall_s: float
    paths: list[Path]
    error: str | None = None
    digests: dict[str, str] = field(default_factory=dict)
    speed: float = 1.0  # host slowdown during the op, from the probes around it

    @property
    def adjusted_s(self) -> float:
        return self.wall_s / self.speed


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(cli, command: str, config_path: Path, out: Path) -> Op:
    argv = [command, "--config", str(config_path), "--out", str(out), "--jobs", "1"]
    stdout = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)  # looked up per call, so a patched main is used
        if code != 0:
            error = f"exit code {code}"
    except (Exception, SystemExit):  # an uncaught error is a failed operation
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    paths = [Path(line) for line in stdout.getvalue().splitlines() if line]
    op = Op(command, wall, paths, error)
    if error is None:
        try:
            op.digests = {p.name: sha256(p) for p in paths}
        except OSError as exc:
            op.error = f"listed output unreadable: {exc}"
    return op


def run_pass(cli, configs: list[Path], workload, out: Path) -> list[Op]:
    """The workload's subcommands in order, each into its own directory, with
    a probe before the first and after each one."""
    ops = []
    before = probe()
    for index, ((command, _), config_path) in enumerate(zip(workload.ops, configs)):
        (out / f"op{index}").mkdir(parents=True)
        op = run_op(cli, command, config_path, out / f"op{index}")
        after = probe()
        op.speed = (before + after) / (2.0 * PROBE_REFERENCE_S)
        before = after
        ops.append(op)
    return ops


def check_outputs(workload, ops: list[Op], seed: int) -> None:
    """Check each op's outputs against the reference; a failure becomes the
    op's error."""
    for op, (_, config) in zip(ops, workload.ops):
        if op.error is None:
            out = op.paths[0].parent if op.paths else Path()
            try:
                reference.CHECKS[op.command](out, config, random.Random(seed))
            except (reference.CheckFailed, OSError, KeyError, ValueError, IndexError) as exc:
                op.error = f"output check: {type(exc).__name__}: {exc}"


def write_configs(workload, directory: Path) -> list[Path]:
    """One config file per operation, in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, (_, config) in enumerate(workload.ops):
        paths.append(directory / f"config-{index}.json")
        paths[-1].write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return paths


_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nvdetect.cli
nvdetect.cli.config_mod.load(sys.argv[2])
print(time.perf_counter() - start)
"""


def measure_setup(config_path: Path) -> list[float]:
    """Seconds for a fresh interpreter to import nvdetect.cli and load the
    config, each divided by the host speed probed around it; the first
    interpreter is a discarded warm-up."""
    samples = []
    before = probe()
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(config_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = probe()
        speed = (before + after) / (2.0 * PROBE_REFERENCE_S)
        samples.append(float(done.stdout.strip().splitlines()[-1]) / speed)
        before = after
    return samples[1:]


def probe() -> float:
    """Seconds for a fixed mix of the operations nvdetect spends its time on:
    4x4 complex kron and matmul, scalar float math, 17-digit formatting."""
    m = (np.arange(16.0).reshape(4, 4) + 1j) / 16.0
    acc = 0.0
    start = time.perf_counter()
    for i in range(PROBE_ROUNDS):
        k = np.kron(m[:2, :2], m[2:, 2:]) @ m / (i + 1)
        acc = math.hypot(float(np.max(np.abs(k))), acc % 7.0 + i)
        format(acc, ".17g")
    return time.perf_counter() - start


def untraced_passes(cli, configs: list[Path], workload, work: Path, seconds: float):
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, configs, workload, work / f"pass{len(passes):03d}"))
    return passes


def compare_to_first(passes: list[list[Op]], first: list[Op]) -> None:
    """Determinism contract: every pass on one seed writes the bytes of the
    first pass, so it also shares the first pass's check result."""
    for ops in passes:
        for op, ref in zip(ops, first):
            if op.error is None:
                op.error = "output digest differs from the first pass" if op.digests != ref.digests else ref.error


def traced_pass(cli, configs: list[Path], workload, out: Path, profile=None):
    trace = tracer.Tracer()
    installed = tracer.Installed(trace)
    try:
        if profile is not None:
            profile.enable()
        try:
            ops = run_pass(cli, configs, workload, out)
        finally:
            if profile is not None:
                profile.disable()
    finally:
        installed.remove()
    return trace, installed.originals, ops


def counts(trace: tracer.Tracer, ops: list[Op]) -> dict:
    """The exact part of a trace: call counts, bytes written, unique shares."""
    return {
        "calls": dict(trace.calls),
        "bytes_written": sum(p.stat().st_size for op in ops for p in op.paths if p.exists()),
        "unique_share": {name: trace.unique_share(name) for name in sorted(tracer.HASHED)},
    }


def layer_metrics(trace: tracer.Tracer, exact: dict, overhead_s: float) -> dict:
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (exact["calls"].get(name, 0), "count")
    for name in SELF:
        metrics[f"{name}.self_s"] = (trace.self_s.get(name, 0.0), "s")
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(v for k, v in trace.self_s.items() if k.startswith(layer + ".")), "s")
    for name in sorted(tracer.HASHED):
        metrics[f"{name}.unique_share"] = (exact["unique_share"][name], "ratio")
    searches = exact["calls"].get("discrimination.optimal_time_search", 0)
    metrics["discrimination.optimal_time_search.evals_per_call"] = (
        exact["calls"].get("dynamics.evolve_pair", 0) / searches if searches else 0.0, "count")
    metrics["cli.bytes_written"] = (exact["bytes_written"], "bytes")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(cpus: set[int]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def declared_metrics(trace_mode: bool) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace_mode else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nvdetect benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "nvdetect" / "cli.py").is_file():
        print(f"error: no nvdetect sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nvdetect
    import nvdetect.cli

    if Path(nvdetect.__file__).resolve().parent != SRC / "nvdetect":
        print(f"error: imported nvdetect from {nvdetect.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # One CPU for the benchmark, its probes and the interpreters it starts, so
    # that the probes measure the CPU the timed work runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    workload = workloads.build(args.workload, args.seed)
    work = WORK / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    problems: list[str] = []
    try:
        configs = write_configs(workload, work)
        setup = measure_setup(configs[0])
        passes = untraced_passes(nvdetect.cli, configs, workload, work, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_outputs(workload, passes[0], args.seed)
        compare_to_first(passes[1:], passes[0])
        walls = [sum(op.adjusted_s for op in ops) for ops in passes]
        # Each subcommand's median over the passes, summed over the sequence:
        # a slow moment then spoils one sample of one subcommand, not a pass.
        wall_s = sum(statistics.median(op.adjusted_s for op in column) for column in zip(*passes))
        all_ops = [op for ops in passes for op in ops]
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": environment(cpus), "ops": workload.ops, "units": workload.units,
            "setup_s_samples": setup, "pass_wall_s_samples": walls, "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "raw_op_s": [[op.wall_s for op in ops] for ops in passes],
            "host_speed": [[op.speed for op in ops] for ops in passes],
            "subcommand_wall_s": {
                f"cli.{c}.wall_s": statistics.median(op.adjusted_s for op in all_ops if op.command == c)
                for c, _ in workload.ops},
            "sha256": {f"op{i}/{name}": digest for i, op in enumerate(passes[0])
                       for name, digest in op.digests.items()},
        }
        if args.trace:
            metrics, traced_ops = traced_run(nvdetect.cli, args, workload, configs, work,
                                             passes[0], wall_s, record, problems)
            all_ops += traced_ops
        else:
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (wall_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in all_ops if op.error is not None]
    for op in failed:
        print(f"FAILED {op.command}: {op.error.strip().splitlines()[-1]}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED trace: {problem}", file=sys.stderr)
    declared = declared_metrics(bool(args.trace))
    if declared is not None and declared != list(metrics):
        problems.append(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
        print(f"FAILED {problems[-1]}", file=sys.stderr)
    record.update(ops=len(all_ops), ops_failed=len(failed), problems=problems,
                  failures=[f"{op.command}: {op.error}" for op in failed])
    record_path = WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, pass times "
          + " ".join(f"{w:.3f}" for w in walls) + f"; record {record_path.relative_to(ROOT)}")
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def traced_run(cli, args, workload, configs, work, first_pass, untraced_wall, record, problems):
    """Three traced passes: A is measured; B repeats A's seed under cProfile
    and must give A's exact counts with no call bypassing a wrapper; C uses
    the next seed and must be served by the same routes."""
    trace_a, _, ops_a = traced_pass(cli, configs, workload, work / "traced-a")
    wall_a = sum(op.adjusted_s for op in ops_a)
    profile = cProfile.Profile()
    trace_b, originals, ops_b = traced_pass(cli, configs, workload, work / "traced-b", profile)
    other = workloads.build(args.workload, args.seed + 1)
    other_configs = write_configs(other, work / "next-seed")
    trace_c, _, ops_c = traced_pass(cli, other_configs, other, work / "traced-c")
    check_outputs(other, ops_c, args.seed + 1)
    compare_to_first([ops_a, ops_b], first_pass)

    exact_a, exact_b = counts(trace_a, ops_a), counts(trace_b, ops_b)
    if exact_a != exact_b:
        diff = sorted(k for k in exact_a["calls"] if exact_a["calls"][k] != exact_b["calls"].get(k))
        problems.append(f"counts differ between two traced passes on one seed: {diff}")
    missed = tracer.bypassed_calls(profile, originals, trace_b)
    if missed:
        problems.append(f"calls that bypassed their wrapper: {missed}")
    for layer in tracer.LAYERS:
        if not any(n for k, n in trace_a.calls.items() if k.startswith(layer + ".")):
            problems.append(f"layer {layer} recorded no calls")
    routes_a = [r for r in ROUTES if trace_a.calls.get(r)]
    routes_c = [r for r in ROUTES if trace_c.calls.get(r)]
    if routes_a != routes_c:
        problems.append(f"routes {routes_a} on seed {args.seed} but {routes_c} on seed {args.seed + 1}")
    if other.ops == workload.ops:
        problems.append(f"seed {args.seed + 1} gave the same inputs as seed {args.seed}")

    metrics = layer_metrics(trace_a, exact_a, wall_a - untraced_wall)
    idle = [n for n in EXPECTED[args.workload] if not trace_a.calls.get(n)]
    record["traced"] = {
        "traced_wall_s": wall_a,
        "untraced_wall_s": untraced_wall,
        "routes": routes_a,
        "idle_expected": idle,
        "functions": {name: {"calls": trace_a.calls[name], "self_s": trace_a.self_s[name]}
                      for name in sorted(trace_a.calls) if trace_a.calls[name]},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    for warning in idle:
        print(f"note: {warning} made no calls on {args.workload}")
    print(f"{'function':48s} {'calls':>9s} {'self_s':>10s}")
    for name, stats in sorted(record["traced"]["functions"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:48s} {stats['calls']:9d} {stats['self_s']:10.4f}")
    return metrics, ops_a + ops_b + ops_c


if __name__ == "__main__":
    sys.exit(main())
