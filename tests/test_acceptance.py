"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Everything here runs from the public package API; the closed forms of
``oracles`` act as the oracles for the numeric propagators, its operator
form of the Helstrom measurement as the oracle for the package's
Bloch-vector decision, and exhaustive enumeration / dense scans act as
oracles for the optimizers and fused-error formulas.
"""
import json
import math

import numpy as np
import pytest

from nvdetect import (
    FieldConfig,
    NoiseModel,
    NvParameters,
    PreparationState,
    bloch_generators,
    evolve_bloch,
    helstrom_decision,
    majority_vote_error,
    min_error_grid,
    optimal_time_search,
    standard_basis_error_grid,
    turn_on_blocks,
)
from nvdetect.cli import main
from nvdetect.linalg import DensityMatrix2
from oracles import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    EvolutionSpec,
    density_matrix,
    evolve_closed_axial_field,
    evolve_closed_dephasing,
    evolve_closed_transverse,
    hamiltonian_two_level,
    helstrom_operator,
    integrate_master_equation,
    lindblad_operator,
    min_error,
    optimal_time_analytic,
    povm_pair,
    propagate_superoperator,
)

PARAMS = NvParameters()
POLE = DensityMatrix2.pole_plus()
R_POLE = PreparationState.POLE_PLUS.bloch_vector


def random_state(rng):
    """A Bloch vector drawn uniformly from the ball."""
    v = rng.normal(size=3)
    v *= rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(v)
    return v


def projector_pi1(decision, k):
    """Pi1 = c I + w.sigma of point k of a package decision: I, 0, or the
    pure state along its unit vector."""
    if decision.all_pi1[k]:
        c, w = 1.0, np.zeros(3)
    elif decision.all_pi0[k]:
        c, w = 0.0, np.zeros(3)
    else:
        c, w = 0.5, 0.5 * decision.unit[:, k]
    return c * IDENTITY_2 + w[0] * SIGMA_X + w[1] * SIGMA_Y + w[2] * SIGMA_Z


def test_criterion_1_propagator_equivalence():
    """RK4, superoperator, and the applicable closed form agree to 1e-8 over
    [0, 10 us] on randomized configurations spanning all three regimes."""
    rng = np.random.default_rng(20260808)
    configs = []
    # no noise, no axial field (one pushed to the strongest field)
    for e_mag in (rng.uniform(2e5, 3e6), rng.uniform(2e5, 3e6), rng.uniform(2e5, 3e6), 1e7):
        angle = rng.uniform(0, 2 * math.pi)
        configs.append(("transverse", e_mag, angle, 0.0, 0.0))
    # no noise, axial field on
    for _ in range(4):
        e_mag = rng.uniform(2e5, 3e6)
        angle = rng.uniform(0, 2 * math.pi)
        b_z = rng.choice([-1, 1]) * rng.uniform(2e-6, 3e-5)
        configs.append(("axial", e_mag, angle, b_z, 0.0))
    # collinear dephasing, no axial field
    for _ in range(4):
        e_mag = rng.uniform(2e5, 3e6)
        angle = rng.uniform(0, 2 * math.pi)
        kappa = rng.uniform(2e4, 2e5)
        configs.append(("dephasing", e_mag, angle, 0.0, kappa))

    sample_times = np.linspace(0.0, 10e-6, 11)
    worst = 0.0
    for kind, e_mag, angle, b_z, kappa in configs:
        e_field = (e_mag * math.cos(angle), e_mag * math.sin(angle), 0.0)
        h = hamiltonian_two_level(PARAMS, e_field, b_z)
        lind = lindblad_operator(e_field, NoiseModel.electric(kappa)) if kappa > 0 else None
        rate = 2.0 * math.hypot(PARAMS.zeeman_rate(b_z), abs(PARAMS.transverse_coupling(e_field)))
        dt = 2 * math.pi / (1200 * rate)
        spec = EvolutionSpec(hamiltonian=h, lindblad=lind, rho0=POLE)
        traj = integrate_master_equation(spec, 10e-6, dt=dt, store_times=sample_times)
        for t, rk4_state in zip(traj.times, traj.states):
            sup = propagate_superoperator(spec, float(t))
            if kind == "transverse":
                closed = evolve_closed_transverse(h, POLE, float(t))
            elif kind == "axial":
                closed = evolve_closed_axial_field(h, POLE, float(t))
            else:
                closed = evolve_closed_dephasing(h, lind, POLE, float(t))
            for a, b in ((rk4_state, sup), (rk4_state, closed), (sup, closed)):
                worst = max(worst, float(np.max(np.abs(a.matrix - b.matrix))))
    assert worst < 1e-8
    print(f"\nACCEPTANCE 1 PASS: 12 configurations, worst pairwise deviation {worst:.2e} < 1e-8")


def test_criterion_2_zero_error_instant():
    """Without decoherence a collinear switch is detected perfectly at the
    analytic optimal time."""
    worst = 0.0
    for de_x in (3e5, 1e6, 3e6, 1e7):
        for e0x in (0.0, 1e6):
            t_opt = optimal_time_analytic(de_x)
            fields = FieldConfig(e0=(e0x, 0, 0), de=(de_x, 0, 0))
            r0, r1 = evolve_bloch(bloch_generators(fields, PARAMS, NoiseModel.none()), R_POLE, [t_opt])
            worst = max(worst, float(min_error_grid(r0, r1).p_err[0]))
    assert worst < 1e-10
    print(f"ACCEPTANCE 2 PASS: max p_err at analytic optima {worst:.2e} < 1e-10")


def test_criterion_3_dephasing_minimum():
    """With T2 = 10 us the minimum error hits the dephasing-limited values at
    the expected times for both reference switch magnitudes."""
    noise = NoiseModel.electric(PARAMS.kappa)
    results = []
    for de_x, p_ref, t_ref in ((1e6, 0.0684, 1.47e-6), (3e6, 0.0239, 0.490e-6)):
        fields = FieldConfig(e0=(0, 0, 0), de=(de_x, 0, 0))
        t_opt = optimal_time_analytic(de_x)
        assert t_opt == pytest.approx(t_ref, rel=5e-3)
        r0, r1 = evolve_bloch(bloch_generators(fields, PARAMS, noise), R_POLE, [t_opt])
        p_at_analytic = float(min_error_grid(r0, r1).p_err[0])
        assert p_at_analytic == pytest.approx(p_ref, abs=5e-4)
        t_star, p_min = optimal_time_search(
            fields, PARAMS, noise, R_POLE, (0.2 * t_opt, 1.6 * t_opt)
        )
        w = abs(PARAMS.transverse_coupling((de_x, 0, 0)))
        formula = 0.5 * (1 - math.exp(-PARAMS.kappa * t_star) * abs(math.sin(w * t_star)))
        assert p_min == pytest.approx(formula, abs=1e-6)
        assert p_min <= p_at_analytic
        assert 0.0 <= (t_opt - t_star) / t_opt < 0.07  # decoherence pulls it earlier
        results.append((de_x, p_at_analytic, t_star))
    msg = "; ".join(f"dE={d:.0e}: p(t_min)={p:.5f}, searched t*={t:.3e}s" for d, p, t in results)
    print(f"ACCEPTANCE 3 PASS: {msg}")


def test_criterion_4_dual_formula_identity():
    """Trace-form and eigenvalue-form error probabilities agree to 1e-12
    everywhere (the built-in cross-check never fires, and an explicit
    recomputation from the decision's projectors confirms it), and the
    error equals that of the operator-form oracle."""
    rng = np.random.default_rng(4)
    worst = 0.0
    worst_oracle = 0.0
    cases = []
    noise = NoiseModel.electric(PARAMS.kappa)
    fields = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
    r0, r1 = evolve_bloch(bloch_generators(fields, PARAMS, noise), R_POLE, np.linspace(1e-8, 4e-6, 400))
    cases += [(v0, v1, (0.5, 0.5)) for v0, v1 in zip(r0.T, r1.T)]
    for _ in range(2000):
        p0 = rng.uniform(0, 1)
        cases.append((random_state(rng), random_state(rng), (p0, 1 - p0)))
    for v0, v1, priors in cases:
        rows0, rows1 = np.transpose([v0]), np.transpose([v1])
        curve = min_error_grid(rows0, rows1, priors)  # would raise on mismatch
        rho0, rho1 = density_matrix(v0), density_matrix(v1)
        pi1 = projector_pi1(curve.decision, 0)
        p_trace = priors[0] * np.trace(rho0.matrix @ pi1).real + priors[1] * np.trace(
            rho1.matrix @ (IDENTITY_2 - pi1)
        ).real
        dec = curve.decision
        p_eigen = 0.5 * (1 - abs(dec.lambda_plus[0]) - abs(dec.lambda_minus[0]))
        worst = max(worst, abs(p_trace - p_eigen))
        assert abs(curve.p_err[0] - max(p_trace, 0.0)) <= 1e-12
        worst_oracle = max(worst_oracle, abs(curve.p_err[0] - min_error(rho0, rho1, priors).p_err))
    assert worst < 1e-12
    assert worst_oracle <= 1e-12
    print(
        f"ACCEPTANCE 4 PASS: {len(cases)} evaluations, worst formula gap {worst:.2e} < 1e-12; "
        f"operator-form oracle gap {worst_oracle:.2e}"
    )


def test_criterion_5_povm_axioms():
    """Projector pairs from 10^4 random state/prior draws are Hermitian,
    positive, complete, and idempotent, and equal the operator-form
    oracle's projectors."""
    rng = np.random.default_rng(5)
    worst_eig = 0.0
    worst_complete = 0.0
    worst_idem = 0.0
    worst_herm = 0.0
    worst_oracle = 0.0
    for _ in range(10_000):
        p0 = rng.uniform(0, 1)
        v0, v1 = random_state(rng), random_state(rng)
        rows0, rows1 = np.transpose([v0]), np.transpose([v1])
        pi1 = projector_pi1(helstrom_decision(rows0, rows1, (p0, 1 - p0)), 0)
        pi0 = IDENTITY_2 - pi1
        for pi in (pi0, pi1):
            worst_herm = max(worst_herm, float(np.max(np.abs(pi - pi.conj().T))))
            half_sum = 0.5 * (pi[0, 0].real + pi[1, 1].real)
            rad = math.hypot(0.5 * (pi[0, 0].real - pi[1, 1].real), abs(pi[1, 0]))
            worst_eig = min(worst_eig, half_sum - rad)
            worst_idem = max(worst_idem, float(np.max(np.abs(pi @ pi - pi))))
        worst_complete = max(worst_complete, float(np.max(np.abs(pi0 + pi1 - np.eye(2)))))
        oracle = povm_pair(helstrom_operator(density_matrix(v0), density_matrix(v1), (p0, 1 - p0)))
        worst_oracle = max(worst_oracle, float(np.max(np.abs(pi1 - oracle.pi1))))
    assert worst_herm <= 1e-12
    assert worst_eig >= -1e-12
    assert worst_complete <= 1e-12
    assert worst_idem <= 1e-10
    assert worst_oracle <= 1e-10
    print(
        "ACCEPTANCE 5 PASS: 10000 draws; "
        f"hermiticity {worst_herm:.1e}, min eigenvalue {worst_eig:.1e}, "
        f"completeness {worst_complete:.1e}, idempotency {worst_idem:.1e}, "
        f"operator-form oracle gap {worst_oracle:.1e}"
    )


def eigenvalue_pairs(fields, noise, times):
    """(lambda_plus, lambda_minus) of the package decision at every time, as
    an (n, 2) array, after checking them against the operator-form oracle."""
    r0, r1 = evolve_bloch(bloch_generators(fields, PARAMS, noise), R_POLE, times)
    curve = min_error_grid(r0, r1)
    spectra = np.column_stack([curve.decision.lambda_plus, curve.decision.lambda_minus])
    for (v0, v1), got in zip(zip(r0.T, r1.T), spectra):
        dec = helstrom_operator(density_matrix(v0), density_matrix(v1))
        assert np.max(np.abs(got - (dec.lambda_plus, dec.lambda_minus))) <= 1e-12
    return spectra


def test_criterion_6_baseline_invariance():
    """Decision-operator eigenvalues ignore the parallel baseline field (with
    and without collinear dephasing) but not a transverse switch component."""
    times = np.linspace(5e-8, 3e-6, 25)
    worst = 0.0
    for kappa in (0.0, 1e5):
        noise = NoiseModel.electric(kappa) if kappa else NoiseModel.none()
        spectra = np.array([
            eigenvalue_pairs(FieldConfig(e0=(e0x, 0, 0), de=(1e6, 0, 0)), noise, times)
            for e0x in (0.0, 1e6, 1e7)
        ])
        worst = max(worst, float(np.max(np.abs(spectra - spectra[0]))))
    assert worst < 1e-10

    times = np.linspace(1e-7, 1e-6, 10)
    spectra = [
        eigenvalue_pairs(FieldConfig(e0=(e0x, 0, 0), de=(1e6, 1e6, 0)), NoiseModel.none(), times)
        for e0x in (0.0, 1e7)
    ]
    witness = float(np.max(np.abs(spectra[1] - spectra[0])))
    assert witness > 1e-3
    print(
        f"ACCEPTANCE 6 PASS: parallel-baseline spread {worst:.2e} < 1e-10; "
        f"transverse-switch witness spread {witness:.3f} > 1e-3"
    )


def test_criterion_7_standard_versus_optimal_basis():
    """Odd-multiple switches let the standard readout reach the optimal
    minimum; even-multiple switches leave it far worse."""
    noise = NoiseModel.electric(1e5)
    minima = {}
    for de_x in (1e7, 2e7):
        fields = FieldConfig(e0=(1e7, 0, 0), de=(de_x, 0, 0))
        times = np.linspace(1e-9, 1.2e-6, 24001)
        r0, r1 = evolve_bloch(bloch_generators(fields, PARAMS, noise), R_POLE, times)
        best_povm = float(np.min(min_error_grid(r0, r1).p_err))
        best_std = float(np.min(standard_basis_error_grid(r0, r1)))
        minima[de_x] = (best_std, best_povm)
    odd_gap = abs(minima[1e7][0] - minima[1e7][1])
    even_gap = minima[2e7][0] - minima[2e7][1]
    assert odd_gap < 1e-3
    assert even_gap > 0.1
    print(
        f"ACCEPTANCE 7 PASS: odd multiple |min_std - min_povm| = {odd_gap:.2e} < 1e-3; "
        f"even multiple gap = {even_gap:.3f} > 0.1"
    )


def test_criterion_8_array_scaling():
    """The fused-error formula matches exhaustive enumeration, and its decay
    with sensor count is exponential at the expected per-sensor rate."""
    from test_protocol import exhaustive_majority_error

    rng = np.random.default_rng(8)
    worst = 0.0
    for n in (1, 3, 5, 7, 9, 11):
        for _ in range(3):
            p01, p10 = rng.uniform(0, 1, size=2)
            prior0 = rng.uniform(0, 1)
            got = majority_vote_error(n, p01, p10, (prior0, 1 - prior0))
            ref = exhaustive_majority_error(n, p01, p10, (prior0, 1 - prior0))
            worst = max(worst, abs(got - ref))
    assert worst < 1e-12

    p_single = 0.5 * (1 - math.exp(-1e5 * optimal_time_analytic(1e6)))
    ns = np.arange(1, 16, 2)
    p_n = np.array([majority_vote_error(int(n), p_single, p_single) for n in ns])
    logs = -np.log(p_n)
    design = np.column_stack([ns, np.ones_like(ns, dtype=float)])
    (alpha, icpt), *_ = np.linalg.lstsq(design, logs, rcond=None)
    residuals = logs - (alpha * ns + icpt)
    r_squared = 1 - np.sum(residuals**2) / np.sum((logs - logs.mean()) ** 2)
    assert 0.5 <= alpha <= 1.1
    assert r_squared > 0.995
    print(
        f"ACCEPTANCE 8 PASS: exhaustive agreement {worst:.1e} < 1e-12; "
        f"alpha = {alpha:.3f} in [0.5, 1.1], affine fit R^2 = {r_squared:.5f}"
    )


def test_criterion_9_turn_on_jitter():
    """Over 1000 seeded runs with 15 sensors the inferred switch interval has
    width two cycles and brackets the true switch time in >= 99% of runs."""
    fields = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
    noise = NoiseModel.electric(PARAMS.kappa)
    t_cycle = optimal_time_analytic(1e6)
    t_star = 3.2 * t_cycle
    successes = 0
    n_runs = 1000
    blocks = turn_on_blocks(
        fields, PARAMS, noise, R_POLE, PARAMS.transfer_time(fields.de), 8, t_star, 15,
        range(n_runs),
    )
    intervals = [interval for block in blocks for interval in block.intervals]
    assert len(intervals) == n_runs
    for interval in intervals:
        if interval is None:  # no detection
            continue
        lo, hi = interval
        assert hi - lo == pytest.approx(2 * t_cycle, rel=1e-12)
        if lo <= t_star <= hi:
            successes += 1
    rate = successes / n_runs
    assert rate >= 0.99
    print(f"ACCEPTANCE 9 PASS: containment rate {rate:.3f} >= 0.99, width = 2 cycles")


def test_criterion_10_superposition_axial_sweep(tmp_path):
    """Superposition preparation under axial magnetic noise: a transverse
    drive parallel to the prepared axis needs a finite axial field, the
    perpendicular drive does not, and the beneficial field sits at the
    coupling-matching scale. Run as ``appendix-b`` on the default config,
    whose sweep is 1e6 V/m along x and y over the B_z grid below."""
    bz_grid = [0.0, 1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6, 8e-6, 1e-5, 1.4e-5, 2e-5]
    assert main(["appendix-b", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bz_error_sweep.csv").read_text().splitlines()[1:]
    rows = [(o, float(e), float(b), float(p)) for o, e, b, _, p in (ln.split(",") for ln in lines)]
    assert [(o, e, b) for o, e, b, _ in rows] == [
        (o, 1e6, b) for o in ("x", "y") for b in bz_grid
    ]
    x_curve = {b: p for o, _, b, p in rows if o == "x"}
    y_curve = {b: p for o, _, b, p in rows if o == "y"}

    assert min(y_curve, key=y_curve.get) == 0.0
    assert x_curve[0.0] == pytest.approx(0.5, abs=1e-6)
    best_bz = min((b for b in x_curve if b > 0), key=lambda b: x_curve[b])
    assert x_curve[best_bz] < 0.45
    coupling = abs(PARAMS.transverse_coupling((1e6, 0, 0)))
    ratio = PARAMS.zeeman_rate(best_bz) / coupling
    assert 1 / 3 <= ratio <= 3
    print(
        "ACCEPTANCE 10 PASS: y-drive optimum at B_z=0 "
        f"(p={y_curve[0.0]:.4f}); x-drive blind at B_z=0 (p={x_curve[0.0]:.6f}) "
        f"improving to {x_curve[best_bz]:.4f} at {best_bz*1e6:.0f} uT "
        f"(crossover ratio {ratio:.2f} within x3)"
    )


def test_criterion_11_deterministic_outputs(tmp_path):
    """Equal config and seed reproduce byte-identical CSV/JSON files, for the
    deterministic sweeps, the stochastic protocol, and the parallel sweep."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "time_grid": {"t_max": 2e-6, "n_points": 51},
                "field_pairs": [{"e0": [0, 0, 0], "de": [1e6, 0, 0], "kappa": 1e5}],
                "protocol": {"n_cycles": 5, "n_sensors": 9, "n_runs": 25},
                "bz_sweep": {
                    "e_magnitudes": [1e6],
                    "orientations": ["y"],
                    "b_z_values": [0.0, 4e-6],
                    "t_window": [1e-9, 1e-5],
                },
                "noise": {"kind": "electric_along_field"},
            }
        )
    )
    compared = []
    for command, filenames in (
        (["perr-time"], ["perr_time.csv", "perr_time_pairs.json"]),
        (["protocol"], ["protocol_runs.csv", "protocol_summary.json"]),
    ):
        out_a, out_b = tmp_path / f"{command[0]}-a", tmp_path / f"{command[0]}-b"
        for out in (out_a, out_b):
            code = main(command + ["--config", str(cfg_path), "--out", str(out), "--seed", "42"])
            assert code == 0
        for name in filenames:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            compared.append(name)
    # worker-pool assembly must not perturb byte output either
    out_serial, out_parallel = tmp_path / "sweep-serial", tmp_path / "sweep-parallel"
    for out, jobs in ((out_serial, "1"), (out_parallel, "2")):
        code = main(
            ["appendix-b", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
        )
        assert code == 0
    assert (out_serial / "bz_error_sweep.csv").read_bytes() == (
        out_parallel / "bz_error_sweep.csv"
    ).read_bytes()
    compared.append("bz_error_sweep.csv")
    print(f"ACCEPTANCE 11 PASS: byte-identical outputs for {', '.join(compared)}")
