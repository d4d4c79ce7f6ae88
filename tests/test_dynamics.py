import math

import numpy as np
import pytest

from nvdetect import (
    DensityMatrix2,
    FieldConfig,
    NoiseModel,
    NvParameters,
    PreconditionError,
    evolve_pair_grid,
)
from nvdetect.linalg import bloch_vector

import oracles
from oracles import (
    EvolutionSpec,
    Route,
    density_matrix,
    evolve_closed_axial_field,
    evolve_closed_dephasing,
    evolve_closed_transverse,
    hamiltonian_two_level,
    integrate_master_equation,
    lindblad_operator,
    propagate_superoperator,
)

PARAMS = NvParameters()
POLE = DensityMatrix2.pole_plus()
OMEGA_1E6 = 2 * math.pi * 0.17 * 1e6  # rad/s transverse coupling for 1e6 V/m


def is_close(a: DensityMatrix2, b: DensityMatrix2, atol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(a.matrix - b.matrix)) <= atol)


def states_at(fields, noise, t):
    """Both hypotheses' states at t from POLE, by a one-point package grid."""
    r0, r1 = evolve_pair_grid(fields, PARAMS, noise, POLE, [t])
    return density_matrix(r0[:, 0]), density_matrix(r1[:, 0])


def two_level(b_rad: float, coupling: complex, shift: float = 2 * math.pi * 2.87e9):
    """Hand-built 2x2 Hamiltonian from rad/s quantities."""
    return np.array(
        [[shift + b_rad, np.conj(coupling)], [coupling, shift - b_rad]], dtype=complex
    )


class TestClosedTransverse:
    def test_initial_state(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        assert is_close(evolve_closed_transverse(h, POLE, 0.0), POLE)

    def test_full_population_transfer(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        t = math.pi / (2 * OMEGA_1E6)
        rho = evolve_closed_transverse(h, POLE, t)
        np.testing.assert_allclose(rho.matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_quarter_rotation(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        t = math.pi / (4 * OMEGA_1E6)
        rho = evolve_closed_transverse(h, POLE, t)
        assert rho.matrix[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert abs(rho.matrix[1, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_axial_term_rejected(self):
        with pytest.raises(PreconditionError):
            evolve_closed_transverse(two_level(1e6, 1e6), POLE, 1e-7)

    def test_requires_pole_state(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        with pytest.raises(PreconditionError):
            evolve_closed_transverse(h, DensityMatrix2.equal_superposition(), 1e-7)


class TestClosedAxialField:
    def test_reduces_to_transverse_at_zero_bz(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0.3e6, 0), 0.0)
        for t in np.linspace(0, 4e-6, 23):
            a = evolve_closed_axial_field(h, POLE, float(t))
            b = evolve_closed_transverse(h, POLE, float(t))
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-14

    def test_pure_axial_keeps_pole(self):
        h = two_level(1e6, 0.0)
        for t in (0.0, 3e-7, 2e-6):
            rho = evolve_closed_axial_field(h, POLE, t)
            np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_population_floor_from_brute_force_scan(self):
        # equal axial and transverse rates: the pole population can only dip
        # to b^2/(b^2 + w^2) = 1/2, i.e. the Bloch z floor is 0
        h = two_level(1e6, 1e6)
        times = np.linspace(0, 2e-5, 40001)
        r11 = np.array(
            [evolve_closed_axial_field(h, POLE, float(t)).matrix[0, 0].real for t in times]
        )
        assert r11.min() == pytest.approx(0.5, abs=1e-6)
        assert 2 * r11.min() - 1 == pytest.approx(0.0, abs=2e-6)

    def test_against_superoperator(self):
        h = two_level(0.7e6, 1.3e6 * np.exp(0.4j))
        spec = EvolutionSpec(hamiltonian=h, lindblad=None, rho0=POLE)
        for t in (1e-7, 8e-7, 5e-6):
            a = evolve_closed_axial_field(h, POLE, t)
            b = propagate_superoperator(spec, t)
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10


class TestClosedDephasing:
    def test_reduces_to_transverse_when_noise_free(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        zero_l = np.zeros((2, 2), dtype=complex)
        for t in np.linspace(0, 3e-6, 17):
            a = evolve_closed_dephasing(h, zero_l, POLE, float(t))
            b = evolve_closed_transverse(h, POLE, float(t))
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-14

    def test_long_time_limit_is_maximally_mixed(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        l = lindblad_operator((1e6, 0, 0), NoiseModel.electric(1e5))
        rho = evolve_closed_dephasing(h, l, POLE, 5e-3)
        np.testing.assert_allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-12)

    def test_population_at_optimal_time(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        l = lindblad_operator((1e6, 0, 0), NoiseModel.electric(1e5))
        t = math.pi / (2 * OMEGA_1E6)  # 1.4706 us
        rho = evolve_closed_dephasing(h, l, POLE, t)
        expected = 0.5 * (1 + math.exp(-1e5 * t) * math.cos(2 * OMEGA_1E6 * t))
        assert rho.matrix[0, 0].real == pytest.approx(expected, abs=1e-14)
        assert rho.matrix[0, 0].real == pytest.approx(0.06838, abs=5e-5)

    def test_non_collinear_noise_rejected(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        l = lindblad_operator((0.0, 1e6, 0), NoiseModel.electric(1e5))
        with pytest.raises(PreconditionError):
            evolve_closed_dephasing(h, l, POLE, 1e-7)


class TestIntegrateMasterEquation:
    def test_free_evolution_is_constant(self):
        spec = EvolutionSpec(hamiltonian=np.zeros((2, 2), dtype=complex), rho0=POLE)
        traj = integrate_master_equation(spec, 1e-6, dt=1e-8, store_times=np.linspace(0, 1e-6, 5))
        for state in traj.states:
            assert is_close(state, POLE, atol=1e-14)

    def test_matches_closed_transverse_over_ten_microseconds(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        spec = EvolutionSpec(hamiltonian=h, rho0=POLE)
        times = np.linspace(0, 10e-6, 9)
        traj = integrate_master_equation(spec, 10e-6, dt=1e-9, store_times=times)
        for t, state in zip(traj.times, traj.states):
            ref = evolve_closed_transverse(h, POLE, float(t))
            assert np.max(np.abs(state.matrix - ref.matrix)) < 1e-8

    def test_matches_closed_dephasing_over_ten_microseconds(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        l = lindblad_operator((1e6, 0, 0), NoiseModel.electric(1e5))
        spec = EvolutionSpec(hamiltonian=h, lindblad=l, rho0=POLE)
        times = np.linspace(0, 10e-6, 9)
        traj = integrate_master_equation(spec, 10e-6, dt=1e-9, store_times=times)
        for t, state in zip(traj.times, traj.states):
            ref = evolve_closed_dephasing(h, l, POLE, float(t))
            assert np.max(np.abs(state.matrix - ref.matrix)) < 1e-8

    def test_trace_preserved(self):
        h = two_level(1.5e6, 2e6 * np.exp(1.1j))
        l = math.sqrt(5e4) * np.array([[1, 0], [0, -1]], dtype=complex)
        spec = EvolutionSpec(hamiltonian=h, lindblad=l, rho0=DensityMatrix2.equal_superposition())
        traj = integrate_master_equation(spec, 5e-6, dt=2e-9, store_times=np.linspace(0, 5e-6, 11))
        for state in traj.states:
            assert abs(state.matrix.trace().real - 1.0) < 1e-9

    def test_oversized_step_rejected(self):
        h = hamiltonian_two_level(PARAMS, (1e7, 0, 0), 0.0)
        with pytest.raises(PreconditionError):
            integrate_master_equation(EvolutionSpec(hamiltonian=h, rho0=POLE), 1e-6, dt=1e-7)

    def test_purity_non_increasing_under_dephasing(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        l = lindblad_operator((1e6, 0, 0), NoiseModel.electric(1e5))
        spec = EvolutionSpec(hamiltonian=h, lindblad=l, rho0=POLE)
        traj = integrate_master_equation(spec, 6e-6, dt=2e-9, store_times=np.linspace(0, 6e-6, 61))
        purities = np.array([s.purity for s in traj.states])
        assert np.all(np.diff(purities) <= 1e-9)


class TestSuperoperator:
    def test_zero_time_is_identity(self):
        h = two_level(2e6, 1e6 * 1j)
        rho = DensityMatrix2.equal_superposition()
        out = propagate_superoperator(EvolutionSpec(hamiltonian=h, rho0=rho), 0.0)
        assert is_close(out, rho, atol=1e-14)

    def test_agrees_with_rk4_on_dephasing(self):
        h = hamiltonian_two_level(PARAMS, (1e6, 0, 0), 0.0)
        l = lindblad_operator((1e6, 0, 0), NoiseModel.electric(1e5))
        spec = EvolutionSpec(hamiltonian=h, lindblad=l, rho0=POLE)
        times = np.linspace(0, 4e-6, 5)[1:]
        traj = integrate_master_equation(spec, 4e-6, dt=4e-10, store_times=times)
        for t, state in zip(traj.times, traj.states):
            sup = propagate_superoperator(spec, float(t))
            assert np.max(np.abs(state.matrix - sup.matrix)) < 1e-9

    def test_agrees_with_closed_axial_without_noise(self):
        h = two_level(1.2e6, 0.9e6 * np.exp(0.7j))
        spec = EvolutionSpec(hamiltonian=h, rho0=POLE)
        for t in (2e-7, 1.3e-6, 7e-6):
            sup = propagate_superoperator(spec, t)
            ref = evolve_closed_axial_field(h, POLE, t)
            assert np.max(np.abs(sup.matrix - ref.matrix)) < 1e-10

    def test_magnetic_noise_dephases_coherences(self):
        # sigma_z noise on a +x state with no drive: x decays as exp(-kappa t)
        h = two_level(0.0, 0.0)
        l = lindblad_operator((0, 0, 0), NoiseModel.magnetic(1e5))
        rho = DensityMatrix2.equal_superposition()
        out = propagate_superoperator(EvolutionSpec(hamiltonian=h, lindblad=l, rho0=rho), 1e-5)
        x, y, z = bloch_vector(out)
        assert x == pytest.approx(math.exp(-1.0), abs=1e-10)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert z == pytest.approx(0.0, abs=1e-12)


class TestEvolvePair:
    def test_identical_hypotheses_for_zero_switch(self):
        fields = FieldConfig(e0=(1e6, 0, 0), de=(0.0, 0.0, 0.0))
        r0, r1 = states_at(fields, NoiseModel.electric(1e5), 0.9e-6)
        assert np.max(np.abs(r0.matrix - r1.matrix)) == 0.0

    def test_parallel_fields_reach_orthogonal_states(self):
        fields = FieldConfig(e0=(1e7, 0, 0), de=(1e7, 0, 0))
        t = math.pi / (2 * abs(PARAMS.transverse_coupling((1e7, 0, 0))))
        r0, r1 = states_at(fields, NoiseModel.none(), t)
        overlap = float(np.trace(r0.matrix @ r1.matrix).real)
        assert overlap == pytest.approx(0.0, abs=1e-12)
        assert r0.purity == pytest.approx(1.0, abs=1e-12)
        assert r1.purity == pytest.approx(1.0, abs=1e-12)

    def test_zero_baseline_inherits_switch_noise_axis(self):
        # with e0 = 0 the baseline hypothesis still dephases along the
        # switch direction: populations relax without any coherence building
        fields = FieldConfig(e0=(0.0, 0.0, 0.0), de=(1e6, 0, 0))
        kappa = 1e5
        t = 0.8e-6
        r0, r1 = states_at(fields, NoiseModel.electric(kappa), t)
        decay = math.exp(-kappa * t)
        np.testing.assert_allclose(
            r0.matrix, np.diag([(1 + decay) / 2, (1 - decay) / 2]), atol=1e-12
        )
        w = OMEGA_1E6
        assert r1.matrix[0, 0].real == pytest.approx(
            0.5 * (1 + decay * math.cos(2 * w * t)), abs=1e-12
        )
        assert r1.matrix[1, 0] == pytest.approx(-0.5j * decay * math.sin(2 * w * t), abs=1e-12)

    def test_method_agreement_on_random_configurations(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            e0x = rng.uniform(0, 2e6)
            dex = rng.uniform(2e5, 2e6)
            kappa = rng.uniform(2e4, 1.5e5)
            fields = FieldConfig(e0=(e0x, 0, 0), de=(dex, 0, 0))
            noise = NoiseModel.electric(kappa)
            t = rng.uniform(1e-7, 4e-6)
            rate = 2 * abs(PARAMS.transverse_coupling(fields.e1))
            dt = 2 * math.pi / (1200 * rate)
            auto = states_at(fields, noise, t)
            sup = oracles.evolve_pair(fields, PARAMS, noise, POLE, t, method=Route.SUPEROPERATOR)
            rk4 = oracles.evolve_pair(fields, PARAMS, noise, POLE, t, method=Route.RK4, dt=dt)
            for a, b in zip(auto, sup):
                assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9
            for a, b in zip(auto, rk4):
                assert np.max(np.abs(a.matrix - b.matrix)) < 1e-8

    def test_forced_closed_method_rejects_unsupported_case(self):
        fields = FieldConfig(e0=(1e6, 0, 0), de=(1e6, 0, 0), b_z=1e-5)
        with pytest.raises(PreconditionError):
            oracles.evolve_pair(
                fields, PARAMS, NoiseModel.electric(1e5), POLE, 1e-6, method=Route.CLOSED
            )

    def test_great_circle_for_x_drive(self):
        # driven along x from the pole: the trajectory stays on the x = 0
        # great circle of the Bloch sphere
        fields = FieldConfig(e0=(0, 0, 0), de=(1e6, 0, 0))
        _, r1 = evolve_pair_grid(fields, PARAMS, NoiseModel.none(), POLE, np.linspace(0, 5e-6, 101))
        assert np.max(np.abs(r1[0])) < 1e-10
