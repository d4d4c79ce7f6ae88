"""The production Bloch-vector kernel against the independent routes.

The closed-form Bloch generator must equal the Pauli projection of the 4x4
Liouvillian. ``evolve_pair_grid`` + ``min_error_grid`` must reproduce the
4x4 superoperator propagator + the operator-form ``min_error`` oracle per
point, including at the
exceptional point of the axial-noise generator, where it is defective. A
uniform grid's product of two exponential stacks must agree with one
exponential per time, bit for bit on one point, and every other time array
is refused.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvdetect import (
    DensityMatrix2,
    FieldConfig,
    NoiseModel,
    NvParameters,
    PreconditionError,
    evolve_pair_grid,
    expm_batch,
    min_error_grid,
    standard_basis_error_grid,
)
from nvdetect import discrimination, dynamics
from nvdetect.dynamics import bloch_generators, evolve_bloch
from nvdetect.hamiltonian import NoiseKind, bloch_generator
from nvdetect.linalg import _norm1, bloch_vector, check_bloch_norms

import oracles
from oracles import (
    EvolutionSpec,
    Route,
    density_matrix,
    expm_small,
    hamiltonian_two_level,
    lindblad_operator,
    min_error,
    projected_bloch_generator,
    propagate_superoperator,
    standard_basis_error,
    traceless_hamiltonian,
)

PARAMS = NvParameters()
PREPARATIONS = (DensityMatrix2.pole_plus(), DensityMatrix2.equal_superposition())


def transverse(magnitude, angle):
    return (magnitude * math.cos(angle), magnitude * math.sin(angle), 0.0)


@st.composite
def scenarios(draw):
    """A field pair, noise model, initial state and time grid.

    Covers electric and axial-magnetic noise, nonzero B_z, skewed priors, a
    zero switch, random initial Bloch states, and axial noise within 1e-6
    relative of the exceptional point kappa = 4 |coupling| of the switched
    hypothesis (its y-z block [[-kappa, -2w], [2w, 0]] is then defective).
    """
    angle = st.floats(0.0, 2.0 * math.pi)
    e0_scale = draw(st.sampled_from([0.0, 1e5, 1e6]))
    e0 = transverse(e0_scale * draw(st.floats(0.0, 1.0)), draw(angle))
    kind = draw(st.sampled_from(["electric", "magnetic", "critical", "zero_switch"]))
    b_z = draw(st.one_of(st.just(0.0), st.floats(-3e-5, 3e-5)))
    if kind == "critical":
        e0, b_z = (0.0, 0.0, 0.0), 0.0
        de = transverse(draw(st.floats(2e4, 2e5)), draw(angle))
        coupling = abs(PARAMS.transverse_coupling(de))
        noise = NoiseModel.magnetic(4.0 * coupling * (1.0 + draw(st.floats(-1e-6, 1e-6))))
    else:
        de = transverse(draw(st.floats(1e4, 3e6)), draw(angle))
        if kind == "zero_switch":
            de = (0.0, 0.0, 0.0)
            if e0[:2] == (0.0, 0.0):
                e0 = transverse(1e6, draw(angle))  # electric noise needs a field axis
        rate = draw(st.floats(0.0, 3e5))
        noise = NoiseModel.magnetic(rate) if kind == "magnetic" else NoiseModel.electric(rate)
    p0 = draw(st.sampled_from([0.5, 0.1, 0.3, 0.7, 0.95]))
    fields = FieldConfig(e0=e0, de=de, b_z=b_z, priors=(p0, 1.0 - p0))

    direction = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    if np.linalg.norm(direction) < 1e-3:
        direction = np.array([0.0, 0.0, 1.0])
    radius = draw(st.sampled_from([1.0, 0.5])) * draw(st.floats(0.0, 1.0))
    rho0 = density_matrix(radius * direction / np.linalg.norm(direction))
    times = np.linspace(0.0, draw(st.floats(1e-7, 1e-5)), draw(st.integers(2, 12)))
    return fields, noise, rho0, times


@given(scenarios())
@settings(max_examples=150, deadline=None)
# a +y start turned through 36 rad, where |v| = 1.4e-3 turns state errors of about one budget
# into a p_dc gap of 1.6e-12, which the old guard of |v| >= 1e-3 let through to the 1e-12 check
@example(scenario=(FieldConfig(e0=(0.0, 0.0, 0.0), de=(10425.0, 0.0, 0.0), b_z=2.984551790829029e-05),
                   NoiseModel.electric(0.0), density_matrix(np.array([0.0, 1.0, 0.0])),
                   np.linspace(0.0, 3.404288064716767e-06, 2)))
def test_grid_kernel_matches_superoperator_and_min_error(scenario):
    fields, noise, rho0, times = scenario
    r0, r1 = evolve_pair_grid(fields, PARAMS, noise, rho0, times)
    curve = min_error_grid(r0, r1, fields.priors)
    p_std = standard_basis_error_grid(r0, r1, fields.priors, best_assignment=True)
    for k, t in enumerate(times):
        s0, s1 = oracles.evolve_pair(
            fields, PARAMS, noise, rho0, float(t), method=Route.SUPEROPERATOR
        )
        assert np.max(np.abs(np.array(bloch_vector(s0)) - r0[:, k])) <= 1e-12
        assert np.max(np.abs(np.array(bloch_vector(s1)) - r1[:, k])) <= 1e-12
        report = min_error(s0, s1, fields.priors)
        assert abs(report.p_err - curve.p_err[k]) <= 1e-12
        p_std_ref = standard_basis_error(s0, s1, fields.priors, best_assignment=True)
        assert abs(p_std_ref - p_std[k]) <= 1e-12
        # p_dc and p_fn follow the direction of v = P1 r1 - P0 r0, and they jump where an
        # eigenvalue crosses zero. Each route's states are within 4 rounding budgets (max(32,
        # theta) ulp of 1/2, discrimination._flat_tolerance) of exact per component (3.0 and 3.7
        # at most against 50-digit mpmath), so the routes' states differ by |d| <= 8 sqrt(3)
        # budgets, which moves p_dc and p_fn apart by at most |d| (1 + 1/|v|) / 2. Where that is
        # within the tolerance and no eigenvalue is near zero they must agree as tightly as p_err.
        v = np.linalg.norm(fields.priors[1] * r1[:, k] - fields.priors[0] * r0[:, k])
        budget = discrimination._flat_tolerance(fields, PARAMS, float(t))
        dec = curve.decision
        smallest_eigenvalue = min(abs(dec.lambda_plus[k]), abs(dec.lambda_minus[k]))
        if 4.0 * math.sqrt(3.0) * budget * (v + 1.0) <= 1e-12 * v and smallest_eigenvalue >= 1e-9:
            assert abs(report.p_dc - curve.p_dc[k]) <= 1e-12
            assert abs(report.p_fn - curve.p_fn[k]) <= 1e-12

    k = len(times) // 2
    p0, p1 = evolve_pair_grid(fields, PARAMS, noise, rho0, [times[k]])
    assert np.max(np.abs(p0[:, 0] - r0[:, k])) <= 1e-13
    assert np.max(np.abs(p1[:, 0] - r1[:, k])) <= 1e-13


@pytest.mark.parametrize("rho0", PREPARATIONS, ids=["pole_plus", "equal_superposition"])
@pytest.mark.parametrize("priors", [(0.5, 0.5), (0.3, 0.7), (0.0, 1.0), (0.7, 0.3), (1.0, 0.0)])
def test_identical_states_at_time_zero(rho0, priors):
    # at t = 0 both hypotheses still hold the prepared state; these are the
    # first rows of perr_time.csv
    fields = FieldConfig(de=(1e6, 0.0, 0.0), priors=priors)
    r0, r1 = evolve_pair_grid(fields, PARAMS, NoiseModel.electric(1e5), rho0, [0.0])
    assert np.array_equal(r0, r1)
    curve = min_error_grid(r0, r1, priors)
    report = min_error(rho0, rho0, priors)
    p0, p1 = priors
    if p1 >= p0:  # zero eigenvalues go to pi1: pi1 is the identity
        assert (curve.p_dc[0], curve.p_fn[0]) == (1.0, 0.0)
        assert (curve.p_dc[0], curve.p_fn[0]) == (report.p_dc, report.p_fn)
    else:
        # pi0 projects onto the prepared state; min_error builds it from the
        # eigenvector, whose irrational components (1/sqrt 2 for the
        # superposition) leave Tr(rho pi0) at most a few ulp below 1
        assert (curve.p_dc[0], curve.p_fn[0]) == (0.0, 1.0)
        assert report.p_dc == 0.0
        assert report.p_fn == pytest.approx(1.0, abs=1e-15)
    assert curve.p_err[0] == pytest.approx(min(p0, p1), abs=1e-15)


def test_zero_switch_gives_identical_grids():
    fields = FieldConfig(e0=(1e6, 0.0, 0.0), de=(0.0, 0.0, 0.0), priors=(0.3, 0.7))
    times = np.linspace(0.0, 4e-6, 33)
    r0, r1 = evolve_pair_grid(fields, PARAMS, NoiseModel.electric(1e5), PREPARATIONS[1], times)
    assert np.array_equal(r0, r1)
    curve = min_error_grid(r0, r1, fields.priors)
    assert np.all(curve.p_dc == 1.0) and np.all(curve.p_fn == 0.0)
    np.testing.assert_allclose(curve.p_err, 0.3, atol=1e-15)


def test_other_methods_loop_the_cross_check_routes():
    fields = FieldConfig(e0=(0.0, 0.0, 0.0), de=(1e6, 0.0, 0.0))
    noise = NoiseModel.electric(1e5)
    times = np.linspace(0.0, 3e-6, 7)
    auto = evolve_pair_grid(fields, PARAMS, noise, PREPARATIONS[0], times)
    for method in (Route.CLOSED, Route.SUPEROPERATOR):
        pairs = [
            oracles.evolve_pair(fields, PARAMS, noise, PREPARATIONS[0], float(t), method=method)
            for t in times
        ]
        routed = [np.array([bloch_vector(pair[k]) for pair in pairs]) for k in (0, 1)]
        for a, b in zip(auto, routed):
            assert b.shape == (7, 3)
            assert np.max(np.abs(a.T - b)) < 1e-12


def test_negative_times_rejected():
    with pytest.raises(PreconditionError):
        evolve_pair_grid(FieldConfig(), PARAMS, NoiseModel.none(), PREPARATIONS[0], [-1e-9])


def test_bloch_generator_of_axial_noise():
    # sigma_z noise at rate kappa damps x and y at kappa; a real coupling w
    # rotates y and z at 2w
    w = abs(PARAMS.transverse_coupling((1e6, 0.0, 0.0)))
    noise = NoiseModel.magnetic(1e5)
    expected = [[-1e5, 0.0, 0.0], [0.0, -1e5, -2 * w], [0.0, 2 * w, 0.0]]
    m = bloch_generator(PARAMS, (1e6, 0.0, 0.0), 0.0, noise, (1e6, 0.0, 0.0))
    np.testing.assert_allclose(m, expected, atol=1e-6)
    h = hamiltonian_two_level(PARAMS, (1e6, 0.0, 0.0), 0.0)
    m = projected_bloch_generator(h, lindblad_operator((1e6, 0.0, 0.0), noise))
    np.testing.assert_allclose(m, expected, atol=1e-6)


#: Field components of one generator: zero, ordinary, and subnormal (whose
#: electric-noise direction needs the power-of-two rescale).
COMPONENTS = st.one_of(
    st.just(0.0),
    st.floats(-3e6, 3e6),
    st.sampled_from([5e-324, -5e-324, 3e-320, -1e-310, 2e-308]),
)


@st.composite
def generator_cases(draw):
    """One hypothesis: field, B_z, noise of each kind (rate 0 included) and
    the field whose transverse direction is the electric-noise axis."""
    e_field = (draw(COMPONENTS), draw(COMPONENTS), draw(st.floats(-3e6, 3e6)))
    b_z = draw(st.one_of(st.just(0.0), st.floats(-3e-5, 3e-5)))
    rate = draw(st.one_of(st.just(0.0), st.just(1.0 / 10e-6), st.floats(0.0, 3e5)))
    noise = NoiseModel(draw(st.sampled_from(list(NoiseKind))), rate)
    noise_field = (draw(COMPONENTS), draw(COMPONENTS), 0.0)
    if noise_field[:2] == (0.0, 0.0):
        noise_field = (draw(st.sampled_from([5e-324, 1e6])), 0.0, 0.0)
    return e_field, b_z, noise, noise_field


@given(generator_cases())
@example(((1e6, 0.0, 0.0), 0.0, NoiseModel.electric(1.0 / 10e-6), (1e6, 0.0, 0.0)))
@example(((5e-324, 5e-324, 0.0), 0.0, NoiseModel.electric(1e5), (5e-324, 5e-324, 0.0)))
@example(((0.0, 0.0, 0.0), 3e-5, NoiseModel.magnetic(0.0), (1e6, 0.0, 0.0)))
@example(((0.0, 0.0, 0.0), 0.0, NoiseModel.electric(2.2250738585e-313), (5e-324, 5e-324, 0.0)))
@settings(max_examples=300, deadline=None)
def test_closed_form_generator_equals_the_liouvillian_projection(case):
    e_field, b_z, noise, noise_field = case
    m = bloch_generator(PARAMS, e_field, b_z, noise, noise_field)
    h = traceless_hamiltonian(PARAMS, e_field, b_z)
    reference = projected_bloch_generator(h, lindblad_operator(noise_field, noise))
    assert np.max(np.abs(m - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_closed_form_generator_needs_an_electric_noise_axis():
    with pytest.raises(PreconditionError):
        bloch_generator(PARAMS, (0.0, 0.0, 1e6), 0.0, NoiseModel.electric(1e5), (0.0, 0.0, 1e6))
    # without noise, or at rate 0, the axis is never needed
    for noise in (NoiseModel.electric(0.0), NoiseModel.none()):
        m = bloch_generator(PARAMS, (0.0, 0.0, 1e6), 0.0, noise, (0.0, 0.0, 1e6))
        assert np.array_equal(m, np.zeros((3, 3)))


def test_common_shift_cancels_from_the_oracle_routes():
    # the physical 2x2 Hamiltonian carries the 2 pi 2.87 GHz shift plus the
    # axial Stark shift; it cancels from the dynamics, and carrying it moves
    # the Liouvillian projection by a few ulp of the shift and the
    # superoperator's Bloch vectors by rounding only
    rng = np.random.default_rng(11)
    rho0 = density_matrix((0.6, -0.3, 0.7))
    for _ in range(20):
        e_field = (rng.uniform(-3e6, 3e6), rng.uniform(-3e6, 3e6), rng.uniform(-3e6, 3e6))
        b_z = rng.uniform(-3e-5, 3e-5)
        kind = rng.choice([NoiseKind.MAGNETIC_AXIAL, NoiseKind.ELECTRIC_ALONG_FIELD])
        noise = NoiseModel(kind, rng.uniform(0.0, 3e5))
        lind = lindblad_operator(e_field, noise)
        shift = oracles.axial_shift(PARAMS, e_field)  # rad/s, about 1.8e10
        shifted = hamiltonian_two_level(PARAMS, e_field, b_z)
        traceless = traceless_hamiltonian(PARAMS, e_field, b_z)
        closed = bloch_generator(PARAMS, e_field, b_z, noise, e_field)
        gap = np.max(np.abs(projected_bloch_generator(shifted, lind) - closed))
        assert gap <= 2 * np.spacing(shift)
        for t in (1e-7, 2e-6, 1e-5):
            a = propagate_superoperator(EvolutionSpec(shifted, lind, rho0), t)
            b = propagate_superoperator(EvolutionSpec(traceless, lind, rho0), t)
            assert np.max(np.abs(np.subtract(bloch_vector(a), bloch_vector(b)))) <= 1e-10


def test_expm_batch_matches_expm_small_per_matrix():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(5, 4, 4)) * rng.uniform(0.0, 5.0, size=(5, 1, 1))
    stack = stack + 1j * rng.normal(size=(5, 4, 4))
    batched = expm_batch(stack)
    for a, got in zip(stack, batched):
        want = expm_small(a)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert np.array_equal(expm_batch(np.zeros((2, 3, 3))), np.broadcast_to(np.eye(3), (2, 3, 3)))


#: Matrix kinds of the expm_batch properties: real skew-symmetric and complex
#: anti-Hermitian ones (bounded exponentials at any norm), Bloch generators
#: (skew-symmetric plus a negative semidefinite dephasing part) and general ones.
MATRIX_KINDS = ("skew", "anti_hermitian", "dephasing", "general")


def matrix_stack(seed, kind, dim, log2_norms):
    """A stack of dim x dim matrices of ``kind``, one per entry of
    ``log2_norms``, each scaled to a 1-norm of 2 ** that entry."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(len(log2_norms), dim, dim))
    if kind == "anti_hermitian":
        a = a + 1j * rng.normal(size=a.shape)
        a = a - np.conj(a.swapaxes(-1, -2))
    elif kind != "general":
        a = a - a.swapaxes(-1, -2)
    if kind == "dephasing":
        a = a - np.abs(rng.normal()) * np.eye(dim)
    norm1 = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    return a * (np.exp2(log2_norms) / np.where(norm1 > 0.0, norm1, 1.0))[:, None, None]


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(MATRIX_KINDS),
    dim=st.integers(1, 4),
    log2_norms=st.lists(st.floats(-3.0, 20.0), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_expm_batch_of_a_stack_is_the_expm_batch_of_each_matrix(seed, kind, dim, log2_norms):
    # 1-norms from 1/8 to 2^20 mix 0 to about 21 squarings in one stack
    if kind == "general":
        log2_norms = [min(x, 5.0) for x in log2_norms]  # its exponential overflows beyond
    stack = matrix_stack(seed, kind, dim, log2_norms)
    batched = expm_batch(stack)
    for i in range(len(stack)):
        assert np.array_equal(batched[i], expm_batch(stack[i:i + 1])[0])
    # a leading axis of any length, and a (g, n) stack as the propagators pass it
    assert np.array_equal(expm_batch(stack[None]), batched[None])
    assert np.array_equal(expm_batch(np.stack([stack, stack[::-1]])), np.stack([batched, batched[::-1]]))


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(MATRIX_KINDS),
    dim=st.integers(1, 4),
    log2_norms=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_one_norm_rows_give_the_bits_of_numpys_column_sums(seed, kind, dim, log2_norms):
    # expm_batch's squaring counts come from this norm: the running sums of the rows and the
    # running maximum of the columns must be numpy's reductions bit for bit, on any leading axes
    stack = matrix_stack(seed, kind, dim, log2_norms)
    for a in (stack, stack[None], np.stack([stack, stack[::-1]])):
        got, want = _norm1(a), np.max(np.sum(np.abs(a), axis=-2), axis=-1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(MATRIX_KINDS),
    dim=st.integers(1, 4),
    log2_norms=st.lists(st.floats(-20.0, -2.0), min_size=1, max_size=8),
    shift=st.floats(-0.25, 0.25),
)
@settings(max_examples=200, deadline=None)
def test_paterson_stockmeyer_matches_the_horner_taylor_series(seed, kind, dim, log2_norms, shift):
    # a 1-norm of at most 1/4 plus a diagonal shift of at most 1/4 is at most 1/2, so no matrix is
    # squared and this compares the two evaluations of the Taylor polynomial (each squaring would
    # double their relative gap)
    stack = matrix_stack(seed, kind, dim, log2_norms)
    stack = stack + shift * np.eye(dim)
    got, want = expm_batch(stack), oracles.expm_horner(stack)
    scale = np.max(np.abs(want), axis=(-2, -1))
    assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= 1e-15 * scale)


#: Transverse unit directions of the strong-dephasing property: the Bloch axes x and y. Along an
#: oblique direction the rounded kappa (I - n n^T) leaves n a rate of about eps * kappa, so even the
#: exact exponential of the float generator drifts off the fixed point: from the +x state by more
#: than 1e-12 near kappa t = 1e4, and from the pole it overflows to NaN near kappa t = 1e20.
BLOCH_AXES = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@given(
    log10_kappa_t=st.floats(3.0, 300.0),
    angle=st.floats(1e-3, 100.0),
    t=st.floats(1e-6, 1e-3),
    axis=st.sampled_from(BLOCH_AXES),
)
@example(log10_kappa_t=3.0, angle=100.0, t=4e-6, axis=BLOCH_AXES[0])
@example(log10_kappa_t=300.0, angle=100.0, t=1e-6, axis=BLOCH_AXES[1])
@settings(max_examples=100, deadline=None)
def test_strong_dephasing_reaches_the_closed_form_fixed_point(log10_kappa_t, angle, t, axis):
    # electric noise along the switched field, B_z = 0 and the +z pole: kappa t from 1e3 (where a
    # trace shift's squarings overflowed) to 1e300, and rotation angles 2|c| t up to 100 rad
    magnitude = angle / (2.0 * abs(PARAMS.transverse_coupling((1.0, 0.0, 0.0))) * t)
    fields = FieldConfig(de=(magnitude * axis[0], magnitude * axis[1], 0.0))
    noise = NoiseModel.electric(10.0 ** log10_kappa_t / t)
    rho0 = PREPARATIONS[0]
    r = evolve_bloch(bloch_generators(fields, PARAMS, noise), np.array(bloch_vector(rho0)), [t])
    closed = oracles.evolve_pair(fields, PARAMS, noise, rho0, t, method=Route.CLOSED_DEPHASING)
    for k, state in enumerate(closed):
        assert np.max(np.abs(np.array(bloch_vector(state)) - r[k, :, 0])) <= 1e-12


def per_time_stack(gens, times):
    """One exponential per time: the independent reference of the grid product."""
    times = np.asarray(times, dtype=float)
    return expm_batch(gens[:, None] * times[None, :, None, None])


def per_time_evolve_bloch(gens, r_init, times):
    """``evolve_bloch`` by the per-time stack, on any array of times."""
    return check_bloch_norms((per_time_stack(gens, times) @ r_init).swapaxes(1, 2))


@st.composite
def uniform_windows(draw):
    """A scenario of :func:`scenarios` on a window [t_lo, t_hi], t_lo >= 0."""
    fields, noise, rho0, _ = draw(scenarios())
    t_hi = draw(st.floats(1e-7, 1e-5))
    t_lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9).map(lambda f: f * t_hi)))
    return fields, noise, rho0, (t_lo, t_hi)


@pytest.mark.parametrize("n", [1, 2, 23, 24, 100, 2049])
@given(case=uniform_windows())
@settings(max_examples=25, deadline=None)
def test_uniform_grid_product_matches_per_time_stack_and_superoperator(n, case):
    fields, noise, rho0, window = case
    times = np.linspace(*window, n)
    gens = bloch_generators(fields, PARAMS, noise)
    r_init = np.array(bloch_vector(rho0))
    r = evolve_bloch(gens, r_init, times)
    reference = (per_time_stack(gens, times) @ r_init).swapaxes(1, 2)
    assert np.max(np.abs(r - reference)) <= 1e-12

    r0, r1 = evolve_pair_grid(fields, PARAMS, noise, rho0, times)
    assert np.array_equal(r0, r[0]) and np.array_equal(r1, r[1])
    block = math.isqrt(n - 1) + 1
    for k in sorted({0, 1, block - 1, block, block + 1, n // 2, n - 2, n - 1} & set(range(n))):
        s0, s1 = oracles.evolve_pair(
            fields, PARAMS, noise, rho0, float(times[k]), method=Route.SUPEROPERATOR
        )
        assert np.max(np.abs(np.array(bloch_vector(s0)) - r0[:, k])) <= 1e-12
        assert np.max(np.abs(np.array(bloch_vector(s1)) - r1[:, k])) <= 1e-12


def test_product_route_is_taken_only_on_uniform_grids(monkeypatch):
    shapes = []

    def recording_expm_batch(a):
        shapes.append(a.shape)
        return expm_batch(a)

    monkeypatch.setattr(dynamics, "expm_batch", recording_expm_batch)
    gens = bloch_generators(FieldConfig(de=(1e6, 0.0, 0.0), b_z=4e-6), PARAMS, NoiseModel.magnetic(1e5))
    r_init = np.array([1.0, 0.0, 0.0])
    for n in (1, 2, 23, 24, 2049):
        shapes.clear()
        evolve_bloch(gens, r_init, np.linspace(1e-9, 1e-5, n))
        block = math.isqrt(n - 1) + 1
        assert shapes == [(2, -(-n // block) + block, 3, 3)]


@pytest.mark.parametrize("n", [24, 2049])
def test_non_uniform_and_one_point_arrays_keep_the_per_time_stack(n):
    # non-uniform arrays no longer reach a per-time route: they raise, and one-point arrays, the
    # only ones left, keep the per-time stack's result bit for bit
    fields = FieldConfig(e0=(2e5, 1e5, 0.0), de=(1.2e6, 3e5, 0.0), b_z=1e-5)
    noise = NoiseModel.electric(1e5)
    gens = bloch_generators(fields, PARAMS, noise)
    rho0 = PREPARATIONS[1]
    r_init = np.array(bloch_vector(rho0))
    uniform = np.linspace(1e-9, 1e-5, n)
    nudged = uniform.copy()
    nudged[n // 2] = np.nextafter(nudged[n // 2], 1.0)  # one ulp off the grid
    geometric = np.geomspace(1e-9, 1e-5, n)
    decreasing = np.linspace(1e-5, 1e-9, n)  # uniform, but its steps are negative
    negative = np.linspace(-1e-9, 1e-5, n)
    for times in (nudged, geometric, decreasing, negative):
        with pytest.raises(PreconditionError):
            evolve_bloch(gens, r_init, times)
    for times in ([3.7e-6], [0.0]):  # exp(M t) (I r_init): I = exp(0) exactly
        expected = per_time_evolve_bloch(gens, r_init, times)
        assert np.array_equal(evolve_bloch(gens, r_init, times), expected)

    r0, r1 = evolve_pair_grid(fields, PARAMS, noise, rho0, [3.7e-6])
    expected = per_time_evolve_bloch(gens, r_init, [3.7e-6])
    assert np.array_equal(r0, expected[0]) and np.array_equal(r1, expected[1])


def test_search_builds_generators_once_and_checks_every_evaluation(monkeypatch):
    counts = {"generator": 0, "norms": 0, "decisions": 0}
    points = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def norms(r):
        points.append(r.shape[2])
        return check_bloch_norms(r)

    monkeypatch.setattr(dynamics, "bloch_generator", counted("generator", dynamics.bloch_generator))
    monkeypatch.setattr(dynamics, "check_bloch_norms", counted("norms", norms))
    monkeypatch.setattr(
        discrimination, "min_error_grid", counted("decisions", discrimination.min_error_grid)
    )
    fields = FieldConfig(de=(1.2e6, 0.0, 0.0), b_z=4e-6)
    discrimination.optimal_time_search(
        fields, PARAMS, NoiseModel.magnetic(1e5), PREPARATIONS[1], (1e-9, 1e-5)
    )
    assert counts["generator"] == 2  # one per hypothesis, for the whole search
    # the dense scan, then one zoom scan: its bracket of two 4.9e-9 s intervals shrinks to 7.6e-11 s
    assert counts["norms"] == counts["decisions"] == 2
    assert points == [2049, 257]


@st.composite
def searches(draw):
    """An optimal-time search cell: field pair, noise of each kind,
    preparation, window and dense grid, with nonzero e0 and B_z, windows from
    t = 0, and windows short enough that the minimum often lies on an edge."""
    angle = st.floats(0.0, 2.0 * math.pi)
    kind = draw(st.sampled_from(["electric", "magnetic", "none"]))
    e0 = transverse(draw(st.sampled_from([0.0, 1e5, 1e6])) * draw(st.floats(0.0, 1.0)), draw(angle))
    de = transverse(draw(st.floats(1e4, 3e6)), draw(angle))
    b_z = draw(st.one_of(st.just(0.0), st.floats(-3e-5, 3e-5)))
    rate = draw(st.floats(0.0, 3e5))
    noise = {"electric": NoiseModel.electric(rate), "magnetic": NoiseModel.magnetic(rate),
             "none": NoiseModel.none()}[kind]
    p0 = draw(st.sampled_from([0.5, 0.3, 0.9]))
    fields = FieldConfig(e0=e0, de=de, b_z=b_z, priors=(p0, 1.0 - p0))
    rho0 = draw(st.sampled_from(PREPARATIONS))
    t_lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 5e-6)))
    width = 10.0 ** draw(st.floats(-8.0, -5.0))
    n_grid = draw(st.sampled_from([2000, 2048, 3001]))
    return fields, noise, rho0, (t_lo, t_lo + width), n_grid


FLAT_CELL = (  # a field along x on the +x state under axial noise: p_err = 1/2 at every t
    FieldConfig(de=(1e6, 0.0, 0.0)), NoiseModel.magnetic(1e5), PREPARATIONS[1], (1e-9, 1e-5), 2048
)
RIGHT_EDGE = (  # p_err falls up to the quarter period 1.47e-6 s
    FieldConfig(de=(1e6, 0.0, 0.0)), NoiseModel.none(), PREPARATIONS[0], (0.0, 1e-6), 2000
)
LEFT_EDGE = (  # p_err rises after its dephasing-limited minimum at 1.38e-6 s
    FieldConfig(de=(1e6, 0.0, 0.0)), NoiseModel.electric(1e5), PREPARATIONS[0], (1.5e-6, 2.5e-6),
    3001,
)

SHALLOW_CELL = (  # the +x state and a switch 1e-10 rad off x: p_err falls by 5e-13 over the window
    FieldConfig(de=(1e4, 1e-6, 0.0)), NoiseModel.electric(0.0), PREPARATIONS[1], (0.0, 1e-6), 2000
)


def superoperator_p_err(fields, params, noise, rho0, t):
    s0, s1 = oracles.evolve_pair(fields, params, noise, rho0, t, method=Route.SUPEROPERATOR)
    return min_error(s0, s1, fields.priors).p_err


def p_err_at(search, times):
    fields, noise, rho0, _, _ = search
    r0, r1 = evolve_pair_grid(fields, PARAMS, noise, rho0, times)
    return min_error_grid(r0, r1, fields.priors).p_err


@given(searches())
@example(FLAT_CELL)
@example(RIGHT_EDGE)
@example(LEFT_EDGE)
@example(SHALLOW_CELL)
@settings(max_examples=100, deadline=None)
def test_zoomed_search_finds_the_golden_section_minimum(search):
    fields, noise, rho0, window, n_grid = search
    t_star, p_min = discrimination.optimal_time_search(fields, PARAMS, noise, rho0, window, n_grid)
    t_ref, _ = oracles.optimal_time_search_sequential(fields, PARAMS, noise, rho0, window, n_grid)
    tol = discrimination._flat_tolerance(fields, PARAMS, window[1])
    # A bottom so shallow that p_err moves by less than the flat tolerance over more than 1e-10 s
    # (the +x state and a switch within 1e-5 rad of x, say) has no minimiser to resolve to
    # 1e-10 s: the earliest point within the tolerance and golden section's comparisons of
    # rounding noise can then lie nanoseconds apart, at one p_err to within the tolerance.
    p_star, p_ref = (p_err_at(search, [t])[0] for t in (t_star, t_ref))
    assert abs(t_star - t_ref) <= discrimination._SEARCH_TOL or abs(p_star - p_ref) <= tol
    assert abs(p_min - superoperator_p_err(fields, PARAMS, noise, rho0, t_star)) <= 1e-12
    assert p_min <= p_err_at(search, np.linspace(*window, n_grid + 1)).min() + tol


def test_wide_window_zooms_until_the_bracket_is_within_the_search_tolerance():
    # T2 = 1 ms admits a 10 ms window: the dense bracket of 9.8e-6 s needs three 128-fold zooms
    params = NvParameters(t2=1e-3)
    fields, noise, rho0 = FieldConfig(de=(1e4, 0.0, 0.0)), NoiseModel.electric(1e3), PREPARATIONS[0]
    window, n_grid = (1e-9, 1e-2), 2048
    points = []

    def norms(r):
        points.append(r.shape[2])
        return check_bloch_norms(r)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "check_bloch_norms", norms)
        t_star, p_min = discrimination.optimal_time_search(fields, params, noise, rho0, window, n_grid)
    assert points == [2049, 257, 257, 257]
    t_ref, _ = oracles.optimal_time_search_sequential(fields, params, noise, rho0, window, n_grid)
    assert abs(t_star - t_ref) <= discrimination._SEARCH_TOL
    assert abs(p_min - superoperator_p_err(fields, params, noise, rho0, t_star)) <= 1e-12


def test_search_stops_where_the_times_are_too_far_apart_to_resolve_the_search_tolerance():
    # near 1e6 s one ulp of t is 1.2e-10 s, so a bracket there narrows to no float apart from
    # its ends, and the zooms stop once it collapses onto one float; the golden oracle stops at
    # two ulp of t there. p_err falls up to 1.47e6 s.
    params = NvParameters(t2=math.inf)
    fields, noise, rho0 = FieldConfig(de=(0.0, 1e-6, 0.0)), NoiseModel.none(), PREPARATIONS[1]
    window = (1e3, 1e6)
    t_star, p_min = discrimination.optimal_time_search(fields, params, noise, rho0, window)
    assert window[1] - (window[1] - window[0]) / 2048 < t_star <= window[1]
    t_ref, _ = oracles.optimal_time_search_sequential(fields, params, noise, rho0, window)
    assert t_star == t_ref
    assert abs(p_min - superoperator_p_err(fields, params, noise, rho0, t_star)) <= 1e-12


@pytest.mark.parametrize("search, t_opt", [(RIGHT_EDGE, 1e-6), (LEFT_EDGE, 1.5e-6)])
def test_edge_cells_have_their_minimum_on_the_window_edge(search, t_opt):
    fields, noise, rho0, window, n_grid = search
    t_star, _ = discrimination.optimal_time_search(fields, PARAMS, noise, rho0, window, n_grid)
    assert t_star == pytest.approx(t_opt, abs=2 * (window[1] - window[0]) / n_grid)


def test_flat_cell_has_one_half_everywhere():
    fields, noise, rho0, window, n_grid = FLAT_CELL
    _, p_min = discrimination.optimal_time_search(fields, PARAMS, noise, rho0, window, n_grid)
    assert p_min == pytest.approx(0.5, abs=1e-15)


@st.composite
def flat_cells(draw):
    """A cell of the axial-field sweep whose p_err is 1/2 at every t: a switch
    along x, B_z = 0, the +x state and axial noise (or none), so both
    hypotheses keep r = exp(-kappa t) (1, 0, 0). Rotation angles 2|c| t reach
    640 rad, 30 times the default sweep cell's; there the rounding noise of
    p_err spans up to 300 ulp of 1/2, against 25 ulp at 32 rad."""
    de = (draw(st.floats(1e4, 3e7)) * draw(st.sampled_from([1.0, -1.0])), 0.0, 0.0)
    rate = draw(st.one_of(st.just(0.0), st.floats(0.0, 3e5)))
    t_lo = draw(st.one_of(st.just(0.0), st.floats(0.0, 5e-6)))
    t_hi = t_lo + draw(st.floats(1e-8, 1e-5 - t_lo))
    n_grid = draw(st.sampled_from([2000, 2048, 3001]))
    return FieldConfig(de=de), NoiseModel.magnetic(rate), PREPARATIONS[1], (t_lo, t_hi), n_grid


@given(flat_cells())
@example(FLAT_CELL)
@example((FieldConfig(de=(1.5e6, 0.0, 0.0)), NoiseModel.magnetic(110.0), PREPARATIONS[1], (0.0, 1e-5), 3001))
@settings(max_examples=40, deadline=None)
def test_flat_cell_has_the_same_t_opt_on_the_product_and_per_time_routes(cell):
    # the rounding noise of the two routes differs, and the earliest point within the flat
    # tolerance of the scanned minimum does not depend on it: the window start
    fields, noise, rho0, window, n_grid = cell
    tol = discrimination._flat_tolerance(fields, PARAMS, window[1])
    product = discrimination.optimal_time_search(fields, PARAMS, noise, rho0, window, n_grid)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discrimination, "evolve_bloch", per_time_evolve_bloch)  # every scan per time
        per_time = discrimination.optimal_time_search(fields, PARAMS, noise, rho0, window, n_grid)
    assert product[0] == per_time[0] == window[0]
    assert product[1] == pytest.approx(0.5, abs=tol)
    assert per_time[1] == pytest.approx(0.5, abs=tol)
