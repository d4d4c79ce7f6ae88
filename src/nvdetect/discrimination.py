"""Minimal-error discrimination between the two field hypotheses.

The decision operator is the prior-weighted state difference
P1 rho1(t) - P0 rho0(t); its spectral decomposition yields the optimal
projector pair (Helstrom measurement) and the error probability in two
independent ways, which the code cross-checks on every call:

    p_err = P0 Tr(rho0 Pi1) + P1 Tr(rho1 Pi0)      (trace form)
    p_err = (1 - sum_k |lambda_k|) / 2             (eigenvalue form)

For Bloch-vector arrays (a whole time grid at once) :func:`min_error_grid`
gives the same report without an eigensolver, since the eigenvalues of a
2x2 decision operator follow from the length of one vector.

Also provided: the fixed standard-basis readout for comparison, the analytic
optimal measurement time for collinear field switches, and a numeric search
for the optimal time in the general case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dynamics import Method, bloch_generators, evolve_bloch, evolve_pair_grid
from .errors import NumericalInvariantError, PreconditionError
from .hamiltonian import FieldConfig, NoiseModel, NvParameters, TWO_PI
from .linalg import IDENTITY_2, DensityMatrix2, bloch_vector, herm_eigen2

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class HelstromDecomposition:
    """Eigensystem of the weighted state difference; lambda_plus >= lambda_minus."""

    lambda_plus: float
    lambda_minus: float
    phi_plus: np.ndarray = field(repr=False)
    phi_minus: np.ndarray = field(repr=False)
    priors: tuple[float, float] = (0.5, 0.5)


@dataclass(frozen=True)
class PovmPair:
    """Projector pair: pi1 clicks for "field switched", pi0 for "baseline"."""

    pi0: np.ndarray = field(repr=False)
    pi1: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class DiscriminationReport:
    """Error budget of one measurement: total, dark-count, and false-negative
    probabilities plus the decision-operator eigenvalues."""

    p_err: float
    p_dc: float
    p_fn: float
    eigenvalues: tuple[float, float]
    t: float | None = None


@dataclass(frozen=True)
class ErrorCurve:
    """:class:`DiscriminationReport` of every grid point, one array per field."""

    p_err: np.ndarray
    p_dc: np.ndarray
    p_fn: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray


def _checked_priors(priors: tuple[float, float]) -> tuple[float, float]:
    p0, p1 = priors
    if p0 < 0.0 or p1 < 0.0 or abs(p0 + p1 - 1.0) > 1e-12:
        raise PreconditionError(f"priors must be nonnegative and sum to 1, got {priors!r}")
    return p0, p1


def helstrom_operator(
    rho0: DensityMatrix2,
    rho1: DensityMatrix2,
    priors: tuple[float, float] = (0.5, 0.5),
) -> HelstromDecomposition:
    """Spectral decomposition of P1 rho1 - P0 rho0."""
    p0, p1 = _checked_priors(priors)
    pair = herm_eigen2(p1 * rho1.matrix - p0 * rho0.matrix)
    return HelstromDecomposition(
        lambda_plus=pair.eigenvalues[0],
        lambda_minus=pair.eigenvalues[1],
        phi_plus=pair.vector_plus,
        phi_minus=pair.vector_minus,
        priors=(float(p0), float(p1)),
    )


def povm_pair(decomposition: HelstromDecomposition) -> PovmPair:
    """Build the projector pair from the decomposition.

    Eigenvectors with nonnegative eigenvalue feed pi1, strictly negative ones
    pi0; zero eigenvalues therefore land in pi1, so a degenerate (identical
    states) decision yields pi1 = identity. When both eigenvalues fall on one
    side, that projector is set to the identity exactly instead of being
    summed from two rank-one projectors.
    """
    zero = np.zeros((2, 2), dtype=complex)
    if decomposition.lambda_minus >= 0.0:
        return PovmPair(pi0=zero, pi1=IDENTITY_2.copy())
    if decomposition.lambda_plus < 0.0:
        return PovmPair(pi0=IDENTITY_2.copy(), pi1=zero)
    phi_plus, phi_minus = decomposition.phi_plus, decomposition.phi_minus
    return PovmPair(
        pi0=np.outer(phi_minus, np.conj(phi_minus)), pi1=np.outer(phi_plus, np.conj(phi_plus))
    )


def min_error(
    rho0: DensityMatrix2,
    rho1: DensityMatrix2,
    priors: tuple[float, float] = (0.5, 0.5),
    t: float | None = None,
) -> DiscriminationReport:
    """Minimal-error report for discriminating rho0 from rho1.

    The trace-form and eigenvalue-form error probabilities are both computed
    and must agree to 1e-12; disagreement aborts, since it would mean the
    measurement construction is internally inconsistent.
    """
    dec = helstrom_operator(rho0, rho1, priors)
    pair = povm_pair(dec)
    p0, p1 = dec.priors
    p_dc = float(np.trace(rho0.matrix @ pair.pi1).real)
    p_fn = float(np.trace(rho1.matrix @ pair.pi0).real)
    p_trace = p0 * p_dc + p1 * p_fn
    p_eigen = 0.5 * (1.0 - abs(dec.lambda_plus) - abs(dec.lambda_minus))
    if abs(p_trace - p_eigen) > 1e-12:
        raise NumericalInvariantError(
            f"error-probability formulas disagree: trace={p_trace!r} eigen={p_eigen!r}"
        )
    return DiscriminationReport(
        p_err=min(max(p_trace, 0.0), 1.0),
        p_dc=min(max(p_dc, 0.0), 1.0),
        p_fn=min(max(p_fn, 0.0), 1.0),
        eigenvalues=(dec.lambda_plus, dec.lambda_minus),
        t=t,
    )


def min_error_grid(r0, r1, priors: tuple[float, float] = (0.5, 0.5)) -> ErrorCurve:
    """:func:`min_error` at every row of two (n, 3) Bloch-vector arrays.

    With v = P1 r1 - P0 r0 the decision operator is ((P1 - P0) I + v.sigma)/2,
    with eigenvalues ((P1 - P0) +- |v|)/2. As in :func:`povm_pair`, pi1
    projects onto the nonnegative ones: the identity if both are, nothing if
    neither is, else the pure state along v. The trace and eigenvalue forms
    must agree to 1e-12 at every point.
    """
    p0, p1 = _checked_priors(priors)
    r0 = np.asarray(r0, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    v = p1 * r1 - p0 * r0
    length = np.sqrt(np.sum(v * v, axis=-1))
    lam_plus = 0.5 * ((p1 - p0) + length)
    lam_minus = 0.5 * ((p1 - p0) - length)
    unit = v / np.where(length > 0.0, length, 1.0)[..., None]  # unused where length == 0
    all_pi1 = lam_minus >= 0.0
    all_pi0 = lam_plus < 0.0
    p_dc = np.where(all_pi1, 1.0, np.where(all_pi0, 0.0, 0.5 * (1.0 + np.sum(unit * r0, axis=-1))))
    p_fn = np.where(all_pi1, 0.0, np.where(all_pi0, 1.0, 0.5 * (1.0 - np.sum(unit * r1, axis=-1))))
    p_trace = p0 * p_dc + p1 * p_fn
    p_eigen = 0.5 * (1.0 - np.abs(lam_plus) - np.abs(lam_minus))
    gap = np.abs(p_trace - p_eigen)
    if np.any(gap > 1e-12):
        k = int(np.argmax(gap))
        raise NumericalInvariantError(
            f"error-probability formulas disagree at point {k}: "
            f"trace={p_trace[k]!r} eigen={p_eigen[k]!r}"
        )
    return ErrorCurve(
        p_err=np.clip(p_trace, 0.0, 1.0),
        p_dc=np.clip(p_dc, 0.0, 1.0),
        p_fn=np.clip(p_fn, 0.0, 1.0),
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
    )


#: Fixed readout projectors of the fluorescence basis: staying in |+1> reads
#: "baseline", arriving in |-1> reads "field switched".
STANDARD_PI0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
STANDARD_PI1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def standard_basis_error(
    rho0: DensityMatrix2,
    rho1: DensityMatrix2,
    priors: tuple[float, float] = (0.5, 0.5),
    best_assignment: bool = False,
) -> float:
    """Error probability of the fixed standard-basis readout.

    With ``best_assignment`` the cheaper of the two outcome labelings is
    returned (swapping which fluorescence outcome is declared "field
    switched" is a free pulse-sequence choice, and for some baseline fields
    the sensible labeling is the swapped one).
    """
    p0, p1 = _checked_priors(priors)
    p_err = p0 * float(np.trace(rho0.matrix @ STANDARD_PI1).real) + p1 * float(
        np.trace(rho1.matrix @ STANDARD_PI0).real
    )
    if best_assignment:
        p_err = min(p_err, 1.0 - p_err)
    return min(max(p_err, 0.0), 1.0)


def standard_basis_error_grid(
    r0, r1, priors: tuple[float, float] = (0.5, 0.5), best_assignment: bool = False
) -> np.ndarray:
    """:func:`standard_basis_error` at every row of two (n, 3) Bloch-vector
    arrays: P0 Tr(rho0 |-1><-1|) + P1 Tr(rho1 |+1><+1|) = (P0 (1 - z0) + P1 (1 + z1)) / 2."""
    p0, p1 = _checked_priors(priors)
    p_err = 0.5 * (p0 * (1.0 - np.asarray(r0)[:, 2]) + p1 * (1.0 + np.asarray(r1)[:, 2]))
    if best_assignment:
        p_err = np.minimum(p_err, 1.0 - p_err)
    return np.clip(p_err, 0.0, 1.0)


def optimal_time_analytic(de_x: float, n: int = 1, params: NvParameters | None = None) -> float:
    """n-th quarter-period time of a collinear switch:
    n * pi / (2 |coupling change|).

    Odd n are the zero-decoherence error minima (the hypothesis states are
    then orthogonal); even n are revivals where the states coincide. The
    formula identifies the minima while the dephasing rate stays small
    compared to the switch coupling.
    """
    if de_x == 0.0:
        raise PreconditionError("optimal time undefined for a zero field switch")
    if n < 1:
        raise PreconditionError(f"n must be a positive integer, got {n!r}")
    params = params or NvParameters()
    return n * math.pi / (2.0 * TWO_PI * params.d_perp * abs(de_x))


def optimal_time_search(
    fields: FieldConfig,
    params: NvParameters,
    noise: NoiseModel,
    rho0: DensityMatrix2,
    window: tuple[float, float],
    n_grid: int = 2048,
    method: Method = Method.AUTO,
) -> tuple[float, float]:
    """Global minimum of p_err(t) over a window.

    Dense sampling (n_grid + 1 >= 2001 points, one grid propagation)
    locates the basin; golden section refines it to 1e-10 s with one-point
    propagations. On the production route the generator pair and the
    initial Bloch vector are built once per search. Exact ties break toward
    smaller t.
    """
    t_lo, t_hi = window
    if not (0.0 <= t_lo < t_hi):
        raise PreconditionError(f"invalid search window {window!r}")
    if t_hi > 10.0 * params.t2:
        raise PreconditionError("search window must not extend beyond 10*T2")
    if n_grid < 2000:
        raise PreconditionError("dense sampling requires at least 2000 intervals")

    if method is Method.AUTO:
        states = partial(evolve_bloch, bloch_generators(fields, params, noise), bloch_vector(rho0))
    else:
        states = partial(evolve_pair_grid, fields, params, noise, rho0, method=method)

    def p_err(times) -> np.ndarray:
        r0, r1 = states(times)
        return min_error_grid(r0, r1, fields.priors).p_err

    def objective(t: float) -> float:
        return float(p_err(np.array([t]))[0])

    grid = np.linspace(t_lo, t_hi, n_grid + 1)
    values = p_err(grid)
    idx = int(np.argmin(values))  # first minimum on ties -> smaller t

    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, n_grid)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
    t_star = 0.5 * (lo + hi)
    p_star = objective(t_star)
    if values[idx] < p_star:
        t_star, p_star = float(grid[idx]), float(values[idx])
    return float(t_star), float(p_star)
