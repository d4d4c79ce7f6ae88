"""Minimal-error discrimination between the two field hypotheses.

The decision operator is the prior-weighted state difference
P1 rho1(t) - P0 rho0(t). For Bloch vectors r0, r1 and v = P1 r1 - P0 r0 it
is ((P1 - P0) I + v.sigma)/2, so its eigenvalues follow from the length of
one vector and the optimal projector pair (Helstrom measurement) from its
direction. :func:`helstrom_decision` computes that measurement at every row
of two Bloch-vector arrays; it is the only place where the package makes a
Helstrom decision. :func:`min_error_grid` takes the error probability from
it in two independent ways and cross-checks them at every point:

    p_err = P0 Tr(rho0 Pi1) + P1 Tr(rho1 Pi0)      (trace form)
    p_err = (1 - sum_k |lambda_k|) / 2             (eigenvalue form)

Also provided: the fixed standard-basis readout for comparison, and a
numeric search for the optimal measurement time (a dense scan, then golden
section with the points of several steps evaluated in each kernel call).
The operator form of the same measurement (a 2x2 eigensolver and explicit
projectors) is a test oracle in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .dynamics import PRODUCT_MIN_POINTS, bloch_generators, evolve_bloch
from .errors import NumericalInvariantError, PreconditionError
from .hamiltonian import FieldConfig, NoiseModel, NvParameters, _checked_priors
from .linalg import DensityMatrix2, bloch_vector

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Bracket width (s) at which the golden-section refinement stops.
_SEARCH_TOL = 1e-10
#: Golden-section steps that one refinement kernel call evaluates ahead.
_LOOKAHEAD = 3
#: Width of the dense scan's minimum: 32 ulp of 1/2; flat cells of up to 32 rad show 25 ulp of noise.
_FLAT_TOL = 32 * math.ulp(0.5)


class HelstromDecision(NamedTuple):
    """The minimal-error measurement at every point, one array per field.

    lambda_plus >= lambda_minus are the decision-operator eigenvalues. Pi1
    ("field switched") projects onto the nonnegative ones: it is the
    identity where ``all_pi1`` (lambda_minus >= 0), zero where ``all_pi0``
    (lambda_plus < 0), and (I + unit.sigma)/2 elsewhere, ``unit`` being the
    direction of v = P1 r1 - P0 r0.
    """

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    unit: np.ndarray
    all_pi1: np.ndarray
    all_pi0: np.ndarray

    def bright_probability(self, r) -> np.ndarray:
        """Tr(rho Pi1), unclipped, for Bloch vectors r of shape (n, 3): the
        chance that a readout clicks "field switched"."""
        return np.where(self.all_pi1, 1.0, np.where(
            self.all_pi0, 0.0, 0.5 * (1.0 + np.sum(self.unit * r, axis=-1))
        ))


class ErrorCurve(NamedTuple):
    """Error budget at every point: total, dark-count (Tr(rho0 Pi1)) and
    false-negative (Tr(rho1 Pi0)) probabilities, and the decision behind them."""

    p_err: np.ndarray
    p_dc: np.ndarray
    p_fn: np.ndarray
    decision: HelstromDecision


def helstrom_decision(r0, r1, priors: tuple[float, float] = (0.5, 0.5)) -> HelstromDecision:
    """The Helstrom measurement at every row of two (n, 3) Bloch-vector arrays.

    With v = P1 r1 - P0 r0 the eigenvalues are ((P1 - P0) +- |v|)/2. Zero
    eigenvalues go to Pi1, so identical states (v = 0) with P1 >= P0 give
    Pi1 = I.
    """
    p0, p1 = _checked_priors(priors)
    v = p1 * np.asarray(r1, dtype=float) - p0 * np.asarray(r0, dtype=float)
    length = np.sqrt(np.sum(v * v, axis=-1))
    lam_plus = 0.5 * ((p1 - p0) + length)
    lam_minus = 0.5 * ((p1 - p0) - length)
    unit = v / np.where(length > 0.0, length, 1.0)[..., None]  # unused where length == 0
    return HelstromDecision(lam_plus, lam_minus, unit, lam_minus >= 0.0, lam_plus < 0.0)


def min_error_grid(r0, r1, priors: tuple[float, float] = (0.5, 0.5)) -> ErrorCurve:
    """Minimal-error report at every row of two (n, 3) Bloch-vector arrays.

    p_dc and p_fn come from :func:`helstrom_decision`; the trace and
    eigenvalue forms of p_err must agree to 1e-12 at every point, and a NaN
    in either breaches that.
    """
    p0, p1 = _checked_priors(priors)
    r0 = np.asarray(r0, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    dec = helstrom_decision(r0, r1, priors)
    p_dc = dec.bright_probability(r0)
    p_fn = np.where(dec.all_pi1, 0.0, np.where(
        dec.all_pi0, 1.0, 0.5 * (1.0 - np.sum(dec.unit * r1, axis=-1))
    ))
    p_trace = p0 * p_dc + p1 * p_fn
    p_eigen = 0.5 * (1.0 - np.abs(dec.lambda_plus) - np.abs(dec.lambda_minus))
    breach = ~(np.abs(p_trace - p_eigen) <= 1e-12)  # NaN breaches too
    if np.any(breach):
        k = int(np.argmax(breach))
        raise NumericalInvariantError(
            f"error-probability formulas disagree at point {k}: "
            f"trace={p_trace[k]!r} eigen={p_eigen[k]!r}"
        )
    return ErrorCurve(
        p_err=np.clip(p_trace, 0.0, 1.0),
        p_dc=np.clip(p_dc, 0.0, 1.0),
        p_fn=np.clip(p_fn, 0.0, 1.0),
        decision=dec,
    )


def standard_basis_error_grid(
    r0, r1, priors: tuple[float, float] = (0.5, 0.5), best_assignment: bool = False
) -> np.ndarray:
    """Error probability of the fixed fluorescence-basis readout (staying in
    |+1> reads "baseline", arriving in |-1> reads "field switched") at every
    row of two (n, 3) Bloch-vector arrays:
    P0 Tr(rho0 |-1><-1|) + P1 Tr(rho1 |+1><+1|) = (P0 (1 - z0) + P1 (1 + z1)) / 2.

    With ``best_assignment`` the cheaper of the two outcome labelings is
    returned (swapping which fluorescence outcome is declared "field
    switched" is a free pulse-sequence choice, and for some baseline fields
    the sensible labeling is the swapped one).
    """
    p0, p1 = _checked_priors(priors)
    p_err = 0.5 * (p0 * (1.0 - np.asarray(r0)[:, 2]) + p1 * (1.0 + np.asarray(r1)[:, 2]))
    if best_assignment:
        p_err = np.minimum(p_err, 1.0 - p_err)
    return np.clip(p_err, 0.0, 1.0)


def _golden_step(lo: float, hi: float, x1: float, x2: float, left: bool):
    """One golden-section step from the bracket [lo, hi] with inner points
    x1 < x2: keep [lo, x2] if ``left`` (p_err(x1) <= p_err(x2)), else
    [x1, hi]. Returns the new (lo, hi, x1, x2); its new point is x1 on the
    left, x2 on the right."""
    if left:
        return lo, x2, x2 - _GOLDEN * (x2 - lo), x1
    return x1, hi, x2, x1 + _GOLDEN * (hi - x1)


def _reachable(state, known) -> list[float]:
    """The points the golden-section search can ask for from ``state`` within
    its next _LOOKAHEAD steps, breadth first and without repeats: x1 and x2
    while not in ``known``, then each step's new point, on both outcomes of
    every comparison that ``known`` cannot decide yet. A branch that reaches
    the stop asks only for its midpoint."""
    points: dict[float, None] = {}
    frontier = [state]
    for level in range(_LOOKAHEAD + 1):
        following = []
        for lo, hi, x1, x2 in frontier:
            if hi - lo <= _SEARCH_TOL:
                points[0.5 * (lo + hi)] = None
                continue
            points.update((x, None) for x in (x1, x2) if x not in known)
            if level < _LOOKAHEAD:
                decided = x1 in known and x2 in known
                outcomes = (known[x1] <= known[x2],) if decided else (True, False)
                following += [_golden_step(lo, hi, x1, x2, left) for left in outcomes]
        frontier = following
    return list(points)


def optimal_time_search(
    fields: FieldConfig,
    params: NvParameters,
    noise: NoiseModel,
    rho0: DensityMatrix2,
    window: tuple[float, float],
    n_grid: int = 2048,
) -> tuple[float, float]:
    """Global minimum of p_err(t) over a window.

    Dense sampling (n_grid + 1 >= 2001 points, one grid propagation)
    locates the basin at the earliest point within _FLAT_TOL of the scanned
    minimum, the answer if both its neighbours are too (a flat p_err); else
    golden section refines it to 1e-10 s. Each
    evaluation the refinement misses also evaluates, in the same kernel
    call, every point the next _LOOKAHEAD steps can ask for (at most
    PRODUCT_MIN_POINTS - 1, so the call takes the per-time stack). A point's
    p_err therefore does not depend on the points evaluated with it, and the
    result equals that of one-point evaluations bit for bit. The generator
    pair and the initial Bloch vector are built once per search. Exact ties
    of the refinement break toward smaller t.
    """
    t_lo, t_hi = window
    if not (0.0 <= t_lo < t_hi):
        raise PreconditionError(f"invalid search window {window!r}")
    if t_hi > 10.0 * params.t2:
        raise PreconditionError("search window must not extend beyond 10*T2")
    if n_grid < 2000:
        raise PreconditionError("dense sampling requires at least 2000 intervals")

    states = partial(evolve_bloch, bloch_generators(fields, params, noise), bloch_vector(rho0))

    def p_err(times) -> np.ndarray:
        r0, r1 = states(times)
        return min_error_grid(r0, r1, fields.priors).p_err

    grid = np.linspace(t_lo, t_hi, n_grid + 1)
    values = p_err(grid)
    floor = values.min() + _FLAT_TOL
    idx = int(np.argmax(values <= floor))  # the earliest point within _FLAT_TOL of the minimum
    i_lo, i_hi = max(idx - 1, 0), min(idx + 1, n_grid)
    if values[i_lo] <= floor and values[i_hi] <= floor:
        return float(grid[idx]), float(values[idx])  # a flat bracket: nothing to refine

    refined: dict[float, float] = {}

    def objective(state, t: float) -> float:
        if t not in refined:
            batch = _reachable(state, refined)[: PRODUCT_MIN_POINTS - 1]
            refined.update(zip(batch, p_err(np.array(batch)).tolist()))
        return refined[t]

    lo, hi = float(grid[i_lo]), float(grid[i_hi])
    state = (lo, hi, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
    while state[1] - state[0] > _SEARCH_TOL:
        left = objective(state, state[2]) <= objective(state, state[3])
        state = _golden_step(*state, left)
    t_star = 0.5 * (state[0] + state[1])
    p_star = objective(state, t_star)
    if values[idx] < p_star:
        t_star, p_star = float(grid[idx]), float(values[idx])
    return float(t_star), float(p_star)
