"""Minimal-error discrimination between the two field hypotheses.

The decision operator is the prior-weighted state difference
P1 rho1(t) - P0 rho0(t). For Bloch vectors r0, r1 and v = P1 r1 - P0 r0 it
is ((P1 - P0) I + v.sigma)/2, so its eigenvalues follow from the length of
one vector and the optimal projector pair (Helstrom measurement) from its
direction. :func:`helstrom_decision` computes that measurement at every
point of two Bloch-vector arrays; it is the only place where the package makes a
Helstrom decision. :func:`min_error_grid` takes the error probability from
it in two independent ways and cross-checks them at every point:

    p_err = P0 Tr(rho0 Pi1) + P1 Tr(rho1 Pi0)      (trace form)
    p_err = (1 - sum_k |lambda_k|) / 2             (eigenvalue form)

Also provided: the fixed standard-basis readout for comparison, and a
numeric search for the optimal measurement time (a dense scan, then
uniform scans that zoom in on its basin).
The operator form of the same measurement (a 2x2 eigensolver and explicit
projectors) is a test oracle in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dynamics import bloch_generators, evolve_bloch
from .errors import NumericalInvariantError, PreconditionError
from .hamiltonian import FieldConfig, NoiseModel, NvParameters, _checked_priors
from .linalg import _dot_rows

#: Bracket width (s) at which the optimal-time search stops zooming.
_SEARCH_TOL = 1e-10
#: Intervals of the dense scan that locates the basin (2049 points).
_DENSE_INTERVALS = 2048
#: Intervals of each zoom scan: it shrinks the bracket of two intervals 128-fold.
_ZOOM_INTERVALS = 256


class HelstromDecision(NamedTuple):
    """The minimal-error measurement at every point, one array per field.

    lambda_plus >= lambda_minus are the decision-operator eigenvalues. Pi1
    ("field switched") projects onto the nonnegative ones: it is the
    identity where ``all_pi1`` (lambda_minus >= 0), zero where ``all_pi0``
    (lambda_plus < 0), and (I + unit.sigma)/2 elsewhere, ``unit`` being the
    direction of v = P1 r1 - P0 r0, shape (..., 3, n) of rows x, y, z.
    """

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    unit: np.ndarray
    all_pi1: np.ndarray
    all_pi0: np.ndarray

    def bright_probability(self, r) -> np.ndarray:
        """Tr(rho Pi1), unclipped, for Bloch vectors r of shape (..., 3, n), rows x, y, z:
        the chance that a readout clicks "field switched"."""
        return np.where(self.all_pi1, 1.0, np.where(
            self.all_pi0, 0.0, 0.5 * (1.0 + _dot_rows(self.unit, r))
        ))


class ErrorCurve(NamedTuple):
    """Error budget at every point: total, dark-count (Tr(rho0 Pi1)) and
    false-negative (Tr(rho1 Pi0)) probabilities, and the decision behind them."""

    p_err: np.ndarray
    p_dc: np.ndarray
    p_fn: np.ndarray
    decision: HelstromDecision


def helstrom_decision(r0, r1, priors: tuple[float, float] = (0.5, 0.5)) -> HelstromDecision:
    """The Helstrom measurement at every point of two (..., 3, n) Bloch-vector arrays.

    With v = P1 r1 - P0 r0 the eigenvalues are ((P1 - P0) +- |v|)/2. Zero
    eigenvalues go to Pi1, so identical states (v = 0) with P1 >= P0 give
    Pi1 = I.
    """
    p0, p1 = _checked_priors(priors)
    v = p1 * np.asarray(r1, dtype=float) - p0 * np.asarray(r0, dtype=float)
    length = np.sqrt(_dot_rows(v, v))
    lam_plus = 0.5 * ((p1 - p0) + length)
    lam_minus = 0.5 * ((p1 - p0) - length)
    unit = v / np.where(length > 0.0, length, 1.0)[..., None, :]  # unused where length == 0
    return HelstromDecision(lam_plus, lam_minus, unit, lam_minus >= 0.0, lam_plus < 0.0)


def min_error_grid(r0, r1, priors: tuple[float, float] = (0.5, 0.5)) -> ErrorCurve:
    """Minimal-error report at every point of two (3, n) Bloch-vector arrays, or (c, 3, n) stacks.

    p_dc and p_fn come from :func:`helstrom_decision`; the trace and eigenvalue forms of p_err
    must agree to 1e-12 at every point (a NaN breaches that); a breach names the point and cell.
    """
    p0, p1 = _checked_priors(priors)
    r0, r1 = np.asarray(r0, dtype=float), np.asarray(r1, dtype=float)
    dec = helstrom_decision(r0, r1, priors)
    p_dc = dec.bright_probability(r0)
    p_fn = np.where(dec.all_pi1, 0.0, np.where(
        dec.all_pi0, 1.0, 0.5 * (1.0 - _dot_rows(dec.unit, r1))
    ))
    p_trace = p0 * p_dc + p1 * p_fn
    p_eigen = 0.5 * (1.0 - np.abs(dec.lambda_plus) - np.abs(dec.lambda_minus))
    breach = ~(np.abs(p_trace - p_eigen) <= 1e-12)  # NaN breaches too
    if np.any(breach):
        at = np.unravel_index(np.argmax(breach), breach.shape)
        raise NumericalInvariantError(
            f"error-probability formulas disagree{' in cell %d' % at[0] if breach.ndim > 1 else ''} at "
            f"point {at[-1]}: trace={p_trace[at]!r} eigen={p_eigen[at]!r}"
        )
    return ErrorCurve(
        p_err=np.clip(p_trace, 0.0, 1.0),
        p_dc=np.clip(p_dc, 0.0, 1.0),
        p_fn=np.clip(p_fn, 0.0, 1.0),
        decision=dec,
    )


def standard_basis_error_grid(r0, r1, priors: tuple[float, float] = (0.5, 0.5)) -> np.ndarray:
    """Error probability of the fixed fluorescence-basis readout at every point
    of two (..., 3, n) Bloch-vector arrays, rows x, y, z, under the cheaper of its
    two outcome labelings. Staying in |+1> read as "baseline" and arriving in
    |-1> as "field switched" errs with
    P0 Tr(rho0 |-1><-1|) + P1 Tr(rho1 |+1><+1|) = (P0 (1 - z0) + P1 (1 + z1)) / 2,
    the swapped labeling with 1 minus that: which fluorescence outcome is
    declared "field switched" is a free pulse-sequence choice, and for some
    baseline fields the sensible labeling is the swapped one.
    """
    p0, p1 = _checked_priors(priors)
    p_err = 0.5 * (p0 * (1.0 - np.asarray(r0)[..., 2, :]) + p1 * (1.0 + np.asarray(r1)[..., 2, :]))
    return np.clip(np.minimum(p_err, 1.0 - p_err), 0.0, 1.0)


def _flat_tolerance(fields: FieldConfig, params: NvParameters, t_hi: float) -> float:
    """Width of a scan's minimum: max(32, theta_max) ulp of 1/2, theta_max = 2 |b| t_hi the
    largest rotation angle of either hypothesis. The rounding noise of a flat p_err grows
    with the angle: about 25 ulp at 32 rad, up to 300 ulp at 640 rad."""
    w_z = params.zeeman_rate(fields.b_z)
    rate = max(math.hypot(abs(params.transverse_coupling(e)), w_z) for e in (fields.e0, fields.e1))
    return max(32.0, 2.0 * rate * t_hi) * math.ulp(0.5)


def optimal_time_search(
    fields: FieldConfig,
    params: NvParameters,
    noise: NoiseModel,
    r0,
    window: tuple[float, float],
) -> tuple[float, float]:
    """Global minimum of p_err(t) over a window, from the prepared Bloch vector r0.

    Dense sampling (_DENSE_INTERVALS + 1 points) locates the basin at the
    earliest point within the flat tolerance (:func:`_flat_tolerance`) of the
    scanned minimum, which is the answer if both its neighbours are within it
    too (a flat p_err). Otherwise the bracket of its two neighbours is
    scanned again with _ZOOM_INTERVALS + 1 points under the same rule, each
    zoom shrinking the bracket 128-fold, until it is at most 1e-10 s wide
    (where floats of t lie further apart, it collapses onto one float). The
    answer is the lowest point the scans picked: the last scan's, unless the
    bottom is flat to within the tolerance, so p_err_min never exceeds the
    dense scan's minimum by more than the tolerance. Every scan is a uniform
    grid, one :func:`evolve_bloch` call each. The generator pair is built once
    per search. Exact ties break toward smaller t.
    """
    t_lo, t_hi = window
    if not (0.0 <= t_lo < t_hi):
        raise PreconditionError(f"invalid search window {window!r}")
    if t_hi > 10.0 * params.t2:
        raise PreconditionError("search window must not extend beyond 10*T2")

    gens = bloch_generators(fields, params, noise)
    tol = _flat_tolerance(fields, params, t_hi)
    grid = np.linspace(t_lo, t_hi, _DENSE_INTERVALS + 1)
    best = (math.inf, t_lo)  # (p_err, t) of the lowest point a scan has picked
    while True:
        r = evolve_bloch(gens, r0, grid)
        values = min_error_grid(r[0], r[1], fields.priors).p_err
        floor = values.min() + tol
        idx = int(np.argmax(values <= floor))  # the earliest point within tol of the minimum
        best = min(best, (float(values[idx]), float(grid[idx])))  # exact ties go to the smaller t
        i_lo, i_hi = max(idx - 1, 0), min(idx + 1, grid.size - 1)
        lo, hi = grid[i_lo], grid[i_hi]
        if (values[i_lo] <= floor and values[i_hi] <= floor) or hi - lo <= _SEARCH_TOL:
            return best[1], best[0]  # a flat or narrow enough bracket: nothing to refine
        grid = np.linspace(lo, hi, _ZOOM_INTERVALS + 1)
