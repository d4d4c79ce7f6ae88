"""Time evolution of the two-level sensor state under each field hypothesis.

Every modeled hypothesis has a time-independent Hamiltonian and a Hermitian
jump operator, so the master equation is a linear map r' = M r on the Bloch
vector, with M a real 3x3 matrix that
:func:`nvdetect.hamiltonian.bloch_generator` writes down in closed form.
:func:`bloch_generators` builds M once per hypothesis and
:func:`evolve_bloch` evaluates exp(M t) r0 over a whole time array with
batched scaling-and-squaring (:func:`nvdetect.linalg.expm_batch`).
Every time array is a uniform grid (a ``np.linspace``, one point included);
for one of n points, t_k = t_0 + k h, the vectors are exp(M t_jB) (exp(M i h) r0)
with k = j B + i and B = ceil(sqrt(n)): about 2 sqrt(n) matrices are
exponentiated instead of n, and n matrix-vector products do the rest.
A sweep's cells on one grid are one stack of their generator pairs, in
groups of at most ``cli._STACK_POINTS`` grid points (one cell past that).

This is the only propagator in the package. The independent reference
routes the tests check it against (closed forms, RK4, a 4x4 superoperator
exponential of the Liouvillian built from the 2x2 Hamiltonian and jump
operator) live in ``tests/oracles.py``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .hamiltonian import FieldConfig, NoiseModel, NvParameters, bloch_generator
from .linalg import check_bloch_norms, expm_batch


def _noise_direction_fields(fields: FieldConfig):
    """Per-hypothesis field used for the electric noise axis.

    A hypothesis whose transverse field vanishes inherits the other
    hypothesis's direction (the switch direction defines the common axis);
    only if both vanish is the electric noise direction undefined.
    """
    e0, e1 = fields.e0, fields.e1
    t0 = complex(e0[0], e0[1])
    t1 = complex(e1[0], e1[1])
    dir0 = e0 if abs(t0) > 0 else e1
    dir1 = e1 if abs(t1) > 0 else e0
    return dir0, dir1


def bloch_generators(fields: FieldConfig, params: NvParameters, noise: NoiseModel) -> np.ndarray:
    """Bloch generators of the baseline and switched hypotheses: shape (2, 3, 3).
    The electric-noise axis follows the rule of :func:`_noise_direction_fields`."""
    return np.stack([
        bloch_generator(params, e_field, fields.b_z, noise, noise_field)
        for e_field, noise_field in zip((fields.e0, fields.e1), _noise_direction_fields(fields))
    ])


def evolve_bloch(gens: np.ndarray, r_init, times) -> np.ndarray:
    """Bloch vector exp(M t) r_init of every generator at every time, as rows x, y, z:
    shape (g, 3, n). Vectors longer than 1 + 1e-12 raise NumericalInvariantError.

    ``times`` must be a nondecreasing uniform grid of n >= 1 nonnegative
    times, equal to ``np.linspace(times[0], times[-1], n)``; any other array
    raises PreconditionError. One batched exponential covers the about
    sqrt(n) points t_jB and the B = ceil(sqrt(n)) steps i h,
    h = (t_hi - t_lo) / max(n - 1, 1); the step maps act on r_init, and the
    coarse maps on those B vectors in one stacked product, k = j B + i. A
    one-point grid is exp(M t) (I r_init).
    """
    times = np.asarray(times, dtype=float)
    n = times.size
    if (n == 0 or times.ndim != 1 or not 0.0 <= times[0] <= times[-1]
            or not np.array_equal(times, np.linspace(times[0], times[-1], n))):
        raise PreconditionError("times must be a nondecreasing uniform grid of nonnegative values")
    block = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    coarse = times[::block]
    steps = np.arange(block) * ((times[-1] - times[0]) / max(n - 1, 1))
    maps = expm_batch(gens[:, None] * np.concatenate([coarse, steps])[None, :, None, None])
    step_vectors = maps[:, len(coarse):] @ r_init  # (g, B, 3)
    r = maps[:, :len(coarse)] @ step_vectors.swapaxes(1, 2)[:, None]  # (g, J, 3, B)
    return check_bloch_norms(r.swapaxes(1, 2).reshape(len(gens), 3, -1)[:, :, :n])  # one copy
