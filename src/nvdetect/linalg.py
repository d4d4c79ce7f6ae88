"""Small dense linear algebra: the validated 2x2 density matrix, matrix
exponentials of stacks of matrices up to 4x4, the Bloch-vector map and the
Bloch-norm check.

The two-level basis is ordered (|+1>, |-1>) everywhere, so the Bloch +z pole
is the |+1> population. Matrices are plain ``numpy.ndarray``. Every bound is
tested as ``not (x <= bound)``, so that a NaN fails it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInvariantError, PreconditionError

#: Taylor terms of :func:`expm_batch`: (1/2)^18 / 18! < 1e-21.
TAYLOR_TERMS = 17

@dataclass(frozen=True)
class DensityMatrix2:
    """Validated 2x2 density matrix on span{|+1>, |-1>}.

    Construction enforces Hermiticity and unit trace to 1e-12, eigenvalues
    >= -1e-12, and purity in [1/2, 1] up to the same slack.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise PreconditionError(f"density matrix must be 2x2, got {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise PreconditionError("density matrix entries must be finite")
        if np.max(np.abs(m - np.conj(m.T))) > 1e-12:
            raise PreconditionError("density matrix is not Hermitian within 1e-12")
        tr = m.trace().real
        if abs(tr - 1.0) > 1e-12:
            raise PreconditionError(f"density matrix trace {tr!r} differs from 1 beyond 1e-12")
        eig_lo, eig_hi = _herm2_eigvals(m)
        if eig_lo < -1e-12:
            raise PreconditionError(f"density matrix has negative eigenvalue {eig_lo!r}")
        pur = self._purity(m)
        if not (0.5 - 1e-12 <= pur <= 1.0 + 1e-12):
            raise PreconditionError(f"purity {pur!r} outside [1/2, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def _purity(m: np.ndarray) -> float:
        return float(np.trace(m @ m).real)

    @property
    def purity(self) -> float:
        return self._purity(self.matrix)

    @classmethod
    def pole_plus(cls) -> "DensityMatrix2":
        """|+1><+1|, the standard initialization."""
        return cls(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))

    @classmethod
    def equal_superposition(cls) -> "DensityMatrix2":
        """(|+1> + |-1>)/sqrt(2) projector, the +x Bloch state."""
        return cls(np.full((2, 2), 0.5, dtype=complex))


def _herm2_eigvals(m: np.ndarray) -> tuple[float, float]:
    """(low, high) eigenvalues of a 2x2 Hermitian matrix, closed form."""
    a = m[0, 0].real
    c = m[1, 1].real
    half_sum = 0.5 * (a + c)
    rad = math.hypot(0.5 * (a - c), abs(m[1, 0]))
    return half_sum - rad, half_sum + rad


def bloch_vector(rho: DensityMatrix2) -> tuple[float, float, float]:
    """Map a density matrix to (x, y, z) with |+1> at the +z pole.

    x = 2 Re rho_21, y = 2 Im rho_21, z = rho_11 - rho_22.
    """
    m = rho.matrix
    x = 2.0 * m[1, 0].real
    y = 2.0 * m[1, 0].imag
    z = (m[0, 0] - m[1, 1]).real
    norm = math.sqrt(x * x + y * y + z * z)
    if not norm <= 1.0 + 1e-12:
        raise NumericalInvariantError(f"Bloch norm {norm!r} exceeds 1")
    return (x, y, z)


def check_bloch_norms(r: np.ndarray) -> np.ndarray:
    """Return Bloch vectors (last axis x, y, z) after checking that none is
    longer than 1 + 1e-12 or NaN."""
    worst = float(np.max(np.sqrt(np.sum(r * r, axis=-1)), initial=0.0))
    if not worst <= 1.0 + 1e-12:
        raise NumericalInvariantError(f"Bloch norm {worst!r} exceeds 1")
    return r


def expm_batch(a: np.ndarray) -> np.ndarray:
    """exp(a) for every matrix of a stack of shape (..., d, d), d <= 4.

    Scaling and squaring along the leading axes: each matrix sheds its mean
    diagonal (trace/dim) as a scalar factor, is scaled by its own power of
    two to a 1-norm <= 1/2, and is squared back its own number of times.
    The Taylor series has a fixed TAYLOR_TERMS terms (Horner form): at norm
    1/2 the first omitted term is below 1e-21, and a matrix's result does
    not depend on the rest of the stack. A result that overflows in the
    squarings comes back non-finite, without a numpy warning; callers check
    it (:func:`check_bloch_norms`).
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] > 4:
        raise PreconditionError(f"expected a stack of square matrices up to 4x4, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise PreconditionError("matrix entries must be finite")
    dim = a.shape[-1]
    eye = np.eye(dim, dtype=a.dtype)
    mu = np.trace(a, axis1=-2, axis2=-1) / dim
    a = a - mu[..., None, None] * eye

    norm1 = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norm1, 0.5) / 0.5))
    b = a / np.exp2(squarings)[..., None, None]

    result = eye + b / TAYLOR_TERMS
    for k in range(TAYLOR_TERMS - 1, 0, -1):
        result = eye + (b @ result) / k
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(int(np.max(squarings, initial=0.0))):
            result = np.where((squarings > j)[..., None, None], result @ result, result)
        return np.exp(mu)[..., None, None] * result
