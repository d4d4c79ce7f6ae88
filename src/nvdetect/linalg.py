"""Small dense linear algebra: matrix exponentials of stacks of matrices up
to 4x4, the Bloch-norm check, and the validated 2x2 density matrix that the
test oracles in ``tests/oracles.py`` build (the package itself works on Bloch
vectors only).

The two-level basis is ordered (|+1>, |-1>) everywhere, so the Bloch +z pole
is the |+1> population. Matrices are plain ``numpy.ndarray``. Every bound is
tested as ``not (x <= bound)``, so that a NaN fails it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInvariantError, PreconditionError

#: Taylor terms of :func:`expm_batch`: (1/2)^18 / 18! < 1e-21.
TAYLOR_TERMS = 17
#: 1/k! of the Taylor terms B^k, k = 4 j + i, as Paterson-Stockmeyer chunks j of B^i;
#: the constant term is 0 here, as I is added last, rounding once as in Horner form.
_TAYLOR_CHUNKS = np.array([[1.0 / math.factorial(4 * j + i) if 0 < 4 * j + i <= TAYLOR_TERMS else 0.0
                            for j in range(5)] for i in range(4)])

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


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x x' + y y' + z z' of rows x, y, z, shape (..., 3, n), in numpy's length-3 sum order."""
    return a[..., 0, :] * b[..., 0, :] + a[..., 1, :] * b[..., 1, :] + a[..., 2, :] * b[..., 2, :]


def check_bloch_norms(r: np.ndarray) -> np.ndarray:
    """Return Bloch vectors stored as rows x, y, z, shape (..., 3, n), after
    checking that none is longer than 1 + 1e-12 or NaN; any other shape raises PreconditionError."""
    if r.shape[-2:-1] != (3,):
        raise PreconditionError(f"Bloch vectors must be rows x, y, z of shape (..., 3, n), got {r.shape}")
    worst = float(np.max(np.sqrt(_dot_rows(r, r)), initial=0.0))
    if not worst <= 1.0 + 1e-12:
        raise NumericalInvariantError(f"Bloch norm {worst!r} exceeds 1")
    return r


def _norm1(a: np.ndarray) -> np.ndarray:
    """1-norm of every matrix of a (..., d, d) stack: the running sum of the d rows of |a|, then
    the running maximum of its columns; ``np.max(np.sum(np.abs(a), axis=-2), axis=-1)``'s bits."""
    abs_a = np.abs(a)
    sums = functools.reduce(np.add, (abs_a[..., i, :] for i in range(a.shape[-1])))
    return functools.reduce(np.maximum, (sums[..., j] for j in range(a.shape[-1])))


def expm_batch(a: np.ndarray) -> np.ndarray:
    """exp(a) for every matrix of a stack of shape (..., d, d), d <= 4.

    Scaling and squaring along the leading axes: each matrix is scaled by its
    own power of two to a 1-norm <= 1/2 and squared back its own number of
    times. The optional trace shift of scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 2005) is left out: the mean diagonal of a Bloch
    generator M t is -2 kappa t/3, and shedding it leaves an eigenvalue of
    +2 kappa t/3 whose squarings overflow once kappa t passes about 1e3,
    while exp(M t) is a contraction.

    The Taylor series has a fixed TAYLOR_TERMS terms, evaluated in 7 matrix
    products by Paterson-Stockmeyer (SIAM J. Comput. 1973): B^2, B^3, B^4,
    five chunks from the stack of I, B, B^2, B^3, then Horner in B^4. At norm
    1/2 the first omitted term is below 1e-21. Only elementwise operations and
    stacked ``@`` touch the stack, so a matrix's result does not depend on the
    rest of it. A result that overflows in the squarings comes back
    non-finite, without a numpy warning; callers check it
    (:func:`check_bloch_norms`).
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] > 4:
        raise PreconditionError(f"expected a stack of square matrices up to 4x4, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise PreconditionError("matrix entries must be finite")
    dim = a.shape[-1]
    eye = np.eye(dim, dtype=a.dtype)
    squarings = np.ceil(np.log2(np.maximum(_norm1(a), 0.5) / 0.5))
    b = a / np.exp2(squarings)[..., None, None]

    b2 = b @ b
    b4 = b2 @ b2
    powers = np.stack([np.broadcast_to(eye, b.shape), b, b2, b2 @ b], axis=-1)
    chunks = (powers.reshape(*b.shape[:-2], dim * dim, 4) @ _TAYLOR_CHUNKS).reshape(*b.shape, 5)
    result = chunks[..., 4]
    for j in range(3, -1, -1):
        result = result @ b4 + chunks[..., j]
    result = eye + result
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(int(np.max(squarings, initial=0.0))):
            result = np.where((squarings > j)[..., None, None], result @ result, result)
    return result
