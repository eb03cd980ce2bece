"""Dense complex-matrix foundation.

Every eigensolve of the package, the positivity rule and its batched
Cholesky screen, trace invariants, density-matrix validation and convex
combination.  Matrices are plain
``numpy.ndarray`` objects of dtype complex128; everything here is a pure
function over immutable values, so the module is safe for concurrent use.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import (
    DimensionMismatch,
    DimensionOutOfRange,
    NoConvergence,
    NotHermitian,
    NotPositiveSemidefinite,
    NotSquare,
    NotUnitTrace,
    ParameterOutOfRange,
    ValidationError,
)

#: Default validation tolerance.  Well above double-precision eigensolver
#: residuals, well below any physically meaningful gap at these sizes.
DEFAULT_TOL = 1e-9

#: Largest supported matrix dimension.
MAX_DIM = 64

#: Residual budget of the eigensolver, relative to ``max|H| * n``.
EIG_RESIDUAL_FACTOR = 1e-10

#: Half-width of the roundoff band of ``physical_mask``, relative to n times
#: the scale of the matrices.  Cholesky's backward error is about
#: n^2 eps |M| and eigvalsh's about n eps |M|, both far below it for
#: n <= 64; a wider band only sends more matrices to eigvalsh.
SCREEN_MARGIN = 1e-12


def check_tolerance(tol: float, name: str = "tolerance") -> float:
    """``tol`` as a float; ParameterOutOfRange unless it is finite and >= 0
    (a NaN tolerance would make every ``value > tol`` test pass)."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterOutOfRange(f"{name} must be finite and nonnegative, got {tol}")
    return tol


def _check_int(value, name: str, lo: int, hi: float = math.inf,
               error: type = ParameterOutOfRange) -> int:
    """``value`` as an int; ``error`` unless it is an integer in [lo, hi]."""
    if not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise error(f"{name} {value} outside [{lo}, {hi}]")
    return int(value)


def _check_dim(n) -> int:
    """``n`` as an int; DimensionOutOfRange unless it is in [1, MAX_DIM]."""
    return _check_int(n, "matrix dimension", 1, MAX_DIM, DimensionOutOfRange)


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce input to a finite square complex128 array (copy, C-contiguous);
    NotSquare for a ragged, non-numeric or non-square input."""
    try:
        m = np.array(matrix, dtype=np.complex128, order="C")
    except (TypeError, ValueError) as exc:
        raise NotSquare(f"not a rectangular numeric array: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    _check_dim(m.shape[0])
    if not np.isfinite(m).all():
        raise ValidationError("matrix has a non-finite (NaN or infinite) entry")
    return m


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest entrywise deviation of ``matrix`` from its own adjoint."""
    return float(np.abs(matrix - matrix.conj().T).max())


class EigenSystem(NamedTuple):
    """Spectrum of a Hermitian matrix.

    ``values`` are sorted nonincreasing, ``vectors`` holds the matching
    eigenvectors as columns, and ``residual`` is ``max |H v_k - w_k v_k|``.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float


def _hermitian(matrix, tol: float) -> tuple[np.ndarray, float]:
    """``(m, tol)``: ``matrix`` as a complex array and the checked ``tol``;
    NotHermitian when the hermiticity defect of ``m`` exceeds ``tol``."""
    tol = check_tolerance(tol)
    m = as_complex_matrix(matrix)
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NotHermitian(
            f"hermiticity violated: max |M - M^dag| = {defect:.3e} > {tol:.3e}")
    return m, tol


def hermitian_eigensystem(matrix, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when the symmetry defect exceeds ``tol`` and
    NoConvergence when the solver cannot meet its residual budget.
    """
    h, tol = _hermitian(matrix, tol)
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise NoConvergence(str(exc)) from exc
    # eigh returns ascending order; the convention here is nonincreasing.
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    residual = float(np.abs(h @ vectors - vectors * values[None, :]).max())
    n = h.shape[0]
    hmax = float(np.abs(h).max())
    budget = EIG_RESIDUAL_FACTOR * hmax * n
    if residual > budget and hmax > 0:  # pragma: no cover - defensive
        raise NoConvergence(
            f"eigensolver residual {residual:.3e} exceeds budget {budget:.3e}")
    ortho = float(np.abs(vectors.conj().T @ vectors - np.eye(n)).max())
    if ortho > 1e-10:  # pragma: no cover - defensive
        raise NoConvergence(f"eigenvectors not orthonormal: defect {ortho:.3e}")
    return EigenSystem(values=values, vectors=vectors, residual=residual)


def positivity_test(matrices, tol: float = DEFAULT_TOL):
    """``(physical, spectra)`` of one Hermitian n x n matrix or a stack: the
    ascending eigenvalues, and whether the smallest is >= -tol * n.

    The one home of the positivity rule.  ``physical_mask`` gives the same
    verdicts without the spectra: it settles each matrix by Cholesky outside
    a roundoff band around -tol * n and sends only the band here.
    """
    tol = check_tolerance(tol)
    spectra = np.linalg.eigvalsh(matrices)
    return spectra[..., 0] >= -tol * spectra.shape[-1], spectra


def _definite(stack: np.ndarray, shift: float) -> np.ndarray:
    """Per matrix of ``stack``: whether LAPACK Cholesky factors it + shift * I.
    Overwrites ``stack`` with the factors, so callers pass a copy."""
    diag = np.arange(stack.shape[-1])
    stack[..., diag, diag] += shift
    # numpy's private gufunc behind np.linalg.cholesky: it fills a failed
    # factor with NaN instead of raising for the whole stack (a test pins it)
    with np.errstate(invalid="ignore"):
        _umath_linalg.cholesky_lo(stack, out=stack, signature="D->D")
    return ~np.isnan(stack[..., -1, -1])


def physical_mask(stack, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``positivity_test(stack, tol)[0]`` for a finite Hermitian stack,
    without the spectra.

    Cholesky at the shift tol*n + margin fails only if the smallest
    eigenvalue is below -tol * n (not physical), and at tol*n - margin
    succeeds only if it is above (physical), with
    ``margin = SCREEN_MARGIN * n * max(max|entry|, tol * n, 1)``.  The
    matrices between the two, the roundoff band, go to ``positivity_test``.
    """
    tol = check_tolerance(tol)
    stack = np.asarray(stack, dtype=np.complex128)
    n = stack.shape[-1]
    flat = stack.reshape(-1, n, n)
    margin = SCREEN_MARGIN * n * max(float(np.abs(flat).max(initial=0.0)), tol * n, 1.0)
    mask = _definite(flat.copy(), tol * n + margin)
    band = mask.copy()
    band[mask] = ~_definite(flat[mask], tol * n - margin)
    if band.any():
        mask[band] = positivity_test(flat[band], tol)[0]
    return mask.reshape(stack.shape[:-2])


class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive semidefinite.

    Construction checks all three invariants against ``tol`` and raises the
    matching exception naming the violated invariant.  The spectrum is solved
    once and kept; both arrays are read-only, so instances are immutable.
    """

    __slots__ = ("_matrix", "_spectrum", "_tol")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        m, tol = _hermitian(matrix, tol)
        trace_dev = abs(m.trace() - 1.0)
        if trace_dev > tol:
            raise NotUnitTrace(
                f"unit trace violated: |Tr(M) - 1| = {trace_dev:.3e} > {tol:.3e}")
        physical, ascending = positivity_test(m, tol)
        if not physical:
            raise NotPositiveSemidefinite(
                f"positivity violated: smallest eigenvalue {ascending[0]:.3e} < "
                f"{-tol * m.shape[0]:.3e}")
        m.setflags(write=False)
        ascending.setflags(write=False)
        self._matrix = m
        self._spectrum = ascending[::-1]
        self._tol = tol

    @property
    def matrix(self) -> np.ndarray:
        """The underlying complex array (read-only view)."""
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def tol(self) -> float:
        return self._tol

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum sorted nonincreasing (a writable copy)."""
        return self._spectrum.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DensityMatrix(dim={self.dim}, tol={self._tol})"


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), the squared Hilbert-Schmidt length of the state."""
    return float(np.sum(rho.eigenvalues() ** 2))


def trace_invariants(rho: DensityMatrix) -> np.ndarray:
    """Vector of Tr(rho^r) for r = 1..n, computed from eigenvalue powers.

    Entry 0 is the trace itself and equals one up to validation tolerance.
    """
    w = rho.eigenvalues()
    n = rho.dim
    return np.array([float(np.sum(w ** r)) for r in range(1, n + 1)])


def unitarily_equivalent(rho1: DensityMatrix, rho2: DensityMatrix,
                         tol: float = DEFAULT_TOL) -> bool:
    """Whether two states lie on the same conjugation orbit: their stored
    nonincreasing spectra agree entrywise within ``tol``."""
    tol = check_tolerance(tol)
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    return bool(np.abs(rho1._spectrum - rho2._spectrum).max() <= tol)


def convex_path(rho1: DensityMatrix, rho2: DensityMatrix,
                t: float) -> DensityMatrix:
    """The state (1-t) rho1 + t rho2 on the straight segment between two states."""
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(
            f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"path parameter t={t} outside [0, 1]")
    blend = (1.0 - t) * rho1.matrix + t * rho2.matrix
    return DensityMatrix(blend, tol=max(rho1.tol, rho2.tol))


def _as_rng(seed) -> np.random.Generator:
    """``seed`` itself if it is a Generator, else a new one seeded by None or
    an integer >= 0; ParameterOutOfRange for any other seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(None if seed is None else _check_int(seed, "seed", 0))


def random_unitary(n: int, seed=None) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    n = _check_dim(n)
    rng = _as_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity of QR so the distribution is Haar
    d = np.diagonal(r)
    q = q * (d / np.abs(d))[None, :]
    return q


def random_density_matrix(n: int, seed=None,
                          tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Random full-rank state: G G^dag normalized to unit trace."""
    n = _check_dim(n)
    rng = _as_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m /= m.trace().real
    return DensityMatrix(m, tol=tol)
