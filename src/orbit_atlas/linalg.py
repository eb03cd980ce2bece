"""Dense complex-matrix foundation.

The package's one eigensolver (``positivity_test``'s ``eigvalsh``), the
positivity rule and its batched Cholesky screen, density-matrix validation
and orbit comparison.  Every spectrum the package reports comes from that
one call.  Matrices are plain ``numpy.ndarray`` objects of dtype
complex128; everything here is a pure function over immutable values, so
the module is safe for concurrent use.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .core import DEFAULT_TOL, _check_int, _check_state_tol, check_tolerance
from .exceptions import (
    DimensionMismatch,
    DimensionOutOfRange,
    NoConvergence,
    NotHermitian,
    NotPositiveSemidefinite,
    NotSquare,
    NotUnitTrace,
    ValidationError,
)

#: Largest supported matrix dimension.
MAX_DIM = 64

#: Half-width of the roundoff band of ``physical_mask``, relative to n times
#: the scale of the matrices.  Cholesky's backward error is about
#: n^2 eps |M| and eigvalsh's about n eps |M|, both far below it for
#: n <= 64; a wider band only sends more matrices to eigvalsh.
SCREEN_MARGIN = 1e-12


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


def positivity_test(matrices, tol: float = DEFAULT_TOL):
    """``(physical, spectra)`` of one Hermitian n x n matrix or a stack: the
    ascending eigenvalues, and whether the smallest is >= -tol * n, for tol
    in [0, 1/n) (``core._check_state_tol``).

    The one home of the positivity rule.  ``physical_mask`` gives the same
    verdicts without the spectra: it settles each matrix by Cholesky outside
    a roundoff band around -tol * n and sends only the band here.
    """
    tol = _check_state_tol(tol, np.shape(matrices)[-1])
    try:
        spectra = np.linalg.eigvalsh(matrices)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
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
    stack = np.asarray(stack, dtype=np.complex128)
    n = stack.shape[-1]
    tol = _check_state_tol(tol, n)
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
    matching exception naming the violated invariant; ``tol`` must lie in
    [0, 1/n).  The state is the Hermitian part M/2 + M^dag/2 of the admitted
    input M, which is M bit for bit when M is exactly Hermitian and has no
    subnormal entry.  Its spectrum is solved once and kept; both arrays are
    read-only, so instances are immutable.
    """

    __slots__ = ("_matrix", "_spectrum", "_tol")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        m = as_complex_matrix(matrix)
        tol = _check_state_tol(tol, m.shape[0])
        # entries near the largest double may overflow both measures to inf,
        # or the trace to NaN (inf - inf), and neither passes ``<= tol``
        with np.errstate(over="ignore", invalid="ignore"):
            defect = hermiticity_defect(m)
            trace_dev = abs(m.trace() - 1.0)
        if not defect <= tol:
            raise NotHermitian(
                f"hermiticity violated: max |M - M^dag| = {defect:.3e} > {tol:.3e}")
        if not trace_dev <= tol:
            raise NotUnitTrace(
                f"unit trace violated: |Tr(M) - 1| = {trace_dev:.3e} > {tol:.3e}")
        # eigvalsh reads one triangle only: by it, an admitted skew part could
        # move the spectrum by (n - 1) * tol / 2, beyond the cluster tolerance.
        # Halves first, so that no sum of two entries can overflow; h.conj()
        # is a new array, so the in-place add reads no entry it has written.
        h = m * 0.5
        h += h.conj().T
        physical, ascending = positivity_test(h, tol)
        if not physical:
            raise NotPositiveSemidefinite(
                f"positivity violated: smallest eigenvalue {ascending[0]:.3e} < "
                f"{-tol * h.shape[0]:.3e}")
        h.setflags(write=False)
        ascending.setflags(write=False)
        self._matrix = h
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


def unitarily_equivalent(rho1: DensityMatrix, rho2: DensityMatrix,
                         tol: float = DEFAULT_TOL) -> bool:
    """Whether two states lie on the same conjugation orbit: their stored
    nonincreasing spectra agree entrywise within ``tol``."""
    tol = check_tolerance(tol)
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    return bool(np.abs(rho1._spectrum - rho2._spectrum).max() <= tol)


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
