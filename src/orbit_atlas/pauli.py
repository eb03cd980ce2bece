"""Orthonormal generalized Pauli basis and coherence-vector embeddings.

For dimension n the basis consists of the n^2 - 1 traceless Hermitian
matrices sigma_k with Tr(sigma_j sigma_k) = delta_jk, ordered as

* all symmetric off-diagonal elements, pairs (r, s) with r < s lexicographic,
* all antisymmetric (imaginary) off-diagonal elements in the same pair order,
* the n - 1 diagonal elements, r = 1..n-1.

Together with sigma_0 = I/sqrt(n) they form an orthonormal basis of the
Hermitian matrices.  A state expands as rho = I/n + sum_k s_k sigma_k with
coherence components s_k = Tr(rho sigma_k); the Bloch convention stores the
same vector scaled by two.  The squared length of the coherence vector obeys
|s|^2 = Tr(rho^2) - 1/n.

Each off-diagonal element has two nonzero entries and each diagonal one
lies on the diagonal (generalized Gell-Mann matrices; Bertlmann and
Krammer, J. Phys. A 41, 235303 (2008)), so
``_index_maps`` writes the order above as O(n^2) index maps, and embedding
and reconstruction gather and scatter entries for 2 <= n <= 64.  Only
``generate_basis`` builds dense matrices, for n <= 16.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .exceptions import DimensionOutOfRange, LengthMismatch, ValidationError
from .linalg import DEFAULT_TOL, MAX_DIM, DensityMatrix, _check_int, positivity_test

MIN_BASIS_DIM = 2
MAX_BASIS_DIM = 16  # dense basis: (n^2 - 1) n^2 entries, 268 MB at n = 64


class Convention(enum.Enum):
    """Scaling convention of a stored vector: Bloch is 2x coherence."""

    COHERENCE = "coherence"
    BLOCH = "bloch"


@dataclass(frozen=True)
class PauliBasis:
    """The n^2 - 1 orthonormal traceless Hermitian basis elements for one n."""

    dim: int
    elements: tuple
    identity_element: np.ndarray

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class CoherenceVector:
    """Real expansion coefficients of a state in the traceless basis."""

    dim: int
    components: np.ndarray
    convention: Convention = Convention.COHERENCE

    def __post_init__(self):
        _check_int(self.dim, "coherence vector dimension", MIN_BASIS_DIM, MAX_DIM,
                   DimensionOutOfRange)
        comps = np.array(self.components, dtype=float)
        expected = self.dim * self.dim - 1
        if comps.ndim != 1 or comps.shape[0] != expected:
            raise LengthMismatch(
                f"expected {expected} components for dim {self.dim}, "
                f"got shape {comps.shape}")
        if not np.isfinite(comps).all():
            raise ValidationError("coherence vector has a non-finite component")
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


@lru_cache(maxsize=None)
def _index_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, diag)``, the basis order (read-only).

    Components p and m + p, m = n(n-1)/2, are the symmetric and antisymmetric
    elements of the pair (rows[p], cols[p]) in upper-triangle order.  Row
    k - 1 of ``diag`` is element 2m + k - 1: c_k on levels 0..k-1 and -k c_k
    on level k, c_k = 1/sqrt(k(k+1)).
    """
    rows, cols = np.triu_indices(n, 1)
    k = np.arange(1, n)
    c = 1.0 / np.sqrt(k * (k + 1.0))
    diag = np.tri(n - 1, n) * c[:, None]
    diag[k - 1, k] = -k * c
    for a in (rows, cols, diag):
        a.setflags(write=False)
    return rows, cols, diag


def _traceless(comps, n: int) -> np.ndarray:
    """``sum_k s_k sigma_k`` as (..., n, n) complex matrices for components
    of shape (..., n^2 - 1): each real and imaginary part of the result takes
    its ``pick`` column of ``source`` (sym, asym, -asym, diagonal, zero)."""
    rows, cols, diag = _index_maps(n)
    m = rows.shape[0]
    p = np.arange(m)
    comps = np.asarray(comps, dtype=float)
    source = np.zeros(comps.shape[:-1] + (3 * m + n + 1,))
    np.multiply(comps[..., :2 * m], 1.0 / sqrt(2.0), out=source[..., :2 * m])
    np.negative(source[..., m:2 * m], out=source[..., 2 * m:3 * m])
    source[..., 3 * m:-1] = comps[..., 2 * m:] @ diag
    upper, lower = 2 * (rows * n + cols), 2 * (cols * n + rows)
    pick = np.full(2 * n * n, 3 * m + n)
    pick[upper] = pick[lower] = p
    pick[upper + 1], pick[lower + 1] = 2 * m + p, m + p
    pick[2 * (n + 1) * np.arange(n)] = 3 * m + np.arange(n)
    out = source.take(pick, axis=-1).view(np.complex128)
    return out.reshape(comps.shape[:-1] + (n, n))


def _check_dense_dim(n: int) -> int:
    """``n`` as an int; DimensionOutOfRange unless it is an integer in
    [2, MAX_BASIS_DIM], the range of the dense paths."""
    return _check_int(n, "basis dimension", MIN_BASIS_DIM, MAX_BASIS_DIM, DimensionOutOfRange)


def generate_basis(n: int) -> PauliBasis:
    """Orthonormal traceless Hermitian basis for dimension n (2 <= n <= 16),
    as dense read-only matrices."""
    n = _check_dense_dim(n)
    stack = _traceless(np.eye(n * n - 1), n)
    identity = np.eye(n, dtype=np.complex128) / sqrt(n)
    for a in (stack, identity):
        a.setflags(write=False)
    return PauliBasis(dim=n, elements=tuple(stack), identity_element=identity)


def to_coherence_vector(rho: DensityMatrix) -> CoherenceVector:
    """Coherence components s_k = Tr(rho sigma_k).

    Gathered from the lower triangle and the real diagonal, the entries the
    eigensolver reads, so |s|^2 = Tr(rho^2) - 1/n holds for the spectrum
    the state reports.  The implied identity coefficient 1/sqrt(n) is fixed
    by the unit trace and is not stored.
    """
    rows, cols, diag = _index_maps(rho.dim)
    lower = sqrt(2.0) * rho.matrix[cols, rows]
    comps = np.concatenate(
        (lower.real, lower.imag, diag @ rho.matrix.diagonal().real))
    return CoherenceVector(dim=rho.dim, components=comps,
                           convention=Convention.COHERENCE)


def from_coherence_vector(vec: CoherenceVector) -> np.ndarray:
    """Reconstruct I/n + sum_k s_k sigma_k as a plain complex matrix.

    The result is Hermitian with unit trace but not necessarily positive:
    for n > 2 most of the boundary sphere does not correspond to states.
    Bloch-convention input is rescaled before reconstruction.
    """
    comps = vec.components
    if vec.convention is Convention.BLOCH:
        comps = comps / 2.0
    n = vec.dim
    return np.eye(n, dtype=np.complex128) / n + _traceless(comps, n)


def is_physical_vector(vec: CoherenceVector,
                       tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """``(physical, min_eigenvalue)`` of the reconstructed matrix under the
    positivity rule of ``linalg.positivity_test`` (smallest >= -tol * n)."""
    physical, spectrum = positivity_test(from_coherence_vector(vec), tol)
    return bool(physical), float(spectrum[0])


def convert_convention(vec: CoherenceVector,
                       target: Convention) -> CoherenceVector:
    """Rescale between conventions; converting twice returns the input."""
    if vec.convention is target:
        return vec
    factor = 2.0 if target is Convention.BLOCH else 0.5
    return CoherenceVector(dim=vec.dim, components=vec.components * factor,
                           convention=target)
