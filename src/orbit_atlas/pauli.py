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
Krammer, J. Phys. A 41, 235303 (2008)), so ``_index_maps`` writes the order
above as O(n^2) index maps, cached per n, for 2 <= n <= 64.  Embedding
gathers entries through them.  Reconstruction is one scatter, ``_expand``,
which writes identity * I together with sum_k s_k sigma_k into one array:
``from_coherence_vector`` and the Monte Carlo sampler of ``qutrit`` call it
with identity 1/n.  ``generate_basis`` (n <= 16) calls it with identity 0
on the rows of the identity matrix, so the dense basis is the read-only
(n^2 - 1, n, n) stack of its elements; no embedding reads it.
``convert_convention`` is the one place that knows the Bloch factor of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, sqrt

import numpy as np

# the dense-dimension check is numpy-free, in ``core``, for the command
# line's argument checks; MAX_BASIS_DIM is re-exported here
from .core import (DEFAULT_TOL, MAX_BASIS_DIM, MIN_BASIS_DIM, Convention, _check_dense_dim,
                   _check_int)
from .exceptions import DimensionOutOfRange, LengthMismatch, ValidationError
from .linalg import MAX_DIM, DensityMatrix, positivity_test


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
        # |s|^2 = Tr(rho^2) - 1/n, which also bounds every entry and eigenvalue
        # of the matrix: a NaN or infinite component, or a length past the
        # largest double, leaves no finite matrix to report
        with np.errstate(over="ignore"):
            if not isfinite(comps @ comps):
                raise ValidationError(
                    "coherence vector has a non-finite component or squared length")
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "convention", Convention(self.convention))

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


@lru_cache(maxsize=None)
def _index_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, diag, pick)``, the basis order (read-only).

    Components p and m + p, m = n(n-1)/2, are the symmetric and antisymmetric
    elements of the pair (rows[p], cols[p]) in upper-triangle order.  Row
    k - 1 of ``diag`` is element 2m + k - 1: c_k on levels 0..k-1 and -k c_k
    on level k, c_k = 1/sqrt(k(k+1)).  ``pick`` is the scatter index of
    ``_expand``: the ``source`` column (sym, asym, -asym, diagonal, zero) of
    each real and imaginary part of an n x n matrix, row by row.
    """
    rows, cols = np.triu_indices(n, 1)
    k = np.arange(1, n)
    c = 1.0 / np.sqrt(k * (k + 1.0))
    diag = np.tri(n - 1, n) * c[:, None]
    diag[k - 1, k] = -k * c
    m, p = len(rows), np.arange(len(rows))
    upper, lower = 2 * (rows * n + cols), 2 * (cols * n + rows)
    pick = np.full(2 * n * n, 3 * m + n)
    pick[upper] = pick[lower] = p
    pick[upper + 1], pick[lower + 1] = 2 * m + p, m + p
    pick[2 * (n + 1) * np.arange(n)] = 3 * m + np.arange(n)
    for a in (rows, cols, diag, pick):
        a.setflags(write=False)
    return rows, cols, diag, pick


def _expand(comps, n: int, identity: float) -> np.ndarray:
    """``identity * I + sum_k s_k sigma_k`` as (..., n, n) complex matrices
    for components of shape (..., n^2 - 1), written by one ``take`` of the
    ``pick`` columns of ``source``.  ``identity`` joins the diagonal column
    and every zero is made +0.0, so the result is bit for bit that of adding
    ``identity * I`` to the scatter of the components alone."""
    rows, _, diag, pick = _index_maps(n)
    m = rows.shape[0]
    comps = np.asarray(comps, dtype=float)
    lead = comps.shape[:-1]
    source = np.empty(lead + (3 * m + n + 1,))
    result = np.empty(lead + (n, n), dtype=np.complex128)
    np.multiply(comps[..., :2 * m], 1.0 / sqrt(2.0), out=source[..., :2 * m])
    np.negative(source[..., m:2 * m], out=source[..., 2 * m:3 * m])
    source[..., 3 * m:-1] = comps[..., 2 * m:] @ diag + identity
    source[..., -1] = 0.0
    source += 0.0  # -0.0 becomes +0.0, as adding the zeros of identity * I makes it
    # mode="clip" writes straight into ``result``; "raise" would buffer a copy
    source.take(pick, axis=-1, out=result.view(np.float64).reshape(lead + (2 * n * n,)),
                mode="clip")
    return result


def generate_basis(n: int) -> np.ndarray:
    """Orthonormal traceless Hermitian basis for dimension n (2 <= n <= 16),
    as one read-only (n^2 - 1, n, n) stack of dense matrices in the basis
    order."""
    n = _check_dense_dim(n)
    stack = _expand(np.eye(n * n - 1), n, 0.0)
    stack.setflags(write=False)
    return stack


def to_coherence_vector(rho: DensityMatrix) -> CoherenceVector:
    """Coherence components s_k = Tr(rho sigma_k).

    Gathered from the lower triangle and the real diagonal of the state's
    matrix, which is exactly Hermitian, so |s|^2 = Tr(rho^2) - 1/n holds for
    the spectrum the state reports.  The implied identity coefficient
    1/sqrt(n) is fixed by the unit trace and is not stored.
    """
    rows, cols, diag, _ = _index_maps(rho.dim)
    lower = sqrt(2.0) * rho.matrix[cols, rows]
    comps = np.concatenate(
        (lower.real, lower.imag, diag @ rho.matrix.diagonal().real))
    return CoherenceVector(rho.dim, comps)


def from_coherence_vector(vec: CoherenceVector) -> np.ndarray:
    """Reconstruct I/n + sum_k s_k sigma_k as a plain complex matrix.

    The result is Hermitian with unit trace but not necessarily positive:
    for n > 2 most of the boundary sphere does not correspond to states.
    Bloch-convention input is rescaled by ``convert_convention`` first.
    """
    comps = convert_convention(vec, Convention.COHERENCE).components
    return _expand(comps, vec.dim, 1.0 / vec.dim)


def is_physical_vector(vec: CoherenceVector,
                       tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """``(physical, min_eigenvalue)`` of the reconstructed matrix under the
    positivity rule of ``linalg.positivity_test`` (smallest >= -tol * n)."""
    physical, spectrum = positivity_test(from_coherence_vector(vec), tol)
    return bool(physical), float(spectrum[0])


def convert_convention(vec: CoherenceVector,
                       target: Convention) -> CoherenceVector:
    """Rescale between conventions; converting twice returns the input.
    ``target`` is a Convention or its value string (ValidationError
    otherwise)."""
    target = Convention(target)
    if vec.convention is target:
        return vec
    factor = 2.0 if target is Convention.BLOCH else 0.5
    return CoherenceVector(vec.dim, vec.components * factor, target)
