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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .exceptions import DimensionOutOfRange, LengthMismatch, ValidationError
from .linalg import DEFAULT_TOL, DensityMatrix, positivity_test

MIN_BASIS_DIM = 2
MAX_BASIS_DIM = 16


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
def _build_basis(n: int) -> PauliBasis:
    elements = []
    # symmetric off-diagonal block
    for r in range(n):
        for s in range(r + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[r, s] = 1.0 / sqrt(2.0)
            m[s, r] = 1.0 / sqrt(2.0)
            elements.append(m)
    # antisymmetric off-diagonal block
    for r in range(n):
        for s in range(r + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[r, s] = -1j / sqrt(2.0)
            m[s, r] = 1j / sqrt(2.0)
            elements.append(m)
    # diagonal block; entry r balances the first r levels against level r+1
    for r in range(1, n):
        c = 1.0 / sqrt(r * (r + 1.0))
        d = np.zeros(n, dtype=np.complex128)
        d[:r] = c
        d[r] = -r * c
        elements.append(np.diag(d))
    for m in elements:
        m.setflags(write=False)
    identity = np.eye(n, dtype=np.complex128) / sqrt(n)
    identity.setflags(write=False)
    return PauliBasis(dim=n, elements=tuple(elements), identity_element=identity)


def generate_basis(n: int) -> PauliBasis:
    """Orthonormal traceless Hermitian basis for dimension n (2 <= n <= 16)."""
    if not MIN_BASIS_DIM <= n <= MAX_BASIS_DIM:
        raise DimensionOutOfRange(
            f"basis dimension {n} outside [{MIN_BASIS_DIM}, {MAX_BASIS_DIM}]")
    return _build_basis(int(n))


@lru_cache(maxsize=None)
def basis_stack(n: int) -> np.ndarray:
    """All basis elements stacked into one (n^2-1, n, n) array (read-only)."""
    stack = np.stack(generate_basis(n).elements)
    stack.setflags(write=False)
    return stack


def to_coherence_vector(rho: DensityMatrix) -> CoherenceVector:
    """Coherence components s_k = Tr(rho sigma_k).

    The implied identity coefficient 1/sqrt(n) is fixed by the unit trace
    and is not stored.
    """
    stack = basis_stack(rho.dim)
    comps = np.einsum("kij,ji->k", stack, rho.matrix).real
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
    return np.eye(n, dtype=np.complex128) / n + np.tensordot(
        comps, basis_stack(n), axes=(0, 0))


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
