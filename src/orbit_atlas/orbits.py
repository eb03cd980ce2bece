"""Unitary-orbit classification from spectra.

A state's conjugation orbit is fixed by its spectrum with multiplicities;
the orbit is a flag manifold U(n)/[U(n1) x ... x U(nr)] of real dimension
n^2 - sum(n_i^2).  This module clusters floating-point spectra into
degeneracy patterns, names and measures the resulting manifolds, compares
spectra by majorization and computes von Neumann entropy (natural log).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exceptions import AmbiguousClustering, DimensionMismatch, DimensionOutOfRange
from .linalg import DEFAULT_TOL, DensityMatrix, check_tolerance

#: Default eigenvalue clustering tolerance for degeneracy detection.
DEFAULT_CLUSTER_TOL = 1e-8


class StateClass(enum.Enum):
    COMPLETELY_RANDOM = "CompletelyRandom"
    PURE = "Pure"
    PSEUDO_PURE = "PseudoPure"
    GENERIC = "Generic"
    OTHER_DEGENERATE = "OtherDegenerate"


@dataclass(frozen=True)
class OrbitSignature:
    """Clustered spectrum: distinct eigenvalues, multiplicities, state class."""

    dim: int
    distinct_values: tuple
    multiplicities: tuple
    cluster_tol: float
    state_class: StateClass

    @property
    def num_distinct(self) -> int:
        return len(self.distinct_values)


def _classify(n: int, values: tuple, mults: tuple,
              cluster_tol: float) -> StateClass:
    r = len(values)
    if r == 1:
        return StateClass.COMPLETELY_RANDOM
    if r == 2 and sorted(mults) == [1, n - 1]:
        hi = values[0] if mults[0] == 1 else values[1]
        lo = values[1] if mults[0] == 1 else values[0]
        if abs(hi - 1.0) <= cluster_tol and abs(lo) <= cluster_tol:
            return StateClass.PURE
        return StateClass.PSEUDO_PURE
    if r == n:
        return StateClass.GENERIC
    return StateClass.OTHER_DEGENERATE


def cluster_spectrum(values, tol: float) -> list[list[float]]:
    """Single-linkage clusters of the values sorted nonincreasing: a new
    cluster (a list of floats) starts wherever a gap exceeds ``tol``."""
    w = sorted(np.asarray(values, dtype=float).tolist(), reverse=True)
    clusters = [[w[0]]]
    for x in w[1:]:
        if clusters[-1][-1] - x <= tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return clusters


def orbit_signature(rho: DensityMatrix,
                    cluster_tol: float = DEFAULT_CLUSTER_TOL) -> OrbitSignature:
    """Cluster the spectrum into degeneracy groups.

    ``cluster_spectrum`` of the eigenvalues at ``cluster_tol``.  Raises
    AmbiguousClustering when the result is tolerance sensitive: two cluster
    means within ``2 * cluster_tol``, or one cluster wider (largest member
    minus smallest) than ``cluster_tol``, i.e. single linkage chained it.
    """
    cluster_tol = check_tolerance(cluster_tol, "cluster_tol")
    clusters = cluster_spectrum(rho.eigenvalues(), cluster_tol)
    values = tuple(float(np.mean(c)) for c in clusters)
    mults = tuple(len(c) for c in clusters)
    for a, b in zip(values, values[1:]):
        if a - b <= 2.0 * cluster_tol:
            raise AmbiguousClustering(
                f"cluster means {a} and {b} are within 2*cluster_tol="
                f"{2.0 * cluster_tol}")
    spread = max(c[0] - c[-1] for c in clusters)
    if spread > cluster_tol:
        raise AmbiguousClustering(
            f"a cluster spreads over {spread:.3e} > cluster_tol={cluster_tol}")
    return OrbitSignature(
        dim=rho.dim, distinct_values=values, multiplicities=mults,
        cluster_tol=cluster_tol,
        state_class=_classify(rho.dim, values, mults, cluster_tol))


def orbit_dimension(sig: OrbitSignature) -> int:
    """Real dimension n^2 - sum(n_i^2) of the orbit manifold."""
    return sig.dim ** 2 - sum(m * m for m in sig.multiplicities)


def _manifold_label(n: int, mults) -> str:
    if len(mults) == 1:
        return "point"
    factors = "x".join(f"U({m})" for m in mults)
    return f"U({n})/[{factors}]"


def flag_manifold_name(sig: OrbitSignature) -> str:
    """Canonical flag-manifold label, e.g. ``U(3)/[U(1)xU(2)] = CP^2``.

    Single-cluster spectra give ``point``; spectra with multiplicity
    pattern {1, n-1} carry the complex-projective-space annotation.
    """
    label = _manifold_label(sig.dim, sig.multiplicities)
    if len(sig.multiplicities) == 2 and sorted(sig.multiplicities) == [1, sig.dim - 1]:
        label += f" = CP^{sig.dim - 1}"
    return label


class MajorizationResult(enum.Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


def majorize_compare(rho1: DensityMatrix, rho2: DensityMatrix,
                     tol: float = DEFAULT_TOL) -> MajorizationResult:
    """Partial order on spectra by dominance of leading partial sums.

    Spectra are sorted nondecreasing and their running sums compared, the
    orientation of the worked three-level example (1,1,3)/5 < (2,2,1)/5:
    LESS when every partial sum of rho1 is at most the matching sum of rho2
    within ``tol``, with at least one falling short by more than ``tol``.
    Conflicting strict comparisons give INCOMPARABLE.
    """
    tol = check_tolerance(tol)
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    a = np.sort(rho1.eigenvalues())
    b = np.sort(rho2.eigenvalues())
    if np.abs(a - b).max() <= tol:
        return MajorizationResult.EQUAL
    d = np.cumsum(a) - np.cumsum(b)
    below = bool((d < -tol).any())
    above = bool((d > tol).any())
    if below and above:
        return MajorizationResult.INCOMPARABLE
    if below:
        return MajorizationResult.LESS
    if above:
        return MajorizationResult.GREATER
    return MajorizationResult.EQUAL


def entropy_of_spectrum(values) -> float:
    """-sum(w log w) over a probability vector, with 0 log 0 = 0 (nats)."""
    w = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    w = w[w > 0.0]
    value = float(-(w * np.log(w)).sum())
    return value if value > 0.0 else 0.0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the spectrum in natural units; lies in [0, log n]."""
    return entropy_of_spectrum(rho.eigenvalues())


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple:
    """All integer partitions of n as nondecreasing tuples."""
    result = []

    def extend(remaining, minimum, acc):
        if remaining == 0:
            result.append(tuple(acc))
            return
        for part in range(minimum, remaining + 1):
            extend(remaining - part, part, acc + [part])

    extend(n, 1, [])
    return tuple(result)


class OrbitTableRow(NamedTuple):
    partition: tuple
    manifold: str
    dimension: int


def enumerate_orbit_table(n: int) -> list[OrbitTableRow]:
    """One row per degeneracy pattern of an n-level spectrum, sorted by dimension.

    Labels use U(1) factors where published tables write S^1; the two
    notations name the same group.
    """
    if not 2 <= n <= 8:
        raise DimensionOutOfRange(f"orbit table defined for 2 <= n <= 8, got {n}")
    rows = [
        OrbitTableRow(
            partition=p,
            manifold=_manifold_label(n, p),
            dimension=n * n - sum(m * m for m in p),
        )
        for p in _partitions(n)
    ]
    rows.sort(key=lambda row: (row.dimension, row.partition))
    return rows
