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

import numpy as np

# the multiplicity arithmetic and the orbit table are numpy-free, in ``core``;
# OrbitTableRow, _partitions and enumerate_orbit_table are re-exported here
from .core import (DEFAULT_CLUSTER_TOL, DEFAULT_TOL, OrbitTableRow, _flag_dimension,
                   _is_projective, _manifold_label, _partitions, check_tolerance,
                   enumerate_orbit_table)
from .exceptions import AmbiguousClustering, ParameterOutOfRange, ValidationError
from .linalg import DensityMatrix, unitarily_equivalent


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


def _classify(n: int, values: tuple, mults: tuple,
              cluster_tol: float) -> StateClass:
    """Class of a clustered spectrum; ``values`` are nonincreasing."""
    if len(values) == 1:
        return StateClass.COMPLETELY_RANDOM
    if _is_projective(mults):
        if abs(values[0] - 1.0) <= cluster_tol and abs(values[1]) <= cluster_tol:
            return StateClass.PURE
        return StateClass.PSEUDO_PURE
    if len(values) == n:
        return StateClass.GENERIC
    return StateClass.OTHER_DEGENERATE


def cluster_spectrum(values, tol: float) -> tuple[list[list[float]], list[float]]:
    """``(clusters, means)``: single-linkage clusters of the values sorted
    nonincreasing, and each cluster's mean.  A new cluster (a list of
    floats) starts wherever a gap exceeds ``tol``.

    Raises ValidationError for an empty or non-finite input, and
    AmbiguousClustering when the result is tolerance sensitive: two of the
    returned means within ``2 * tol``, or one cluster wider (largest member
    minus smallest) than ``tol``, i.e. single linkage chained it.
    """
    tol = check_tolerance(tol)
    w = np.asarray(values, dtype=float)
    if w.size == 0 or not np.isfinite(w).all():
        raise ValidationError("cannot cluster an empty or non-finite spectrum")
    w = sorted(w.tolist(), reverse=True)
    clusters = [[w[0]]]
    for x in w[1:]:
        if clusters[-1][-1] - x <= tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    # plain float means: np.mean costs microseconds per call, once per cluster
    means = [sum(c) / len(c) for c in clusters]
    for a, b in zip(means, means[1:]):
        if a - b <= 2.0 * tol:
            raise AmbiguousClustering(
                f"cluster means {a} and {b} are within 2*tol={2.0 * tol}")
    spread = max(c[0] - c[-1] for c in clusters)
    if spread > tol:
        raise AmbiguousClustering(f"a cluster spreads over {spread:.3e} > tol={tol}")
    return clusters, means


def orbit_signature(rho: DensityMatrix,
                    cluster_tol: float = DEFAULT_CLUSTER_TOL) -> OrbitSignature:
    """Cluster the spectrum into degeneracy groups.

    ``cluster_spectrum`` of the eigenvalues at ``cluster_tol``; its
    AmbiguousClustering verdict (two cluster means within
    ``2 * cluster_tol``, or a chained cluster wider than ``cluster_tol``)
    propagates.  Distinct values are the cluster means that verdict
    compared.  ``cluster_tol`` must lie in [0, 1/(2n)): a tolerance on the
    scale of the mean eigenvalue 1/n would merge levels that are not
    degenerate (ParameterOutOfRange).
    """
    cluster_tol = check_tolerance(cluster_tol, "cluster_tol")
    if cluster_tol >= 0.5 / rho.dim:
        raise ParameterOutOfRange(f"cluster_tol {cluster_tol} outside [0, 1/(2n)) at n={rho.dim}")
    clusters, means = cluster_spectrum(rho.eigenvalues(), cluster_tol)
    values = tuple(means)
    mults = tuple(len(c) for c in clusters)
    return OrbitSignature(
        dim=rho.dim, distinct_values=values, multiplicities=mults,
        cluster_tol=cluster_tol,
        state_class=_classify(rho.dim, values, mults, cluster_tol))


def orbit_dimension(sig: OrbitSignature) -> int:
    """Real dimension n^2 - sum(n_i^2) of the orbit manifold."""
    return _flag_dimension(sig.multiplicities)


def flag_manifold_name(sig: OrbitSignature) -> str:
    """Canonical flag-manifold label, e.g. ``U(3)/[U(1)xU(2)] = CP^2``.

    Single-cluster spectra give ``point``; spectra with multiplicity
    pattern {1, n-1} carry the complex-projective-space annotation.
    """
    label = _manifold_label(sig.dim, sig.multiplicities)
    if _is_projective(sig.multiplicities):
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
    Conflicting strict comparisons give INCOMPARABLE, and unitarily
    equivalent states (``linalg.unitarily_equivalent``) EQUAL.
    """
    if unitarily_equivalent(rho1, rho2, tol):
        return MajorizationResult.EQUAL
    d = np.cumsum(rho1.eigenvalues()[::-1]) - np.cumsum(rho2.eigenvalues()[::-1])
    below = bool((d < -tol).any())
    above = bool((d > tol).any())
    if below and above:
        return MajorizationResult.INCOMPARABLE
    if below:
        return MajorizationResult.LESS
    if above:
        return MajorizationResult.GREATER
    return MajorizationResult.EQUAL


def entropy_of_spectrum(values):
    """-sum(w log w) along the last axis, with 0 log 0 = 0 (nats).

    Entries are clipped into [0, 1] first.  One spectrum gives a float, a
    stack of spectra an array with one entropy per spectrum.  Raises
    ValidationError for a NaN or infinite entry anywhere in the input.
    """
    w = np.asarray(values, dtype=float)
    if not np.isfinite(w).all():
        raise ValidationError("cannot take the entropy of a non-finite spectrum")
    w = np.clip(w, 0.0, 1.0)
    value = -(w * np.log(np.where(w > 0.0, w, 1.0))).sum(axis=-1)
    value = np.where(value > 0.0, value, 0.0)
    return float(value) if value.ndim == 0 else value


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the spectrum in natural units; lies in [0, log n]."""
    return entropy_of_spectrum(rho.eigenvalues())
