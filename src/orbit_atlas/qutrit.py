"""Closed-form geometry of the three-level diagonal family.

States diag(a, b, c) with fixed purity c2 = Tr(rho^2) are parameterized by
the largest-eigenvalue candidate ``a`` via

    b = (1 - a + K) / 2,   c = (1 - a - K) / 2,
    K = sqrt(-1 + 2a - 3a^2 + 2 c2),

which satisfies a + b + c = 1 and a^2 + b^2 + c^2 = c2 identically.  Three
inequalities carve the (a, c2) plane:

    3a^2 - 2a + 1 <= 2 c2   (K real: Hermitian matrix, "solid" curve),
    2a^2 - 2a + 1 >= c2     (c >= 0: positive matrix, "dashed" curve),
    6a^2 - 4a + 1 >= c2     (a >= b: canonical ordering, "dash-dot" curve),

and a >= 1/3.  Points on the solid curve are the degenerate states
diag(a, (1-a)/2, (1-a)/2); points on the dash-dot curve are diag(a, a, 1-2a).

The module also estimates, by seeded Monte Carlo, how much of a sphere of
fixed purity in coherence-vector space is occupied by physical states.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterOutOfRange
from .linalg import DEFAULT_TOL, positivity_test
from .orbits import entropy_of_spectrum
from .pauli import _check_dense_dim, _traceless

#: |K^2| <= K2_SNAP is snapped to zero: the solid boundary is exactly K = 0,
#: and rounding must neither push it into the non-Hermitian class nor split
#: the degenerate eigenvalue pair (sqrt would blow 1e-16 up to 1e-8).
K2_SNAP = 1e-12

#: Width of the boundary-curve detection band.
BOUNDARY_TOL = 1e-10

A_MIN_CANONICAL = 1.0 / 3.0


class RegionClass(enum.Enum):
    NON_HERMITIAN = "NonHermitian"
    NON_POSITIVE = "NonPositive"
    PHYSICAL_DUPLICATE = "PhysicalDuplicate"
    UNIQUE_ORBIT = "UniqueOrbit"
    BOUNDARY_PSEUDO_PURE_SOLID = "BoundaryPseudoPureSolid"
    BOUNDARY_PSEUDO_PURE_DASH_DOT = "BoundaryPseudoPureDashDot"


def solid_curve(a):
    """Hermitian limit 3a^2 - 2a + 1, compared against 2 c2."""
    return 3.0 * a * a - 2.0 * a + 1.0


def dashed_curve(a):
    """Positivity limit 2a^2 - 2a + 1, compared against c2."""
    return 2.0 * a * a - 2.0 * a + 1.0


def dashdot_curve(a):
    """Ordering limit 6a^2 - 4a + 1, compared against c2."""
    return 6.0 * a * a - 4.0 * a + 1.0


@dataclass(frozen=True)
class QutritRegionPoint:
    a: float
    c2: float
    b: float
    c: float
    K: float
    classification: RegionClass


@dataclass(frozen=True)
class FeasibleInterval:
    """Range of canonical a-values sharing one purity c2."""

    c2: float
    a_lo: float
    a_hi: float
    empty: bool
    K1: float
    K2: float | None = None


def _check_domain(a: float, c2: float) -> None:
    if not 0.0 <= a <= 1.0:
        raise ParameterOutOfRange(f"a={a} outside [0, 1]")
    if not A_MIN_CANONICAL - 1e-12 <= c2 <= 1.0 + 1e-12:
        raise ParameterOutOfRange(f"c2={c2} outside [1/3, 1]")


def feasibility(a: float, c2: float) -> RegionClass:
    """Classify one (a, c2) point against the three region inequalities."""
    _check_domain(a, c2)
    disc = 2.0 * c2 - solid_curve(a)  # this is K^2
    if disc < -K2_SNAP:
        return RegionClass.NON_HERMITIAN
    if dashed_curve(a) < c2 - K2_SNAP:
        return RegionClass.NON_POSITIVE
    on_solid = abs(disc) <= BOUNDARY_TOL
    on_dashdot = abs(dashdot_curve(a) - c2) <= BOUNDARY_TOL
    if on_solid and on_dashdot:
        # only the maximally mixed center (1/3, 1/3); not a degenerate pair
        pass
    elif on_solid:
        return RegionClass.BOUNDARY_PSEUDO_PURE_SOLID
    elif on_dashdot:
        return RegionClass.BOUNDARY_PSEUDO_PURE_DASH_DOT
    if dashdot_curve(a) >= c2 - K2_SNAP and a >= A_MIN_CANONICAL - 1e-12:
        return RegionClass.UNIQUE_ORBIT
    return RegionClass.PHYSICAL_DUPLICATE


def qutrit_from_params(a: float, c2: float) -> QutritRegionPoint:
    """Build the diagonal family member at (a, c2) with its classification.

    Non-Hermitian points (K^2 < 0 beyond the snap width) carry NaN for the
    derived entries.
    """
    _check_domain(a, c2)
    classification = feasibility(a, c2)
    disc = 2.0 * c2 - solid_curve(a)
    if classification is RegionClass.NON_HERMITIAN:
        return QutritRegionPoint(a=a, c2=c2, b=math.nan, c=math.nan,
                                 K=math.nan, classification=classification)
    k = 0.0 if abs(disc) <= K2_SNAP else math.sqrt(disc)
    return QutritRegionPoint(
        a=a, c2=c2, b=(1.0 - a + k) / 2.0, c=(1.0 - a - k) / 2.0, K=k,
        classification=classification)


def feasible_interval(c2: float) -> FeasibleInterval:
    """Endpoints of the canonical a-range at purity c2.

    With K1 = sqrt(6 c2 - 2) and K2 = sqrt(2 c2 - 1):

    * c2 <= 1/2: a in [(2 + K1)/6, (1 + K1)/3], the lower endpoint sitting
      on the ordering (dash-dot) curve;
    * c2 >  1/2: a in [(1 + K2)/2, (1 + K1)/3], the lower endpoint sitting
      on the positivity (dashed) curve.

    The endpoints agree with a brute-force scan of the inequalities and are
    continuous across c2 = 1/2, where both forms give [1/2, 2/3].
    """
    if not A_MIN_CANONICAL - 1e-12 <= c2 <= 1.0 + 1e-12:
        raise ParameterOutOfRange(f"c2={c2} outside [1/3, 1]")
    k1 = math.sqrt(max(6.0 * c2 - 2.0, 0.0))
    a_hi = (1.0 + k1) / 3.0
    if c2 <= 0.5:
        k2 = None
        a_lo = (2.0 + k1) / 6.0
    else:
        k2 = math.sqrt(2.0 * c2 - 1.0)
        a_lo = max((1.0 + k2) / 2.0, (2.0 + k1) / 6.0)
    a_lo = min(max(a_lo, A_MIN_CANONICAL), 1.0)
    a_hi = min(max(a_hi, A_MIN_CANONICAL), 1.0)
    return FeasibleInterval(c2=c2, a_lo=a_lo, a_hi=a_hi,
                            empty=a_lo > a_hi + 1e-12, K1=k1, K2=k2)


@dataclass(frozen=True)
class RegionRecord:
    a: float
    c2: float
    classification: RegionClass
    curve1: float  # 3a^2 - 2a + 1
    curve2: float  # 2a^2 - 2a + 1
    curve3: float  # 6a^2 - 4a + 1


#: Purity grid used by the shipped region dataset.
DEFAULT_C2_GRID = tuple(round(0.35 + 0.05 * k, 2) for k in range(14))

#: Number of a-samples in [1/3, 1] used by the shipped region dataset.
DEFAULT_A_STEPS = 600


def default_region_grid_axes() -> tuple[np.ndarray, np.ndarray]:
    return (np.array(DEFAULT_C2_GRID),
            np.linspace(A_MIN_CANONICAL, 1.0, DEFAULT_A_STEPS))


def region_grid(c2_values, a_values) -> list[RegionRecord]:
    """Classification records over a rectangular (c2, a) grid."""
    records = []
    for c2 in c2_values:
        for a in a_values:
            records.append(RegionRecord(
                a=float(a), c2=float(c2),
                classification=feasibility(float(a), float(c2)),
                curve1=float(solid_curve(a)),
                curve2=float(dashed_curve(a)),
                curve3=float(dashdot_curve(a))))
    return records


def fig2_curve(c2: float, a_values) -> list[tuple[float, float]]:
    """Sum of the two largest-candidate eigenvalues, a + b = (1 + a + K)/2.

    Points with K^2 < 0 (no Hermitian matrix) are skipped.  Over the
    feasible interval the sequence is nonincreasing for c2 > 1/2 and has an
    interior maximum on the ordering curve for c2 <= 1/2.
    """
    out = []
    for a in a_values:
        a = float(a)
        disc = 2.0 * c2 - solid_curve(a)
        if disc < -K2_SNAP:
            continue
        k = 0.0 if abs(disc) <= K2_SNAP else math.sqrt(disc)
        out.append((a, (1.0 + a + k) / 2.0))
    return out


def fig3_curve(c2: float, a_values) -> list[tuple[float, float]]:
    """Entropy of diag(a, b, c) per grid point, physical points only.

    Skips non-Hermitian points (K^2 < 0) and non-positive ones (c < 0);
    entropy is undefined off the state space.  Nondecreasing in a over the
    feasible interval for c2 >= 1/2.
    """
    out = []
    for a in a_values:
        a = float(a)
        disc = 2.0 * c2 - solid_curve(a)
        if disc < -K2_SNAP:
            continue
        k = 0.0 if abs(disc) <= K2_SNAP else math.sqrt(disc)
        c = (1.0 - a - k) / 2.0
        if c < -K2_SNAP:
            continue
        b = (1.0 - a + k) / 2.0
        out.append((a, entropy_of_spectrum((a, b, max(c, 0.0)))))
    return out


def sphere_physical_fraction(n: int, c2: float, samples: int,
                             seed: int, tol: float = DEFAULT_TOL) -> float:
    """Fraction of a fixed-purity sphere occupied by physical states.

    Draws ``samples`` uniform directions on the unit sphere in R^(n^2 - 1)
    (normalized Gaussians), scales them to radius sqrt(c2 - 1/n) and tests
    positivity of the reconstructed matrices.  Deterministic per ``seed``.
    The matrices are held as one dense (samples, n, n) stack, so n <= 16.
    """
    _check_dense_dim(n)
    if samples < 1:
        raise ParameterOutOfRange(f"samples must be >= 1, got {samples}")
    if not 1.0 / n < c2 <= 1.0 + 1e-12:
        raise ParameterOutOfRange(f"c2={c2} outside (1/{n}, 1]")
    radius = math.sqrt(c2 - 1.0 / n)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n * n - 1))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0  # measure-zero guard
    vecs = g * (radius / norms)[:, None]
    mats = np.eye(n, dtype=np.complex128) / n + _traceless(vecs, n)
    return float(np.mean(positivity_test(mats, tol)[0]))
