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

One array kernel, ``_region_kernel``, maps (a, c2) arrays to (b, c, K) and a
class code.  It is the one place the formula above, the K2_SNAP rule and the
precedence of the region classes are written: ``qutrit_from_params`` calls it
on one point, ``region_rows`` on one c2 row of a grid at a time, and
``fig2_curve`` and ``fig3_curve`` on a whole a-grid at once.  A classified
grid is read only through ``region_rows``, which holds one row in memory,
with ``REGION_CURVES`` for the curve values; ``fig3_curve`` takes its
entropies from ``orbits.entropy_of_spectrum``.

The module also estimates, by seeded Monte Carlo, how much of a sphere of
fixed purity in coherence-vector space is occupied by physical states.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterOutOfRange
from .linalg import DEFAULT_TOL, _as_rng, _check_int, positivity_test
from .orbits import entropy_of_spectrum
from .pauli import _check_dense_dim, _traceless

#: |K^2| <= K2_SNAP is snapped to zero: the solid boundary is exactly K = 0,
#: and rounding must neither push it into the non-Hermitian class nor split
#: the degenerate eigenvalue pair (sqrt would blow 1e-16 up to 1e-8).
K2_SNAP = 1e-12

#: Width of the boundary-curve detection band.
BOUNDARY_TOL = 1e-10

A_MIN_CANONICAL = 1.0 / 3.0

#: Samples the Monte Carlo sampler draws, assembles and tests at a time.
MC_CHUNK = 4096

#: Most a-values one dataset grid may hold, which bounds the time of one
#: dataset run and the memory of one grid row.
MAX_A_STEPS = 100_000


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


#: The curves of the region dataset's curve1, curve2 and curve3 columns.
REGION_CURVES = (solid_curve, dashed_curve, dashdot_curve)


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


def _check_domain(a, c2) -> None:
    """ParameterOutOfRange unless every a lies in [0, 1] and every c2 in
    [1/3, 1]; scalars or arrays, NaN counts as outside."""
    a, c2 = np.asarray(a, dtype=float), np.asarray(c2, dtype=float)
    bad = ~((0.0 <= a) & (a <= 1.0))
    if bad.any():
        raise ParameterOutOfRange(f"a={a[bad][0]} outside [0, 1]")
    bad = ~((A_MIN_CANONICAL - 1e-12 <= c2) & (c2 <= 1.0 + 1e-12))
    if bad.any():
        raise ParameterOutOfRange(f"c2={c2[bad][0]} outside [1/3, 1]")


#: Feasibility classes in order of precedence: a point takes the first class
#: whose condition in ``_region_kernel`` holds, and the kernel's class code
#: indexes this tuple.  The last entry is the fall-through.
_CLASS_ORDER = (RegionClass.NON_HERMITIAN, RegionClass.NON_POSITIVE,
                RegionClass.BOUNDARY_PSEUDO_PURE_SOLID,
                RegionClass.BOUNDARY_PSEUDO_PURE_DASH_DOT,
                RegionClass.UNIQUE_ORBIT, RegionClass.PHYSICAL_DUPLICATE)


def _region_kernel(a, c2):
    """``(b, c, K, code)`` arrays for broadcastable ``(a, c2)`` arrays.

    Non-Hermitian points (K^2 < -K2_SNAP) carry NaN for b, c and K, and
    ``_CLASS_ORDER[code]`` is each point's class.  The domain is not checked.
    """
    a, c2 = np.asarray(a, dtype=float), np.asarray(c2, dtype=float)
    disc = 2.0 * c2 - solid_curve(a)  # this is K^2
    non_hermitian = disc < -K2_SNAP
    k = np.sqrt(np.select([non_hermitian, disc <= K2_SNAP], [np.nan, 0.0], disc))
    on_solid = np.abs(disc) <= BOUNDARY_TOL
    on_dashdot = np.abs(dashdot_curve(a) - c2) <= BOUNDARY_TOL
    # both bands hold only near the maximally mixed center (1/3, 1/3): the
    # center itself falls through, any other such point is a degenerate pair
    center = on_dashdot & (np.abs(a - A_MIN_CANONICAL) <= 1e-12)
    code = np.select([non_hermitian,
                      dashed_curve(a) < c2 - K2_SNAP,
                      on_solid & ~center,
                      on_dashdot & ~on_solid,
                      (dashdot_curve(a) >= c2 - K2_SNAP) & (a >= A_MIN_CANONICAL - 1e-12)],
                     range(5), default=5)
    return (1.0 - a + k) / 2.0, (1.0 - a - k) / 2.0, k, code


def feasibility(a: float, c2: float) -> RegionClass:
    """Classify one (a, c2) point against the three region inequalities."""
    return qutrit_from_params(a, c2).classification


def qutrit_from_params(a: float, c2: float) -> QutritRegionPoint:
    """Build the diagonal family member at (a, c2) with its classification.

    Non-Hermitian points (K^2 < 0 beyond the snap width) carry NaN for the
    derived entries.
    """
    _check_domain(a, c2)
    b, c, k, code = _region_kernel(a, c2)
    return QutritRegionPoint(a=a, c2=c2, b=float(b), c=float(c), K=float(k),
                             classification=_CLASS_ORDER[int(code)])


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
    _check_domain(A_MIN_CANONICAL, c2)
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


def hermitian_a_grid(c2: float, steps: int) -> np.ndarray:
    """``steps`` evenly spaced a-values where K is real at purity c2.

    The range is [(1 - K1)/3, (1 + K1)/3] clipped into [0, 1]; at c2 = 1/3
    it is the single point 1/3 and the grid has one entry.  ``steps`` is an
    integer in [1, MAX_A_STEPS].
    """
    steps = _check_int(steps, "steps", 1, MAX_A_STEPS)
    k1 = feasible_interval(c2).K1
    lo, hi = max((1.0 - k1) / 3.0, 0.0), min((1.0 + k1) / 3.0, 1.0)
    return np.linspace(lo, hi, 1 if hi - lo < 1e-15 else steps)


#: Purity grid used by the shipped region dataset.
DEFAULT_C2_GRID = tuple(round(0.35 + 0.05 * k, 2) for k in range(14))

#: Number of a-samples in [1/3, 1] used by the shipped region dataset.
DEFAULT_A_STEPS = 600


def default_region_grid_axes(steps: int = DEFAULT_A_STEPS) -> tuple[np.ndarray, np.ndarray]:
    """``(c2_axis, a_axis)`` of the region dataset: ``DEFAULT_C2_GRID`` and
    ``steps`` evenly spaced a-values in [1/3, 1], an integer in [1, MAX_A_STEPS]."""
    steps = _check_int(steps, "steps", 1, MAX_A_STEPS)
    return np.array(DEFAULT_C2_GRID), np.linspace(A_MIN_CANONICAL, 1.0, steps)


def region_rows(c2_values, a_values):
    """``(c2, classes)`` per c2 of a rectangular (c2, a) grid, in order.

    ``classes`` lists the RegionClass of every a-value at that c2, from one
    kernel call per row.  Both axes are checked (ParameterOutOfRange) before
    this returns, so a refused grid raises here, not while it is iterated.
    """
    a_axis, c2_axis = np.asarray(a_values, dtype=float), np.asarray(c2_values, dtype=float)
    _check_domain(a_axis, c2_axis)
    return ((c2, [_CLASS_ORDER[k] for k in _region_kernel(a_axis, c2)[3].tolist()])
            for c2 in c2_axis.tolist())


def fig2_curve(c2: float, a_values) -> list[tuple[float, float]]:
    """Sum of the two largest-candidate eigenvalues, a + b = (1 + a + K)/2.

    Points with K^2 < 0 (no Hermitian matrix) are skipped.  Over the
    feasible interval the sequence is nonincreasing for c2 > 1/2 and has an
    interior maximum on the ordering curve for c2 <= 1/2.
    """
    a = np.asarray(a_values, dtype=float)
    _check_domain(a, c2)
    _, _, k, code = _region_kernel(a, c2)
    keep = code != 0  # _CLASS_ORDER[0] is NonHermitian
    return list(zip(a[keep].tolist(), ((1.0 + a + k) / 2.0)[keep].tolist()))


def fig3_curve(c2: float, a_values) -> list[tuple[float, float]]:
    """Entropy of diag(a, b, max(c, 0)) per grid point, physical points only.

    Skips non-Hermitian points (K^2 < 0) and non-positive ones (c < 0);
    entropy is undefined off the state space.  Nondecreasing in a over the
    feasible interval for c2 >= 1/2.  The values are one
    ``entropy_of_spectrum`` call on the stack of kept spectra.
    """
    a = np.asarray(a_values, dtype=float)
    _check_domain(a, c2)
    b, c, _, code = _region_kernel(a, c2)
    keep = (code != 0) & ~(c < -K2_SNAP)
    entropy = entropy_of_spectrum(np.stack([a, b, np.maximum(c, 0.0)], axis=-1)[keep])
    return list(zip(a[keep].tolist(), entropy.tolist()))


def sphere_physical_fraction(n: int, c2: float, samples: int,
                             seed: int, tol: float = DEFAULT_TOL) -> float:
    """Fraction of a fixed-purity sphere occupied by physical states.

    Draws ``samples`` uniform directions on the unit sphere in R^(n^2 - 1)
    (normalized Gaussians), scales them to radius sqrt(c2 - 1/n) and tests
    positivity of the reconstructed matrices.  Deterministic per ``seed``.
    The samples stream through in chunks of ``MC_CHUNK`` drawn one after
    another from one generator, so memory is bounded by one chunk whatever
    ``samples`` is, and the result is that of one monolithic draw.  The
    chunk is a dense (MC_CHUNK, n, n) stack, so n <= 16.
    """
    n = _check_dense_dim(n)
    samples = _check_int(samples, "samples", 1)
    if not 1.0 / n < c2 <= 1.0 + 1e-12:
        raise ParameterOutOfRange(f"c2={c2} outside (1/{n}, 1]")
    radius = math.sqrt(c2 - 1.0 / n)
    rng = _as_rng(seed)
    hits = 0
    for start in range(0, samples, MC_CHUNK):
        g = rng.standard_normal((min(MC_CHUNK, samples - start), n * n - 1))
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0.0] = 1.0  # measure-zero guard
        vecs = g * (radius / norms)[:, None]
        mats = np.eye(n, dtype=np.complex128) / n + _traceless(vecs, n)
        hits += int(np.count_nonzero(positivity_test(mats, tol)[0]))
    return hits / samples
