"""Compact symplectic group machinery and quaternion bridge.

Sp(n) is realized as the unitary 2n x 2n matrices S with S^T J S = J for
the standard skew form J = [[0, I], [-I, 0]]; equivalently the unitaries of
block shape [[A, B], [-conj(B), conj(A)]].  The module provides membership
and block-form tests, seeded random group elements (exponentials of random
Lie-algebra elements), dimension bounds for conjugation orbits of ordered
diagonal spectra, the published bound comparison table, and the quaternion
model of Sp(n) with its inner-product decomposition and skew form.

Orbit-bound rules, applied to the diagonal AS ORDERED (the symplectic
action distinguishes arrangements that are unitarily equivalent):

* Transitive      - uniform or {1, 2n-1}-degenerate spectra: the symplectic
                    orbit equals the unitary orbit (exact).
* GenericTorus    - any diagonal: the stabilizer contains the maximal torus,
                    so dim <= 2n^2.
* EqualHalves     - diag(s, s) with s not scalar: dim <= 2n^2 - 1.
* ScalarHalves    - diag(a..a, b..b), a != b: dim = n^2 + n (exact).
* TrailingScalarBlock - trailing constant block of even length 2l:
                    dim <= n(2n+1) - l(2l+1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import LengthMismatch, NotNormalized, OddDimension
from .linalg import (_as_rng, _check_int, as_complex_matrix, check_tolerance,
                     hermitian_eigensystem)
from .orbits import _flag_dimension, _is_projective, cluster_spectrum

_GROUP_TOL = 1e-12


def standard_J(n: int) -> np.ndarray:
    """The 2n x 2n skew form [[0, I], [-I, 0]]; J^2 = -I and J^T = -J."""
    n = _check_int(n, "half-dimension", 1, error=OddDimension)
    j = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def _split_even(matrix) -> tuple[np.ndarray, int]:
    m = as_complex_matrix(matrix)
    if m.shape[0] % 2 != 0:
        raise OddDimension(f"expected even dimension, got {m.shape[0]}")
    return m, m.shape[0] // 2


def is_symplectic(matrix, tol: float = 1e-8) -> bool:
    """Membership test: unitary and S^T J S = J, both within ``tol``."""
    tol = check_tolerance(tol)
    s, n = _split_even(matrix)
    dim = 2 * n
    if np.abs(s.conj().T @ s - np.eye(dim)).max() > tol:
        return False
    j = standard_J(n)
    return bool(np.abs(s.T @ j @ s - j).max() <= tol)


def has_sp_block_form(matrix, tol: float = 1e-8) -> bool:
    """Whether S = [[A, B], [-conj(B), conj(A)]] within ``tol``."""
    tol = check_tolerance(tol)
    s, n = _split_even(matrix)
    a = s[:n, :n]
    b = s[:n, n:]
    return bool(np.abs(s[n:, :n] + b.conj()).max() <= tol
                and np.abs(s[n:, n:] - a.conj()).max() <= tol)


def random_symplectic(n: int, seed=None) -> np.ndarray:
    """Seeded random element of Sp(n).

    A complex Gaussian matrix is projected onto the Lie algebra
    {X anti-Hermitian, X^T J + J X = 0}, i.e. block form
    [[A, B], [-conj(B), conj(A)]] with A anti-Hermitian and B symmetric,
    and exponentiated as V diag(exp(iw)) V^dag from eigh of -iX (n <= 32).
    """
    n = _check_int(n, "half-dimension", 1, error=OddDimension)
    rng = _as_rng(seed)
    g = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    a = (g[:n, :n] + g[n:, n:].conj()) / 2.0
    b = (g[:n, n:] - g[n:, :n].conj()) / 2.0
    a = (a - a.conj().T) / 2.0
    b = (b + b.T) / 2.0
    x = np.block([[a, b], [-b.conj(), a.conj()]])
    w, v, _ = hermitian_eigensystem(-1j * x)
    return (v * np.exp(1j * w)) @ v.conj().T


class SpRuleKind(enum.Enum):
    TRANSITIVE = "Transitive"
    GENERIC_TORUS = "GenericTorus"
    EQUAL_HALVES = "EqualHalves"
    SCALAR_HALVES = "ScalarHalves"
    TRAILING_SCALAR_BLOCK = "TrailingScalarBlock"


class SpRule(NamedTuple):
    rule: SpRuleKind
    bound: int
    exact: bool


@dataclass(frozen=True)
class SpOrbitReport:
    """All applicable orbit-dimension rules for one ordered diagonal.

    ``min_bound`` is the tightest bound, additionally capped at
    ``unitary_dim``: the symplectic orbit sits inside the unitary orbit, so
    the unitary dimension is always a valid bound even when no listed rule
    reaches it.
    """

    half_dim: int
    diagonal: tuple
    rules: tuple
    min_bound: int
    unitary_dim: int

    @property
    def min_bound_exact(self) -> bool:
        return any(r.exact and r.bound == self.min_bound for r in self.rules)


def sp_orbit_bounds(diagonal, tol: float = _GROUP_TOL) -> SpOrbitReport:
    """Dimension bounds for the Sp(n) orbit of diag(d1, ..., d_2n).

    The diagonal is used as ordered; rearrangements with equal spectra can
    produce different reports.  Entries must lie in [0, 1] and sum to one
    within 1e-9.  Ties are ``cluster_spectrum``'s clusters at ``tol``, so
    AmbiguousClustering is raised when they are tolerance sensitive: a
    chain of entries each within ``tol`` of the next but wider than it, or
    two clusters whose means are within ``2 * tol``.
    """
    tol = check_tolerance(tol)
    d = np.asarray(diagonal, dtype=float)
    if d.ndim != 1 or d.shape[0] % 2 != 0 or d.shape[0] < 2:
        raise OddDimension(f"expected even-length diagonal, got shape {d.shape}")
    # negated, so that a NaN entry, which fails every comparison, is refused
    if not (d.min() >= -1e-9 and d.max() <= 1.0 + 1e-9 and abs(d.sum() - 1.0) <= 1e-9):
        raise NotNormalized(
            "diagonal entries must lie in [0, 1] and sum to one")
    n = d.shape[0] // 2
    dim = 2 * n

    mults = [len(c) for c in cluster_spectrum(d, tol)]
    unitary_dim = _flag_dimension(mults)

    rules = []
    if len(mults) == 1 or _is_projective(mults):
        rules.append(SpRule(SpRuleKind.TRANSITIVE, unitary_dim, True))
    rules.append(SpRule(SpRuleKind.GENERIC_TORUS, 2 * n * n, False))

    first, second = d[:n], d[n:]
    halves_equal = bool(np.abs(first - second).max() <= tol)
    first_scalar = bool(np.abs(first - first[0]).max() <= tol)
    second_scalar = bool(np.abs(second - second[0]).max() <= tol)
    if halves_equal and not first_scalar:
        rules.append(SpRule(SpRuleKind.EQUAL_HALVES, 2 * n * n - 1, False))
    if first_scalar and second_scalar and abs(first[0] - second[0]) > tol:
        rules.append(SpRule(SpRuleKind.SCALAR_HALVES, n * n + n, True))

    run = 1
    while run < dim and abs(d[dim - 1 - run] - d[dim - 1]) <= tol:
        run += 1
    if 2 <= run < dim:
        ell = run // 2
        rules.append(SpRule(
            SpRuleKind.TRAILING_SCALAR_BLOCK,
            n * (2 * n + 1) - ell * (2 * ell + 1), False))

    min_bound = min(min(r.bound for r in rules), unitary_dim)
    return SpOrbitReport(half_dim=n, diagonal=tuple(float(x) for x in d),
                         rules=tuple(rules), min_bound=min_bound,
                         unitary_dim=unitary_dim)


class Table2Row(NamedTuple):
    pattern: str
    half_dim: int
    unitary_dim: int
    paper_bound: int
    computed_bound: int
    exact: bool


#: Published symplectic-orbit bounds per spectrum pattern (N = 4 and N = 6).
#: The diag(a,b,c,c) entry is quoted as 8 although the trailing-block rule
#: with l = 1 gives the tighter 10 - 3 = 7; both values are reported.
_PUBLISHED_SP_BOUNDS = (
    ("a,a,a,a", 0),
    ("a,b,b,b", 6),
    ("a,a,b,b", 6),
    ("a,b,c,c", 8),
    ("a,b,c,d", 8),
    ("a,a,a,a,a,a", 0),
    ("a,b,b,b,b,b", 10),
    ("a,a,b,b,b,b", 11),
    ("a,b,c,c,c,c", 11),
    ("a,b,b,c,c,c", 18),
    ("a,b,c,d,d,d", 18),
    ("a,a,b,b,c,c", 18),
    ("a,a,a,b,b,b", 12),
    ("a,b,c,c,d,d", 18),
    ("a,b,c,d,e,e", 18),
    ("a,b,c,d,e,f", 18),
)


def diagonal_from_pattern(pattern: str) -> np.ndarray:
    """Turn a letter pattern like ``a,b,c,c`` into a normalized diagonal.

    Distinct letters receive distinct positive weights, descending in the
    order of first appearance, then the whole diagonal is scaled to sum one.
    """
    letters = pattern.split(",")
    distinct = sorted(set(letters))
    k = len(distinct)
    weight = {letter: float(k - i) for i, letter in enumerate(distinct)}
    d = np.array([weight[letter] for letter in letters])
    return d / d.sum()


def table2() -> list[Table2Row]:
    """Published-vs-computed symplectic orbit bounds for all 16 patterns."""
    rows = []
    for pattern, published in _PUBLISHED_SP_BOUNDS:
        report = sp_orbit_bounds(diagonal_from_pattern(pattern))
        rows.append(Table2Row(
            pattern=pattern, half_dim=report.half_dim,
            unitary_dim=report.unitary_dim, paper_bound=published,
            computed_bound=report.min_bound, exact=report.min_bound_exact))
    return rows


# --------------------------------------------------------------------------
# Quaternion model: H^n with the symplectic inner product maps onto C^2n
# carrying the Hermitian product plus e2 times the canonical skew form.

@dataclass(frozen=True)
class Quaternion:
    """Coefficients of 1, e1, e2, e3 with e_i^2 = -1 and e1 e2 = e3 cyclic."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return quat_mul(self, other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


QUAT_ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
QUAT_E1 = Quaternion(0.0, 1.0, 0.0, 0.0)
QUAT_E2 = Quaternion(0.0, 0.0, 1.0, 0.0)
QUAT_E3 = Quaternion(0.0, 0.0, 0.0, 1.0)


def quat_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Associative bilinear product fixed by the basis relations."""
    return Quaternion(
        w=p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        x=p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        y=p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        z=p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def quat_to_complex(qvec) -> np.ndarray:
    """Complex coordinates of a quaternion vector.

    Each q = (q0 + q1 e1) + e2 (q2 - q3 e1) splits into the complex pair
    (q0 + i q1, q2 - i q3); a length-n quaternion vector maps to the length
    2n complex vector holding all first components, then all second ones.
    The map is bijective with exact inverse (complex_to_quat).
    """
    qs = list(qvec)
    n = len(qs)
    out = np.empty(2 * n, dtype=np.complex128)
    for i, q in enumerate(qs):
        out[i] = q.w + 1j * q.x
        out[n + i] = q.y - 1j * q.z
    return out


def complex_to_quat(zvec) -> list[Quaternion]:
    """Exact inverse of quat_to_complex."""
    z = np.asarray(zvec, dtype=np.complex128)
    if z.ndim != 1 or z.shape[0] % 2 != 0:
        raise LengthMismatch(f"expected even-length complex vector, got {z.shape}")
    n = z.shape[0] // 2
    return [Quaternion(w=z[i].real, x=z[i].imag,
                       y=z[n + i].real, z=-z[n + i].imag)
            for i in range(n)]


def quat_inner(qvec, qvec2) -> Quaternion:
    """Symplectic inner product sum conj(q_i) q'_i over quaternion vectors.

    Under quat_to_complex it decomposes as the complex Hermitian product
    plus e2 times the skew form of the images.
    """
    qs, q2s = list(qvec), list(qvec2)
    if len(qs) != len(q2s):
        raise LengthMismatch(f"length mismatch: {len(qs)} vs {len(q2s)}")
    acc = Quaternion()
    for p, q in zip(qs, q2s):
        acc = acc + quat_mul(p.conjugate(), q)
    return acc


def skew_form(zvec, zvec2) -> complex:
    """Canonical skew form S(z, z') = sum_i (z_i z'_{n+i} - z_{n+i} z'_i)."""
    z = np.asarray(zvec, dtype=np.complex128)
    z2 = np.asarray(zvec2, dtype=np.complex128)
    if z.shape != z2.shape or z.ndim != 1 or z.shape[0] % 2 != 0:
        raise LengthMismatch(
            f"expected equal even-length vectors, got {z.shape} and {z2.shape}")
    n = z.shape[0] // 2
    return complex(np.sum(z[:n] * z2[n:] - z[n:] * z2[:n]))
