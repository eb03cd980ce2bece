"""The numpy-free core: argument checks, defaults and orbit-table combinatorics.

Everything the command line needs before it knows which command runs,
everything its argument checks and their messages need, and everything
``tables 2..8`` needs, lives here and imports nothing but the standard
library and ``exceptions``: the tolerance, state-tolerance, integer and
dense-dimension checks, the package defaults and limits, the 12-digit
number format, the coherence/Bloch ``Convention``, the flag-manifold
arithmetic of multiplicity patterns, the orbit table and its CSV writer.  Each name is re-exported by
the module that uses it with numpy (``linalg.check_tolerance``,
``orbits.enumerate_orbit_table``, ``pauli.Convention``, ``formats.fmt``,
``pauli.MAX_BASIS_DIM``, ``qutrit.MAX_A_STEPS``, ...), so either import
path gives the same object.
"""

from __future__ import annotations

import enum
import math
import numbers
from functools import lru_cache
from typing import NamedTuple

from .exceptions import DimensionOutOfRange, ParameterOutOfRange, ValidationError

#: Default validation tolerance.  Well above double-precision eigensolver
#: residuals, well below any physically meaningful gap at these sizes.
DEFAULT_TOL = 1e-9

#: Default eigenvalue clustering tolerance for degeneracy detection.
DEFAULT_CLUSTER_TOL = 1e-8

#: Number of a-samples in [1/3, 1] used by the shipped region dataset.
DEFAULT_A_STEPS = 600

#: Most a-values one dataset grid may hold, which bounds the time of one
#: dataset run and the memory of one grid row.
MAX_A_STEPS = 100_000

MIN_BASIS_DIM = 2

#: Largest dimension of the dense Pauli paths (the basis, the Monte Carlo
#: sampler): the dense basis holds (n^2 - 1) n^2 entries, 268 MB at n = 64.
MAX_BASIS_DIM = 16

#: The one printf-style rule for every printed real: 12 significant digits.
FLOAT = "%.12g"


def fmt(x) -> str:
    """Format one real number by ``FLOAT``; -0.0 prints as 0."""
    return FLOAT % (float(x) + 0.0)


def check_tolerance(tol: float, name: str = "tolerance") -> float:
    """``tol`` as a float; ParameterOutOfRange unless it is finite and >= 0
    (a NaN tolerance would make every ``value > tol`` test pass)."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterOutOfRange(f"{name} must be finite and nonnegative, got {tol}")
    return tol


def _check_state_tol(tol: float, n: int) -> float:
    """``tol`` by ``check_tolerance``; ParameterOutOfRange unless also
    tol < 1/n, so that the positivity slack tol * n stays below the unit
    trace: at a slack of 1 a matrix with an eigenvalue of -1 passes."""
    tol = check_tolerance(tol)
    if tol * n >= 1.0:
        raise ParameterOutOfRange(f"tolerance {tol} outside [0, 1/n) at n={n}")
    return tol


def _check_int(value, name: str, lo: int, hi: float = math.inf,
               error: type = ParameterOutOfRange) -> int:
    """``value`` as an int; ``error`` unless it is an integer in [lo, hi]."""
    if not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise error(f"{name} {value} outside [{lo}, {hi}]")
    return int(value)


def _check_dense_dim(n: int) -> int:
    """``n`` as an int; DimensionOutOfRange unless it is an integer in
    [MIN_BASIS_DIM, MAX_BASIS_DIM], the range of the dense paths."""
    return _check_int(n, "basis dimension", MIN_BASIS_DIM, MAX_BASIS_DIM, DimensionOutOfRange)


class Convention(enum.Enum):
    """Scaling convention of a stored vector: Bloch is 2x coherence.

    ``Convention(value)`` takes a member or its value string and raises
    ValidationError for anything else."""

    COHERENCE = "coherence"
    BLOCH = "bloch"

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"unknown convention {value!r}")


def _flag_dimension(mults) -> int:
    """Real dimension n^2 - sum(m^2), n = sum(m), of the flag manifold
    U(n)/[U(m_1) x ... x U(m_r)]."""
    return sum(mults) ** 2 - sum(m * m for m in mults)


def _is_projective(mults) -> bool:
    """Whether the multiplicity pattern is {1, n-1}, n = sum(m): the flag
    manifold is then CP^(n-1)."""
    return sorted(mults) == [1, sum(mults) - 1]


def _manifold_label(n: int, mults) -> str:
    if len(mults) == 1:
        return "point"
    factors = "x".join(f"U({m})" for m in mults)
    return f"U({n})/[{factors}]"


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
    n = _check_int(n, "orbit table dimension", 2, 8, DimensionOutOfRange)
    rows = [OrbitTableRow(p, _manifold_label(n, p), _flag_dimension(p))
            for p in _partitions(n)]
    rows.sort(key=lambda row: (row.dimension, row.partition))
    return rows


def write_orbit_table_csv(fh, rows) -> None:
    """`partition,manifold,dimension` with partitions like ``1+2``."""
    fh.write("partition,manifold,dimension\n")
    fh.writelines(f"{'+'.join(map(str, r.partition))},{r.manifold},{r.dimension}\n" for r in rows)
