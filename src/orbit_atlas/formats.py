"""File formats: JSON matrices/vectors and CSV datasets.

Matrix files:  {"dim": n, "re": [[...]], "im": [[...]]} with both arrays
exactly n x n; "im" may be omitted and defaults to zero.

Vector files:  {"dim": n, "convention": "coherence"|"bloch",
                "components": [n^2 - 1 reals]}.

All numeric output is printed with 12 significant digits so repeated runs
are byte-identical and round-trips stay within documented tolerances.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

# the number format and the orbit table's writer are numpy-free, in
# ``core``, and re-exported here
from .core import FLOAT, Convention, fmt, write_orbit_table_csv
from .exceptions import ParseError, ValidationError
from .pauli import CoherenceVector


def _format_rows(template: str, rows) -> str:
    """Every row of a 2-D float array through the ``%`` template ``template``,
    as one string.  Each value is printed as ``fmt`` prints it."""
    rows = np.asarray(rows, dtype=float)
    return (template * len(rows)) % tuple((rows + 0.0).ravel().tolist())


def _num(x) -> float:
    # round-trips through the 12-digit text form so that in-memory JSON
    # objects match what a file written by this module would contain
    return float(fmt(x))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _number_array(value, name: str, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape``, each leaf a JSON number."""
    try:
        array = np.array(value, dtype=float)
    # OverflowError: an integer too large for a double
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f'"{name}" entries are not numeric: {exc}') from exc
    _require(array.shape == shape, f'"{name}" must have shape {shape}, got {array.shape}')
    # numpy reads "0.5" and true as numbers; exact types refuse bool, which
    # is an int
    leaves = value if array.ndim == 1 else itertools.chain.from_iterable(value)
    _require(set(map(type, leaves)) <= {float, int}, f'"{name}" entries must be JSON numbers')
    return array


def parse_matrix_obj(obj) -> np.ndarray:
    _require(isinstance(obj, dict), "matrix file must hold a JSON object")
    _require("dim" in obj, 'matrix file missing "dim"')
    _require("re" in obj, 'matrix file missing "re"')
    n = obj["dim"]
    # type, not isinstance: JSON true is a bool, and bool is an int
    _require(type(n) is int and n >= 1, f'"dim" must be a positive integer, got {n!r}')
    # "re" is checked first: its shape bounds the zeros of a missing "im"
    re = _number_array(obj["re"], "re", (n, n))
    im_raw = obj.get("im")
    im = np.zeros((n, n)) if im_raw is None else _number_array(im_raw, "im", (n, n))
    # not re + 1j * im: 1j * inf is nan + inf j, and numpy warns
    m = np.empty((n, n), dtype=np.complex128)
    m.real, m.imag = re, im
    return m


def matrix_to_obj(matrix) -> dict:
    m = np.asarray(matrix, dtype=np.complex128)
    return {
        "dim": int(m.shape[0]),
        "re": [[_num(v) for v in row] for row in m.real],
        "im": [[_num(v) for v in row] for row in m.imag],
    }


def parse_vector_obj(obj) -> CoherenceVector:
    _require(isinstance(obj, dict), "vector file must hold a JSON object")
    for key in ("dim", "convention", "components"):
        _require(key in obj, f'vector file missing "{key}"')
    n = obj["dim"]
    _require(type(n) is int and n >= 2, f'"dim" must be an integer >= 2, got {n!r}')
    try:
        conv = Convention(obj["convention"])
    except ValidationError:
        names = " or ".join(f'"{c.value}"' for c in Convention)
        raise ParseError(f'"convention" must be {names}, got {obj["convention"]!r}') from None
    comps = _number_array(obj["components"], "components", (n * n - 1,))
    return CoherenceVector(dim=n, components=comps, convention=conv)


def vector_to_obj(vec: CoherenceVector) -> dict:
    return {
        "dim": vec.dim,
        "convention": vec.convention.value,
        "components": [_num(v) for v in vec.components],
    }


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # JSON text is UTF-8, the decoder recurses once per nesting level, and
    # int() refuses a literal past sys.get_int_max_str_digits(); the decode
    # errors are all ValueErrors
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def dump_json(obj, fh) -> None:
    json.dump(obj, fh, indent=2, sort_keys=False)
    fh.write("\n")


# --------------------------------------------------------------------------
# CSV emission.  Each writer formats its own columns: floats by ``FLOAT``,
# integers through ``str``.  The qutrit dataset writers format whole float
# columns with ``_format_rows``, never one point at a time.

def write_region_csv(fh, c2_values, a_values) -> None:
    """`a,c2,class,curve1,curve2,curve3` over the (c2, a) grid, c2-major.

    The a cells and curve triples are formatted once, and each c2 row, one
    at a time, joins them around its `c2,class` cell, one per class.
    """
    from . import qutrit  # only the region writer computes with it
    a = np.asarray(a_values, dtype=float)
    curves, rows = qutrit._region_code_rows(c2_values, a)
    # the cells of grid point i in row c2: parts[3i:3i + 3], that is
    # "a,", "c2,class" and ",curve1,curve2,curve3\n"
    parts = [""] * (3 * len(a))
    parts[0::3] = _format_rows(FLOAT + ",\n", a[:, None]).splitlines()
    parts[2::3] = _format_rows(f",{FLOAT},{FLOAT},{FLOAT}\n", curves).splitlines(keepends=True)
    fh.write("a,c2,class,curve1,curve2,curve3\n")
    for c2_value, codes in rows:
        c2 = fmt(c2_value)
        cells = np.array([f"{c2},{k.value}" for k in qutrit._CLASS_ORDER], dtype=object)
        parts[1::3] = cells[codes].tolist()
        fh.write("".join(parts))


def _write_curve_csv(fh, column, c2, points) -> None:
    """`c2,a,<column>` rows of one figure curve at purity c2; ``points`` is
    an (N, 2) array of (a, value) rows."""
    fh.write(f"c2,a,{column}\n" + _format_rows(f"{fmt(c2)},{FLOAT},{FLOAT}\n", points))


def write_fig2_csv(fh, c2, points) -> None:
    _write_curve_csv(fh, "a_plus_b", c2, points)


def write_fig3_csv(fh, c2, points) -> None:
    _write_curve_csv(fh, "entropy", c2, points)


def write_fractions_csv(fh, rows) -> None:
    """Rows of (n, c2, samples, fraction, seed)."""
    fh.write("n,c2,samples,fraction,seed\n")
    fh.writelines(f"{n},{fmt(c2)},{samples},{fmt(fraction)},{seed}\n"
                  for n, c2, samples, fraction, seed in rows)


def write_table2_csv(fh, rows) -> None:
    """Table 2 rows; the comma-separated pattern is quoted."""
    fh.write("pattern,unitary_dim,paper_bound,computed_bound,exact\n")
    fh.writelines(f'"{r.pattern}",{r.unitary_dim},{r.paper_bound},'
                  f"{r.computed_bound},{str(r.exact).lower()}\n" for r in rows)
