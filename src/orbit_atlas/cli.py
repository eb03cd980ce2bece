"""Command-line frontend.

Subcommands wrap the library for batch use and dataset emission:

    orbit-atlas classify --input state.json
    orbit-atlas bloch --input state.json --to-vector [--check]
    orbit-atlas tables 2|...|8|sp [--output file.csv]
    orbit-atlas qutrit region|fig2|fig3|fraction [flags]

Exit codes: 0 success, 2 input/parse error (including unknown flags),
3 domain-validation error.  All runs are deterministic given identical
inputs and seeds.  The environment variable ORBIT_ATLAS_TOL overrides the
default validation tolerance; an explicit --tol wins over both.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import formats, orbits, qutrit, symplectic
from .exceptions import OrbitAtlasError, ParseError, ValidationError
from .linalg import DEFAULT_TOL, DensityMatrix, purity
from .orbits import DEFAULT_CLUSTER_TOL
from .pauli import (
    Convention,
    convert_convention,
    from_coherence_vector,
    is_physical_vector,
    to_coherence_vector,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3

#: CLI inputs this close to a domain edge are clamped onto it, so that
#: flag values like --c2 0.3333333 address the edge exactly.
EDGE_SNAP = 1e-6


def _default_tol() -> float:
    env = os.environ.get("ORBIT_ATLAS_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        return float(env)
    except ValueError as exc:
        raise ParseError(f"ORBIT_ATLAS_TOL is not a number: {env!r}") from exc


def _open_output(path):
    if path is None:
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8"), True
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _emit(args, writer) -> None:
    fh, owned = _open_output(getattr(args, "output", None))
    try:
        writer(fh)
    finally:
        if owned:
            fh.close()


def _snap(value: float, lo: float, hi: float, name: str) -> float:
    if lo - EDGE_SNAP <= value < lo:
        return lo
    if hi < value <= hi + EDGE_SNAP:
        return hi
    if not lo <= value <= hi:
        raise ParseError(f"{name}={value} outside [{formats.fmt(lo)}, {formats.fmt(hi)}]")
    return value


def cmd_classify(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    matrix = formats.parse_matrix_obj(formats.load_json(args.input))
    rho = DensityMatrix(matrix, tol=tol)
    sig = orbits.orbit_signature(rho, cluster_tol=args.cluster_tol)
    vec = to_coherence_vector(rho)
    report = {
        "dim": rho.dim,
        "spectrum": [formats.fmt(v) for v in rho.eigenvalues()],
        "distinct_values": [formats.fmt(v) for v in sig.distinct_values],
        "multiplicities": list(sig.multiplicities),
        "state_class": sig.state_class.value,
        "manifold": orbits.flag_manifold_name(sig),
        "orbit_dimension": orbits.orbit_dimension(sig),
        "entropy": formats.fmt(orbits.von_neumann_entropy(rho)),
        "coherence_radius": formats.fmt(vec.norm()),
        "purity": formats.fmt(purity(rho)),
    }
    _emit(args, lambda fh: formats.dump_json(report, fh))
    return EXIT_OK


def cmd_bloch(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    obj = formats.load_json(args.input)
    if args.to_vector:
        matrix = formats.parse_matrix_obj(obj)
        rho = DensityMatrix(matrix, tol=tol)
        vec = to_coherence_vector(rho)
        if args.convention == "bloch":
            vec = convert_convention(vec, Convention.BLOCH)
        out = formats.vector_to_obj(vec)
        checked = vec
    else:
        vec = formats.parse_vector_obj(obj)
        out = formats.matrix_to_obj(from_coherence_vector(vec))
        checked = vec
    if args.check:
        physical, smallest = is_physical_vector(
            convert_convention(checked, Convention.COHERENCE), tol=tol)
        out["physical"] = physical
        out["min_eigenvalue"] = float(formats.fmt(smallest))
    _emit(args, lambda fh: formats.dump_json(out, fh))
    return EXIT_OK


def cmd_tables(args) -> int:
    what = args.what
    if what == "sp":
        rows = symplectic.table2()
        _emit(args, lambda fh: formats.write_table2_csv(fh, rows))
        return EXIT_OK
    try:
        n = int(what)
    except ValueError:
        raise ParseError(f"tables argument must be 2..8 or 'sp', got {what!r}")
    if not 2 <= n <= 8:
        raise ParseError(f"tables argument must be 2..8 or 'sp', got {what!r}")
    rows = orbits.enumerate_orbit_table(n)
    _emit(args, lambda fh: formats.write_orbit_table_csv(fh, rows))
    return EXIT_OK


def _qutrit_c2(args) -> float:
    return _snap(args.c2, 1.0 / 3.0, 1.0, "--c2")


def cmd_qutrit(args) -> int:
    if args.kind != "fraction" and args.a_steps < 1:
        raise ParseError(f"--a-steps must be >= 1, got {args.a_steps}")
    if args.kind == "region":
        c2_grid, _ = qutrit.default_region_grid_axes()
        a_grid = np.linspace(qutrit.A_MIN_CANONICAL, 1.0, args.a_steps)
        records = qutrit.region_grid(c2_grid, a_grid)
        _emit(args, lambda fh: formats.write_region_csv(fh, records))
        return EXIT_OK
    if args.kind == "fig2":
        c2 = _qutrit_c2(args)
        points = qutrit.fig2_curve(c2, qutrit.hermitian_a_grid(c2, args.a_steps))
        _emit(args, lambda fh: formats.write_fig2_csv(fh, c2, points))
        return EXIT_OK
    if args.kind == "fig3":
        c2 = _qutrit_c2(args)
        points = qutrit.fig3_curve(c2, qutrit.hermitian_a_grid(c2, args.a_steps))
        _emit(args, lambda fh: formats.write_fig3_csv(fh, c2, points))
        return EXIT_OK
    # fraction
    n = args.n
    if n < 2:
        raise ParseError(f"--n must be >= 2, got {n}")
    c2 = _snap(args.c2, 1.0 / n, 1.0, "--c2")
    if args.samples < 1:
        raise ParseError(f"--samples must be >= 1, got {args.samples}")
    tol = args.tol if args.tol is not None else _default_tol()
    frac = qutrit.sphere_physical_fraction(n, c2, args.samples, args.seed, tol=tol)
    row = (n, c2, args.samples, frac, args.seed)
    _emit(args, lambda fh: formats.write_fractions_csv(fh, [row]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbit-atlas",
        description="Geometry of finite-dimensional quantum states: orbit "
                    "classification, coherence-vector embeddings, qutrit "
                    "feasibility datasets and symplectic orbit bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="orbit classification of one state")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--output", default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="validation tolerance (default ORBIT_ATLAS_TOL or 1e-9)")
    p.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL,
                   help="eigenvalue degeneracy tolerance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bloch", help="convert between matrix and vector forms")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-vector", action="store_true",
                           help="input is a matrix file; emit its vector")
    direction.add_argument("--to-matrix", action="store_true",
                           help="input is a vector file; emit its matrix")
    p.add_argument("--convention", choices=("coherence", "bloch"),
                   default="coherence", help="scaling of emitted vectors")
    p.add_argument("--check", action="store_true",
                   help="also report positivity and the smallest eigenvalue")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_bloch)

    p = sub.add_parser("tables", help="orbit dimension tables as CSV")
    p.add_argument("what", help="a dimension 2..8, or 'sp' for the symplectic table")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("qutrit", help="three-level feasibility datasets")
    p.add_argument("kind", choices=("region", "fig2", "fig3", "fraction"))
    p.add_argument("--output", default=None)
    p.add_argument("--c2", type=float, default=0.5, help="purity Tr(rho^2)")
    p.add_argument("--a-steps", type=int, default=qutrit.DEFAULT_A_STEPS)
    p.add_argument("--n", type=int, default=3, help="dimension for 'fraction'")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_qutrit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on unknown flags or bad values, which is
        # exactly the documented parse-error code; 0 (e.g. --help) passes
        # through unchanged.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OrbitAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
