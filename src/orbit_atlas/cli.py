"""Command-line frontend.

Subcommands wrap the library for batch use and dataset emission.  Each
takes only the flags listed here and refuses any other; every one also
takes --output F (default stdout):

    orbit-atlas classify --input F [--tol T] [--cluster-tol T]
    orbit-atlas bloch --input F --to-vector [--convention coherence|bloch]
                      [--check] [--tol T]
    orbit-atlas bloch --input F --to-matrix [--check [--tol T]]
    orbit-atlas tables 2|...|8|sp
    orbit-atlas qutrit region [--a-steps N]
    orbit-atlas qutrit fig2|fig3 [--c2 P] [--a-steps N]
    orbit-atlas qutrit fraction [--n N] [--c2 P] [--samples S] [--seed K] [--tol T]

Options follow the qutrit kind (``qutrit fig3 --c2 0.6``, not ``qutrit
--c2 0.6 fig3``).  Exit codes: 0 success, 2 input/parse error (including
unknown flags, flags the command does not take and a stdout closed before
the output was written), 3 domain-validation error.  All runs are
deterministic given identical inputs and seeds.  The environment variable
ORBIT_ATLAS_TOL overrides the default validation tolerance; an explicit
--tol wins over both.
"""

from __future__ import annotations

import argparse
import os
import sys

# numpy-free imports only: parsing, --help, argument errors and tables 2..8
# start without numpy, and each command imports the modules it computes with
from . import core
from .core import DEFAULT_A_STEPS, DEFAULT_CLUSTER_TOL, DEFAULT_TOL, Convention
from .exceptions import OrbitAtlasError, ParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3

#: CLI inputs this close to a domain edge are clamped onto it, so that
#: flag values like --c2 0.3333333 address the edge exactly.
EDGE_SNAP = 1e-6


def _tol(args) -> float:
    """--tol, else ORBIT_ATLAS_TOL, else DEFAULT_TOL."""
    if args.tol is not None:
        return args.tol
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
    fh, owned = _open_output(args.output)
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
        raise ParseError(f"{name}={value} outside [{core.fmt(lo)}, {core.fmt(hi)}]")
    return value


def cmd_classify(args) -> int:
    from . import formats, linalg, orbits, pauli
    tol = _tol(args)
    matrix = formats.parse_matrix_obj(formats.load_json(args.input))
    rho = linalg.DensityMatrix(matrix, tol=tol)
    sig = orbits.orbit_signature(rho, cluster_tol=args.cluster_tol)
    vec = pauli.to_coherence_vector(rho)
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
        "purity": formats.fmt(linalg.purity(rho)),
    }
    _emit(args, lambda fh: formats.dump_json(report, fh))
    return EXIT_OK


def cmd_bloch(args) -> int:
    from . import formats, linalg, pauli
    if args.to_matrix and args.convention is not None:
        raise ParseError("--convention applies to --to-vector only")
    if args.to_matrix and args.tol is not None and not args.check:
        raise ParseError("--tol applies to --to-vector or --check only")
    tol = _tol(args)
    obj = formats.load_json(args.input)
    if args.to_vector:
        rho = linalg.DensityMatrix(formats.parse_matrix_obj(obj), tol=tol)
        vec = pauli.to_coherence_vector(rho)
        if args.convention is not None:
            vec = pauli.convert_convention(vec, args.convention)
        out = formats.vector_to_obj(vec)
    else:
        vec = formats.parse_vector_obj(obj)
        out = formats.matrix_to_obj(pauli.from_coherence_vector(vec))
    if args.check:
        physical, smallest = pauli.is_physical_vector(vec, tol=tol)
        out["physical"] = physical
        out["min_eigenvalue"] = float(formats.fmt(smallest))
    _emit(args, lambda fh: formats.dump_json(out, fh))
    return EXIT_OK


def cmd_tables(args) -> int:
    if args.what == "sp":
        from . import formats, symplectic
        rows = symplectic.table2()
        _emit(args, lambda fh: formats.write_table2_csv(fh, rows))
    else:
        rows = core.enumerate_orbit_table(int(args.what))
        _emit(args, lambda fh: core.write_orbit_table_csv(fh, rows))
    return EXIT_OK


def _at_least(value: int, low: int, flag: str) -> int:
    if value < low:
        raise ParseError(f"{flag} must be >= {low}, got {value}")
    return value


def cmd_qutrit(args) -> int:
    # every argument check comes before the imports, so a refusal starts no numpy
    if args.kind == "fraction":
        n = _at_least(args.n, 2, "--n")
        core._check_dense_dim(n)  # above the dense cap: exit 3
        # the purity-1/n sphere is one point, so no snap onto it
        if not 1.0 / n < args.c2 <= 1.0 + EDGE_SNAP:
            raise ParseError(f"--c2={args.c2} outside (1/{n}, 1]")
        c2 = min(args.c2, 1.0)
        samples = _at_least(args.samples, 1, "--samples")
        seed = _at_least(args.seed, 0, "--seed")
        tol = core._check_state_tol(_tol(args), n)
        from . import formats, qutrit
        frac = qutrit.sphere_physical_fraction(n, c2, samples, seed, tol=tol)
        row = (n, c2, samples, frac, seed)
        _emit(args, lambda fh: formats.write_fractions_csv(fh, [row]))
        return EXIT_OK
    steps = _at_least(args.a_steps, 1, "--a-steps")
    core._check_int(steps, "--a-steps", 1, core.MAX_A_STEPS)  # above the cap: exit 3
    if args.kind != "region":
        c2 = _snap(args.c2, 1.0 / 3.0, 1.0, "--c2")
    from . import formats, qutrit
    if args.kind == "region":
        c2_axis, a_axis = qutrit.default_region_grid_axes(steps)
        _emit(args, lambda fh: formats.write_region_csv(fh, c2_axis, a_axis))
        return EXIT_OK
    a_grid = qutrit.hermitian_a_grid(c2, steps)
    if args.kind == "fig2":
        points = qutrit.fig2_curve(c2, a_grid)
        _emit(args, lambda fh: formats.write_fig2_csv(fh, c2, points))
    else:
        points = qutrit.fig3_curve(c2, a_grid)
        _emit(args, lambda fh: formats.write_fig3_csv(fh, c2, points))
    return EXIT_OK


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A help-less parent parser declaring one shared flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    output = _flag("--output", help="write to this file instead of stdout")
    tol = _flag("--tol", type=float,
                help="validation tolerance (default ORBIT_ATLAS_TOL or 1e-9)")
    input_ = _flag("--input", required=True, help="JSON input file")
    a_steps = _flag("--a-steps", type=int, default=DEFAULT_A_STEPS,
                    help="number of a-values in the grid")
    c2 = _flag("--c2", type=float, default=0.5, help="purity Tr(rho^2)")

    parser = argparse.ArgumentParser(
        prog="orbit-atlas",
        description="Geometry of finite-dimensional quantum states: orbit "
                    "classification, coherence-vector embeddings, qutrit "
                    "feasibility datasets and symplectic orbit bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[input_, output, tol],
                       help="orbit classification of one state")
    p.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL,
                   help="eigenvalue degeneracy tolerance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bloch", parents=[input_, output, tol],
                       help="convert between matrix and vector forms")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-vector", action="store_true",
                           help="input is a matrix file; emit its vector")
    direction.add_argument("--to-matrix", action="store_true",
                           help="input is a vector file; emit its matrix")
    p.add_argument("--convention", choices=[c.value for c in Convention],
                   help="scaling of the --to-vector output (default coherence)")
    p.add_argument("--check", action="store_true",
                   help="also report positivity and the smallest eigenvalue")
    p.set_defaults(func=cmd_bloch)

    p = sub.add_parser("tables", parents=[output], help="orbit dimension tables as CSV")
    p.add_argument("what", choices=[str(n) for n in range(2, 9)] + ["sp"],
                   help="a dimension 2..8, or 'sp' for the symplectic table")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("qutrit", help="three-level feasibility datasets")
    p.set_defaults(func=cmd_qutrit)
    kinds = p.add_subparsers(dest="kind", required=True)
    kinds.add_parser("region", parents=[output, a_steps], help="classified (a, c2) grid")
    kinds.add_parser("fig2", parents=[output, a_steps, c2], help="a + b at fixed purity")
    kinds.add_parser("fig3", parents=[output, a_steps, c2], help="entropy at fixed purity")
    p = kinds.add_parser("fraction", parents=[output, tol, c2],
                         help="Monte Carlo physical fraction of a purity sphere")
    p.add_argument("--n", type=int, default=3, help="dimension")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OrbitAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
