"""Spans around orbit_atlas's public functions, installed from outside.

``Tracer.install`` replaces each function listed in ``FUNCTIONS`` with a
wrapper that records a span, everywhere the package binds it: on its own
module and under every name re-bound into another one (``cli.purity``,
``qutrit.basis_stack``, ...).  ``DensityMatrix`` construction and its
``eigenvalues`` method, numpy's Hermitian eigensolvers and, while the
package uses it, ``scipy.linalg.expm`` are spanned too.  ``uninstall``
restores every original.  Names missing from the package are skipped, so
the tracer keeps working as the package changes.

A span is ``[name, start, end, parent, op, raised]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``op`` the index of the
benchmark operation that caused it.  Spans stay in memory; ``layer_metrics``
reduces them to per-layer figures.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

#: (module, attribute) of every spanned function; the span is named
#: "<module>.<attribute>".
FUNCTIONS = (
    ("cli", "build_parser"), ("cli", "cmd_classify"), ("cli", "cmd_bloch"),
    ("cli", "cmd_tables"), ("cli", "cmd_qutrit"),
    ("formats", "load_json"), ("formats", "dump_json"),
    ("formats", "parse_matrix_obj"), ("formats", "parse_vector_obj"),
    ("formats", "matrix_to_obj"), ("formats", "vector_to_obj"),
    ("formats", "write_csv"),
    ("linalg", "purity"), ("linalg", "trace_invariants"),
    ("linalg", "hermitian_eigensystem"),
    ("orbits", "orbit_signature"), ("orbits", "von_neumann_entropy"),
    ("orbits", "enumerate_orbit_table"), ("orbits", "flag_manifold_name"),
    ("orbits", "orbit_dimension"),
    ("pauli", "to_coherence_vector"), ("pauli", "from_coherence_vector"),
    ("pauli", "is_physical_vector"), ("pauli", "convert_convention"),
    ("pauli", "basis_stack"), ("pauli", "generate_basis"),
    ("qutrit", "region_grid"), ("qutrit", "fig2_curve"), ("qutrit", "fig3_curve"),
    ("qutrit", "sphere_physical_fraction"),
    ("symplectic", "random_symplectic"), ("symplectic", "is_symplectic"),
    ("symplectic", "has_sp_block_form"), ("symplectic", "sp_orbit_bounds"),
    ("symplectic", "table2"),
)

EIGENSOLVERS = ("numpy.eigvalsh", "numpy.eigh")
MC_SPAN = "qutrit.sphere_physical_fraction"

NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        #: (n, samples, tracemalloc peak bytes) per Monte Carlo call
        self.mc_calls = []
        self._stack = []
        self._undo = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                stack.pop()
                rec[END] = clock()
        spanned.__wrapped__ = fn
        return spanned

    def _wrap_mc(self, fn):
        """Span the Monte Carlo sampler and record its size and peak allocation."""
        spanned = self.wrap(MC_SPAN, fn)
        signature = inspect.signature(fn)

        def measured(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            tracemalloc.start()
            try:
                return spanned(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.mc_calls.append((bound["n"], bound["samples"], peak))
        measured.__wrapped__ = fn
        return measured

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "orbit_atlas" or name.startswith("orbit_atlas."))]
        for module, attr in FUNCTIONS:
            mod = sys.modules.get("orbit_atlas." + module)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            name = f"{module}.{attr}"
            wrapped = self._wrap_mc(fn) if name == MC_SPAN else self.wrap(name, fn)
            for m in package:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    self._set(m, key, wrapped)
        cls = getattr(sys.modules.get("orbit_atlas.linalg"), "DensityMatrix", None)
        if cls is not None:
            self._set(cls, "__init__", self.wrap("linalg.DensityMatrix", cls.__init__))
            self._set(cls, "eigenvalues", self.wrap("linalg.eigenvalues", cls.eigenvalues))
        for solver in EIGENSOLVERS:
            attr = solver.split(".")[1]
            self._set(np.linalg, attr, self.wrap(solver, getattr(np.linalg, attr)))
        scipy_linalg = sys.modules.get("scipy.linalg")
        if scipy_linalg is not None:
            self._set(scipy_linalg, "expm", self.wrap("symplectic.expm", scipy_linalg.expm))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# Per-layer reduction

#: metric -> span whose inclusive time it reports, in ms per op
INCLUSIVE_MS = {
    "formats.load_json_ms": "formats.load_json",
    "formats.parse_matrix_obj_ms": "formats.parse_matrix_obj",
    "formats.parse_vector_obj_ms": "formats.parse_vector_obj",
    "formats.dump_json_ms": "formats.dump_json",
    "formats.write_csv_ms": "formats.write_csv",
    "linalg.DensityMatrix_ms": "linalg.DensityMatrix",
    "linalg.eigenvalues_ms": "linalg.eigenvalues",
    "linalg.purity_ms": "linalg.purity",
    "orbits.von_neumann_entropy_ms": "orbits.von_neumann_entropy",
    "orbits.enumerate_orbit_table_ms": "orbits.enumerate_orbit_table",
    "pauli.to_coherence_vector_ms": "pauli.to_coherence_vector",
    "pauli.from_coherence_vector_ms": "pauli.from_coherence_vector",
    "qutrit.region_grid_ms": "qutrit.region_grid",
    "qutrit.fig2_curve_ms": "qutrit.fig2_curve",
    "qutrit.fig3_curve_ms": "qutrit.fig3_curve",
    "symplectic.expm_ms": "symplectic.expm",
    "symplectic.is_symplectic_ms": "symplectic.is_symplectic",
    "symplectic.has_sp_block_form_ms": "symplectic.has_sp_block_form",
    "symplectic.sp_orbit_bounds_ms": "symplectic.sp_orbit_bounds",
    "symplectic.table2_ms": "symplectic.table2",
}

#: metric -> span whose self time (minus its children's spans) it reports
SELF_MS = {
    "cli.cmd_classify_self_ms": "cli.cmd_classify",
    "cli.cmd_bloch_self_ms": "cli.cmd_bloch",
    "orbits.orbit_signature_self_ms": "orbits.orbit_signature",
    "pauli.is_physical_vector_self_ms": "pauli.is_physical_vector",
    "symplectic.random_symplectic_self_ms": "symplectic.random_symplectic",
    "qutrit.mc_assembly_ms": MC_SPAN,
}


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer figures over ``ops`` traced operations: name -> (value, unit).

    Times are ms per op; ``pauli.basis_stack_ms`` is the total over the
    traced run, which is dominated by the cache fill of its first calls.
    """
    spans = tracer.spans
    own = self_times(spans)
    inclusive = defaultdict(float)
    exclusive = defaultdict(float)
    for s, t in zip(spans, own):
        inclusive[s[NAME]] += s[END] - s[START]
        exclusive[s[NAME]] += t
    per_op = 1e3 / max(ops, 1)
    out = {m: (inclusive[s] * per_op, "ms/op") for m, s in INCLUSIVE_MS.items()}
    out.update({m: (exclusive[s] * per_op, "ms/op") for m, s in SELF_MS.items()})
    out["pauli.basis_stack_ms"] = (inclusive["pauli.basis_stack"] * 1e3, "ms")

    positivity = sum(s[END] - s[START] for s in spans
                     if s[NAME] in EIGENSOLVERS and s[PARENT] >= 0
                     and spans[s[PARENT]][NAME] == MC_SPAN)
    out["qutrit.mc_positivity_ms"] = (positivity * per_op, "ms/op")
    out["qutrit.mc_peak_alloc_mb"] = (
        max((peak for _, _, peak in tracer.mc_calls), default=0) / 2 ** 20, "MiB")
    out["qutrit.mc_bytes_computed"] = (
        sum(samples * n * n * 16 for n, samples, _ in tracer.mc_calls) / max(ops, 1), "B/op")

    solves = [i for i, s in enumerate(spans) if s[NAME] in EIGENSOLVERS]
    out["linalg.eigensolves_per_op"] = (len(solves) / max(ops, 1), "count/op")
    classify_ok = {i for i, s in enumerate(spans)
                   if s[NAME] == "cli.cmd_classify" and not s[RAISED]}
    in_classify = sum(1 for i in solves if _ancestor_in(spans, i, classify_ok))
    out["linalg.eigensolves_per_classify"] = (
        in_classify / max(len(classify_ok), 1), "count/op")
    return out


def _ancestor_in(spans, i: int, candidates: set) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if parent in candidates:
            return True
        parent = spans[parent][PARENT]
    return False
