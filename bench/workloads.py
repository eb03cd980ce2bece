"""The four benchmark workloads: seeded inputs, the operations that drive
orbit_atlas with them, and the checks that score every outcome.

Each workload is one *pass*: a fixed list of operations whose composition
does not depend on the seed; the seed only draws the input values (and the
per-pass order, chosen by the caller).  Every operation is closed-loop: the
next one starts when the previous one returns.

* ``states``     - the CLI ``classify`` / ``bloch`` stream, driven in-process.
* ``montecarlo`` - ``qutrit fraction`` over a fixed (n, c2, samples) grid.
* ``datasets``   - ``qutrit region|fig2|fig3`` and ``tables`` CSV emission.
* ``symplectic`` - Sp(n) draws, membership tests, conjugated Sp-pattern
                   states and orbit bounds, through the library API.

Expected outcomes come from the construction of each input (the spectrum a
state was built from, an independent coherence-vector reference) or from
outputs recorded at the seed commit (``goldens.json``), never from the code
under test at run time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from orbit_atlas import cli, linalg, orbits, symplectic
from orbit_atlas.exceptions import (
    AmbiguousClustering,
    NotHermitian,
    NotPositiveSemidefinite,
    NotUnitTrace,
    OrbitAtlasError,
    ParseError,
    ValidationError,
)

GOLDENS_PATH = pathlib.Path(__file__).with_name("goldens.json")

#: Absolute tolerance for reported reals against their constructed values.
#: Reports print 12 significant digits, so 1e-9 leaves ample headroom.
VALUE_TOL = 1e-9

#: Validation tolerance the CLI uses when neither --tol nor ORBIT_ATLAS_TOL is set.
CLI_TOL = 1e-9


@dataclass
class Op:
    """One closed-loop operation.

    ``run`` performs it and returns its output; ``check(out, err)`` scores
    the outcome, ``err`` being the exception ``run`` raised, if any.
    ``work`` counts the samples or CSV rows the op produces.  A
    ``known_defect`` op exercises a defect reproduced at the seed commit:
    it is scored against the correct outcome like any other, so it counts
    as failed until the defect is fixed, but it does not make a run
    incorrect.
    """

    key: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], bool]
    work: int = 1
    known_defect: bool = False


@dataclass
class Workload:
    ops: list          # one pass
    final: list        # checked once after the timed passes, untimed
    work_unit: str     # what ``Op.work`` counts


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# CLI plumbing

def cli_call(args) -> str:
    """Run one parsed CLI command in-process and return its stdout.

    The handler is looked up on ``cli`` at call time, so spans installed on
    the module see the call.
    """
    handler = getattr(cli, "cmd_" + args.command)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        handler(args)
    return buf.getvalue()


def exit_code(err) -> int | None:
    """The exit code ``cli.main`` gives for ``err``; None for an error it
    does not handle as documented (anything but an OrbitAtlasError)."""
    if err is None:
        return 0
    if isinstance(err, ParseError):
        return 2
    if isinstance(err, OrbitAtlasError):
        return 3
    return None


def rejected_as(kind) -> Callable:
    """Check that an op was refused with exit code 3 by an error of ``kind``."""
    return lambda out, err: exit_code(err) == 3 and isinstance(err, kind)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Reference constructions, independent of the code under test

def haar_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def spread_values(rng, r: int) -> np.ndarray:
    """r positive, strictly decreasing values at least 0.5 apart."""
    ints = rng.choice(4 * r, size=r, replace=False) + 1.0
    return np.sort(ints + rng.uniform(0.0, 0.5, r))[::-1]


def random_mults(rng, n: int) -> list:
    """A multiplicity pattern of state class OtherDegenerate (needs n >= 4)."""
    while True:
        r = int(rng.integers(2, n))
        cuts = np.sort(rng.choice(np.arange(1, n), size=r - 1, replace=False))
        mults = np.diff(np.concatenate([[0], cuts, [n]])).tolist()
        if sorted(mults) != [1, n - 1]:
            return mults


CLASSES = ("CompletelyRandom", "Pure", "PseudoPure", "Generic", "OtherDegenerate")


def class_spectrum(rng, n: int, kind: str) -> tuple[list, list]:
    """Distinct values (decreasing) and multiplicities of a spectrum of one
    state class; every gap between distinct values is far above 1e-8."""
    if kind == "CompletelyRandom":
        return [1.0 / n], [n]
    if kind == "Pure":
        return [1.0, 0.0], [1, n - 1]
    if kind == "PseudoPure":
        # the single eigenvalue above or below the (n-1)-fold block
        mults = [1, n - 1] if rng.random() < 0.5 else [n - 1, 1]
    elif kind == "Generic":
        mults = [1] * n
    else:
        mults = random_mults(rng, n)
    values = spread_values(rng, len(mults))
    return (values / (values * np.array(mults)).sum()).tolist(), mults


def expected_class(n: int, values, mults) -> str:
    """State class by its definition, from an exactly constructed spectrum."""
    r = len(values)
    if r == 1:
        return "CompletelyRandom"
    if r == 2 and sorted(mults) == [1, n - 1]:
        single = values[0] if mults[0] == 1 else values[1]
        block = values[1] if mults[0] == 1 else values[0]
        return "Pure" if single == 1.0 and block == 0.0 else "PseudoPure"
    if r == n:
        return "Generic"
    return "OtherDegenerate"


def expected_manifold(n: int, mults) -> str:
    if len(mults) == 1:
        return "point"
    label = f"U({n})/[" + "x".join(f"U({m})" for m in mults) + "]"
    if len(mults) == 2 and sorted(mults) == [1, n - 1]:
        label += f" = CP^{n - 1}"
    return label


def entropy(w) -> float:
    w = np.asarray(w, dtype=float)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def conjugated(u: np.ndarray, w) -> np.ndarray:
    m = (u * np.asarray(w, dtype=float)[None, :]) @ u.conj().T
    return (m + m.conj().T) / 2.0


def coherence_components(m: np.ndarray) -> np.ndarray:
    """Components Tr(m sigma_k) in the documented generalized Pauli order:
    symmetric pairs, antisymmetric pairs, then the n - 1 diagonal elements."""
    n = m.shape[0]
    r, s = np.triu_indices(n, 1)
    d = m.diagonal().real
    k = np.arange(1, n)
    return np.concatenate([
        math.sqrt(2.0) * m[r, s].real,
        -math.sqrt(2.0) * m[r, s].imag,
        (np.cumsum(d)[:-1] - k * d[1:]) / np.sqrt(k * (k + 1.0)),
    ])


def matrix_from_components(n: int, comps) -> np.ndarray:
    """Inverse of ``coherence_components``: I/n + sum_k s_k sigma_k."""
    comps = np.asarray(comps, dtype=float)
    r, s = np.triu_indices(n, 1)
    p = r.shape[0]
    m = np.zeros((n, n), dtype=np.complex128)
    off = (comps[:p] - 1j * comps[p:2 * p]) / math.sqrt(2.0)
    m[r, s] = off
    m[s, r] = off.conj()
    diag = np.full(n, 1.0 / n)
    for k in range(1, n):
        c = comps[2 * p + k - 1] / math.sqrt(k * (k + 1.0))
        diag[:k] += c
        diag[k] -= k * c
    m[np.diag_indices(n)] = diag
    return m


def write_json(path: pathlib.Path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def matrix_obj(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def close(a, b, tol: float = VALUE_TOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


# --------------------------------------------------------------------------
# states

STATE_NS = (2, 3, 4, 8, 16)
LARGE_NS = (32, 64, 64, 64)
#: Ops per block: classify, then bloch in each direction; the 7 classify
#: rejects and the LARGE_NS states are part of CLASSIFY_OPS.
CLASSIFY_OPS = 140
BLOCH_OPS = 30
STATE_COPIES = 2


@dataclass
class Spectrum:
    n: int
    values: list
    mults: list

    @property
    def w(self) -> np.ndarray:
        return np.repeat(self.values, self.mults)


def classes_for(n: int) -> tuple:
    # OtherDegenerate needs a pattern that is neither {n}, {1, n-1} nor all ones
    return CLASSES if n >= 4 else CLASSES[:4]


def check_report(spec: Spectrum) -> Callable:
    """Score a ``classify`` report against the spectrum it was built from."""
    w = spec.w
    n = spec.n
    purity = float((w ** 2).sum())

    def check(out, err):
        if err is not None:
            return False
        rep = json.loads(out)
        radius = float(rep["coherence_radius"])
        return (rep["dim"] == n
                and close([float(x) for x in rep["spectrum"]], w)
                and close([float(x) for x in rep["distinct_values"]], spec.values)
                and rep["multiplicities"] == list(spec.mults)
                and rep["state_class"] == expected_class(n, spec.values, spec.mults)
                and rep["manifold"] == expected_manifold(n, spec.mults)
                and rep["orbit_dimension"] == n * n - sum(m * m for m in spec.mults)
                and abs(float(rep["entropy"]) - entropy(w)) <= VALUE_TOL
                and abs(float(rep["purity"]) - purity) <= VALUE_TOL
                and abs(radius * radius - (purity - 1.0 / n)) <= VALUE_TOL)
    return check


def check_vector(n: int, comps, convention: str, min_eig: float) -> Callable:
    def check(out, err):
        if err is not None:
            return False
        obj = json.loads(out)
        return (obj["dim"] == n and obj["convention"] == convention
                and close(obj["components"], comps)
                and obj["physical"] is True
                and abs(obj["min_eigenvalue"] - min_eig) <= VALUE_TOL)
    return check


def check_matrix(m: np.ndarray, physical: bool, min_eig: float) -> Callable:
    def check(out, err):
        if err is not None:
            return False
        obj = json.loads(out)
        return (obj["dim"] == m.shape[0]
                and close(obj["re"], m.real) and close(obj["im"], m.imag)
                and obj["physical"] is physical
                and abs(obj["min_eigenvalue"] - min_eig) <= VALUE_TOL)
    return check


def build_states(rng, workdir: pathlib.Path) -> Workload:
    parser = cli.build_parser()
    ops = []
    rejects = 7  # the reject/* ops below

    def add(argv_tail, payload, check, key, known_defect=False):
        path = write_json(workdir / f"state{len(ops):04d}.json", payload)
        args = parser.parse_args([argv_tail[0], "--input", path] + argv_tail[1:])
        ops.append(Op(key=f"{key}#{len(ops)}", run=lambda: cli_call(args),
                      check=check, known_defect=known_defect))

    def state(n, kind):
        values, mults = class_spectrum(rng, n, kind)
        spec = Spectrum(n, values, mults)
        return spec, conjugated(haar_unitary(rng, n), spec.w)

    def rotated(w):
        return conjugated(haar_unitary(rng, len(w)), w)

    # the pass holds STATE_COPIES independently drawn blocks of this mix,
    # so no single input's cost dominates it
    for _ in range(STATE_COPIES):
        # classify: valid states at n <= 16 covering every state class
        for i in range(CLASSIFY_OPS - len(LARGE_NS) - rejects):
            n = STATE_NS[i % len(STATE_NS)]
            kinds = classes_for(n)
            spec, m = state(n, kinds[(i // len(STATE_NS)) % len(kinds)])
            add(["classify"], matrix_obj(m), check_report(spec), f"classify/n{n}")

        # known defect: the report's coherence radius goes through the Pauli
        # basis, which stops at n = 16, so valid states at n = 32, 64 are refused
        for n in LARGE_NS:
            spec, m = state(n, CLASSES[int(rng.integers(len(CLASSES)))])
            add(["classify"], matrix_obj(m), check_report(spec), f"classify/n{n}",
                known_defect=True)

        m = rotated([0.4, 0.3, 0.2, 0.1])
        m[0, 1] += 1e-6
        add(["classify"], matrix_obj(m), rejected_as(NotHermitian), "reject/hermitian")
        add(["classify"], matrix_obj(1.01 * rotated([0.5, 0.3, 0.2])),
            rejected_as(NotUnitTrace), "reject/trace")
        add(["classify"], matrix_obj(rotated([0.5, 0.3, 0.25, -0.05])),
            rejected_as(NotPositiveSemidefinite), "reject/negative")
        # two eigenvalues 1.5e-8 apart: separate clusters whose means lie within
        # 2 * cluster_tol, which must be refused as ambiguous
        add(["classify"],
            matrix_obj(rotated([0.4, 0.25 + 0.75e-8, 0.25 - 0.75e-8, 0.1])),
            rejected_as(AmbiguousClustering), "reject/ambiguous")
        # known defect: NaN passes every `defect > tol` test and is classified
        m = rotated([0.5, 0.3, 0.2])
        m[0, 1] = m[1, 0] = math.nan
        add(["classify"], matrix_obj(m), rejected_as(ValidationError), "reject/nan",
            known_defect=True)
        # known defect: an infinite entry leaks numpy's LinAlgError
        m = rotated([0.5, 0.3, 0.2])
        m[0, 1] = m[1, 0] = math.inf
        add(["classify"], matrix_obj(m), rejected_as(ValidationError), "reject/inf",
            known_defect=True)
        # known defect: four eigenvalues spaced 0.9e-8 apart chain into one
        # 4-fold "degeneracy" 2.7e-8 wide instead of being refused as ambiguous
        chain = [0.1 + d * 1e-8 for d in (1.35, 0.45, -0.45, -1.35)]
        add(["classify"], matrix_obj(rotated([0.3, 0.2] + chain + [0.06, 0.04])),
            rejected_as(OrbitAtlasError), "reject/chain", known_defect=True)

        # bloch --to-vector --check, in both output conventions
        for i in range(BLOCH_OPS):
            n = STATE_NS[i % len(STATE_NS)]
            spec, m = state(n, classes_for(n)[i % len(classes_for(n))])
            convention = ("coherence", "bloch")[i % 2]
            comps = coherence_components(m) * (2.0 if convention == "bloch" else 1.0)
            add(["bloch", "--to-vector", "--check", "--convention", convention],
                matrix_obj(m), check_vector(n, comps, convention, float(spec.w.min())),
                f"to-vector/n{n}")

        # bloch --to-matrix --check: coherence vectors of states, and random
        # points of the fixed-purity sphere, most of them not physical for n > 2
        for i in range(BLOCH_OPS):
            n = STATE_NS[i % len(STATE_NS)]
            if i % 2 == 0:
                spec, m = state(n, classes_for(n)[i % len(classes_for(n))])
                comps = coherence_components(m)
                physical, min_eig = True, float(spec.w.min())
            else:
                while True:
                    g = rng.standard_normal(n * n - 1)
                    c2 = rng.uniform(1.0 / n, 1.0)
                    comps = g * (math.sqrt(c2 - 1.0 / n) / np.linalg.norm(g))
                    m = matrix_from_components(n, comps)
                    min_eig = float(np.linalg.eigvalsh(m)[0])
                    # keep clear of the positivity threshold, where the verdict
                    # would depend on rounding
                    if abs(min_eig + CLI_TOL * n) > 1e-6:
                        break
                physical = min_eig >= -CLI_TOL * n
            convention = ("coherence", "bloch")[(i // 2) % 2]
            scale = 2.0 if convention == "bloch" else 1.0
            add(["bloch", "--to-matrix", "--check"],
                {"dim": n, "convention": convention, "components": (comps * scale).tolist()},
                check_matrix(m, physical, min_eig), f"to-matrix/n{n}")

    return Workload(ops, [], "ops")


# --------------------------------------------------------------------------
# montecarlo

#: Each n has one all-physical, one mixed and one none-physical purity, so a
#: positivity test shows its cost in every regime; the 50k call is the
#: memory-peak case.
MC_GRID = (
    (3, "0.45", 20000), (3, "0.6", 20000), (3, "0.8", 20000),
    (8, "0.16", 10000), (8, "0.18", 10000), (8, "0.22", 10000),
    (16, "0.075", 10000), (16, "0.085", 10000), (16, "0.1", 10000),
    (16, "0.085", 50000),
)
#: Sampler seeds whose outputs were recorded at the seed commit.
MC_SEEDS = tuple(range(8))
#: The rows of the committed demos/output/fractions.csv.
FRACTIONS_CSV_C2 = ("0.5", "0.6", "0.7", "0.8", "0.9", "1.0")


def fraction_argv(n, c2, samples, seed) -> list:
    return ["qutrit", "fraction", "--n", str(n), "--c2", c2,
            "--samples", str(samples), "--seed", str(seed)]


def fraction_key(n, c2, samples, seed) -> str:
    return f"n={n} c2={c2} samples={samples} seed={seed}"


def build_montecarlo(rng, goldens: dict) -> Workload:
    parser = cli.build_parser()
    expected = goldens["montecarlo"]

    def op(n, c2, samples, seed, want):
        args = parser.parse_args(fraction_argv(n, c2, samples, seed))
        return Op(key=fraction_key(n, c2, samples, seed), run=lambda: cli_call(args),
                  check=lambda out, err: err is None and out == want, work=samples)

    ops = []
    for n, c2, samples in MC_GRID:
        seed = int(rng.choice(MC_SEEDS))
        ops.append(op(n, c2, samples, seed, expected[fraction_key(n, c2, samples, seed)]))
    header, *rows = goldens["fractions_csv"].splitlines(keepends=True)
    final = [op(3, c2, 10000, 5, header + row) for c2, row in zip(FRACTIONS_CSV_C2, rows)]
    return Workload(ops, final, "samples")


# --------------------------------------------------------------------------
# datasets

FIG_C2 = ("0.3333333", "0.4", "0.5", "0.55", "0.6", "0.8", "1.0")
FIG_STEPS = ("400", "20000")


def dataset_commands() -> list:
    cmds = [["qutrit", "region"], ["qutrit", "region", "--a-steps", "6000"]]
    for kind in ("fig2", "fig3"):
        for c2 in FIG_C2:
            for steps in FIG_STEPS:
                cmds.append(["qutrit", kind, "--c2", c2, "--a-steps", steps])
    cmds += [["tables", str(k)] for k in range(2, 9)] + [["tables", "sp"]]
    return cmds


def build_datasets(goldens: dict) -> Workload:
    parser = cli.build_parser()
    ops = []
    for argv in dataset_commands():
        key = " ".join(argv)
        want = goldens["datasets"][key]
        args = parser.parse_args(argv)
        ops.append(Op(
            key=key, run=lambda args=args: cli_call(args),
            check=lambda out, err, digest=want["sha256"]: err is None and sha256(out) == digest,
            work=want["rows"]))
    return Workload(ops, [], "rows")


# --------------------------------------------------------------------------
# symplectic

SP_HALF_DIMS = (1, 2, 3, 4, 8, 16, 32)
SP_PATTERNS = ("generic", "scalar_halves", "equal_halves", "trailing_block",
               "pseudo_pure", "uniform")
SP_TOL = 1e-12  # sp_orbit_bounds' default tie tolerance


def sp_diagonal(rng, n: int, pattern: str) -> np.ndarray:
    """An ordered diagonal of length 2n with the given Sp-pattern, summing to one."""
    dim = 2 * n
    if pattern == "generic":
        d = rng.permutation(spread_values(rng, dim))
    elif pattern == "scalar_halves":
        a, b = spread_values(rng, 2)
        d = np.array([a] * n + [b] * n)
    elif pattern == "equal_halves":
        s = rng.permutation(spread_values(rng, n))
        d = np.concatenate([s, s])
    elif pattern == "trailing_block":
        ell = int(rng.integers(1, n))
        vals = rng.permutation(spread_values(rng, dim - 2 * ell + 1))
        d = np.concatenate([vals[1:], [vals[0]] * (2 * ell)])
    elif pattern == "pseudo_pure":
        p, q = rng.permutation(spread_values(rng, 2))
        d = np.full(dim, q)
        d[int(rng.integers(dim))] = p
    else:  # uniform
        d = np.ones(dim)
    return d / d.sum()


def sp_patterns_for(n: int) -> tuple:
    # equal halves and a trailing block shorter than the diagonal need n >= 2
    return SP_PATTERNS if n >= 2 else ("generic", "scalar_halves", "pseudo_pure", "uniform")


def cluster(d) -> tuple[list, list]:
    """Distinct values (decreasing) and multiplicities of an exact diagonal."""
    values, counts = np.unique(np.asarray(d), return_counts=True)
    return values[::-1].tolist(), counts[::-1].tolist()


def expected_sp_rules(d) -> dict:
    """Orbit-dimension rules of the ordered diagonal ``d``, as documented in
    the symplectic module: rule name -> (bound, exact)."""
    d = np.asarray(d)
    dim = d.shape[0]
    n = dim // 2
    values, mults = cluster(d)
    unitary_dim = dim * dim - sum(m * m for m in mults)
    rules = {"GenericTorus": (2 * n * n, False)}
    if len(mults) == 1 or sorted(mults) == [1, dim - 1]:
        rules["Transitive"] = (unitary_dim, True)
    first, second = d[:n], d[n:]
    first_scalar = bool(np.all(np.abs(first - first[0]) <= SP_TOL))
    second_scalar = bool(np.all(np.abs(second - second[0]) <= SP_TOL))
    if np.all(np.abs(first - second) <= SP_TOL) and not first_scalar:
        rules["EqualHalves"] = (2 * n * n - 1, False)
    if first_scalar and second_scalar and abs(first[0] - second[0]) > SP_TOL:
        rules["ScalarHalves"] = (n * n + n, True)
    run = 1
    while run < dim and abs(d[dim - 1 - run] - d[dim - 1]) <= SP_TOL:
        run += 1
    if 2 <= run < dim:
        ell = run // 2
        rules["TrailingScalarBlock"] = (n * (2 * n + 1) - ell * (2 * ell + 1), False)
    return rules


def symplectic_op(n: int, seed: int, d: np.ndarray) -> dict:
    """The library calls of one symplectic op; every name is looked up on its
    module at call time so installed spans see it."""
    s = symplectic.random_symplectic(n, seed)
    member = symplectic.is_symplectic(s)
    block = symplectic.has_sp_block_form(s)
    rho = linalg.DensityMatrix((s * d[None, :]) @ s.conj().T)
    sig = orbits.orbit_signature(rho)
    return {
        "member": member, "block": block, "signature": sig,
        "orbit_dimension": orbits.orbit_dimension(sig),
        "entropy": orbits.von_neumann_entropy(rho),
        "purity": linalg.purity(rho),
        "bounds": symplectic.sp_orbit_bounds(d),
    }


def check_symplectic(d: np.ndarray) -> Callable:
    dim = d.shape[0]
    values, mults = cluster(d)
    rules = expected_sp_rules(d)
    unitary_dim = dim * dim - sum(m * m for m in mults)

    def check(out, err):
        if err is not None:
            return False
        sig = out["signature"]
        bounds = out["bounds"]
        got_rules = {r.rule.value: (r.bound, r.exact) for r in bounds.rules}
        return (out["member"] is True and out["block"] is True
                and list(sig.multiplicities) == mults
                and close(sig.distinct_values, values)
                and sig.state_class.value == expected_class(dim, values, mults)
                and out["orbit_dimension"] == unitary_dim
                and abs(out["entropy"] - entropy(d)) <= VALUE_TOL
                and abs(out["purity"] - float((d ** 2).sum())) <= VALUE_TOL
                and bounds.unitary_dim == unitary_dim
                and got_rules == rules
                and bounds.min_bound == min([b for b, _ in rules.values()] + [unitary_dim]))
    return check


def build_symplectic(rng) -> Workload:
    ops = []
    for n in SP_HALF_DIMS:
        for pattern in sp_patterns_for(n):
            d = sp_diagonal(rng, n, pattern)
            seed = int(rng.integers(2 ** 31))
            ops.append(Op(key=f"sp/n{n}/{pattern}",
                          run=lambda n=n, seed=seed, d=d: symplectic_op(n, seed, d),
                          check=check_symplectic(d)))
    return Workload(ops, [], "ops")


# --------------------------------------------------------------------------

NAMES = ("states", "montecarlo", "datasets", "symplectic")


def build(name: str, seed: int, workdir: pathlib.Path) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "states":
        return build_states(rng, workdir)
    if name == "montecarlo":
        return build_montecarlo(rng, load_goldens())
    if name == "datasets":
        return build_datasets(load_goldens())
    if name == "symplectic":
        return build_symplectic(rng)
    raise ValueError(f"unknown workload {name!r}")
