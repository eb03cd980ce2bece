"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np

from orbit_atlas import (
    DensityMatrix,
    MajorizationResult,
    enumerate_orbit_table,
    feasible_interval,
    fig2_curve,
    fig3_curve,
    from_coherence_vector,
    generate_basis,
    has_sp_block_form,
    is_symplectic,
    majorize_compare,
    purity,
    quat_inner,
    quat_mul,
    quat_to_complex,
    random_density_matrix,
    random_symplectic,
    random_unitary,
    skew_form,
    sphere_physical_fraction,
    standard_J,
    table2,
    to_coherence_vector,
    von_neumann_entropy,
)
from orbit_atlas.pauli import CoherenceVector
from orbit_atlas.symplectic import QUAT_E1, QUAT_E2, QUAT_E3, QUAT_ONE, Quaternion


def _criterion(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_basis_orthonormality():
    worst = 0.0
    for n in range(2, 9):
        stack = np.stack(generate_basis(n).elements)
        gram = np.einsum("aij,bji->ab", stack, stack).real
        worst = max(worst, float(np.abs(gram - np.eye(n * n - 1)).max()))
    _criterion(1, f"basis orthonormality for n=2..8 (worst {worst:.2e} <= 1e-10)",
               worst <= 1e-10)


def test_criterion_02_embedding_round_trip():
    rng = np.random.default_rng(202)
    worst_rt, worst_norm = 0.0, 0.0
    for n in (2, 3, 4, 6):
        for _ in range(100):
            rho = random_density_matrix(n, rng)
            vec = to_coherence_vector(rho)
            back = from_coherence_vector(vec)
            worst_rt = max(worst_rt, float(np.abs(back - rho.matrix).max()))
            worst_norm = max(worst_norm,
                             abs(vec.norm() ** 2 - (purity(rho) - 1.0 / n)))
    _criterion(2, f"round trip (worst {worst_rt:.2e}) and norm identity "
                  f"(worst {worst_norm:.2e}) within 1e-10",
               worst_rt <= 1e-10 and worst_norm <= 1e-10)


def test_criterion_03_orbit_table_reproduction():
    rows3 = enumerate_orbit_table(3)
    rows4 = enumerate_orbit_table(4)
    ok_dims = (sorted(r.dimension for r in rows3) == [0, 4, 6]
               and sorted(r.dimension for r in rows4) == [0, 6, 8, 10, 12])
    # published labels with S^1 written as the identical group U(1)
    want3 = {"point", "U(3)/[U(1)xU(2)]", "U(3)/[U(1)xU(1)xU(1)]"}
    want4 = {"point", "U(4)/[U(1)xU(3)]", "U(4)/[U(2)xU(2)]",
             "U(4)/[U(1)xU(1)xU(2)]", "U(4)/[U(1)xU(1)xU(1)xU(1)]"}
    ok_labels = ({r.manifold for r in rows3} == want3
                 and {r.manifold for r in rows4} == want4)
    _criterion(3, "orbit tables for n=3 and n=4 match the published rows",
               ok_dims and ok_labels)


def test_criterion_04_symplectic_table_reproduction():
    rows = table2()
    multiplicity_dim = {}
    for row in rows:
        letters = row.pattern.split(",")
        counts = [letters.count(x) for x in dict.fromkeys(letters)]
        dim = len(letters) ** 2 - sum(c * c for c in counts)
        multiplicity_dim[row.pattern] = dim
    ok_unitary = all(r.unitary_dim == multiplicity_dim[r.pattern] for r in rows)
    ok_bounds = all(r.computed_bound <= r.paper_bound for r in rows)
    diffs = [r.pattern for r in rows if r.computed_bound != r.paper_bound]
    ok_discrepancy = diffs == ["a,b,c,c"]
    pseudo = {r.pattern: r for r in rows}
    ok_pseudo = (pseudo["a,b,b,b"].computed_bound == pseudo["a,b,b,b"].paper_bound == 6
                 and pseudo["a,b,b,b,b,b"].computed_bound
                 == pseudo["a,b,b,b,b,b"].paper_bound == 10)
    _criterion(4, "symplectic bound table: 16 rows, computed <= published, "
                  "single known discrepancy a,b,c,c (7 vs 8), transitive rows exact",
               len(rows) == 16 and ok_unitary and ok_bounds
               and ok_discrepancy and ok_pseudo)


def _batched_min_eigs(vecs, n):
    stack = np.stack(generate_basis(n).elements)
    mats = np.eye(n, dtype=np.complex128) / n + np.tensordot(
        vecs, stack, axes=(1, 0))
    return np.linalg.eigvalsh(mats)[:, 0]


def test_criterion_05_surjectivity_dichotomy():
    tol = 1e-9
    rng = np.random.default_rng(505)

    # qubits: every point of the ball of radius 1/2 is a state
    dirs = rng.standard_normal((10_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = 0.5 * rng.random(10_000) ** (1.0 / 3.0)
    frac_qubit = float(np.mean(_batched_min_eigs(dirs * radii[:, None], 2)
                               >= -tol * 2))

    # qutrits: the unit-purity sphere is almost entirely unphysical,
    # the low-purity sphere entirely physical
    frac_boundary = sphere_physical_fraction(3, 1.0, 10_000, seed=506)
    frac_low = sphere_physical_fraction(3, 0.45, 10_000, seed=507)

    _criterion(5, f"surjectivity dichotomy: qubit ball {frac_qubit:.4f} = 1, "
                  f"qutrit boundary sphere physical fraction {frac_boundary:.4f}"
                  f" <= 0.001, qutrit low-purity sphere {frac_low:.4f} = 1",
               frac_qubit == 1.0 and frac_boundary <= 0.001 and frac_low == 1.0)


def test_criterion_06_feasible_intervals():
    def scan(c2, step=1e-5, slack=1e-9):
        a = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
        ok = ((3 * a * a - 2 * a + 1 <= 2 * c2 + slack)
              & (2 * a * a - 2 * a + 1 >= c2 - slack)
              & (6 * a * a - 4 * a + 1 >= c2 - slack)
              & (a >= 1 / 3 - slack))
        sel = a[ok]
        return float(sel.min()), float(sel.max())

    worst = 0.0
    for c2 in np.linspace(1 / 3, 1.0, 50):
        iv = feasible_interval(float(c2))
        lo, hi = scan(float(c2))
        worst = max(worst, abs(lo - iv.a_lo), abs(hi - iv.a_hi))
    ok_scan = worst <= 1e-4

    top = feasible_interval(1.0)
    ok_top = abs(top.a_lo - 1.0) <= 1e-12 and abs(top.a_hi - 1.0) <= 1e-12

    # the closed form at c2 = 1/2: the ordering inequality rules out
    # anything below 1/2, and the brute-force scan pins [1/2, 2/3]
    half = feasible_interval(0.5)
    ok_half = (abs(half.a_lo - 0.5) <= 1e-9
               and abs(half.a_hi - 2.0 / 3.0) <= 1e-9)

    _criterion(6, f"feasible intervals match the 1e-5 grid scan over 50 "
                  f"purities (worst {worst:.2e} <= 1e-4); c2=1 -> [1,1]; "
                  f"c2=1/2 -> [1/2, 2/3]",
               ok_scan and ok_top and ok_half)


def test_criterion_07_monotonicity():
    ok = True
    for c2 in (0.55, 0.6, 0.8):
        iv = feasible_interval(c2)
        grid = np.linspace(iv.a_lo, iv.a_hi, 400)
        f2 = np.array([v for _, v in fig2_curve(c2, grid)])
        f3 = np.array([v for _, v in fig3_curve(c2, grid)])
        ok = ok and bool(np.all(np.diff(f2) <= 1e-12))
        ok = ok and bool(np.all(np.diff(f3) >= -1e-12))

    k1 = math.sqrt(6 * 0.4 - 2)
    hermitian_grid = np.linspace((1 - k1) / 3, (1 + k1) / 3, 400)
    diffs = np.diff([v for _, v in fig2_curve(0.4, hermitian_grid)])
    sign_change = bool((diffs > 1e-12).any() and (diffs < -1e-12).any())

    _criterion(7, "fig2 nonincreasing / fig3 nondecreasing on feasible "
                  "intervals at c2 in {0.55, 0.6, 0.8}; fig2 sign change at c2=0.4",
               ok and sign_change)


def test_criterion_08_majorization():
    less = majorize_compare(DensityMatrix(np.diag([0.2, 0.2, 0.6])),
                            DensityMatrix(np.diag([0.4, 0.4, 0.2])))
    incomparable = majorize_compare(DensityMatrix(np.diag([5 / 8, 2 / 8, 1 / 8])),
                                    DensityMatrix(np.diag([4 / 8, 4 / 8, 0.0])))
    ok_fixtures = (less is MajorizationResult.LESS
                   and incomparable is MajorizationResult.INCOMPARABLE)

    # comparable pairs: rho1 is a doubly-stochastic mix of rho2's spectrum,
    # hence the more disordered state of the pair
    rng = np.random.default_rng(808)
    ok_entropy = True
    for _ in range(1000):
        spec = rng.dirichlet(np.ones(3))
        weights = rng.dirichlet(np.ones(4))
        avg = np.zeros(3)
        for w in weights:
            avg += w * rng.permutation(spec)
        rho1 = DensityMatrix(np.diag(avg))
        rho2 = DensityMatrix(np.diag(spec))
        if von_neumann_entropy(rho1) < von_neumann_entropy(rho2) - 1e-9:
            ok_entropy = False
            break

    _criterion(8, "majorization fixtures (Less / Incomparable) and entropy "
                  "ordering S(rho1) >= S(rho2) on 1000 constructed pairs",
               ok_fixtures and ok_entropy)


def test_criterion_09_equivalence_cross_check():
    rng = np.random.default_rng(909)
    n, tol = 4, 1e-9
    ok = True

    def spectra_match(r1, r2):
        return bool(np.abs(r1.eigenvalues() - r2.eigenvalues()).max() <= tol)

    from orbit_atlas import unitarily_equivalent

    for _ in range(500):
        rho = random_density_matrix(n, rng)
        u = random_unitary(n, rng)
        conj = DensityMatrix(u @ rho.matrix @ u.conj().T, tol=1e-8)
        ok = ok and unitarily_equivalent(rho, conj, tol=tol)
        ok = ok and spectra_match(rho, conj)

    for _ in range(500):
        spec = rng.dirichlet(np.ones(n)) * 0.8 + 0.05
        bumped = np.sort(spec)[::-1].copy()
        bumped[0] += 1e-3
        bumped[-1] -= 1e-3
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        rho1 = DensityMatrix(u @ np.diag(spec) @ u.conj().T, tol=1e-8)
        rho2 = DensityMatrix(v @ np.diag(bumped) @ v.conj().T, tol=1e-8)
        ok = ok and not unitarily_equivalent(rho1, rho2, tol=tol)
        ok = ok and not spectra_match(rho1, rho2)

    _criterion(9, "unitary equivalence agrees with sorted-spectrum "
                  "equivalence on 500 conjugate + 500 perturbed pairs", ok)


def test_criterion_10_symplectic_suite():
    rng = np.random.default_rng(1010)
    ok_group = True
    for n in (1, 2, 3):
        j = standard_J(n)
        for seed in range(100):
            s = random_symplectic(n, seed)
            dim = 2 * n
            ok_group = ok_group and bool(
                np.abs(s.conj().T @ s - np.eye(dim)).max() <= 1e-8)
            ok_group = ok_group and bool(np.abs(s.T @ j @ s - j).max() <= 1e-8)
            ok_group = ok_group and is_symplectic(s, tol=1e-8)
            ok_group = ok_group and has_sp_block_form(s, tol=1e-8)
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            z2 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            ok_group = ok_group and bool(
                abs(skew_form(s @ z, s @ z2) - skew_form(z, z2)) <= 1e-8)

    ok_inner = True
    for _ in range(1000):
        qs = [Quaternion(*rng.standard_normal(4)) for _ in range(2)]
        q2s = [Quaternion(*rng.standard_normal(4)) for _ in range(2)]
        inner = quat_inner(qs, q2s)
        z, z2 = quat_to_complex(qs), quat_to_complex(q2s)
        herm = complex(np.vdot(z, z2))
        skew = skew_form(z, z2)
        err = max(abs(inner.w - herm.real), abs(inner.x - herm.imag),
                  abs(inner.y - skew.real), abs(inner.z + skew.imag))
        ok_inner = ok_inner and err <= 1e-12

    basis = {"1": QUAT_ONE, "e1": QUAT_E1, "e2": QUAT_E2, "e3": QUAT_E3}
    products = {
        ("1", "1"): (1, "1"), ("1", "e1"): (1, "e1"), ("1", "e2"): (1, "e2"),
        ("1", "e3"): (1, "e3"), ("e1", "1"): (1, "e1"), ("e2", "1"): (1, "e2"),
        ("e3", "1"): (1, "e3"),
        ("e1", "e1"): (-1, "1"), ("e2", "e2"): (-1, "1"), ("e3", "e3"): (-1, "1"),
        ("e1", "e2"): (1, "e3"), ("e2", "e1"): (-1, "e3"),
        ("e2", "e3"): (1, "e1"), ("e3", "e2"): (-1, "e1"),
        ("e3", "e1"): (1, "e2"), ("e1", "e3"): (-1, "e2"),
    }
    ok_products = True
    for (a, b), (sign, name) in products.items():
        got = quat_mul(basis[a], basis[b])
        want = basis[name] if sign > 0 else -basis[name]
        ok_products = ok_products and (got.w, got.x, got.y, got.z) == (
            want.w, want.x, want.y, want.z)

    _criterion(10, "300 random symplectic matrices pass all group checks at "
                   "1e-8; quaternion inner-product decomposition <= 1e-12 on "
                   "1000 pairs; all 16 basis products exact",
               ok_group and ok_inner and ok_products)
