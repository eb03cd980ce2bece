import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_atlas import (
    AmbiguousClustering,
    DimensionOutOfRange,
    LengthMismatch,
    NotNormalized,
    OddDimension,
    ParameterOutOfRange,
    SpRuleKind,
    complex_to_quat,
    has_sp_block_form,
    is_symplectic,
    quat_inner,
    quat_mul,
    quat_to_complex,
    random_symplectic,
    random_unitary,
    skew_form,
    sp_orbit_bounds,
    standard_J,
    table2,
)
from orbit_atlas.symplectic import QUAT_E1, QUAT_E2, QUAT_E3, QUAT_ONE


class TestStandardJ:
    def test_two_by_two(self):
        assert np.array_equal(standard_J(1), np.array([[0, 1], [-1, 0]], dtype=complex))

    def test_square_is_minus_identity(self):
        for n in (1, 2, 3):
            j = standard_J(n)
            assert np.abs(j @ j + np.eye(2 * n)).max() == 0.0

    def test_skew_and_symplectic(self):
        j = standard_J(2)
        assert np.abs(j.T + j).max() == 0.0
        # J^T J J = J, so J itself belongs to the group
        assert np.abs(j.T @ j @ j - j).max() == 0.0
        assert is_symplectic(j)


class TestMembership:
    def test_identity(self):
        assert is_symplectic(np.eye(4))

    def test_non_unitary_diagonal(self):
        assert not is_symplectic(np.diag([2.0, 0.5, 1.0, 1.0]))

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            is_symplectic(np.eye(3))
        with pytest.raises(OddDimension):
            has_sp_block_form(np.eye(3))


class TestBlockForm:
    def test_identity(self):
        assert has_sp_block_form(np.eye(6))

    def test_generic_unitary_fails(self):
        for seed in range(5):
            u = random_unitary(4, seed)
            if not has_sp_block_form(u):
                return
        pytest.fail("five Haar unitaries in a row had symplectic block form")


class TestRandomSymplectic:
    def test_deterministic_per_seed(self):
        assert np.array_equal(random_symplectic(2, 7), random_symplectic(2, 7))

    def test_group_membership(self):
        for n in (1, 2, 3):
            for seed in range(10):
                s = random_symplectic(n, seed)
                assert is_symplectic(s, tol=1e-8)
                assert has_sp_block_form(s, tol=1e-8)

    def test_every_size_up_to_the_matrix_cap_and_no_further(self):
        for n in range(1, 33):
            s = random_symplectic(n, 0)
            assert is_symplectic(s) and has_sp_block_form(s)
        with pytest.raises(DimensionOutOfRange, match=r"^matrix dimension 66 outside \[1, 64\]$"):
            random_symplectic(33)

    @settings(max_examples=30)
    @given(n=st.integers(1, 32), seed=st.integers(0, 2 ** 63 - 1))
    def test_deterministic_member_for_every_size(self, n, seed):
        s = random_symplectic(n, seed)
        assert np.array_equal(s, random_symplectic(n, seed))
        assert is_symplectic(s)
        assert has_sp_block_form(s)

    def test_package_import_leaves_scipy_out(self):
        code = ("import sys, orbit_atlas; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert res.stdout.strip() == "[]"

    def test_preserves_skew_form(self):
        rng = np.random.default_rng(91)
        for n in (1, 2, 3):
            s = random_symplectic(n, 5)
            z = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            z2 = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            assert abs(skew_form(s @ z, s @ z2) - skew_form(z, z2)) <= 1e-8


class TestOrbitBounds:
    def test_pseudo_pure_is_transitive(self):
        report = sp_orbit_bounds([0.7, 0.1, 0.1, 0.1])
        rules = {r.rule: r for r in report.rules}
        assert rules[SpRuleKind.TRANSITIVE].exact
        assert rules[SpRuleKind.TRANSITIVE].bound == 6
        assert report.min_bound == 6
        assert report.unitary_dim == 6

    def test_scalar_halves(self):
        report = sp_orbit_bounds([0.3, 0.3, 0.2, 0.2])
        rules = {r.rule: r for r in report.rules}
        assert rules[SpRuleKind.SCALAR_HALVES].bound == 6
        assert rules[SpRuleKind.SCALAR_HALVES].exact
        assert report.min_bound == 6
        assert report.unitary_dim == 8

    def test_generic_spectrum_bounded_by_torus_rule(self):
        report = sp_orbit_bounds([0.4, 0.3, 0.2, 0.1])
        assert report.min_bound == 8
        assert report.unitary_dim == 12
        assert {r.rule for r in report.rules} == {SpRuleKind.GENERIC_TORUS}

    def test_trailing_scalar_block(self):
        report = sp_orbit_bounds([0.3, 0.2, 0.125, 0.125, 0.125, 0.125])
        rules = {r.rule: r for r in report.rules}
        assert rules[SpRuleKind.TRAILING_SCALAR_BLOCK].bound == 21 - 10
        assert report.min_bound == 11

    def test_equal_halves_depends_on_arrangement(self):
        interleaved = sp_orbit_bounds([0.3, 0.2, 0.3, 0.2])
        split = sp_orbit_bounds([0.3, 0.3, 0.2, 0.2])
        assert {r.rule for r in interleaved.rules} == {
            SpRuleKind.GENERIC_TORUS, SpRuleKind.EQUAL_HALVES}
        assert interleaved.min_bound == 7
        assert split.min_bound == 6  # same spectrum, tighter exact rule

    def test_pseudo_pure_min_equals_projective_dimension(self):
        for n in (1, 2, 3, 4):
            diag = np.full(2 * n, 0.1 / (2 * n - 1))
            diag[0] = 0.9
            report = sp_orbit_bounds(diag)
            assert report.min_bound == 4 * n - 2
            assert report.min_bound == report.unitary_dim

    def test_min_bound_capped_by_unitary_dimension(self):
        # no listed rule beats the torus bound 18 here, but the orbit sits
        # inside a 16-dimensional unitary orbit
        report = sp_orbit_bounds([0.2, 0.2, 0.2, 0.2, 0.1, 0.1])
        assert report.unitary_dim == 16
        assert report.min_bound == 16

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            sp_orbit_bounds([0.5, 0.4, 0.2, 0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(NotNormalized):
            sp_orbit_bounds([bad, 0.5, 0.25, 0.25])

    def test_rejects_nan_tolerance(self):
        # under a NaN tolerance nothing merges and min_bound would read 8, not 0
        with pytest.raises(ParameterOutOfRange):
            sp_orbit_bounds([0.25] * 4, tol=float("nan"))

    def test_rejects_odd_length(self):
        with pytest.raises(OddDimension):
            sp_orbit_bounds([0.5, 0.3, 0.2])

    def test_rejects_chained_ties(self):
        # neighbours 9e-13 apart chain into one cluster 1.8e-12 wide, and the
        # two exact rules would disagree: Transitive 0, ScalarHalves 6
        with pytest.raises(AmbiguousClustering):
            sp_orbit_bounds([0.25 - 9e-13, 0.25, 0.25 + 9e-13, 0.25])


#: sp_orbit_bounds' default tie tolerance.
SP_TOL = 1e-12


def tie_rules_by_tolerance_scans(d, tol=SP_TOL) -> dict:
    """Oracle: the tie rules of ``sp_orbit_bounds`` written directly as
    comparisons against ``tol``, not through cluster labels."""
    n = d.shape[0] // 2
    dim = 2 * n
    first, second = d[:n], d[n:]
    halves_equal = bool(np.abs(first - second).max() <= tol)
    first_scalar = bool(np.abs(first - first[0]).max() <= tol)
    second_scalar = bool(np.abs(second - second[0]).max() <= tol)
    rules = {}
    if halves_equal and not first_scalar:
        rules[SpRuleKind.EQUAL_HALVES] = (2 * n * n - 1, False)
    if first_scalar and second_scalar and abs(first[0] - second[0]) > tol:
        rules[SpRuleKind.SCALAR_HALVES] = (n * n + n, True)
    run = 1
    while run < dim and abs(d[dim - 1 - run] - d[dim - 1]) <= tol:
        run += 1
    if 2 <= run < dim:
        ell = run // 2
        rules[SpRuleKind.TRAILING_SCALAR_BLOCK] = (n * (2 * n + 1) - ell * (2 * ell + 1), False)
    return rules


class TestPlantedTies:
    @settings(max_examples=200)
    @given(n=st.integers(1, 8), data=st.data())
    def test_exact_rules_agree_and_chains_are_refused(self, n, data):
        # a few levels, so ties are planted; each entry is nudged off its
        # level by -0.9, 0 or 0.9 times the tolerance.  A level nudged both
        # ways is ambiguous: with a zero nudge it chains into one cluster
        # wider than the tolerance, without one it splits into two clusters
        # whose means are within twice the tolerance.
        levels = data.draw(st.lists(st.integers(1, 3), min_size=2 * n, max_size=2 * n))
        nudges = data.draw(st.lists(st.sampled_from([-0.9, 0.0, 0.9]),
                                    min_size=2 * n, max_size=2 * n))
        d = np.asarray(levels, dtype=float) / sum(levels) + SP_TOL * np.asarray(nudges)
        ambiguous = any({-0.9, 0.9} <= {v for lv, v in zip(levels, nudges) if lv == level}
                        for level in set(levels))
        if ambiguous:
            with pytest.raises(AmbiguousClustering):
                sp_orbit_bounds(d)
            return
        report = sp_orbit_bounds(d)
        assert len({r.bound for r in report.rules if r.exact}) <= 1
        tie_rules = {r.rule: (r.bound, r.exact) for r in report.rules
                     if r.rule not in (SpRuleKind.TRANSITIVE, SpRuleKind.GENERIC_TORUS)}
        assert tie_rules == tie_rules_by_tolerance_scans(d)


class TestTable2:
    def test_sixteen_rows(self):
        rows = table2()
        assert len(rows) == 16
        assert sum(1 for r in rows if r.half_dim == 2) == 5
        assert sum(1 for r in rows if r.half_dim == 3) == 11

    def test_computed_never_exceeds_published(self):
        for row in table2():
            assert row.computed_bound <= row.paper_bound, row

    def test_single_documented_discrepancy(self):
        diffs = [r for r in table2() if r.computed_bound != r.paper_bound]
        assert [r.pattern for r in diffs] == ["a,b,c,c"]
        assert diffs[0].computed_bound == 7
        assert diffs[0].paper_bound == 8

    def test_scalar_halves_row(self):
        (row,) = [r for r in table2() if r.pattern == "a,a,a,b,b,b"]
        assert row.unitary_dim == 18
        assert row.paper_bound == 12
        assert row.computed_bound == 12
        assert row.exact

    def test_uniform_rows_are_zero(self):
        for pattern in ("a,a,a,a", "a,a,a,a,a,a"):
            (row,) = [r for r in table2() if r.pattern == pattern]
            assert row.unitary_dim == 0
            assert row.computed_bound == 0


QUAT_BASIS = {"1": QUAT_ONE, "e1": QUAT_E1, "e2": QUAT_E2, "e3": QUAT_E3}

# full multiplication table of the basis, written out from the relations
# e_i^2 = -1 and e1 e2 = e3 cyclic
QUAT_PRODUCTS = {
    ("1", "1"): (1, "1"), ("1", "e1"): (1, "e1"), ("1", "e2"): (1, "e2"),
    ("1", "e3"): (1, "e3"), ("e1", "1"): (1, "e1"), ("e2", "1"): (1, "e2"),
    ("e3", "1"): (1, "e3"),
    ("e1", "e1"): (-1, "1"), ("e2", "e2"): (-1, "1"), ("e3", "e3"): (-1, "1"),
    ("e1", "e2"): (1, "e3"), ("e2", "e1"): (-1, "e3"),
    ("e2", "e3"): (1, "e1"), ("e3", "e2"): (-1, "e1"),
    ("e3", "e1"): (1, "e2"), ("e1", "e3"): (-1, "e2"),
}


def quat_components(q):
    return tuple(q)


class TestQuaternions:
    def test_all_sixteen_basis_products(self):
        for (a, b), (sign, name) in QUAT_PRODUCTS.items():
            got = quat_mul(QUAT_BASIS[a], QUAT_BASIS[b])
            want = QUAT_BASIS[name]
            if sign < 0:
                want = -want
            assert quat_components(got) == quat_components(want), (a, b)

    def test_associativity_over_all_basis_triples(self):
        basis = list(QUAT_BASIS.values())
        for p in basis:
            for q in basis:
                for r in basis:
                    left = quat_mul(quat_mul(p, q), r)
                    right = quat_mul(p, quat_mul(q, r))
                    assert quat_components(left) == quat_components(right)

    def test_unit(self):
        q = np.array([0.3, -0.2, 0.7, 1.1])
        assert quat_components(quat_mul(QUAT_ONE, q)) == quat_components(q)
        assert quat_components(quat_mul(q, QUAT_ONE)) == quat_components(q)

    def test_stacks_multiply_row_by_row(self):
        rng = np.random.default_rng(89)
        p, q = rng.standard_normal((2, 7, 4))
        got = quat_mul(p, q)
        assert got.shape == (7, 4)
        for k in range(7):
            assert quat_components(got[k]) == quat_components(quat_mul(p[k], q[k]))
        # one quaternion broadcasts against a stack
        assert np.array_equal(quat_mul(QUAT_E1, q), np.stack([quat_mul(QUAT_E1, r) for r in q]))


class TestQuaternionComplexBridge:
    def test_basis_images(self):
        assert np.array_equal(quat_to_complex([QUAT_ONE]), [1.0, 0.0])
        assert np.array_equal(quat_to_complex([QUAT_E2]), [0.0, 1.0])
        # e3 = e2 * (-e1), so its second complex coordinate is -i
        assert np.array_equal(quat_to_complex([QUAT_E3]), [0.0, -1j])

    def test_round_trip(self):
        rng = np.random.default_rng(97)
        qs = [np.array(rng.standard_normal(4)) for _ in range(5)]
        back = complex_to_quat(quat_to_complex(qs))
        for q, b in zip(qs, back):
            assert quat_components(q) == pytest.approx(quat_components(b), abs=0)

    def test_unit_vector_inner_product(self):
        q = np.array([0.5, 0.5, 0.5, 0.5])  # unit quaternion
        got = quat_inner([q], [q])
        assert quat_components(got) == pytest.approx((1.0, 0, 0, 0), abs=1e-15)

    def test_e2_against_one(self):
        got = quat_inner([QUAT_E2], [QUAT_ONE])
        # conj(e2) * 1 = -e2; the skew part carries S((0,1),(1,0)) = -1
        assert quat_components(got) == (0.0, 0.0, -1.0, 0.0)
        z, z2 = quat_to_complex([QUAT_E2]), quat_to_complex([QUAT_ONE])
        assert skew_form(z, z2) == -1.0
        assert np.vdot(z, z2) == 0.0

    def test_inner_product_decomposition(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            qs = [np.array(rng.standard_normal(4)) for _ in range(3)]
            q2s = [np.array(rng.standard_normal(4)) for _ in range(3)]
            inner = quat_inner(qs, q2s)
            z, z2 = quat_to_complex(qs), quat_to_complex(q2s)
            herm = complex(np.vdot(z, z2))
            skew = skew_form(z, z2)
            expected = (herm.real, herm.imag, skew.real, -skew.imag)
            assert quat_components(inner) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            quat_inner([QUAT_ONE], [QUAT_ONE, QUAT_E1])

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 5), (1, 2, 4)])
    def test_refuses_a_shape_that_is_not_n_by_4(self, shape):
        with pytest.raises(LengthMismatch):
            quat_to_complex(np.zeros(shape))


class TestSkewForm:
    def test_self_pairing_vanishes(self):
        rng = np.random.default_rng(127)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert skew_form(z, z) == 0.0

    def test_minimal_fixture(self):
        assert skew_form([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(131)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert skew_form(z, z2) == pytest.approx(-skew_form(z2, z), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            skew_form([1.0, 0.0], [0.0, 1.0, 0.0, 0.0])
