import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_atlas import (
    AmbiguousClustering,
    DensityMatrix,
    DimensionMismatch,
    MajorizationResult,
    ParameterOutOfRange,
    StateClass,
    ValidationError,
    enumerate_orbit_table,
    flag_manifold_name,
    majorize_compare,
    orbit_dimension,
    orbit_signature,
    purity,
    random_density_matrix,
    random_unitary,
    sp_orbit_bounds,
    unitarily_equivalent,
    von_neumann_entropy,
)
from orbit_atlas.orbits import _partitions, cluster_spectrum, entropy_of_spectrum


def diag_state(*values):
    return DensityMatrix(np.diag(np.array(values, dtype=float)))


class TestOrbitSignature:
    @pytest.mark.parametrize("weights", [(1, 2, 3), (4,) * 8 + (1, 2, 3), (5,) * 9 + (2,) * 12])
    def test_distinct_values_are_the_verdict_means(self, weights):
        d = np.asarray(weights, dtype=float) / sum(weights)
        u = random_unitary(len(d), 97)
        rho = DensityMatrix((u * d[None, :]) @ u.conj().T)
        sig = orbit_signature(rho)
        clusters, means = cluster_spectrum(rho.eigenvalues(), sig.cluster_tol)
        assert sig.distinct_values == tuple(means)
        assert sig.multiplicities == tuple(len(c) for c in clusters)
        assert max(sig.multiplicities) == max(weights.count(w) for w in weights)

    def test_maximally_mixed_qutrit(self):
        sig = orbit_signature(diag_state(1 / 3, 1 / 3, 1 / 3))
        assert len(sig.distinct_values) == 1
        assert sig.multiplicities == (3,)
        assert sig.state_class is StateClass.COMPLETELY_RANDOM

    def test_degenerate_pair(self):
        sig = orbit_signature(diag_state(0.6, 0.2, 0.2))
        assert np.allclose(sig.distinct_values, (0.6, 0.2))
        assert sig.multiplicities == (1, 2)
        assert sig.state_class is StateClass.PSEUDO_PURE

    def test_generic_spectrum(self):
        sig = orbit_signature(diag_state(0.5, 0.3, 0.2))
        assert sig.multiplicities == (1, 1, 1)
        assert sig.state_class is StateClass.GENERIC

    def test_pure_state(self):
        sig = orbit_signature(diag_state(1.0, 0.0, 0.0))
        assert sig.state_class is StateClass.PURE
        assert sig.multiplicities == (1, 2)

    def test_other_degenerate(self):
        sig = orbit_signature(diag_state(0.3, 0.3, 0.2, 0.2))
        assert sig.state_class is StateClass.OTHER_DEGENERATE

    def test_near_degenerate_values_merge(self):
        sig = orbit_signature(diag_state(0.5, 0.5 - 1e-12, 1e-12, 0.0))
        assert sig.multiplicities == (2, 2)

    def test_ambiguous_clustering_raises(self):
        rho = diag_state(0.4, 0.4014, 0.1986)
        with pytest.raises(AmbiguousClustering):
            orbit_signature(rho, cluster_tol=1e-3)

    def test_chained_cluster_raises(self):
        # neighbours 0.9e-8 apart are each within cluster_tol, but single
        # linkage would chain all four into one cluster 2.7e-8 wide
        chain = [0.1 + d * 1e-8 for d in (1.35, 0.45, -0.45, -1.35)]
        rho = diag_state(0.3, 0.2, *chain, 0.06, 0.04)
        with pytest.raises(AmbiguousClustering, match="spreads"):
            orbit_signature(rho, cluster_tol=1e-8)

    def test_cluster_tol_on_the_spectrum_scale_is_refused(self):
        # at 0.5 the levels of diag(0.6, 0.4) merged into CompletelyRandom
        rho = diag_state(0.6, 0.4)
        for tol in (0.5, 0.25):
            with pytest.raises(ParameterOutOfRange, match="cluster_tol"):
                orbit_signature(rho, cluster_tol=tol)
        with pytest.raises(ParameterOutOfRange, match="cluster_tol"):
            orbit_signature(diag_state(0.4, 0.3, 0.2, 0.1), cluster_tol=0.125)
        assert orbit_signature(rho, cluster_tol=0.05).multiplicities == (1, 1)

    @pytest.mark.parametrize("values", [[], [1.0, float("nan")], [float("inf"), 0.0]],
                             ids=["empty", "nan", "inf"])
    def test_cluster_spectrum_refuses_empty_or_non_finite(self, values):
        with pytest.raises(ValidationError):
            cluster_spectrum(values, 1e-9)

    def test_signature_is_conjugation_invariant(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            u = random_unitary(4, rng)
            conj = DensityMatrix(u @ rho.matrix @ u.conj().T, tol=1e-8)
            s1, s2 = orbit_signature(rho), orbit_signature(conj)
            assert s1.multiplicities == s2.multiplicities
            assert np.abs(np.array(s1.distinct_values)
                          - np.array(s2.distinct_values)).max() <= 1e-8

    def test_signature_accounting_invariants(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 4, 6):
            for _ in range(10):
                sig = orbit_signature(random_density_matrix(n, rng))
                assert sum(sig.multiplicities) == n
                weighted = sum(m * v for m, v in
                               zip(sig.multiplicities, sig.distinct_values))
                assert abs(weighted - 1.0) <= n * sig.cluster_tol
                # distinct values strictly decreasing beyond the tolerance
                for hi, lo in zip(sig.distinct_values, sig.distinct_values[1:]):
                    assert hi - lo > sig.cluster_tol


#: Integer weights of an even-length diagonal (half-dimension 1..16); equal
#: weights give exactly equal entries, distinct ones differ by >= 1/160.
even_weights = st.integers(1, 16).flatmap(
    lambda n: st.lists(st.integers(1, 5), min_size=2 * n, max_size=2 * n))


def normalized(weights):
    d = np.asarray(weights, dtype=float)
    return d / d.sum()


class TestClusteringProperties:
    @settings(max_examples=60)
    @given(weights=even_weights, seed=st.integers(0, 2 ** 32 - 1))
    def test_signature_agrees_with_sp_orbit_bounds(self, weights, seed):
        d = normalized(weights)
        u = random_unitary(len(d), seed)
        sig = orbit_signature(DensityMatrix((u * d[None, :]) @ u.conj().T))
        _, counts = np.unique(weights, return_counts=True)
        assert sorted(sig.multiplicities) == sorted(counts.tolist())
        assert orbit_dimension(sig) == sp_orbit_bounds(d).unitary_dim

    @settings(max_examples=60)
    @given(weights=even_weights, data=st.data())
    def test_clustering_ignores_order(self, weights, data):
        d = normalized(weights)
        p = normalized(data.draw(st.permutations(weights)))
        assert cluster_spectrum(p, 1e-12) == cluster_spectrum(d, 1e-12)
        s1 = orbit_signature(DensityMatrix(np.diag(d)))
        s2 = orbit_signature(DensityMatrix(np.diag(p)))
        assert s1.multiplicities == s2.multiplicities
        assert np.allclose(s1.distinct_values, s2.distinct_values, rtol=0, atol=1e-15)
        assert sp_orbit_bounds(p).unitary_dim == sp_orbit_bounds(d).unitary_dim


class TestOrbitDimension:
    def test_fixtures(self):
        assert orbit_dimension(orbit_signature(diag_state(0.6, 0.2, 0.2))) == 4
        assert orbit_dimension(orbit_signature(diag_state(0.3, 0.3, 0.2, 0.2))) == 8
        assert orbit_dimension(orbit_signature(diag_state(0.7, 0.3))) == 2

    def test_dimension_is_even_for_all_partitions(self):
        for n in range(2, 9):
            for p in _partitions(n):
                dim = n * n - sum(m * m for m in p)
                assert dim % 2 == 0


class TestFlagManifoldNames:
    def test_point(self):
        assert flag_manifold_name(orbit_signature(diag_state(1 / 3, 1 / 3, 1 / 3))) == "point"

    def test_projective_space_annotation(self):
        name = flag_manifold_name(orbit_signature(diag_state(0.6, 0.2, 0.2)))
        assert name == "U(3)/[U(1)xU(2)] = CP^2"

    def test_full_flag(self):
        name = flag_manifold_name(orbit_signature(diag_state(0.4, 0.3, 0.2, 0.1)))
        assert name == "U(4)/[U(1)xU(1)xU(1)xU(1)]"

    def test_qubit_sphere(self):
        name = flag_manifold_name(orbit_signature(diag_state(0.7, 0.3)))
        assert name == "U(2)/[U(1)xU(1)] = CP^1"


class TestMajorization:
    def test_worked_example_orientation(self):
        rho1 = diag_state(0.2, 0.2, 0.6)  # (1,1,3)/5
        rho2 = diag_state(0.4, 0.4, 0.2)  # (2,2,1)/5
        assert majorize_compare(rho1, rho2) is MajorizationResult.LESS
        assert majorize_compare(rho2, rho1) is MajorizationResult.GREATER

    def test_incomparable_fixture(self):
        rho1 = diag_state(5 / 8, 2 / 8, 1 / 8)
        rho2 = diag_state(4 / 8, 4 / 8, 0.0)
        assert majorize_compare(rho1, rho2) is MajorizationResult.INCOMPARABLE

    def test_reflexive(self):
        rho = diag_state(0.5, 0.3, 0.2)
        assert majorize_compare(rho, rho) is MajorizationResult.EQUAL

    def test_order_ignores_arrangement(self):
        rho1 = diag_state(0.6, 0.2, 0.2)
        rho2 = diag_state(0.2, 0.6, 0.2)
        assert majorize_compare(rho1, rho2) is MajorizationResult.EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            majorize_compare(diag_state(0.5, 0.5), diag_state(0.5, 0.3, 0.2))

    def _comparable_pair(self, rng, n=3, mixes=4):
        """base spectrum and a doubly-stochastic average of its permutations."""
        spec = rng.dirichlet(np.ones(n))
        weights = rng.dirichlet(np.ones(mixes))
        avg = np.zeros(n)
        for w in weights:
            avg += w * rng.permutation(spec)
        return diag_state(*spec), diag_state(*avg)

    def test_entropy_direction(self):
        # LESS means the first spectrum dominates in ascending partial sums,
        # i.e. the first state is the purer one, so its entropy is smaller.
        rng = np.random.default_rng(73)
        seen_less = 0
        for _ in range(200):
            base, avg = self._comparable_pair(rng)
            rel = majorize_compare(base, avg)
            assert rel in (MajorizationResult.LESS, MajorizationResult.EQUAL)
            if rel is MajorizationResult.LESS:
                seen_less += 1
                assert von_neumann_entropy(base) <= von_neumann_entropy(avg) + 1e-9
        assert seen_less > 150

    def test_purity_direction(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            base, avg = self._comparable_pair(rng)
            if majorize_compare(base, avg) is MajorizationResult.LESS:
                assert purity(base) >= purity(avg) - 1e-12


class TestEntropy:
    @pytest.mark.parametrize("k", [3, 8, 17, 64])
    def test_stack_is_each_spectrum_bit_for_bit(self, k):
        rng = np.random.default_rng(89 + k)
        stack = rng.dirichlet(np.ones(k), size=40)
        stack[rng.random(stack.shape) < 0.3] = 0.0
        stack[0] = 0.0
        stack[1] = np.eye(k)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = entropy_of_spectrum(stack)
            singles = [entropy_of_spectrum(w) for w in stack]
        assert values.shape == (40,)
        assert all(type(v) is float for v in singles)
        assert [repr(v) for v in values.tolist()] == [repr(v) for v in singles]
        assert singles[0] == singles[1] == 0.0

    @pytest.mark.parametrize("values", [
        [0.5, math.nan, 0.5],
        [0.5, math.inf],
        [-math.inf, 1.0],
        [[0.5, 0.5], [0.25, math.nan]],
        [[1.0, 0.0], [math.inf, 0.0]],
    ])
    def test_non_finite_entry_is_refused(self, values):
        with pytest.raises(ValidationError, match="non-finite"):
            entropy_of_spectrum(values)

    def test_pure_state_zero(self):
        assert von_neumann_entropy(diag_state(1.0, 0.0, 0.0)) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(diag_state(1 / 3, 1 / 3, 1 / 3))
                   - math.log(3)) <= 1e-12

    def test_generic_value(self):
        # -sum(w log w) evaluated directly on the spectrum
        expected = -(0.5 * math.log(0.5) + 0.3 * math.log(0.3) + 0.2 * math.log(0.2))
        assert abs(von_neumann_entropy(diag_state(0.5, 0.3, 0.2)) - expected) <= 1e-12
        assert abs(expected - 1.0296530140645737) <= 1e-15

    def test_bounds(self):
        rng = np.random.default_rng(83)
        for n in (2, 3, 4):
            for _ in range(20):
                s = von_neumann_entropy(random_density_matrix(n, rng))
                assert 0.0 <= s <= math.log(n) + 1e-12


class TestOrbitTable:
    def test_dimension_sets(self):
        assert sorted(r.dimension for r in enumerate_orbit_table(2)) == [0, 2]
        assert sorted(r.dimension for r in enumerate_orbit_table(3)) == [0, 4, 6]
        assert sorted(r.dimension for r in enumerate_orbit_table(4)) == [0, 6, 8, 10, 12]

    def test_three_level_labels(self):
        rows = enumerate_orbit_table(3)
        assert [r.manifold for r in rows] == [
            "point",
            "U(3)/[U(1)xU(2)]",
            "U(3)/[U(1)xU(1)xU(1)]",
        ]

    def test_rows_sorted_by_dimension(self):
        for n in range(2, 9):
            dims = [r.dimension for r in enumerate_orbit_table(n)]
            assert dims == sorted(dims)

    def test_row_count_is_partition_count(self):
        assert len(enumerate_orbit_table(4)) == 5
        assert len(enumerate_orbit_table(6)) == 11


class TestEquivalenceIsSpectrumEquality:
    @settings(max_examples=100)
    @given(weights=st.lists(st.integers(1, 9), min_size=2, max_size=4),
           tol=st.sampled_from([1e-9, 1e-6, 1e-3]), shift=st.floats(0.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equivalent_iff_spectra_within_tol(self, weights, tol, shift, seed):
        d1 = normalized(weights)
        d2 = d1.copy()
        d2[0] += shift * tol
        d2[-1] -= shift * tol
        u = random_unitary(len(d1), seed)
        rho1 = DensityMatrix(np.diag(d1))
        rho2 = DensityMatrix((u * d2[None, :]) @ u.conj().T)
        gap = np.abs(rho1.eigenvalues() - rho2.eigenvalues()).max()
        assert unitarily_equivalent(rho1, rho2, tol) == (gap <= tol)
        if gap <= tol:
            assert majorize_compare(rho1, rho2, tol) is MajorizationResult.EQUAL
