import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_atlas import (
    Convention,
    CoherenceVector,
    DensityMatrix,
    DimensionOutOfRange,
    ValidationError,
    convert_convention,
    from_coherence_vector,
    generate_basis,
    is_physical_vector,
    purity,
    random_density_matrix,
    to_coherence_vector,
)
from orbit_atlas.pauli import MAX_BASIS_DIM, _expand, _index_maps

SQRT2 = np.sqrt(2.0)


def gell_mann_reference(n):
    """Generalized Gell-Mann matrices divided by sqrt(2), built entry by
    entry in Bertlmann-Krammer order: symmetric, antisymmetric, diagonal."""
    symmetric, antisymmetric, diagonal = [], [], []
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            symmetric.append(s)
            a = np.zeros((n, n), dtype=complex)
            a[j, k], a[k, j] = -1j, 1j
            antisymmetric.append(a)
    for l in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        for j in range(l):
            d[j, j] = 1.0
        d[l, l] = -l
        diagonal.append(math.sqrt(2.0 / (l * (l + 1))) * d)
    return np.stack(symmetric + antisymmetric + diagonal) / math.sqrt(2.0)


def unfolded_reconstruction(comps, n):
    """I/n added as a second complex array to the scatter of the components
    alone: the reconstruction before the identity joined the scatter."""
    return np.eye(n, dtype=np.complex128) / n + _expand(comps, n, 0.0)


def gram_matrix(stack):
    return np.einsum("aij,bji->ab", stack, stack).real


class TestBasisGeneration:
    def test_qubit_basis_is_normalized_pauli_triple(self):
        basis = generate_basis(2)
        x = np.array([[0, 1], [1, 0]]) / SQRT2
        y = np.array([[0, -1j], [1j, 0]]) / SQRT2
        z = np.array([[1, 0], [0, -1]]) / SQRT2
        for got, want in zip(basis, (x, y, z)):
            assert np.abs(got - want).max() <= 1e-15

    def test_qutrit_first_diagonal_element(self):
        basis = generate_basis(3)
        # diagonal block starts after 3 symmetric + 3 antisymmetric elements
        z1 = basis[6]
        assert np.abs(z1 - np.diag([1, -1, 0]) / SQRT2).max() <= 1e-15

    def test_element_count(self):
        for n in range(2, 9):
            assert generate_basis(n).shape == (n * n - 1, n, n)

    def test_orthonormality(self):
        for n in range(2, 9):
            g = gram_matrix(generate_basis(n))
            assert np.abs(g - np.eye(n * n - 1)).max() <= 1e-10

    def test_traceless_and_hermitian(self):
        for n in (2, 3, 5, 8):
            for el in generate_basis(n):
                assert abs(el.trace()) <= 1e-12
                assert np.abs(el - el.conj().T).max() <= 1e-12

    def test_stack_is_read_only(self):
        stack = generate_basis(3)
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0

    def test_dimension_out_of_range(self):
        with pytest.raises(DimensionOutOfRange):
            generate_basis(1)
        with pytest.raises(DimensionOutOfRange):
            generate_basis(17)


class TestCoherenceVector:
    def test_maximally_mixed_maps_to_zero(self):
        for n in (2, 3, 4):
            vec = to_coherence_vector(DensityMatrix(np.eye(n) / n))
            assert np.abs(vec.components).max() <= 1e-15

    def test_qubit_projector_components(self):
        vec = to_coherence_vector(DensityMatrix(np.diag([1.0, 0.0])))
        assert np.allclose(vec.components, [0.0, 0.0, 1.0 / SQRT2])

    def test_norm_identity(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4, 6):
            for _ in range(25):
                rho = random_density_matrix(n, rng)
                vec = to_coherence_vector(rho)
                assert abs(vec.norm() ** 2 - (purity(rho) - 1.0 / n)) <= 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(43)
        for n in (2, 3, 4, 6):
            for _ in range(25):
                rho = random_density_matrix(n, rng)
                back = from_coherence_vector(to_coherence_vector(rho))
                assert np.abs(back - rho.matrix).max() <= 1e-10

    def test_zero_vector_reconstructs_center(self):
        vec = CoherenceVector(dim=4, components=np.zeros(15))
        assert np.abs(from_coherence_vector(vec) - np.eye(4) / 4).max() <= 1e-15

    def test_boundary_direction_is_not_physical_for_qutrits(self):
        # radius sqrt(2/3) along the first antisymmetric element
        comps = np.zeros(8)
        comps[3] = np.sqrt(2.0 / 3.0)
        vec = CoherenceVector(dim=3, components=comps)
        got = from_coherence_vector(vec)
        # independent reconstruction by hand
        sigma = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]) / SQRT2
        manual = np.eye(3) / 3 + comps[3] * sigma
        assert np.abs(got - manual).max() <= 1e-15
        smallest = np.linalg.eigvalsh(manual)[0]
        assert smallest < -1e-6
        physical, reported = is_physical_vector(vec)
        assert not physical
        assert abs(reported - smallest) <= 1e-12


class TestIndexMaps:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_gather_matches_dense_reference(self, n):
        rng = np.random.default_rng(71 + n)
        stack = generate_basis(n)
        for _ in range(5):
            rho = random_density_matrix(n, rng)
            want = np.einsum("kij,ji->k", stack, rho.matrix).real
            got = to_coherence_vector(rho).components
            assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16])
    def test_basis_is_the_textbook_gell_mann_basis(self, n):
        got = generate_basis(n)
        assert np.abs(got - gell_mann_reference(n)).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_scatter_matches_dense_reference(self, n):
        comps = np.random.default_rng(73 + n).standard_normal(n * n - 1)
        want = np.tensordot(comps, generate_basis(n), axes=(0, 0))
        assert np.abs(_expand(comps, n, 0.0) - want).max() <= 1e-15

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_monte_carlo_assembly_is_bit_equal(self, n):
        # the sampler's batch assembly, identity folded in, reproduces the
        # dense tensordot plus I/n to the last bit, which keeps seeded
        # fractions byte-identical
        g = np.random.default_rng(79 + n).standard_normal((500, n * n - 1))
        vecs = g * (0.3 / np.linalg.norm(g, axis=1))[:, None]
        center = np.eye(n, dtype=np.complex128) / n
        want = center + np.tensordot(vecs, generate_basis(n), axes=(1, 0))
        assert _expand(vecs, n, 1.0 / n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32, 64])
    def test_reconstruction_is_bit_equal_to_the_unfolded_form(self, n):
        # every bit, the sign of zeros included, is that of I/n added to the
        # traceless part; eigvalsh and the Cholesky screen read these bits.
        # A one-vector tensordot sums the diagonal in another order, so the
        # dense reference agrees in value only.
        rng = np.random.default_rng(83 + n)
        for trial in range(6):
            comps = 0.1 * rng.standard_normal(n * n - 1)
            u = rng.random(n * n - 1)
            comps[u < 0.3], comps[u > 0.7] = 0.0, -0.0
            if trial < 2:
                comps[:] = (0.0, -0.0)[trial]
            for conv in Convention:
                vec = CoherenceVector(n, comps, conv)
                coherence = comps / 2.0 if conv is Convention.BLOCH else comps
                got = from_coherence_vector(vec)
                assert got.tobytes() == unfolded_reconstruction(coherence, n).tobytes()
                if n <= MAX_BASIS_DIM:
                    dense = np.tensordot(coherence, generate_basis(n), axes=(0, 0))
                    assert np.abs(got - np.eye(n) / n - dense).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_scatter_index_is_cached_and_read_only(self, n):
        pick = _index_maps(n)[3]
        assert not pick.flags.writeable
        assert _index_maps(n)[3] is pick

    @settings(max_examples=40)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip_and_norm_identity_up_to_64(self, n, seed):
        rho = random_density_matrix(n, seed)
        vec = to_coherence_vector(rho)
        assert vec.components.shape == (n * n - 1,)
        assert abs(vec.norm() ** 2 - (purity(rho) - 1.0 / n)) <= 1e-12
        assert np.abs(from_coherence_vector(vec) - rho.matrix).max() <= 1e-12

    def test_vector_dimension_range(self):
        with pytest.raises(DimensionOutOfRange):
            CoherenceVector(dim=65, components=np.zeros(65 * 65 - 1))
        with pytest.raises(DimensionOutOfRange):
            CoherenceVector(dim=1, components=np.zeros(0))
        with pytest.raises(DimensionOutOfRange):
            to_coherence_vector(DensityMatrix(np.ones((1, 1))))
        assert CoherenceVector(dim=64, components=np.zeros(4095)).dim == 64


class TestPhysicality:
    def test_qubit_half_ball_is_physical(self):
        rng = np.random.default_rng(47)
        dirs = rng.standard_normal((500, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = 0.5 * rng.random(500) ** (1.0 / 3.0)
        for d, r in zip(dirs, radii):
            ok, _ = is_physical_vector(CoherenceVector(dim=2, components=d * r))
            assert ok

    def test_qubit_ball_radius_is_inverse_sqrt2(self):
        # the exact positivity radius for n=2 under the norm identity
        rng = np.random.default_rng(53)
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        inside = 1.0 / SQRT2 - 1e-9
        outside = 1.0 / SQRT2 + 1e-6
        for d in dirs:
            ok_in, _ = is_physical_vector(CoherenceVector(dim=2, components=d * inside))
            ok_out, _ = is_physical_vector(CoherenceVector(dim=2, components=d * outside))
            assert ok_in
            assert not ok_out

    def test_center_min_eigenvalue(self):
        ok, smallest = is_physical_vector(CoherenceVector(dim=3, components=np.zeros(8)))
        assert ok
        assert abs(smallest - 1.0 / 3.0) <= 1e-15


class TestConventionConversion:
    def test_scaling_fixture(self):
        vec = CoherenceVector(dim=2, components=np.array([0, 0, 1 / SQRT2]))
        bloch = convert_convention(vec, Convention.BLOCH)
        assert np.allclose(bloch.components, [0, 0, SQRT2])
        assert bloch.convention is Convention.BLOCH

    def test_involution(self):
        rng = np.random.default_rng(59)
        comps = rng.standard_normal(8)
        vec = CoherenceVector(dim=3, components=comps)
        back = convert_convention(convert_convention(vec, Convention.BLOCH),
                                  Convention.COHERENCE)
        assert np.abs(back.components - comps).max() <= 1e-15

    def test_zero_vector_fixed_point(self):
        vec = CoherenceVector(dim=3, components=np.zeros(8))
        assert np.abs(convert_convention(vec, Convention.BLOCH).components).max() == 0.0

    def test_bloch_norm_identity(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            rho = random_density_matrix(3, rng)
            bloch = convert_convention(to_coherence_vector(rho), Convention.BLOCH)
            assert abs(bloch.norm() ** 2 - 4.0 * (purity(rho) - 1.0 / 3.0)) <= 1e-10

    def test_reconstruction_respects_convention(self):
        rho = random_density_matrix(3, 67)
        bloch = convert_convention(to_coherence_vector(rho), Convention.BLOCH)
        assert np.abs(from_coherence_vector(bloch) - rho.matrix).max() <= 1e-10

    def test_convention_string_is_coerced(self):
        # a pure qubit state stored in the Bloch convention under its string
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        comps = 2.0 * to_coherence_vector(rho).components
        vec = CoherenceVector(2, comps, "bloch")
        assert vec.convention is Convention.BLOCH
        assert np.abs(from_coherence_vector(vec) - rho.matrix).max() <= 1e-15
        physical, smallest = is_physical_vector(vec)
        assert physical and abs(smallest) <= 1e-15
        assert CoherenceVector(2, comps, "coherence").convention is Convention.COHERENCE

    @pytest.mark.parametrize("bad", ["foo", "Bloch", "", None, 2, ["bloch"]])
    def test_unknown_convention_is_refused(self, bad):
        with pytest.raises(ValidationError, match="unknown convention"):
            CoherenceVector(2, np.zeros(3), bad)
        vec = CoherenceVector(2, np.array([0.0, 0.0, 0.5]))
        with pytest.raises(ValidationError, match="unknown convention"):
            convert_convention(vec, bad)

    def test_convert_convention_takes_the_value_string(self):
        vec = CoherenceVector(2, np.array([0.0, 0.0, 0.5]))
        assert convert_convention(vec, "coherence") is vec
        bloch = convert_convention(vec, "bloch")
        assert bloch.convention is Convention.BLOCH
        assert np.array_equal(bloch.components, [0.0, 0.0, 1.0])
        assert convert_convention(bloch, "coherence").convention is Convention.COHERENCE
