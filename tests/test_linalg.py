import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from orbit_atlas import (
    AmbiguousClustering,
    CoherenceVector,
    DensityMatrix,
    DimensionMismatch,
    DimensionOutOfRange,
    NoConvergence,
    NotHermitian,
    NotPositiveSemidefinite,
    NotSquare,
    NotUnitTrace,
    OddDimension,
    ParameterOutOfRange,
    ValidationError,
    cli,
    enumerate_orbit_table,
    generate_basis,
    has_sp_block_form,
    is_physical_vector,
    is_symplectic,
    majorize_compare,
    orbit_signature,
    purity,
    random_density_matrix,
    random_symplectic,
    random_unitary,
    sphere_physical_fraction,
    standard_J,
    unitarily_equivalent,
)
from orbit_atlas import linalg
from orbit_atlas.linalg import DEFAULT_TOL, SCREEN_MARGIN, physical_mask, positivity_test
from orbit_atlas.qutrit import default_region_grid_axes, hermitian_a_grid


def charpoly_roots_by_bisection(h, n_roots, lo=None, hi=None, tol=1e-12):
    """Independent eigenvalue oracle: roots of det(H - x I) via sign changes.

    Determinants come from LU (np.linalg.det), not from any eigensolver.
    Assumes simple roots, which holds almost surely for random matrices.
    """
    n = h.shape[0]
    radius = float(np.abs(h).sum(axis=1).max())  # Gershgorin bound
    lo = -radius - 1.0 if lo is None else lo
    hi = radius + 1.0 if hi is None else hi

    def p(x):
        return float(np.linalg.det(h - x * np.eye(n)).real)

    grid = np.linspace(lo, hi, 20001)
    vals = np.array([p(x) for x in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
            continue
        if vals[i] * vals[i + 1] < 0.0:
            a, b = grid[i], grid[i + 1]
            fa = vals[i]
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = p(m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    assert len(roots) == n_roots, f"oracle found {len(roots)} roots, wanted {n_roots}"
    return np.sort(np.array(roots))[::-1]


class TestHermitianEigensystem:
    """The package's one Hermitian eigensolve, as DensityMatrix reports it."""

    def test_identity(self):
        assert np.allclose(DensityMatrix(np.eye(3) / 3).eigenvalues(), [1 / 3] * 3)

    def test_diagonal_sorting(self):
        assert np.allclose(DensityMatrix(np.diag([0.2, 0.5, 0.3])).eigenvalues(),
                           [0.5, 0.3, 0.2])

    def test_random_4x4_against_charpoly_bisection(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = g @ g.conj().T
        h = (h + h.conj().T) / (2 * h.trace().real)
        expected = charpoly_roots_by_bisection(h, 4)
        # relative to the largest eigenvalue, the bound the oracle held for
        # (g + g^dag) / 2 of the same g: 1e-8 at 2.67, here at 0.68
        assert np.abs(DensityMatrix(h).eigenvalues() - expected).max() <= 2.5e-9

    def test_rejects_non_hermitian(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("eigensolve before the hermiticity check")

        monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
        with pytest.raises(NotHermitian):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))


class TestDensityMatrixValidation:
    def test_accepts_valid_state(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        assert rho.dim == 3

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian, match="hermiticity"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotUnitTrace, match="unit trace"):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefinite, match="positivity"):
            DensityMatrix(np.diag([1.2, -0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entry(self, bad):
        m = np.diag([0.5, 0.3, 0.2]).astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix(m)

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 3)), [[1, 0], [0]],
                                     [["a", "b"], ["c", "d"]]])
    def test_rejects_non_square_or_ragged_input(self, bad):
        for call in (DensityMatrix, is_symplectic):
            with pytest.raises(NotSquare) as info:
                call(bad)
            assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ParameterOutOfRange, match="finite and nonnegative"):
            DensityMatrix(np.eye(2) / 2, tol=tol)
        with pytest.raises(ParameterOutOfRange):
            positivity_test(np.eye(2) / 2, tol)

    def test_eigenvalues_returns_a_copy_of_the_stored_spectrum(self):
        rho = DensityMatrix(np.diag([0.2, 0.5, 0.3]))
        w = rho.eigenvalues()
        w[0] = 7.0
        assert rho.eigenvalues().tolist() == [0.5, 0.3, 0.2]

    def test_eigenvalue_range_and_sum(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 6):
            for _ in range(20):
                rho = random_density_matrix(n, rng)
                w = rho.eigenvalues()
                tol = rho.tol
                assert w.min() >= -tol * n
                assert w.max() <= 1.0 + tol
                assert abs(w.sum() - 1.0) <= n * tol


class TestPositivityTest:
    def test_stack_agrees_with_single_matrices(self):
        mats = np.stack([np.diag([0.5, 0.5]), np.diag([1.2, -0.2]),
                         np.diag([1.0 + 1e-9, -1e-9])]).astype(complex)
        physical, spectra = positivity_test(mats)
        assert physical.tolist() == [True, False, True]
        for m, p, w in zip(mats, physical, spectra):
            single, values = positivity_test(m)
            assert bool(single) == p
            assert np.array_equal(values, w)
            assert values[0] == values.min()

    def test_slack_scales_with_dimension(self):
        # the allowed negative slack is tol * n
        assert positivity_test(np.diag([1.0 + 2.5e-9, 0.0, -2.5e-9]), tol=1e-9)[0]
        assert not positivity_test(np.diag([1.0 + 2.5e-9, -2.5e-9]), tol=1e-9)[0]


def planted_stack(n, lowest, seed):
    """Hermitian n x n matrices U diag(w) U^dag with Haar U, one per entry of
    ``lowest``, whose smallest eigenvalue is that entry and whose others lie
    in [0.1, 0.9]."""
    rng = np.random.default_rng(seed)
    mats = []
    for low in lowest:
        u = random_unitary(n, rng)
        m = (u * np.concatenate([[low], np.linspace(0.1, 0.9, n - 1)])) @ u.conj().T
        mats.append((m + m.conj().T) / 2)
    return np.array(mats)


#: Offsets of the smallest eigenvalue from the threshold -tol * n.
PLANTED_OFFSETS = [s * d for d in (1e-9, 1e-11, 1e-13, 1e-15) for s in (1, -1)] + [0.0]


class TestPhysicalMask:
    """The Cholesky screen gives positivity_test's verdict on every matrix."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_planted_band_matches_and_only_the_band_is_solved(self, monkeypatch, n, tol):
        stack = planted_stack(n, [-tol * n + d for d in PLANTED_OFFSETS], 211 + n)
        # entries are at most 0.9, so the margin is SCREEN_MARGIN * n
        in_band = np.abs(PLANTED_OFFSETS) < SCREEN_MARGIN * n
        solved = []

        def counted(mats, tol=DEFAULT_TOL):
            solved.append(mats.copy())
            return positivity_test(mats, tol)

        monkeypatch.setattr(linalg, "positivity_test", counted)
        mask = physical_mask(stack, tol)
        assert mask.tolist() == positivity_test(stack, tol)[0].tolist()
        assert len(solved) == 1
        assert np.array_equal(solved[0], stack[in_band])
        assert mask[np.array(PLANTED_OFFSETS) > SCREEN_MARGIN * n].all()
        assert not mask[np.array(PLANTED_OFFSETS) < -SCREEN_MARGIN * n].any()

    @settings(max_examples=60)
    @given(n=st.integers(2, 16), scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
           tol=st.sampled_from([0.0, 1e-12, DEFAULT_TOL, 1e-6]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_hermitian_stacks_match(self, n, scale, tol, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((12, n, n)) + 1j * rng.standard_normal((12, n, n))
        generic = scale * (g + g.conj().transpose(0, 2, 1)) / 2
        offsets = scale * rng.choice([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9], 12)
        planted = scale * planted_stack(n, (-tol * n + offsets) / scale, rng)
        stack = np.concatenate([generic, planted])
        assert physical_mask(stack, tol).tolist() == positivity_test(stack, tol)[0].tolist()

    def test_one_matrix_gives_a_scalar_verdict(self):
        for m in (np.eye(2) / 2, np.diag([1.0 + 2.5e-9, -2.5e-9]),
                  np.diag([1.0 + 2.5e-9, 0.0, -2.5e-9])):
            assert physical_mask(m).shape == ()
            assert bool(physical_mask(m)) == bool(positivity_test(m)[0])

    def test_cholesky_gufunc_gives_one_verdict_per_matrix(self):
        # numpy's private gufunc: a failed factor is NaN, nothing is raised
        eye = np.eye(3, dtype=np.complex128)
        stack = np.stack([eye, -eye, eye])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                factor = _umath_linalg.cholesky_lo(stack, signature="D->D")
            assert physical_mask(stack).tolist() == [True, False, True]
        assert np.array_equal(factor[[0, 2]], stack[[0, 2]])
        assert np.isnan(factor[1]).all()

    @pytest.mark.parametrize("n", [2, 16])
    def test_empty_stack_gives_an_empty_mask(self, n):
        mask = physical_mask(np.zeros((0, n, n), dtype=np.complex128))
        assert mask.shape == (0,) and mask.dtype == bool


def spectral_power_sums(rho):
    """Tr(rho^r) for r = 1..n from the stored spectrum."""
    w = rho.eigenvalues()
    return np.array([np.sum(w ** r) for r in range(1, rho.dim + 1)])


def matrix_power_traces(rho):
    """Tr(rho^r) for r = 1..n by repeated matrix multiplication, no
    eigenvalues involved."""
    power = np.eye(rho.dim, dtype=complex)
    expected = []
    for _ in range(rho.dim):
        power = power @ rho.matrix
        expected.append(float(power.trace().real))
    return np.array(expected)


class TestTraceInvariants:
    """The stored spectrum against traces of matrix powers."""

    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert np.allclose(spectral_power_sums(rho), [1.0, 0.5])

    def test_pure_projector_powers(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        assert np.allclose(spectral_power_sums(rho), [1.0, 1.0, 1.0])

    def test_against_matrix_powering_oracle(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        got = spectral_power_sums(rho)
        assert np.abs(got - matrix_power_traces(rho)).max() <= 1e-12
        assert abs(got[1] - 0.38) <= 1e-12

    def test_two_path_consistency_on_random_states(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4, 6):
            for _ in range(10):
                rho = random_density_matrix(n, rng)
                got = spectral_power_sums(rho)
                assert np.abs(got - matrix_power_traces(rho)).max() <= 1e-9


class TestUnitaryEquivalence:
    def test_conjugation_preserves_orbit(self):
        rng = np.random.default_rng(23)
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        u = random_unitary(2, rng)
        rho2 = DensityMatrix(u @ rho.matrix @ u.conj().T, tol=1e-9)
        assert unitarily_equivalent(rho, rho2)

    def test_different_spectra(self):
        assert not unitarily_equivalent(
            DensityMatrix(np.diag([0.7, 0.3])), DensityMatrix(np.diag([0.6, 0.4])))

    def test_reordered_degenerate_spectrum(self):
        a, b = 0.35, 0.15
        rho1 = DensityMatrix(np.diag([a, b, a, b]))
        rho2 = DensityMatrix(np.diag([a, a, b, b]))
        assert unitarily_equivalent(rho1, rho2)

    def test_spectra_apart_beyond_tol_are_not_equivalent(self):
        # the first three power sums agree within 1e-9, but the spectra are
        # 1e-5 apart and the two states fall in different orbit classes
        rho1 = DensityMatrix(np.diag([0.5, 0.25 + 1e-5, 0.25 - 1e-5]))
        rho2 = DensityMatrix(np.diag([0.5, 0.25, 0.25]))
        assert orbit_signature(rho1).state_class is not orbit_signature(rho2).state_class
        assert not unitarily_equivalent(rho1, rho2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            unitarily_equivalent(
                DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3))

    def test_random_conjugations(self):
        rng = np.random.default_rng(29)
        for n in (2, 3, 4, 6):
            for _ in range(100):
                rho = random_density_matrix(n, rng)
                u = random_unitary(n, rng)
                conj = DensityMatrix(u @ rho.matrix @ u.conj().T, tol=1e-8)
                assert unitarily_equivalent(rho, conj, tol=1e-8)


class TestConvexPath:
    """The state space is convex: DensityMatrix admits (1 - t) rho1 + t rho2."""

    def test_midpoint_of_orthogonal_pure_states(self):
        rho1 = DensityMatrix(np.diag([1.0, 0.0]))
        rho2 = DensityMatrix(np.diag([0.0, 1.0]))
        mid = DensityMatrix(0.5 * rho1.matrix + 0.5 * rho2.matrix)
        assert np.allclose(mid.matrix, np.eye(2) / 2)

    def test_path_stays_valid(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho1 = random_density_matrix(4, rng)
            rho2 = random_density_matrix(4, rng)
            for t in np.linspace(0.0, 1.0, 11):
                # validates on construction
                DensityMatrix((1.0 - t) * rho1.matrix + t * rho2.matrix)


#: Entry points that take a comparison tolerance, each called with one.  With
#: a NaN tolerance every ``defect > tol`` test passes and every
#: ``defect <= tol`` test fails, so each must refuse it up front.
TOLERANCE_TAKERS = {
    "DensityMatrix": lambda tol: DensityMatrix(
        np.array([[0.5, 1.0], [0.0, 0.5]]), tol=tol),
    "unitarily_equivalent": lambda tol: unitarily_equivalent(
        DensityMatrix(np.diag([0.6, 0.4])), DensityMatrix(np.diag([0.6, 0.4])), tol=tol),
    "majorize_compare": lambda tol: majorize_compare(
        DensityMatrix(np.diag([0.5, 0.3, 0.2])), DensityMatrix(np.diag([0.7, 0.2, 0.1])),
        tol=tol),
    "is_symplectic": lambda tol: is_symplectic(np.eye(4), tol=tol),
    "has_sp_block_form": lambda tol: has_sp_block_form(np.eye(4), tol=tol),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-3])
@pytest.mark.parametrize("name", sorted(TOLERANCE_TAKERS))
def test_bad_tolerance_is_refused(name, tol):
    with pytest.raises(ParameterOutOfRange, match="finite and nonnegative"):
        TOLERANCE_TAKERS[name](tol)


#: Entry points whose tolerance sets the positivity slack tol * n, each
#: called at n = 2 on a state.
STATE_TOLERANCE_TAKERS = {
    "DensityMatrix": lambda tol: DensityMatrix(np.eye(2) / 2, tol=tol),
    "positivity_test": lambda tol: positivity_test(np.eye(2) / 2, tol),
    "physical_mask": lambda tol: physical_mask(np.eye(2)[None] / 2, tol),
    "is_physical_vector": lambda tol: is_physical_vector(
        CoherenceVector(2, [0.0, 0.0, 0.5]), tol),
    "sphere_physical_fraction": lambda tol: sphere_physical_fraction(
        2, 0.75, 10, seed=0, tol=tol),
}


@pytest.mark.parametrize("name", sorted(STATE_TOLERANCE_TAKERS))
def test_tolerance_not_below_one_over_n_is_refused(name):
    # at a slack tol * n of 1, diag(2, -1) would pass as a qubit state; at
    # 1e308 every finite Hermitian matrix would, and its spectrum could
    # overflow the coherence radius and the purity
    call = STATE_TOLERANCE_TAKERS[name]
    for tol in (0.5, 1e308):
        with pytest.raises(ParameterOutOfRange, match=r"outside \[0, 1/n\) at n=2"):
            call(tol)
    call(np.nextafter(0.5, 0.0))


#: Calls with a bad integer parameter, each with the error it must raise:
#: DimensionOutOfRange for a dimension, OddDimension for a half-dimension and
#: ParameterOutOfRange for a count.
BAD_INTEGERS = {
    "random_unitary(-1)": (lambda: random_unitary(-1), DimensionOutOfRange),
    "random_unitary(0)": (lambda: random_unitary(0), DimensionOutOfRange),
    "random_unitary(2.0)": (lambda: random_unitary(2.0), DimensionOutOfRange),
    "random_density_matrix(-1)": (lambda: random_density_matrix(-1), DimensionOutOfRange),
    "hermitian_a_grid(0.5, -3)": (lambda: hermitian_a_grid(0.5, -3), ParameterOutOfRange),
    "hermitian_a_grid(0.5, 2.5)": (lambda: hermitian_a_grid(0.5, 2.5), ParameterOutOfRange),
    "sphere_physical_fraction(3, 0.5, 2.5, 0)": (
        lambda: sphere_physical_fraction(3, 0.5, 2.5, 0), ParameterOutOfRange),
    "sphere_physical_fraction(3.0, 0.5, 10, 0)": (
        lambda: sphere_physical_fraction(3.0, 0.5, 10, 0), DimensionOutOfRange),
    "enumerate_orbit_table(3.5)": (lambda: enumerate_orbit_table(3.5), DimensionOutOfRange),
    "standard_J(2.5)": (lambda: standard_J(2.5), OddDimension),
    "standard_J(0)": (lambda: standard_J(0), OddDimension),
    "random_symplectic(2.5)": (lambda: random_symplectic(2.5), OddDimension),
    "generate_basis(3.0)": (lambda: generate_basis(3.0), DimensionOutOfRange),
    "random_unitary(2, seed=-1)": (lambda: random_unitary(2, seed=-1), ParameterOutOfRange),
    "random_unitary(2, seed=1.5)": (lambda: random_unitary(2, seed=1.5), ParameterOutOfRange),
    "random_symplectic(1, seed=-1)": (lambda: random_symplectic(1, seed=-1), ParameterOutOfRange),
    "sphere_physical_fraction(3, 0.5, 10, seed=-1)": (
        lambda: sphere_physical_fraction(3, 0.5, 10, seed=-1), ParameterOutOfRange),
    "sphere_physical_fraction(3, 0.5, 10, seed=1.5)": (
        lambda: sphere_physical_fraction(3, 0.5, 10, seed=1.5), ParameterOutOfRange),
    "CoherenceVector(dim=3.0, ...)": (
        lambda: CoherenceVector(dim=3.0, components=np.zeros(8)), DimensionOutOfRange),
    "hermitian_a_grid(0.5, 100_001)": (lambda: hermitian_a_grid(0.5, 100_001), ParameterOutOfRange),
    "default_region_grid_axes(100_001)": (
        lambda: default_region_grid_axes(100_001), ParameterOutOfRange),
}


@pytest.mark.parametrize("name", sorted(BAD_INTEGERS))
def test_bad_integer_parameter_is_refused(name):
    call, error = BAD_INTEGERS[name]
    with pytest.raises(error):
        call()


def test_purity_matches_squared_spectrum():
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
    assert abs(purity(rho) - 0.38) <= 1e-12


def test_dimension_cap():
    from orbit_atlas import DimensionOutOfRange

    with pytest.raises(DimensionOutOfRange):
        DensityMatrix(np.eye(65) / 65)
    DensityMatrix(np.eye(64) / 64)  # boundary dimension is supported


def test_classify_solves_the_spectrum_once(tmp_path, monkeypatch, capsys):
    m = random_density_matrix(4, 5).matrix
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 4, "re": m.real.tolist(), "im": m.imag.tolist()}))
    args = cli.build_parser().parse_args(["classify", "--input", str(path)])
    calls = []

    def counted(name):
        solver = getattr(np.linalg, name)

        def wrapper(*a, **k):
            calls.append(name)
            return solver(*a, **k)
        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    assert cli.cmd_classify(args) == 0
    assert calls == ["eigvalsh"]
    assert json.loads(capsys.readouterr().out)["state_class"] == "Generic"


def write_state(path, m):
    path.write_text(json.dumps({"dim": len(m), "re": m.real.tolist(), "im": m.imag.tolist()}))
    return str(path)


def test_no_command_or_sampler_calls_eigh(tmp_path, monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    s = random_symplectic(8, 3)
    assert is_symplectic(s) and has_sp_block_form(s)
    state = write_state(tmp_path / "m.json", np.diag([0.5, 0.3, 0.2]).astype(complex))
    vector = tmp_path / "v.json"
    vector.write_text(json.dumps({"dim": 2, "convention": "coherence",
                                  "components": [0.0, 0.0, 0.5]}))
    for argv in (["classify", "--input", state],
                 ["bloch", "--to-matrix", "--check", "--input", str(vector)],
                 ["tables", "sp"]):
        assert cli.main(argv) == 0, capsys.readouterr().err
    assert 0.0 <= sphere_physical_fraction(3, 0.6, 500, 0) <= 1.0


def test_a_failed_eigensolve_is_no_convergence(tmp_path, monkeypatch, capsys):
    def failed(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failed)
    with pytest.raises(NoConvergence, match="did not converge"):
        DensityMatrix(np.eye(2) / 2)
    state = write_state(tmp_path / "m.json", np.eye(2, dtype=complex) / 2)
    assert cli.main(["classify", "--input", state]) == 3
    assert capsys.readouterr() == ("", "error: Eigenvalues did not converge\n")


def skewed_state(n, pair, scale, seed):
    """``(rho, m)``: an exactly Hermitian state rho whose levels ``pair`` and
    ``pair + 1`` (nonincreasing order) are equal, and m = rho + K with K
    anti-Hermitian, entries of modulus ``scale``, phase-aligned so that the
    Hermitian completion of m's lower triangle splits that pair.

    The completion is rho + H with H_ij = K_ij below the diagonal, and
    v^dag H v = sum_{i>j} 2 Re(conj(v_i) K_ij v_j) for either eigenvector v
    of the pair; K_ij takes the phase that makes the difference of the two
    sums as large as it can be.
    """
    rng = np.random.default_rng(seed)
    w = -np.sort(-rng.uniform(0.5, 1.5, n))
    w[pair + 1] = w[pair]
    w /= w.sum()
    u = random_unitary(n, rng)
    rho = (u * w) @ u.conj().T
    rho = (rho + rho.conj().T) / 2
    a, b = u[:, pair], u[:, pair + 1]
    spread = np.outer(a.conj(), a) - np.outer(b.conj(), b)
    k = np.tril(scale * np.exp(-1j * np.angle(spread)), -1)
    return rho, rho + k - k.conj().T


def classification(m):
    """``orbit_signature``'s class and level count for the state m, or the
    name of the error it raises."""
    try:
        sig = orbit_signature(DensityMatrix(m))
    except AmbiguousClustering:
        return "AmbiguousClustering"
    return sig.state_class.value, len(sig.multiplicities)


class TestHermitianPart:
    """A state is the Hermitian part of its input: an admitted skew part
    cannot move the spectrum."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_an_admitted_skew_part_cannot_split_a_degenerate_pair(self, seed):
        rho, m = skewed_state(64, 10, 4.9e-10, seed)
        assert DEFAULT_TOL / 2 < linalg.hermiticity_defect(m) <= DEFAULT_TOL
        # read from the lower triangle alone, the pair is 2e-8 to 4e-8 apart
        ascending = np.linalg.eigvalsh(m)
        assert ascending[-11] - ascending[-12] > 2e-8
        for x in (m, m.T, (m + m.conj().T) / 2, rho):
            assert classification(x) == ("OtherDegenerate", 63)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 3, 8, 16, 32, 64]), data=st.data(),
           fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_input_its_transpose_and_its_hermitian_part_agree(self, n, data, fraction, seed):
        pair = data.draw(st.integers(0, n - 2), label="pair")
        # entries of K up to tol / 2 keep the defect max|2K| within tol
        _, m = skewed_state(n, pair, fraction * DEFAULT_TOL / 2, seed)
        verdict = classification(m)
        assert classification(m.T) == verdict
        assert classification((m + m.conj().T) / 2) == verdict

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_exactly_hermitian_input_is_kept_bit_for_bit(self, n):
        g = np.random.default_rng(n).standard_normal((n, n, 2)) @ [1, 1j]
        m = g @ g.conj().T
        m = (m + m.conj().T) / (2 * m.trace().real)
        rho = DensityMatrix(m)
        assert rho.matrix.tobytes() == m.tobytes()
        assert rho.eigenvalues().tobytes() == np.linalg.eigvalsh(m)[::-1].tobytes()
