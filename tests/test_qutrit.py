import dataclasses
import io
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_atlas import (
    DensityMatrix,
    ParameterOutOfRange,
    RegionClass,
    StateClass,
    feasibility,
    feasible_interval,
    fig2_curve,
    fig3_curve,
    is_physical_vector,
    orbit_signature,
    purity,
    qutrit_from_params,
    sphere_physical_fraction,
)
from orbit_atlas import qutrit
from orbit_atlas.exceptions import NoConvergence
from orbit_atlas.formats import (
    FLOAT,
    _format_rows,
    fmt,
    write_fig2_csv,
    write_fig3_csv,
    write_region_csv,
)
from orbit_atlas.linalg import physical_mask, positivity_test
from orbit_atlas.orbits import entropy_of_spectrum
from orbit_atlas.pauli import CoherenceVector, _expand
from orbit_atlas.qutrit import (
    BOUNDARY_TOL,
    K2_SNAP,
    QutritRegionPoint,
    REGION_CURVES,
    _mc_chunk,
    dashdot_curve,
    dashed_curve,
    default_region_grid_axes,
    hermitian_a_grid,
    region_rows,
    solid_curve,
)


def scan_feasible_interval(c2, step=1e-5, slack=1e-9):
    """Brute-force oracle: scan all three inequalities plus a >= 1/3."""
    a = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    ok = ((3 * a * a - 2 * a + 1 <= 2 * c2 + slack)
          & (2 * a * a - 2 * a + 1 >= c2 - slack)
          & (6 * a * a - 4 * a + 1 >= c2 - slack)
          & (a >= 1 / 3 - slack))
    sel = a[ok]
    assert sel.size > 0
    return float(sel.min()), float(sel.max())


class TestFromParams:
    def test_center(self):
        p = qutrit_from_params(1 / 3, 1 / 3)
        assert p.K == 0.0
        assert abs(p.b - 1 / 3) <= 1e-15 and abs(p.c - 1 / 3) <= 1e-15
        assert p.classification is RegionClass.UNIQUE_ORBIT

    def test_pure_corner(self):
        p = qutrit_from_params(1.0, 1.0)
        assert p.K == 0.0
        assert abs(p.b) <= 1e-15 and abs(p.c) <= 1e-15

    def test_interior_point(self):
        p = qutrit_from_params(0.5, 0.4)
        assert abs(p.K - math.sqrt(0.05)) <= 1e-15
        assert p.classification is RegionClass.UNIQUE_ORBIT
        assert abs(p.a + p.b + p.c - 1.0) <= 1e-12
        assert abs(p.a ** 2 + p.b ** 2 + p.c ** 2 - 0.4) <= 1e-12

    def test_identities_hold_across_the_region(self):
        rng = np.random.default_rng(101)
        count = 0
        while count < 200:
            a, c2 = rng.random(), rng.uniform(1 / 3, 1.0)
            p = qutrit_from_params(a, c2)
            if p.classification is RegionClass.NON_HERMITIAN:
                continue
            count += 1
            assert abs(p.a + p.b + p.c - 1.0) <= 1e-12
            assert abs(p.a ** 2 + p.b ** 2 + p.c ** 2 - c2) <= 1e-12

    def test_unique_orbit_points_are_valid_states(self):
        rng = np.random.default_rng(103)
        count = 0
        while count < 100:
            a, c2 = rng.random(), rng.uniform(1 / 3, 1.0)
            p = qutrit_from_params(a, c2)
            if p.classification is not RegionClass.UNIQUE_ORBIT:
                continue
            count += 1
            assert p.a >= p.b >= p.c >= -1e-12
            assert p.a >= 1 / 3 - 1e-12
            rho = DensityMatrix(np.diag([p.a, p.b, max(p.c, 0.0)]))
            assert abs(purity(rho) - c2) <= 1e-10

    def test_domain_errors(self):
        with pytest.raises(ParameterOutOfRange):
            qutrit_from_params(1.2, 0.5)
        with pytest.raises(ParameterOutOfRange):
            qutrit_from_params(0.5, 0.2)


class TestFeasibility:
    def test_non_hermitian(self):
        # 3a^2-2a+1 = 1.63 > 2*0.6
        assert feasibility(0.9, 0.6) is RegionClass.NON_HERMITIAN

    def test_non_positive(self):
        # 2a^2-2a+1 = 0.68 < 0.9
        assert feasibility(0.2, 0.9) is RegionClass.NON_POSITIVE

    def test_unique_orbit(self):
        assert feasibility(0.5, 0.4) is RegionClass.UNIQUE_ORBIT

    def test_physical_duplicate(self):
        # Hermitian and positive at c2 < 1/2 but fails the ordering inequality
        assert feasibility(0.4, 0.45) is RegionClass.PHYSICAL_DUPLICATE

    def test_solid_boundary_is_degenerate_pair(self):
        c2 = 0.7
        a = (1.0 + math.sqrt(6 * c2 - 2)) / 3.0
        assert feasibility(a, c2) is RegionClass.BOUNDARY_PSEUDO_PURE_SOLID
        p = qutrit_from_params(a, c2)
        sig = orbit_signature(DensityMatrix(np.diag([p.a, p.b, p.c])))
        assert sig.state_class is StateClass.PSEUDO_PURE

    def test_dashdot_boundary_is_degenerate_pair(self):
        c2 = 0.45
        a = (2.0 + math.sqrt(6 * c2 - 2)) / 6.0  # root of 6a^2-4a+1 = c2
        assert feasibility(a, c2) is RegionClass.BOUNDARY_PSEUDO_PURE_DASH_DOT
        p = qutrit_from_params(a, c2)
        assert abs(p.a - p.b) <= 1e-10
        sig = orbit_signature(DensityMatrix(np.diag([p.a, p.b, p.c])))
        assert sig.state_class is StateClass.PSEUDO_PURE


class TestFeasibleInterval:
    def test_minimal_purity_collapses_to_center(self):
        iv = feasible_interval(1 / 3)
        assert iv.K1 == 0.0
        assert iv.a_lo == iv.a_hi == pytest.approx(1 / 3, abs=1e-15)

    def test_half_purity_closed_form(self):
        iv = feasible_interval(0.5)
        assert iv.K1 == pytest.approx(1.0, abs=1e-12)
        # oracle-confirmed endpoints: the ordering inequality forces a >= 1/2
        assert iv.a_lo == pytest.approx(0.5, abs=1e-9)
        assert iv.a_hi == pytest.approx(2 / 3, abs=1e-9)
        scan = scan_feasible_interval(0.5)
        assert abs(scan[0] - iv.a_lo) <= 1e-4
        assert abs(scan[1] - iv.a_hi) <= 1e-4

    def test_unit_purity_collapses_to_pure(self):
        iv = feasible_interval(1.0)
        assert iv.K1 == pytest.approx(2.0)
        assert iv.K2 == pytest.approx(1.0)
        assert iv.a_lo == iv.a_hi == pytest.approx(1.0, abs=1e-12)

    def test_against_grid_scan(self):
        for c2 in np.linspace(1 / 3, 1.0, 12):
            iv = feasible_interval(float(c2))
            scan = scan_feasible_interval(float(c2))
            assert abs(scan[0] - iv.a_lo) <= 1e-4
            assert abs(scan[1] - iv.a_hi) <= 1e-4

    def test_continuity_at_branch_switch(self):
        below = feasible_interval(0.5 - 1e-10)
        above = feasible_interval(0.5 + 1e-10)
        assert abs(below.a_lo - above.a_lo) <= 2e-5  # vertical tangent above
        assert abs(below.a_hi - above.a_hi) <= 1e-9

    def test_domain_error(self):
        with pytest.raises(ParameterOutOfRange):
            feasible_interval(0.2)


def grid_classes(c2_values, a_values):
    """``(a, c2, class)`` per point of ``region_rows``' grid, c2-major."""
    a_list = np.asarray(a_values, dtype=float).tolist()
    return [(a, c2, k) for c2, classes in region_rows(c2_values, a_values)
            for a, k in zip(a_list, classes)]


class TestRegionGrid:
    def test_center_is_unique_orbit(self):
        ((_, classes),) = region_rows([1 / 3], [1 / 3])
        assert classes[0] is RegionClass.UNIQUE_ORBIT

    def test_unique_records_lie_in_feasible_interval(self):
        c2_grid, a_grid = default_region_grid_axes()
        res = float(a_grid[10] - a_grid[0])
        for a, c2, k in grid_classes(c2_grid[:6], a_grid[::10]):
            if k is RegionClass.UNIQUE_ORBIT:
                iv = feasible_interval(c2)
                assert iv.a_lo - res <= a <= iv.a_hi + res

    def test_no_non_positive_below_half_purity(self):
        _, a_grid = default_region_grid_axes()
        ((_, classes),) = region_rows([0.45], a_grid)
        assert all(k is not RegionClass.NON_POSITIVE for k in classes)

    def test_curve_columns(self):
        ((c2, classes),) = region_rows([0.5], [0.4])
        assert (c2, len(classes)) == (0.5, 1)
        curve1, curve2, curve3 = (curve(0.4) for curve in REGION_CURVES)
        assert curve1 == pytest.approx(3 * 0.16 - 0.8 + 1)
        assert curve2 == pytest.approx(2 * 0.16 - 0.8 + 1)
        assert curve3 == pytest.approx(6 * 0.16 - 1.6 + 1)


def hermitian_a_range(c2, steps=400):
    k1 = math.sqrt(max(6 * c2 - 2, 0.0))
    return np.linspace(max((1 - k1) / 3, 0.0), min((1 + k1) / 3, 1.0), steps)


class TestFigureCurves:
    def test_fig2_minimal_purity_single_point(self):
        points = fig2_curve(1 / 3, [1 / 3])
        assert len(points) == 1
        assert points[0][1] == pytest.approx(2 / 3, abs=1e-12)

    def test_fig2_nonincreasing_above_half_purity(self):
        iv = feasible_interval(0.6)
        points = fig2_curve(0.6, np.linspace(iv.a_lo, iv.a_hi, 300))
        vals = np.array([v for _, v in points])
        assert np.all(np.diff(vals) <= 1e-12)

    def test_fig2_sign_change_below_half_purity(self):
        points = fig2_curve(0.4, hermitian_a_range(0.4))
        diffs = np.diff([v for _, v in points])
        assert (diffs > 1e-12).any() and (diffs < -1e-12).any()

    def test_fig2_skips_non_hermitian_points(self):
        points = fig2_curve(0.6, [0.9, 0.7])
        assert len(points) == 1  # a = 0.9 has K^2 < 0 at this purity

    def test_fig3_pure_endpoint(self):
        points = fig3_curve(1.0, [1.0])
        assert points[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_fig3_minimal_purity_maximal_entropy(self):
        points = fig3_curve(1 / 3, [1 / 3])
        assert points[0][1] == pytest.approx(math.log(3), abs=1e-12)

    def test_fig3_nondecreasing_above_half_purity(self):
        iv = feasible_interval(0.6)
        points = fig3_curve(0.6, np.linspace(iv.a_lo, iv.a_hi, 300))
        vals = np.array([v for _, v in points])
        assert np.all(np.diff(vals) >= -1e-12)

    def test_fig3_skips_non_positive_points(self):
        # at c2 = 0.76, a = 0.6 sits on the ordering curve but c < 0
        points = fig3_curve(0.76, [0.6])
        assert len(points) == 0


# --------------------------------------------------------------------------
# Per-point reference: the scalar formulas that the array kernel replaced,
# kept verbatim (less the domain check) as the oracle for the vectorised code.

def ref_feasibility(a, c2):
    disc = 2.0 * c2 - solid_curve(a)  # this is K^2
    if disc < -K2_SNAP:
        return RegionClass.NON_HERMITIAN
    if dashed_curve(a) < c2 - K2_SNAP:
        return RegionClass.NON_POSITIVE
    on_solid = abs(disc) <= BOUNDARY_TOL
    on_dashdot = abs(dashdot_curve(a) - c2) <= BOUNDARY_TOL
    if on_solid and on_dashdot and abs(a - 1.0 / 3.0) <= 1e-12:
        pass  # the centre falls through
    elif on_solid:
        return RegionClass.BOUNDARY_PSEUDO_PURE_SOLID
    elif on_dashdot:
        return RegionClass.BOUNDARY_PSEUDO_PURE_DASH_DOT
    if dashdot_curve(a) >= c2 - K2_SNAP and a >= 1.0 / 3.0 - 1e-12:
        return RegionClass.UNIQUE_ORBIT
    return RegionClass.PHYSICAL_DUPLICATE


def ref_from_params(a, c2):
    classification = ref_feasibility(a, c2)
    disc = 2.0 * c2 - solid_curve(a)
    if classification is RegionClass.NON_HERMITIAN:
        return QutritRegionPoint(a=a, c2=c2, b=math.nan, c=math.nan,
                                 K=math.nan, classification=classification)
    k = 0.0 if abs(disc) <= K2_SNAP else math.sqrt(disc)
    return QutritRegionPoint(
        a=a, c2=c2, b=(1.0 - a + k) / 2.0, c=(1.0 - a - k) / 2.0, K=k,
        classification=classification)


def ref_region_grid(c2_values, a_values):
    """``(a, c2, class, curve1, curve2, curve3)`` per grid point, c2-major."""
    return [(float(a), float(c2), ref_feasibility(float(a), float(c2)),
             float(solid_curve(a)), float(dashed_curve(a)), float(dashdot_curve(a)))
            for c2 in c2_values for a in a_values]


def ref_grid_classes(c2_values, a_values):
    return [r[:3] for r in ref_region_grid(c2_values, a_values)]


def ref_fig2(c2, a_values):
    out = []
    for a in a_values:
        a = float(a)
        disc = 2.0 * c2 - solid_curve(a)
        if disc < -K2_SNAP:
            continue
        k = 0.0 if abs(disc) <= K2_SNAP else math.sqrt(disc)
        out.append((a, (1.0 + a + k) / 2.0))
    return out


def ref_fig3(c2, a_values):
    out = []
    for a in a_values:
        a = float(a)
        disc = 2.0 * c2 - solid_curve(a)
        if disc < -K2_SNAP:
            continue
        k = 0.0 if abs(disc) <= K2_SNAP else math.sqrt(disc)
        c = (1.0 - a - k) / 2.0
        if c < -K2_SNAP:
            continue
        b = (1.0 - a + k) / 2.0
        out.append((a, entropy_of_spectrum((a, b, max(c, 0.0)))))
    return out


def bits(rows):
    """Exact, NaN- and sign-aware comparison key: the repr of every field of
    every record or tuple."""
    return [tuple(map(repr, dataclasses.astuple(r) if dataclasses.is_dataclass(r) else r))
            for r in rows]


def special_a_values(c2):
    """a at 1/3 and 1, and on the solid, dashed and dash-dot curves at c2,
    where those roots lie in [0, 1]."""
    k1 = math.sqrt(max(6.0 * c2 - 2.0, 0.0))
    k2 = math.sqrt(max(2.0 * c2 - 1.0, 0.0))
    roots = [(1.0 - k1) / 3.0, (1.0 + k1) / 3.0,   # solid
             (1.0 - k2) / 2.0, (1.0 + k2) / 2.0,   # dashed
             (2.0 - k1) / 6.0, (2.0 + k1) / 6.0]   # dash-dot
    return [1.0 / 3.0, 1.0] + [a for a in roots if 0.0 <= a <= 1.0]


#: Purities outside the shipped datasets: the domain ends, the c2 = 1/2
#: branch switch, and random draws.
KERNEL_C2 = [1.0 / 3.0, 0.5, 1.0] + np.random.default_rng(7).uniform(1 / 3, 1.0, 25).tolist()


class TestKernelAgainstReference:
    """The vectorised datasets equal the per-point formulas bit for bit on
    grids the golden CSVs do not cover."""

    @pytest.mark.parametrize("steps", [1, 2])
    def test_region_grid_short_a_grids(self, steps):
        c2_grid, _ = default_region_grid_axes()
        grid = np.linspace(1.0 / 3.0, 1.0, steps)
        assert bits(grid_classes(c2_grid, grid)) == bits(ref_grid_classes(c2_grid, grid))

    def test_region_grid_random_purities_and_special_points(self):
        a_values = sorted({a for c2 in KERNEL_C2 for a in special_a_values(c2)})
        assert bits(grid_classes(KERNEL_C2, a_values)) == \
            bits(ref_grid_classes(KERNEL_C2, a_values))

    def test_region_csv_renders_the_reference_grid(self):
        a_values = sorted({a for c2 in KERNEL_C2 for a in special_a_values(c2)})
        assert render(write_region_csv, KERNEL_C2, a_values) == \
            ref_region_csv(KERNEL_C2, a_values)

    @pytest.mark.parametrize("c2", KERNEL_C2)
    def test_scalar_entry_points(self, c2):
        for a in special_a_values(c2) + np.linspace(0.0, 1.0, 41).tolist():
            assert feasibility(a, c2) is ref_feasibility(a, c2)
            assert bits([qutrit_from_params(a, c2)]) == bits([ref_from_params(a, c2)])

    @pytest.mark.parametrize("c2", [1.0 / 3.0, 1.0 / 3.0 + 5e-11])
    def test_points_in_both_boundary_bands(self, c2):
        for offset in (-2e-6, -4e-7, -1e-12, 0.0, 1e-13, 4e-7, 2e-6):
            a = 1.0 / 3.0 + offset
            assert bits([qutrit_from_params(a, c2)]) == bits([ref_from_params(a, c2)])

    @pytest.mark.parametrize("steps", [1, 2, 150])
    @pytest.mark.parametrize("c2", KERNEL_C2)
    def test_figure_curves(self, c2, steps):
        grid = np.concatenate([hermitian_a_grid(c2, steps), special_a_values(c2)])
        assert bits(fig2_curve(c2, grid).tolist()) == bits(ref_fig2(c2, grid))
        assert bits(fig3_curve(c2, grid).tolist()) == bits(ref_fig3(c2, grid))

    @pytest.mark.parametrize("c2", KERNEL_C2 + [0.4, 0.55, 0.6, 0.8])
    def test_fig3_is_entropy_of_spectrum(self, c2):
        points = fig3_curve(c2, hermitian_a_grid(c2, 400)).tolist()
        assert points
        for a, value in points:
            p = qutrit_from_params(a, c2)
            assert repr(value) == repr(entropy_of_spectrum((p.a, p.b, max(p.c, 0.0))))

    @pytest.mark.parametrize("c2", [0.4, 0.55, 0.6, 0.8])
    def test_hermitian_grid_is_the_dataset_grid(self, c2):
        assert hermitian_a_grid(c2, 400).tolist() == hermitian_a_range(c2).tolist()

    def test_hermitian_grid_collapses_at_minimal_purity(self):
        assert hermitian_a_grid(1.0 / 3.0, 7).tolist() == [1.0 / 3.0]


# --------------------------------------------------------------------------
# Per-value reference rendering: every cell through ``fmt``, one point at a
# time, as the writers did before they formatted whole columns.


def render(writer, *args) -> str:
    buf = io.StringIO()
    writer(buf, *args)
    return buf.getvalue()


def ref_region_csv(c2_values, a_values):
    return "".join(["a,c2,class,curve1,curve2,curve3\n"] + [
        ",".join([fmt(a), fmt(c2), k.value] + [fmt(v) for v in curves]) + "\n"
        for a, c2, k, *curves in ref_region_grid(c2_values, a_values)])


def ref_curve_csv(column, c2, points):
    return "".join([f"c2,a,{column}\n"] +
                   [f"{fmt(c2)},{fmt(a)},{fmt(v)}\n" for a, v in points])


#: Doubles where 12-digit formatting is easy to get wrong: signed zeros,
#: non-finite values, subnormals, the exponent switch points 1e-5 and 1e12
#: on both sides, and random bit patterns.
SPECIAL_DOUBLES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-5, math.nextafter(1e-5, 0.0), 1e12,
    math.nextafter(1e12, math.inf), 999999999999.5, -999999999999.5, 1 / 3,
    *np.random.default_rng(3).integers(0, 2 ** 63, 2000).view(np.float64).tolist(),
]


class TestWritersAgainstReference:
    """The column-at-a-time CSV writers print the bytes of the per-value
    rendering."""

    def test_fmt_follows_the_shared_spec(self):
        for x in SPECIAL_DOUBLES:
            assert fmt(x) == f"{x + 0.0:.12g}" == FLOAT % (x + 0.0)
        column = np.array(SPECIAL_DOUBLES)[:, None]
        assert _format_rows(FLOAT + "\n", column) == "".join(fmt(x) + "\n" for x in SPECIAL_DOUBLES)

    @pytest.mark.parametrize("c2", KERNEL_C2)
    def test_figure_csvs_on_grids_with_special_points(self, c2):
        grid = np.concatenate([hermitian_a_grid(c2, 150), special_a_values(c2)])
        assert render(write_fig2_csv, c2, fig2_curve(c2, grid)) == \
            ref_curve_csv("a_plus_b", c2, ref_fig2(c2, grid))
        assert render(write_fig3_csv, c2, fig3_curve(c2, grid)) == \
            ref_curve_csv("entropy", c2, ref_fig3(c2, grid))

    @pytest.mark.parametrize("c2, grid", [(1.0 / 3.0, hermitian_a_grid(1.0 / 3.0, 7)),
                                          (1.0, [1.0])])
    def test_single_point_curves(self, c2, grid):
        # the maximally mixed point and the pure endpoint
        fig2 = render(write_fig2_csv, c2, fig2_curve(c2, grid))
        fig3 = render(write_fig3_csv, c2, fig3_curve(c2, grid))
        assert fig2 == ref_curve_csv("a_plus_b", c2, ref_fig2(c2, grid))
        assert fig3 == ref_curve_csv("entropy", c2, ref_fig3(c2, grid))
        assert fig2.count("\n") == fig3.count("\n") == 2

    def test_empty_fig3_curve_is_the_header(self):
        assert render(write_fig3_csv, 0.76, fig3_curve(0.76, [0.6])) == "c2,a,entropy\n"

    def test_negative_zero_prints_as_zero(self):
        points = np.array([[-0.0, -0.0], [0.5, -0.0]])
        assert render(write_fig2_csv, -0.0, points) == "c2,a,a_plus_b\n0,0,0\n0,0.5,0\n"
        a_values = [-0.0, 0.5]
        out = render(write_region_csv, [0.5], a_values)
        assert out == ref_region_csv([0.5], a_values)
        assert out.splitlines()[1].startswith("0,0.5,")


#: Distance from an endpoint of the feasible interval beyond which the
#: classification must agree with it.
INTERVAL_MARGIN = 1e-9

@st.composite
def points_near_feasible_interval(draw):
    c2 = draw(st.floats(1.0 / 3.0, 1.0))
    iv = feasible_interval(c2)
    anchor = draw(st.sampled_from([iv.a_lo, iv.a_hi, (iv.a_lo + iv.a_hi) / 2.0]))
    offset = draw(st.one_of(st.floats(-1.0, 1.0), st.floats(-1e-6, 1e-6)))
    return min(max(anchor + offset, 0.0), 1.0), c2, iv


class TestFeasibilityAgreesWithInterval:
    @settings(max_examples=400)
    @given(point=points_near_feasible_interval())
    def test_property(self, point):
        """Inside the interval by more than the margin: UniqueOrbit or a
        boundary class.  Outside it by more than the margin: never
        UniqueOrbit."""
        a, c2, iv = point
        found = feasibility(a, c2)
        if iv.a_lo + INTERVAL_MARGIN < a < iv.a_hi - INTERVAL_MARGIN:
            assert found in (RegionClass.UNIQUE_ORBIT,
                             RegionClass.BOUNDARY_PSEUDO_PURE_SOLID,
                             RegionClass.BOUNDARY_PSEUDO_PURE_DASH_DOT)
        elif a < iv.a_lo - INTERVAL_MARGIN or a > iv.a_hi + INTERVAL_MARGIN:
            assert found is not RegionClass.UNIQUE_ORBIT

    def test_centre_band_point_outside_the_interval(self):
        a, c2 = 1.0 / 3.0 + 4e-7, 1.0 / 3.0
        assert a > feasible_interval(c2).a_hi + INTERVAL_MARGIN
        p = qutrit_from_params(a, c2)
        sig = orbit_signature(DensityMatrix(np.diag([p.a, p.b, p.c])))
        assert sig.state_class is StateClass.PSEUDO_PURE
        assert p.classification is not RegionClass.UNIQUE_ORBIT


class TestDomainSurvivesVectorisation:
    @pytest.mark.parametrize("c2_values, a_values", [
        ([0.5], [1.2]), ([0.2], [0.5]), ([0.5], [math.nan]), ([math.nan], [0.5]),
        ([0.5, 0.6], [0.4, -0.1, 0.7]), ([], [1.2]),
    ])
    def test_region_grid_rejects_points_outside_the_domain(self, c2_values, a_values):
        with pytest.raises(ParameterOutOfRange):
            region_rows(c2_values, a_values)

    @pytest.mark.parametrize("a, c2", [(math.nan, 0.5), (0.5, math.nan)])
    def test_scalar_entry_points_reject_nan(self, a, c2):
        with pytest.raises(ParameterOutOfRange):
            feasibility(a, c2)
        with pytest.raises(ParameterOutOfRange):
            qutrit_from_params(a, c2)

    @pytest.mark.parametrize("a, c2", [(math.nan, 0.5), (1.5, 0.5), (0.5, math.nan)])
    def test_figure_curves_reject_points_outside_the_domain(self, a, c2):
        with pytest.raises(ParameterOutOfRange):
            fig2_curve(c2, [0.4, a])
        with pytest.raises(ParameterOutOfRange):
            fig3_curve(c2, [0.4, a])


def exact_qutrit_fraction(c2):
    """Physical share of the n = 3 sphere of purity c2: 1 for c2 <= 1/2, else
    1 - (6/pi)(alpha/2 - sin(6 alpha)/12) with alpha = arccos(1/sqrt(6 c2 - 2))."""
    if c2 <= 0.5:
        return 1.0
    alpha = math.acos(1 / math.sqrt(6 * c2 - 2))
    return 1 - (6 / math.pi) * (alpha / 2 - math.sin(6 * alpha) / 12)


def weyl_qutrit_fraction(c2, points=200_000):
    """The same share by quadrature: by the Weyl integration formula the
    spectrum of a uniform direction has density ~ Vandermonde^2 on the circle
    sum(w) = 1, sum(w^2) = c2, and the share is the weight of min(w) >= 0."""
    theta = np.linspace(0.0, 2 * np.pi, points, endpoint=False)
    e1, e2 = np.array([1, -1, 0]) / math.sqrt(2), np.array([1, 1, -2]) / math.sqrt(6)
    w = 1 / 3 + math.sqrt(c2 - 1 / 3) * (np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2)
    weight = ((w[:, 0] - w[:, 1]) * (w[:, 0] - w[:, 2]) * (w[:, 1] - w[:, 2])) ** 2
    return float(weight[w.min(axis=1) >= 0].sum() / weight.sum())


class TestSpherePhysicalFraction:
    def test_qubit_sphere_fully_physical(self):
        assert sphere_physical_fraction(2, 0.8, 2000, seed=1) == 1.0

    def test_qutrit_low_purity_fully_physical(self):
        assert sphere_physical_fraction(3, 0.45, 2000, seed=2) == 1.0

    def test_qutrit_boundary_sphere_essentially_empty(self):
        assert sphere_physical_fraction(3, 1.0, 2000, seed=3) <= 0.001

    def test_deterministic_per_seed(self):
        a = sphere_physical_fraction(3, 0.7, 500, seed=9)
        b = sphere_physical_fraction(3, 0.7, 500, seed=9)
        assert a == b

    def test_fraction_decays_with_purity(self):
        fracs = [sphere_physical_fraction(3, c2, 10000, seed=12)
                 for c2 in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
        for lo, hi in zip(fracs[1:], fracs[:-1]):
            assert lo <= hi + 0.02

    def test_matches_scalar_physicality_test(self):
        n, c2, seed = 3, 0.75, 31
        frac = sphere_physical_fraction(n, c2, 64, seed=seed)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((64, n * n - 1))
        vecs = g * (math.sqrt(c2 - 1 / n) / np.linalg.norm(g, axis=1))[:, None]
        flags = [is_physical_vector(CoherenceVector(dim=n, components=v))[0]
                 for v in vecs]
        assert frac == pytest.approx(np.mean(flags), abs=1e-12)

    @pytest.mark.parametrize("c2", [0.5, 0.55, 0.6, 0.7, 0.8, 0.9, 1.0])
    def test_closed_form_is_the_weyl_integral(self, c2):
        assert exact_qutrit_fraction(c2) == pytest.approx(weyl_qutrit_fraction(c2), abs=2e-5)

    @pytest.mark.parametrize("c2, seed", [(0.55, 41), (0.6, 42), (0.7, 43), (0.8, 44)])
    def test_qutrit_sampler_matches_the_closed_form(self, c2, seed):
        samples = 20_000
        exact = exact_qutrit_fraction(c2)
        frac = sphere_physical_fraction(3, c2, samples, seed=seed)
        assert abs(frac - exact) <= 4 * math.sqrt(exact * (1 - exact) / samples)

    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_inscribed_ball_is_all_physical(self, n):
        # |s|^2 <= 1/(n(n-1)), i.e. c2 <= 1/(n-1), is the ball inside the states
        for c2 in (1 / (n - 1), (1 / n + 1 / (n - 1)) / 2):
            assert sphere_physical_fraction(n, c2, 5000, seed=n) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ParameterOutOfRange):
            sphere_physical_fraction(3, 1 / 3, 10, seed=0)
        with pytest.raises(ParameterOutOfRange):
            sphere_physical_fraction(3, 0.5, 0, seed=0)


def monolithic_fraction(n, c2, samples, seed):
    """The sampler in one piece: one draw of every direction, one stack of
    every matrix, I/n added as a second array, and one positivity test."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n * n - 1))
    vecs = g * (math.sqrt(c2 - 1 / n) / np.linalg.norm(g, axis=1))[:, None]
    mats = np.eye(n, dtype=np.complex128) / n + _expand(vecs, n, 0.0)
    return float(np.mean(positivity_test(mats)[0]))


def assert_monolithic(n, c2, samples):
    frac = sphere_physical_fraction(n, c2, samples, seed=samples)
    assert 0.0 < frac < 1.0
    assert frac == monolithic_fraction(n, c2, samples, seed=samples)


#: One purity per n where some but not all states are physical.
MIXED_PURITIES = [(3, 0.6), (8, 0.18), (16, 0.085)]


class TestStreamedMonteCarlo:
    @pytest.mark.parametrize("samples", [4095, 4096, 4097, 12293])
    @pytest.mark.parametrize("n, c2", MIXED_PURITIES)
    def test_chunks_give_the_monolithic_result(self, n, c2, samples):
        assert_monolithic(n, c2, samples)

    @pytest.mark.parametrize("chunks, extra", [(0, 100), (1, -1), (1, 0), (1, 1),
                                               (3, 5)])
    @pytest.mark.parametrize("n, c2", MIXED_PURITIES)
    def test_chunk_edges_give_the_monolithic_result(self, n, c2, chunks, extra):
        """Around one and three of the sampler's own chunks, and inside one."""
        assert_monolithic(n, c2, chunks * _mc_chunk(n) + extra)

    def test_memory_does_not_grow_with_samples(self):
        peaks = []
        for samples in (50_000, 200_000):
            tracemalloc.start()
            try:
                sphere_physical_fraction(16, 0.085, samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 100 * 2 ** 20

    def test_concurrent_callers_under_fast_thread_switching(self):
        """Four callers on two cores, switching threads every microsecond:
        each gets the monolithic fraction, so no buffer is shared."""
        samples = 3 * _mc_chunk(8) + 5
        want = monolithic_fraction(8, 0.18, samples, seed=samples)
        got = []
        callers = [threading.Thread(target=lambda: got.append(
            sphere_physical_fraction(8, 0.18, samples, seed=samples))) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [want] * 4

    def test_screen_error_is_raised_and_no_thread_is_left(self, monkeypatch):
        screened = []

        def failing_mask(stack, tol):
            screened.append(len(stack))
            if len(screened) == 2:
                raise NoConvergence("screen failed")
            return physical_mask(stack, tol)

        monkeypatch.setattr(qutrit, "physical_mask", failing_mask)
        threads = threading.active_count()
        with pytest.raises(NoConvergence, match="screen failed"):
            sphere_physical_fraction(16, 0.085, 4 * _mc_chunk(16), seed=1)
        assert threading.active_count() == threads
        assert len(screened) == 2


class Discard:
    """A text sink that keeps nothing it is given."""

    def write(self, text):
        pass


class TestStreamedRegion:
    def test_memory_does_not_grow_with_c2_rows(self):
        a_axis = np.linspace(1.0 / 3.0, 1.0, 1000)
        peaks = []
        for rows in (10, 100):
            tracemalloc.start()
            try:
                write_region_csv(Discard(), np.linspace(1.0 / 3.0, 1.0, rows), a_axis)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]
