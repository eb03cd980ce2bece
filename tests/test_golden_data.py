"""The committed demos/output/*.csv files are golden data.

Each one is rebuilt in memory with the calls and grids of
demos/qutrit_region.py and compared byte for byte, so a numeric refactor
that changes any emitted digit fails here.  Nothing is written to disk.
"""

import io
import pathlib

import numpy as np
import pytest

from orbit_atlas import fig2_curve, fig3_curve, sphere_physical_fraction
from orbit_atlas.formats import (
    write_fig2_csv,
    write_fig3_csv,
    write_fractions_csv,
    write_region_csv,
)
from orbit_atlas.qutrit import default_region_grid_axes

OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "demos" / "output"
FIG_C2 = (0.4, 0.55, 0.6, 0.8)
FRACTION_C2 = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def render(writer, *args) -> bytes:
    buf = io.StringIO()
    writer(buf, *args)
    return buf.getvalue().encode("utf-8")


def fig_grid(c2: float) -> np.ndarray:
    k1 = np.sqrt(6 * c2 - 2)
    return np.linspace(max((1 - k1) / 3, 0.0), (1 + k1) / 3, 400)


def fractions_rows() -> list:
    return [(3, c2, 10_000, sphere_physical_fraction(3, c2, 10_000, seed=5), 5)
            for c2 in FRACTION_C2]


#: committed file name -> function rebuilding its bytes
REBUILD = {
    "region.csv": lambda: render(write_region_csv, *default_region_grid_axes()),
    "fractions.csv": lambda: render(write_fractions_csv, fractions_rows()),
}
for _c2 in FIG_C2:
    REBUILD[f"fig2_c2_{_c2:.2f}.csv"] = lambda c2=_c2: render(
        write_fig2_csv, c2, fig2_curve(c2, fig_grid(c2)))
    REBUILD[f"fig3_c2_{_c2:.2f}.csv"] = lambda c2=_c2: render(
        write_fig3_csv, c2, fig3_curve(c2, fig_grid(c2)))


def test_every_committed_output_is_covered():
    assert sorted(p.name for p in OUTPUT.glob("*.csv")) == sorted(REBUILD)


@pytest.mark.parametrize("name", sorted(REBUILD))
def test_output_regenerates_byte_for_byte(name):
    assert REBUILD[name]() == (OUTPUT / name).read_bytes()
