"""Map the (a, c2) feasibility region of diagonal qutrit states.

diag(a, b, c) with purity c2 exists and is canonically ordered only inside
a band between three curves.  This script prints the feasible a-interval
for several purities and writes the plotting datasets (region
classification, eigenvalue-pair sum, entropy, sphere occupancy) as CSV
files under demos/output/.
"""

import pathlib

from orbit_atlas import (
    feasible_interval,
    fig2_curve,
    fig3_curve,
    qutrit_from_params,
    sphere_physical_fraction,
)
from orbit_atlas.formats import (
    write_fig2_csv,
    write_fig3_csv,
    write_fractions_csv,
    write_region_csv,
)
from orbit_atlas.qutrit import default_region_grid_axes, hermitian_a_grid

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

print("Feasible a-interval per purity (the set of canonical representatives):")
for c2 in (1 / 3, 0.4, 0.5, 0.6, 0.8, 1.0):
    iv = feasible_interval(c2)
    print(f"  c2 = {c2:.4f}: a in [{iv.a_lo:.6f}, {iv.a_hi:.6f}]")
print("  (collapses to the maximally mixed point at c2 = 1/3 and to the")
print("   pure state at c2 = 1)")

p = qutrit_from_params(0.5, 0.4)
print(f"\nExample point a=0.5, c2=0.4: b={p.b:.6f}, c={p.c:.6f}, "
      f"K={p.K:.6f}, class={p.classification.value}")

c2_grid, a_grid = default_region_grid_axes()
with open(OUT / "region.csv", "w", encoding="utf-8") as fh:
    write_region_csv(fh, c2_grid, a_grid)

for c2 in (0.4, 0.55, 0.6, 0.8):
    grid = hermitian_a_grid(c2, 400)
    with open(OUT / f"fig2_c2_{c2:.2f}.csv", "w", encoding="utf-8") as fh:
        write_fig2_csv(fh, c2, fig2_curve(c2, grid))
    with open(OUT / f"fig3_c2_{c2:.2f}.csv", "w", encoding="utf-8") as fh:
        write_fig3_csv(fh, c2, fig3_curve(c2, grid))

rows = [(3, c2, 10_000, sphere_physical_fraction(3, c2, 10_000, seed=5), 5)
        for c2 in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
with open(OUT / "fractions.csv", "w", encoding="utf-8") as fh:
    write_fractions_csv(fh, rows)

print(f"\nWrote region.csv, fig2_*.csv, fig3_*.csv and fractions.csv to {OUT}/")
print("For c2 > 1/2 the pair sum a+b decreases along the interval while the")
print("entropy increases, so distance from the center no longer orders disorder.")
