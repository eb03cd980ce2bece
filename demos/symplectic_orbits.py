"""Symplectic orbits are finer than unitary ones, except for two families.

Sp(n) sits inside U(2n) as the unitaries preserving the skew form J, so its
conjugation orbits subdivide the unitary orbits.  This script verifies the
group structure on random elements, prints the orbit-dimension bound table,
shows that the bounds depend on the diagonal's arrangement, and checks the
quaternion picture behind the transitivity on projective space.
"""

import numpy as np

from orbit_atlas import (
    has_sp_block_form,
    is_symplectic,
    quat_inner,
    quat_to_complex,
    random_symplectic,
    skew_form,
    sp_orbit_bounds,
    standard_J,
    table2,
)
from orbit_atlas.symplectic import QUAT_E2, QUAT_E3, QUAT_ONE

rng = np.random.default_rng(99)

print("Random Sp(2) element (seeded):")
s = random_symplectic(2, seed=42)
j = standard_J(2)
print(f"  unitary defect      {np.abs(s.conj().T @ s - np.eye(4)).max():.2e}")
print(f"  S^T J S - J defect  {np.abs(s.T @ j @ s - j).max():.2e}")
print(f"  is_symplectic: {is_symplectic(s)}, block form: {has_sp_block_form(s)}")
z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
z2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
print(f"  skew-form drift     {abs(skew_form(s @ z, s @ z2) - skew_form(z, z2)):.2e}")

print("\nOrbit dimension bounds by spectrum pattern (published vs computed):")
print("  pattern          U(2n)  published  computed  exact")
for row in table2():
    print(f"  {row.pattern:<15} {row.unitary_dim:>5} {row.paper_bound:>10} "
          f"{row.computed_bound:>9}  {row.exact}")
print("  (a,b,c,c, a,a,b,b,b,b and a,b,c,c,c,c: the trailing-block rule is no")
print("   bound here; the true dimensions are 8, 14 and 16)")

print("\nThe symplectic orbit depends on the arrangement, not just the spectrum:")
for diag in ([0.3, 0.2, 0.3, 0.2], [0.3, 0.3, 0.2, 0.2]):
    report = sp_orbit_bounds(diag)
    rules = ", ".join(f"{r.rule.value}<={r.bound}" for r in report.rules)
    print(f"  diag {diag}: min bound {report.min_bound} via [{rules}]")

print("\nQuaternion bridge: H^n maps onto C^2n, and the symplectic inner")
print("product splits into the Hermitian product plus e2 times the skew form.")
for q, name in ((QUAT_ONE, "1"), (QUAT_E2, "e2"), (QUAT_E3, "e3")):
    print(f"  phi({name:>2}) = {quat_to_complex([q])}")
inner = quat_inner([QUAT_E2], [QUAT_ONE])
print(f"  <e2, 1> = {inner}  (pure e2 part, matching S((0,1),(1,0)) = -1)")
