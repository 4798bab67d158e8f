"""Congruences, ideals, and the kernel correspondence, computed both ways.

Every congruence is pinned down by its 0-coset; the subsets that occur as
0-cosets are exactly those satisfying the two closure conditions.  Both
routes are computed independently here and compared on the 6-element
product algebra.
"""

from nearsemiring import (all_congruences, all_ideals, b2_x_l3,
                          ideal_join_via_coset, luk_chain,
                          malcev_and_regularity_report, polynomial_pairs,
                          principal_congruence, theta_partition)
from nearsemiring.ideals import ElementSet

alg = b2_x_l3()

print("congruence lattice of B2 x L3:")
cons = all_congruences(alg)
for i, theta in enumerate(cons):
    blocks = " | ".join("{" + " ".join(alg.label(v) for v in b) + "}"
                        for b in theta.blocks)
    print(f"  theta_{i}: {blocks}")

print("\nideal lattice, with pseudocomplements:")
lattice = all_ideals(alg)   # subset scan cross-checked against the kernels
for s in lattice.ideals:
    print(f"  {s.render(alg):<42} I* = {lattice.pseudocomplement_of(s).render(alg)}")

print("\nkernel <-> ideal round trips:")
for s in lattice.ideals:
    theta = theta_partition(alg, s)
    back = ElementSet.from_members(alg.size, theta.block_of(alg.zero))
    print(f"  {s.render(alg):<42} -> congruence with {theta.num_blocks} blocks -> "
          f"{back.render(alg)}")

print("\njoins computed through cosets agree with generated joins:")
i, j = lattice.ideals[1], lattice.ideals[2]
out = ideal_join_via_coset(alg, i, j)
print(f"  [{i.render(alg)}]_theta({j.render(alg)}) = {out.coset_route.render(alg)}"
      f"  (generated: {out.generated.render(alg)})")

print("\nprincipal congruences via unary polynomial orbits:")
l3 = luk_chain(3)
orbit = polynomial_pairs(l3, 1, 0)
print("  orbit of (h, 0) on the 3-chain:", sorted(orbit))
print("  congruence generated:", principal_congruence(l3, 1, 0).blocks)

print("\npermutability / regularity report on B2 x L3:")
for c in malcev_and_regularity_report(alg).checks:
    print(f"  {'ok ' if c.ok else 'BAD'} {c.name}")
