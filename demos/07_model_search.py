"""Exhaustive model search with isomorph rejection.

Tables are filled backtracking-style: join first, then the involution, then
the multiplication one column x -> x*w at a time.  For inrs each column is
a join-preserving map; for the Lukasiewicz classes it is built from one
antitone involution per section [y, 1] of the lattice.  Isomorphic
completions collapse to one representative through a canonical form.  The
counts double as regression oracles for the rest of the workbench.
"""

import tempfile

from nearsemiring import (EnumerationTask, b2_x_b2, canonical_form, check_axioms,
                          count, enumerate_algebras, find_isomorphism, luk_chain)
from nearsemiring.search import frozen_counts

print("models up to isomorphism:")
for n in (2, 3, 4, 5):
    row = {cls: count(n, cls) for cls in ("inrs", "luk-nrs", "luk-rs")}
    print(f"  size {n}:  inrs {row['inrs']:>3}   luk-nrs {row['luk-nrs']:>2}"
          f"   luk-rs {row['luk-rs']:>2}")

print("\nfrozen regression table agrees:",
      all(count(int(k.split(',')[0]), k.split(',')[1]) == v
          for k, v in frozen_counts()["counts"].items()))

print("\nthe three luk-nrs models of size 4:")
for alg in enumerate_algebras(EnumerationTask(4, "luk-nrs")):
    kind = ("the 4-chain" if find_isomorphism(alg, luk_chain(4)) else
            "the Boolean square" if find_isomorphism(alg, b2_x_b2()) else
            "a non-associative model")
    assoc = all(alg.times[alg.times[a][b]][c] == alg.times[a][alg.times[b][c]]
                for a in range(4) for b in range(4) for c in range(4))
    print(f"  {kind:<24} multiplication associative: {assoc}")

print("\nevery output re-passes its class axioms:",
      all(check_axioms(a, "luk-nrs").ok
          for a in enumerate_algebras(EnumerationTask(4, "luk-nrs"))))

print("\ncanonical forms identify products regardless of coordinate order:")
from nearsemiring import b2_x_l3, l3_x_b2
print("  form(B2 x L3) == form(L3 x B2):",
      canonical_form(b2_x_l3()) == canonical_form(l3_x_b2()))

with tempfile.TemporaryDirectory() as tmp:
    from nearsemiring.cli import main
    print("\nexporting the size-4 models through the command line:")
    main(["enumerate", "--size", "4", "--class", "luk-nrs", "--out", tmp])
