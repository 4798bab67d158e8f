"""Central elements split an algebra into a product of intervals.

An element is central when its two principal congruences are complementary
factor congruences; equivalently it passes the four equational conditions
of the if-then-else witness q(x,y,z) = x*y + x^a*z.  Both tests run here,
then the 6-element product is rebuilt from its intervals.
"""

from nearsemiring import (b2_x_l3, central_ideal_check, decompose, interval_algebra,
                          is_central, luk_chain, q)
from nearsemiring.center import center

alg = b2_x_l3()

print("element-by-element centrality (equational vs factor-pair):")
for e in range(alg.size):
    res = is_central(alg, e)
    marks = "central" if res.central else "not central"
    agree = "" if res.methods_agree else "  METHODS DISAGREE"
    print(f"  {alg.label(e):<6} {marks}{agree}")

report = center(alg)
print("\nthe center as a Boolean algebra:")
print("  elements:", "{" + ", ".join(alg.label(e) for e in report.elements) + "}")
print("  closed under + and *, so a Boolean algebra:", not report.closure_failures)
print("  e -> theta(e,0) bijects onto factor congruences:",
      report.factor_bijection_ok)

e = 3  # the element (1,0)
print(f"\nif-then-else behaviour: q(1,x,y)=x, q(0,x,y)=y, q(e,1,0)=e")
print(f"  q({alg.label(e)}, 1, 0) = {alg.label(q(alg, e, alg.one, alg.zero))}")

print(f"\ninterval algebras below {alg.label(e)} and its complement:")
part = interval_algebra(alg, e)
co = interval_algebra(alg, alg.alpha[e])
print(f"  [0, {alg.label(e)}]: members {[alg.label(v) for v in part.members]}")
print(f"  [0, {alg.label(alg.alpha[e])}]: members {[alg.label(v) for v in co.members]}")

d = decompose(alg, e)
print("\nthe pair map a -> (e*a, e^a*a):")
m = d.co_part.algebra.size
for a in range(alg.size):
    pair = d.pair_map(a)
    print(f"  {alg.label(a):<6} -> ({d.part.algebra.label(pair // m)}, "
          f"{d.co_part.algebra.label(pair % m)})")
print("verified isomorphism onto the product:", d.pair_map.bijective)

check = central_ideal_check(alg, e)
print(f"\nI({alg.label(e)}) = [0, {alg.label(e)}]:", check.ideal_is_interval)
print("factor-ideal pair with the complement:",
      check.factor_meet_trivial and check.factor_join_full)
print("complement ideal is the pseudocomplement:", check.complement_is_pseudocomplement)

print("\non the 3-chain only the bounds are central:")
l3 = luk_chain(3)
print(" ", [l3.label(e) for e in center(l3).elements])
