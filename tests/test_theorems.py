"""Structure-theory checks quantified over the enumerated model pools.

The hand-built corpus is small; these tests sweep every model the
enumerator produces at small sizes (30 plain inrs models at size 4, the
non-associative Lukasiewicz model among them) so the theorems are exercised
well beyond products of chains.
"""

import itertools

from nearsemiring.axioms import INRS, LUK_NRS, LUK_RS, check_axioms
from nearsemiring.catalog import godel3, luk_chain
from nearsemiring.center import (CentralLawsReport, LawFailure, central_elements,
                                 central_laws_report, decompose, is_central)
from nearsemiring.congruences import (Partition, all_congruences, polynomial_pairs,
                                      principal_congruence)
from nearsemiring.core import leq, product
from nearsemiring.ideals import ElementSet, is_ideal
from nearsemiring.search import EnumerationTask, enumerate_algebras


def pool(cls, max_n):
    return [alg for n in range(2, max_n + 1)
            for alg in enumerate_algebras(EnumerationTask(n, cls))]


def test_associativity_forces_commutativity_and_right_distributivity():
    # the defining theorem of the semiring subclass, re-proved by sweep
    for alg in pool(LUK_NRS, 5):
        n = alg.size
        assoc = all(alg.times[alg.times[a][b]][c] == alg.times[a][alg.times[b][c]]
                    for a in range(n) for b in range(n) for c in range(n))
        if assoc:
            assert check_axioms(alg, LUK_RS).ok


def test_nonassociative_lukasiewicz_model_exists_at_size_4():
    models = enumerate_algebras(EnumerationTask(4, LUK_NRS))
    kinds = [check_axioms(alg, LUK_RS).ok for alg in models]
    assert sorted(kinds) == [False, True, True]


def test_centrality_methods_agree_on_every_inrs_model():
    for alg in pool(INRS, 4):
        for e in range(alg.size):
            assert is_central(alg, e).methods_agree


def test_central_laws_and_decompositions_on_every_lukasiewicz_model():
    for alg in pool(LUK_NRS, 5):
        assert central_laws_report(alg).ok
        for e in central_elements(alg):
            assert decompose(alg, e).pair_map.bijective


def fold_central_laws(alg):
    """Reference for central_laws_report: six central-element laws by order
    scans, the join law folded over every subset."""
    n = alg.size
    failures = []
    elements = central_elements(alg)

    def fail(law, e, witness):
        failures.append(LawFailure(law, e, witness))

    for e in elements:
        if alg.times[e][e] != e:
            fail("e*e = e", e, "")
        for a in range(n):
            if alg.times[e][a] != alg.times[a][e]:
                fail("e*a = a*e", e, f"a={alg.label(a)}")
            if leq(alg, a, e) and alg.times[a][e] != a:
                fail("a<=e implies a*e = a", e, f"a={alg.label(a)}")
            m = alg.times[e][a]
            glb_ok = (leq(alg, m, e) and leq(alg, m, a)
                      and all(leq(alg, c, m) for c in range(n)
                              if leq(alg, c, e) and leq(alg, c, a)))
            if not glb_ok:
                fail("e*b is the meet of e and b", e, f"b={alg.label(a)}")
            for b in range(n):
                if alg.times[alg.times[e][a]][b] != alg.times[a][alg.times[e][b]]:
                    fail("(e*a)*b = a*(e*b)", e, f"a={alg.label(a)}, b={alg.label(b)}")
        for members in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(1, n + 1)):
            joined = alg.join_all(members)
            left = alg.times[e][joined]
            right = alg.join_all(alg.times[e][v] for v in members)
            if left != right:
                fail("e distributes over finite joins", e,
                     "family=" + "{" + ", ".join(alg.label(v) for v in members) + "}")
                break
    return CentralLawsReport(tuple(failures), elements)


def chain_products(max_n):
    """Every product of Lukasiewicz chains, in every factor order, of size <= max_n."""
    out = []

    def grow(alg):
        out.append(alg)
        for k in range(2, max_n // alg.size + 1):
            grow(product(alg, luk_chain(k)))

    for k in range(2, max_n + 1):
        grow(luk_chain(k))
    return out


def test_central_laws_report_matches_the_six_law_fold():
    # central_laws_report checks one of the laws; four others are instances
    # of the centrality laws every central element has passed, and
    # a <= e implies a*e = a follows from e*a = a*e and the meet law
    algebras = pool(INRS, 4) + chain_products(8)
    assert max(alg.size for alg in algebras) == 8
    for alg in algebras:
        assert central_laws_report(alg) == fold_central_laws(alg)


def test_polynomial_orbit_closure_is_the_principal_congruence_everywhere():
    # holds with no permutability assumption; the orbit itself may fail
    # transitivity outside the Lukasiewicz subclass
    for alg in pool(INRS, 4):
        for a, b in itertools.product(range(alg.size), repeat=2):
            assert (Partition.from_pairs(alg.size, polynomial_pairs(alg, a, b))
                    == principal_congruence(alg, a, b)), (alg, a, b)


def test_kernel_correspondence_genuinely_needs_the_interchange_axiom():
    # on the idempotent-middle chain the subset predicate and the kernels
    # part ways: even {0} fails (I2) because x^a*x = h for the middle element
    g3 = godel3()
    kernels = {ElementSet.from_members(3, t.block_of(0)).mask
               for t in all_congruences(g3)}
    subsets = {m for m in range(8) if is_ideal(g3, ElementSet(3, m)).ok}
    assert kernels == {0b001, 0b111}
    assert subsets == {0b111}
    check = is_ideal(g3, ElementSet(3, 0b001))
    assert check.failed == "(I2)"
