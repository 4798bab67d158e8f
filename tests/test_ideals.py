import importlib
import itertools
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsemiring.algfile import load
from nearsemiring.axioms import INRS, LUK_NRS, LUK_RS, classify
from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, godel3,
                                  luk_chain, trivial)
from nearsemiring.congruences import Partition, all_congruences
from nearsemiring.ideals import (ElementSet, IdealCheck, _ideal_rules, _Rules,
                                 _semiring_rules, all_ideals,
                                 generate_ideal, ideal_join_via_coset, is_ideal,
                                 principal_ideal, principal_ideal_report,
                                 pseudocomplement, semiring_claims_report,
                                 skeleton, subset_conditions, theta_of_ideal,
                                 theta_partition)
from nearsemiring.core import FiniteAlgebra, leq, product
from nearsemiring.mv import _mv_ideal_rules, from_mv, to_mv
from nearsemiring.search import EnumerationTask, enumerate_algebras

from enumerated import models, oracle_pool

L3 = luk_chain(3)
LUK_CORPUS = (boolean2(), L3, luk_chain(4), b2_x_b2(), b2_x_l3(), trivial())


def es(alg, *members):
    return ElementSet.from_members(alg.size, members)


def reference_is_ideal(alg, s):
    """The predicate written out on the raw tables: the reference for is_ideal.

    Same scan order and witnesses: 0 in s, then (I1), then (I2), each with b
    outer and a inner, and for (I2) the first c with its escaping product.
    """
    n, t, al = alg.size, alg.times, alg.alpha
    inside = s.__contains__
    if alg.zero not in s:
        return IdealCheck(False, "0 in I", (), "the designated zero is missing")
    for b in range(n):
        for a in range(n):
            if inside(t[a][al[b]]) and inside(b) and not inside(a):
                return IdealCheck(False, "(I1)", (("a", a), ("b", b)),
                                  "a*b^a in S and b in S but a not in S")
    for b in range(n):
        for a in range(n):
            if inside(t[al[a]][b]) and inside(t[al[b]][a]):
                for c in range(n):
                    if not inside(t[al[t[a][c]]][t[b][c]]):
                        return IdealCheck(False, "(I2)", (("a", a), ("b", b), ("c", c)),
                                          "(a*c)^a*(b*c) escapes S")
                    if not inside(t[al[t[c][a]]][t[c][b]]):
                        return IdealCheck(False, "(I2)", (("a", a), ("b", b), ("c", c)),
                                          "(c*a)^a*(c*b) escapes S")
    return IdealCheck(True)


def reference_subset_conditions(alg, s):
    """Conditions (i)-(iii) written out on the raw tables: the reference for
    subset_conditions, with the same scan order and witnesses."""
    if alg.zero not in s:
        return False, "(i) 0 not in S", ()
    members = s.members()
    for b in members:
        for a in members:
            if alg.plus[a][b] not in s:
                return False, "(ii) not closed under +", (("a", a), ("b", b))
    for c in range(alg.size):
        for a in members:
            if alg.times[a][c] not in s:
                return False, "(iii) a*c escapes S", (("a", a), ("c", c))
            if alg.times[c][a] not in s:
                return False, "(iii) c*a escapes S", (("a", a), ("c", c))
    return True, "", ()


def bundled_luk_algebras():
    """The bundled documents that are Lukasiewicz near semirings."""
    out = []
    for entry in sorted(resources.files("nearsemiring").joinpath("data").iterdir(),
                        key=lambda e: e.name):
        if entry.name.endswith(".alg"):
            alg = load(entry).to_algebra()
            if not isinstance(alg, FiniteAlgebra):
                alg = from_mv(alg)
            if classify(alg) in (LUK_NRS, LUK_RS):
                out.append(alg)
    return out


def test_is_ideal_l3_middle_pair_fails_i1():
    check = is_ideal(L3, es(L3, 0, 1))
    assert not check.ok
    assert check.failed == "(I1)"
    assert check.witness == (("a", 2), ("b", 1))
    assert check.render_witness(L3) == "a=1, b=h"


def test_is_ideal_trivial_cases():
    for alg in LUK_CORPUS:
        assert is_ideal(alg, es(alg, alg.zero)).ok
        assert is_ideal(alg, ElementSet.full(alg.size)).ok


def test_is_ideal_matches_test_oracle_on_all_subsets():
    # verdict, failed condition, witness and detail, on every subset
    b2 = boolean2()
    for alg in LUK_CORPUS + (godel3(), product(b2_x_b2(), b2), product(L3, L3)):
        for mask in range(1 << alg.size):
            s = ElementSet(alg.size, mask)
            assert is_ideal(alg, s) == reference_is_ideal(alg, s)


def test_subset_conditions_match_reference_on_all_subsets():
    # (ok, why, witness) on every subset; the 4-element inrs models are
    # mostly non-commutative, so a*c and c*a differ there
    b2 = boolean2()
    pool = LUK_CORPUS + (godel3(), luk_chain(12), product(b2_x_b2(), b2), product(L3, L3))
    for alg in pool + enumerate_algebras(EnumerationTask(4, "inrs")):
        for mask in range(1 << alg.size):
            s = ElementSet(alg.size, mask)
            assert subset_conditions(alg, s) == reference_subset_conditions(alg, s)


def reference_closed(rules, n):
    """Every subset of [0, n) tested one by one: the reference for _Rules.closed."""
    return [m for m in range(1 << n) if rules.first_failure(m) is None]


def test_closed_matches_the_subset_scan_on_algebra_rule_tables():
    # list and order, on the ideal, semiring and MV-ideal rules
    b2 = boolean2()
    pool = ([alg for n in range(1, 6) for alg in models(n, INRS)]
            + [alg for n in range(1, 8) for cls in (LUK_NRS, LUK_RS) for alg in models(n, cls)]
            + bundled_luk_algebras()
            + [product(product(b2, b2), b2), product(L3, L3), luk_chain(12)])
    for alg in pool:
        rule_sets = [_ideal_rules(alg), _semiring_rules(alg)]
        if classify(alg) == LUK_RS:
            rule_sets.append(_mv_ideal_rules(to_mv(alg)))
        for rules in rule_sets:
            assert rules.closed(alg.size) == reference_closed(rules, alg.size)


@st.composite
def horn_tables(draw):
    """(n, rules) over [0, n): random rules plus the shapes the engine treats
    specially, in a random order with distinct witnesses."""
    n = draw(st.integers(0, 8))
    mask = st.integers(0, (1 << n) - 1)
    rules = draw(st.lists(st.tuples(mask, mask), max_size=10))
    rules += [(0, c) for c in draw(st.lists(mask, max_size=2))]          # premise 0
    rules += [(p, p & c)                                                 # none can break
              for p, c in draw(st.lists(st.tuples(mask, mask), max_size=2))]
    if rules:                                                            # repeated pairs
        rules += draw(st.lists(st.sampled_from(rules), max_size=3))
    if draw(st.booleans()):                                              # forces the full set
        rules.append((draw(mask), (1 << n) - 1))
    rules = draw(st.permutations(rules))
    return n, _Rules((p, c, k) for k, (p, c) in enumerate(rules))


@settings(max_examples=80, deadline=None)
@given(horn_tables())
def test_closed_matches_the_subset_scan_on_random_horn_tables(table):
    n, rules = table
    closed = rules.closed(n)
    assert closed == reference_closed(rules, n)
    assert all(a < b for a, b in zip(closed, closed[1:]))
    assert all(rules.closure(m) == m for m in closed)


def test_i3_reported():
    # on Lukasiewicz algebras (I3) follows wherever (I1)/(I2) hold:
    # a^alpha*b and b^alpha*a in I force a*b^alpha in I
    for alg in LUK_CORPUS:
        n, t, al = alg.size, alg.times, alg.alpha
        for mask in range(1 << n):
            s = ElementSet(n, mask)
            if is_ideal(alg, s).ok:
                for a, b in itertools.product(range(n), repeat=2):
                    if t[al[a]][b] in s and t[al[b]][a] in s:
                        assert t[a][al[b]] in s


def test_generate_ideal_examples():
    assert generate_ideal(L3, es(L3, 1)).members() == (0, 1, 2)
    for alg in LUK_CORPUS:
        assert generate_ideal(alg, ElementSet.empty(alg.size)).members() == (alg.zero,)
    grown = generate_ideal(b2_x_l3(), es(b2_x_l3(), 3))
    assert grown.members() == (0, 3)  # [0, (1,0)]


def test_generate_ideal_is_minimal():
    # the result is the meet of every ideal containing the seed, the ideals
    # found by subset scan with the reference predicate
    algs = bundled_luk_algebras()
    assert len(algs) == 8
    for alg in LUK_CORPUS + tuple(algs):
        n = alg.size
        ideals = [m for m in range(1 << n)
                  if reference_is_ideal(alg, ElementSet(n, m)).ok]
        for seed in range(1 << n):
            meet = (1 << n) - 1
            for m in ideals:
                if seed & ~m == 0:
                    meet &= m
            assert generate_ideal(alg, ElementSet(n, seed)).mask == meet


def test_theta_of_ideal_trivial_cases():
    for alg in LUK_CORPUS:
        assert theta_partition(alg, es(alg, alg.zero)).is_discrete()
        assert theta_partition(alg, ElementSet.full(alg.size)).is_full()


def test_theta_of_ideal_b2xb2():
    theta = theta_partition(b2_x_b2(), es(b2_x_b2(), 0, 2))
    assert theta.blocks == ((0, 2), (1, 3))


def test_theta_of_non_ideal_is_diagnosed_not_raised():
    res = theta_of_ideal(L3, es(L3, 0, 1))
    assert res.partition is None
    assert res.defect == "not transitive"
    assert res.witness == (0, 1, 2)


def test_all_ideals_counts_and_members():
    assert [s.members() for s in all_ideals(L3).ideals] == [(0,), (0, 1, 2)]
    assert [s.members() for s in all_ideals(boolean2()).ideals] == [(0,), (0, 1)]
    lat = all_ideals(b2_x_l3())
    assert [s.members() for s in lat.ideals] == [(0,), (0, 3), (0, 1, 2), (0, 1, 2, 3, 4, 5)]


def test_all_ideals_rejects_non_luk():
    with pytest.raises(ValueError, match=r"\(vii\)"):
        all_ideals(godel3())


def test_kernel_ideal_bijection_and_lattice_isomorphism():
    for alg in LUK_CORPUS:
        lat = all_ideals(alg)
        cons = all_congruences(alg)
        # bijection with identity composites
        kernel_of = {}
        for theta in cons:
            k = ElementSet.from_members(alg.size, theta.block_of(alg.zero))
            assert lat.contains(k)
            kernel_of[theta] = k
            assert theta_partition(alg, k) == theta          # theta(0-coset) = theta
        assert len(set(s.mask for s in kernel_of.values())) == len(cons)
        for s in lat.ideals:
            theta = theta_partition(alg, s)
            assert theta in cons
            back = ElementSet.from_members(alg.size, theta.block_of(alg.zero))
            assert back.mask == s.mask                       # 0-coset(theta(I)) = I
        # the bijection is a lattice isomorphism
        for i, p in enumerate(lat.ideals):
            for j, r in enumerate(lat.ideals):
                ti, tj = theta_partition(alg, p), theta_partition(alg, r)
                assert theta_partition(alg, lat.meet(i, j)) == ti.meet(tj)
                assert theta_partition(alg, lat.join(i, j)) == ti.join(tj)


def test_ideal_lattice_distributive():
    for alg in LUK_CORPUS:
        lat = all_ideals(alg)
        k = len(lat.ideals)
        for a, b, c in itertools.product(range(k), repeat=3):
            lhs = lat.meet_table[a][lat.join_table[b][c]]
            rhs = lat.join_table[lat.meet_table[a][b]][lat.meet_table[a][c]]
            assert lhs == rhs


def test_join_distributes_over_arbitrary_families():
    for alg in LUK_CORPUS:
        lat = all_ideals(alg)
        k = len(lat.ideals)
        for j in range(k):
            for r in range(1 << k):
                family = [i for i in range(k) if r >> i & 1]
                lhs = lat.ideals[j] & lat.join_of_family(family)
                meets = [lat.meet_table[j][i] for i in family]
                rhs = lat.join_of_family(meets)
                assert lhs.mask == rhs.mask


def test_pseudocomplement_laws():
    for alg in LUK_CORPUS:
        lat = all_ideals(alg)
        for s in lat.ideals:
            star = lat.pseudocomplement_of(s)
            star2 = lat.pseudocomplement_of(star)
            assert s.issubset(star2)                        # I <= I**
            assert lat.pseudocomplement_of(star2) == star   # I* = I***
        for p in lat.ideals:
            for r in lat.ideals:
                if p.issubset(r):
                    assert lat.pseudocomplement_of(r).issubset(lat.pseudocomplement_of(p))


def test_pseudocomplement_examples():
    alg = b2_x_l3()
    assert pseudocomplement(alg, es(alg, 0)).members() == tuple(range(6))
    assert pseudocomplement(alg, ElementSet.full(6)).members() == (0,)
    assert pseudocomplement(alg, es(alg, 0, 3)).members() == (0, 1, 2)


def test_join_via_coset_agrees_everywhere():
    for alg in LUK_CORPUS:
        lat = all_ideals(alg)
        for p in lat.ideals:
            for r in lat.ideals:
                assert ideal_join_via_coset(alg, p, r).agree
    # spot values
    alg = b2_x_l3()
    out = ideal_join_via_coset(alg, es(alg, 0, 3), es(alg, 0, 1, 2))
    assert out.agree and out.generated.members() == tuple(range(6))


def test_join_is_the_closure_of_the_union_and_meet_the_intersection():
    # the tables are read off the kernel family; the (I1)/(I2) closure is the
    # reference, here also above the threshold (b2^4, n = 16)
    b2 = boolean2()
    pool = [alg for alg in oracle_pool() if classify(alg) in (LUK_NRS, LUK_RS)]
    for alg in pool + [product(product(b2_x_b2(), b2), b2)]:
        lat = all_ideals(alg)
        for i, p in enumerate(lat.ideals):
            for j, r in enumerate(lat.ideals):
                assert lat.join(i, j) == generate_ideal(alg, p | r)
                assert lat.meet(i, j) == p & r


def test_ideals_are_convex():
    for alg in LUK_CORPUS:
        for s in all_ideals(alg).ideals:
            for c in s.members():
                for b in range(alg.size):
                    if leq(alg, b, c):
                        assert b in s


def test_principal_ideal_examples():
    assert principal_ideal(L3, 1).members() == (0, 1, 2)
    for alg in LUK_CORPUS:
        assert principal_ideal(alg, alg.zero).members() == (alg.zero,)
        assert len(principal_ideal(alg, alg.one)) == alg.size


def test_principal_ideal_polynomial_route_agrees():
    for alg in LUK_CORPUS:
        for a in range(alg.size):
            assert principal_ideal_report(alg, a).agree


def test_skeleton_reports():
    sk3 = skeleton(L3)
    assert [m.members() for m in sk3.members] == [(0,), (0, 1, 2)]
    assert sk3.ok
    sk4 = skeleton(b2_x_b2())
    assert len(sk4.members) == 4 and sk4.ok
    for alg in LUK_CORPUS:
        assert skeleton(alg).ok


def test_claims_l3_disagreements():
    report = semiring_claims_report(L3)
    bad = report.disagreements
    assert len(bad) == 2 and report.agree == 8 + 3 - 2
    subset_finding = next(f for f in bad if f.target_kind == "subset")
    assert subset_finding.target == "{0, h}"
    assert subset_finding.witness == "(I1) a=1, b=h"
    element_finding = next(f for f in bad if f.target_kind == "element")
    assert element_finding.target == "h"
    assert "{0, h}" in element_finding.detail and "{0, h, 1}" in element_finding.detail


def test_claims_b2_all_agree():
    report = semiring_claims_report(boolean2())
    assert report.disagreements == ()
    assert report.agree == 4 + 2  # 4 subsets + 2 elements


def reference_claims(alg):
    """Every subset and element adjudicated one by one from the reference
    predicates: (agree count, disagreeing findings in scan order)."""
    n, agree, bad = alg.size, 0, []
    for mask in range(1 << n):
        s = ElementSet(n, mask)
        check = reference_is_ideal(alg, s)
        conds_ok, why, pairs = reference_subset_conditions(alg, s)
        if conds_ok == check.ok:
            agree += 1
        elif conds_ok:
            bad.append(("subset", s.render(alg),
                        "conditions (i)-(iii) hold but the ideal predicate fails",
                        f"{check.failed} {check.render_witness(alg)}"))
        else:
            bad.append(("subset", s.render(alg),
                        "the ideal predicate holds but conditions (i)-(iii) fail",
                        why + (": " + ", ".join(f"{k}={alg.label(v)}" for k, v in pairs)
                               if pairs else "")))
    for a in range(n):
        products = ElementSet.from_members(n, (alg.times[a][c] for c in range(n)))
        ideal = principal_ideal(alg, a)
        if products.mask == ideal.mask:
            agree += 1
            continue
        parts = [f"{kind}: {ElementSet(n, m).render(alg)}"
                 for kind, m in (("missing", ideal.mask & ~products.mask),
                                 ("extra", products.mask & ~ideal.mask)) if m]
        bad.append(("element", alg.label(a),
                    f"{{{alg.label(a)}*c | c in A}} = {products.render(alg)}"
                    f" vs I({alg.label(a)}) = {ideal.render(alg)}", "; ".join(parts)))
    return agree, bad


def test_claims_report_matches_the_per_subset_reference():
    for alg in LUK_CORPUS + (luk_chain(12),):
        report = semiring_claims_report(alg)
        agree, bad = reference_claims(alg)
        assert report.agree == agree
        assert [(f.target_kind, f.target, f.detail, f.witness)
                for f in report.disagreements] == bad


def test_claims_reject_non_semiring():
    with pytest.raises(ValueError, match=r"\(vii\)"):
        semiring_claims_report(godel3())


def test_oracle_partial_path_above_threshold():
    big = product(boolean2(), luk_chain(8))  # 16 elements
    lat = all_ideals(big)                     # default threshold 14: kernels only
    assert lat.oracle_partial and len(lat.ideals) == 4
    full = all_ideals(big, threshold=16)      # forced subset scan agrees
    assert not full.oracle_partial
    assert [s.mask for s in full.ideals] == [s.mask for s in lat.ideals]


def test_all_ideals_rejects_a_kernel_that_is_not_an_ideal(monkeypatch):
    # above the threshold no subset is scanned, but each kernel is still checked
    ideals_module = importlib.import_module("nearsemiring.ideals")
    assert not is_ideal(L3, es(L3, 0, 1)).ok
    bad = Partition.from_pairs(L3.size, [(0, 1)])
    monkeypatch.setattr(ideals_module, "all_congruences",
                        lambda alg: all_congruences(alg) + (bad,))
    with pytest.raises(AssertionError, match="kernels fail the ideal predicate"):
        all_ideals(L3, threshold=2)


def test_all_ideals_rejects_a_family_without_meets_or_joins(monkeypatch):
    # b2 x b2 without one of its four congruences: each kernel is still an
    # ideal, but the family lacks {0}, the meet of {0, a} and {0, b}, or A,
    # their join, and no subset scan runs to notice
    ideals_module = importlib.import_module("nearsemiring.ideals")
    alg = b2_x_b2()
    for drop, message in ((Partition.is_discrete, "not closed under meet"),
                          (Partition.is_full, "no ideal holds both")):
        monkeypatch.setattr(ideals_module, "all_congruences",
                            lambda alg: tuple(p for p in all_congruences(alg) if not drop(p)))
        with pytest.raises(AssertionError, match=message):
            all_ideals(alg, threshold=2)


def test_element_set_validation():
    with pytest.raises(ValueError):
        ElementSet(3, 0b1000)
    with pytest.raises(ValueError):
        ElementSet.from_members(3, [5])
    with pytest.raises(ValueError):
        ElementSet(3, 0b1) & ElementSet(4, 0b1)


def test_theta_relation_can_fail_reflexivity():
    from nearsemiring.catalog import godel3
    res = theta_of_ideal(godel3(), es(godel3(), 0))
    assert res.partition is None
    assert res.defect == "not reflexive"
    assert res.witness == (1,)  # h^a * h = h escapes {0}


def test_claims_above_threshold_scan_elements_only():
    report = semiring_claims_report(b2_x_l3(), threshold=5)
    assert not report.subsets_scanned
    assert all(f.target_kind == "element" for f in report.disagreements)
    assert report.agree + len(report.disagreements) == 6
