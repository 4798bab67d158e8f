import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nearsemiring import congruences
from nearsemiring.axioms import (INRS, LUK_NRS, LUK_RS, CheckOutcome, check_axioms, check_identity,
                                 classify, holds)
from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, godel3,
                                  luk_chain, trivial)
from nearsemiring.center import (CENTRAL_ELEMENT_LAWS, CENTRALITY_LAWS,
                                 CENTRALITY_REDUCTIONS, _reductions_hold,
                                 center, central_elements, central_ideal_check,
                                 central_laws_report, decompose,
                                 interval_algebra, is_central, q, semantic_centrality,
                                 syntactic_centrality, verify_boolean_laws)
from nearsemiring.core import FiniteAlgebra, find_isomorphism, join_irreducibles, leq, product
from nearsemiring.terms import Var, church_q

from enumerated import BUNDLED, models, oracle_pool, table_algebra

L3 = luk_chain(3)
CORPUS = (boolean2(), L3, luk_chain(4), b2_x_b2(), b2_x_l3(), godel3(), trivial())


def test_q_is_if_then_else():
    for alg in CORPUS:
        for a in range(alg.size):
            for b in range(alg.size):
                assert q(alg, alg.one, a, b) == a
                assert q(alg, alg.zero, a, b) == b


def test_q_e_1_0_returns_e_on_l3():
    for e in range(3):
        assert q(L3, e, 2, 0) == e


def test_middle_of_l3_is_not_central():
    result = is_central(L3, 1)
    assert not result.central
    assert result.methods_agree
    assert result.syntactic.witness is not None


def test_bounds_are_central_everywhere():
    for alg in CORPUS:
        for e in (alg.zero, alg.one):
            assert is_central(alg, e).central


def test_product_coordinate_elements_central():
    res = is_central(b2_x_l3(), 3)  # (1,0)
    assert res.central and res.methods_agree
    assert res.semantic.ok


def test_methods_agree_on_every_corpus_element():
    for alg in CORPUS:
        for e in range(alg.size):
            assert is_central(alg, e).methods_agree


def test_center_reports():
    assert center(L3).elements == (0, 2)
    assert center(boolean2()).elements == (0, 1)
    assert center(b2_x_b2()).elements == (0, 1, 2, 3)
    assert center(b2_x_l3()).elements == (0, 2, 3, 5)
    for alg in CORPUS:
        report = center(alg)
        assert report.ok, (report.agreement_failures, report.closure_failures,
                           report.factor_bijection_ok)


def test_central_laws_hold_on_corpus():
    for alg in CORPUS:
        report = central_laws_report(alg)
        assert report.ok, report.failures


def test_center_and_central_laws_need_an_inrs():
    xor = FiniteAlgebra(size=2, plus=[[0, 1], [1, 0]], times=[[0, 0], [0, 1]],
                        alpha=[1, 0], zero=0, one=1)
    for fn in (center, central_laws_report):
        with pytest.raises(ValueError, match=r"fails inrs axiom \(i\)"):
            fn(xor)


def test_central_law_spot_values():
    alg = b2_x_l3()
    e, a = 3, 4  # (1,0) and (1,h)
    assert alg.times[e][a] == alg.times[a][e] == 3
    # e ^ (join of family) = join of meets for the family {(0,h), (1,0)}
    fam = (1, 3)
    joined = alg.join_all(fam)
    assert alg.times[e][joined] == alg.join_all(alg.times[e][v] for v in fam) == 3


def test_interval_algebra_of_coordinate():
    iv = interval_algebra(b2_x_l3(), 2)  # (0,1)
    assert iv.algebra.size == 3
    assert iv.members == (0, 1, 2)
    assert find_isomorphism(iv.algebra, L3) is not None


def test_interval_algebra_top_and_bottom():
    for alg in (L3, b2_x_b2()):
        assert interval_algebra(alg, alg.one).algebra == alg
        assert interval_algebra(alg, alg.zero).algebra.size == 1


def test_interval_algebra_rejects_non_central():
    with pytest.raises(ValueError, match="not central"):
        interval_algebra(L3, 1)


def test_interval_names_follow_parent():
    iv = interval_algebra(b2_x_l3(), 3)
    assert iv.algebra.names == ("(0,0)", "(1,0)")


def test_semantic_centrality_matches_the_lattice_reference_on_the_bundled_corpus():
    verdicts = []
    for name in BUNDLED:
        alg = table_algebra(name)
        for e in range(alg.size):
            sem = semantic_centrality(alg, e)
            t0, t1 = sem.theta_zero, sem.theta_one
            reference = (t0.meet(t1).is_discrete() and t0.join(t1).is_full()
                         and t0.permutes_with(t1))
            assert sem.ok == reference, (name, e)
            verdicts.append(sem.ok)
    assert True in verdicts and False in verdicts


def m3_tables():
    # M3: 0, the atoms 1, 2, 3, and 4 on top; each atom complements the next
    def meet(p, r):
        return p if p == r or r == 4 else r if p == 4 else 0

    def join(p, r):
        return p if p == r or r == 0 else r if p == 0 else 4

    return ([[meet(p, r) for r in range(5)] for p in range(5)],
            [[join(p, r) for r in range(5)] for p in range(5)], [4, 2, 3, 1, 0], 0, 4)


# 0, a, b, 1 as the bit patterns 00, 01, 10, 11
BOOLEAN_SQUARE = ([[p & r for r in range(4)] for p in range(4)],
                  [[p | r for r in range(4)] for p in range(4)], [3 - p for p in range(4)], 0, 3)
THREE_CHAIN = ([[min(p, r) for r in range(3)] for p in range(3)],
               [[max(p, r) for r in range(3)] for p in range(3)], [2, 1, 0], 0, 2)
M3 = m3_tables()


def test_boolean_laws_hold_on_the_boolean_square():
    assert verify_boolean_laws(*BOOLEAN_SQUARE) == []


def test_boolean_laws_name_the_complement_laws_on_the_three_chain():
    assert verify_boolean_laws(*THREE_CHAIN) == [
        "complements meet to bottom", "complements join to top"]


def test_boolean_laws_name_both_distributive_laws_on_the_diamond():
    assert verify_boolean_laws(*M3) == [
        "meet distributes over join", "join distributes over meet"]


def reference_boolean_laws(meet, join, comp, bot, top):
    """The hand-written scans verify_boolean_laws replaced, kept as its reference."""
    es = range(len(comp))
    laws = (
        ("meet commutative", all(meet[p][r] == meet[r][p] for p in es for r in es)),
        ("join commutative", all(join[p][r] == join[r][p] for p in es for r in es)),
        ("meet associative", all(meet[meet[p][r]][s] == meet[p][meet[r][s]]
                                 for p in es for r in es for s in es)),
        ("join associative", all(join[join[p][r]][s] == join[p][join[r][s]]
                                 for p in es for r in es for s in es)),
        ("absorption", all(meet[p][join[p][r]] == p and join[p][meet[p][r]] == p
                           for p in es for r in es)),
        ("meet distributes over join",
         all(meet[p][join[r][s]] == join[meet[p][r]][meet[p][s]]
             for p in es for r in es for s in es)),
        ("join distributes over meet",
         all(join[p][meet[r][s]] == meet[join[p][r]][join[p][s]]
             for p in es for r in es for s in es)),
        ("top is meet identity", all(meet[p][top] == p for p in es)),
        ("bottom is join identity", all(join[p][bot] == p for p in es)),
        ("complements meet to bottom", all(meet[p][comp[p]] == bot for p in es)),
        ("complements join to top", all(join[p][comp[p]] == top for p in es)),
    )
    return [name for name, holds in laws if not holds]


def center_index_tables(alg):
    """The index tables of Ce(A), on which the Boolean laws hold by center()'s
    proof, or None when Ce(A) is not closed."""
    elements = central_elements(alg)
    index = {e: i for i, e in enumerate(elements)}
    images = [alg.zero, alg.one, *(alg.alpha[e] for e in elements)]
    images += [t[e][f] for t in (alg.plus, alg.times) for e in elements for f in elements]
    if any(v not in index for v in images):
        return None
    return ([[index[alg.times[e][f]] for f in elements] for e in elements],
            [[index[alg.plus[e][f]] for f in elements] for e in elements],
            [index[alg.alpha[e]] for e in elements], index[alg.zero], index[alg.one])


def random_boolean_tables(rng, k):
    cell = range(k)
    return ([[rng.choice(cell) for _ in cell] for _ in cell],
            [[rng.choice(cell) for _ in cell] for _ in cell],
            [rng.choice(cell) for _ in cell], rng.choice(cell), rng.choice(cell))


def test_boolean_laws_match_the_reference_scans():
    pools = [models(n, INRS) for n in range(1, 6)] + [models(n, LUK_NRS) for n in range(1, 8)]
    centers = [center_index_tables(alg) for pool in pools for alg in pool]
    centers = [tables for tables in centers if tables is not None]
    assert len(centers) > 1000
    rng = random.Random(23)
    drawn = [random_boolean_tables(rng, rng.randint(1, 4)) for _ in range(3000)]
    verdicts = set()
    for tables in [BOOLEAN_SQUARE, THREE_CHAIN, M3] + centers + drawn:
        got = verify_boolean_laws(*tables)
        assert got == reference_boolean_laws(*tables), tables
        verdicts.add(len(got))
    assert 0 in verdicts and len(verdicts) > 3


def test_the_boolean_order_is_implied_by_commutativity_and_absorption():
    # center() checks no order apart: where both commutative laws and absorption
    # hold, meet[i][j] = i (e*f = e) iff join[i][j] = j (e <= f).  Checked on
    # every pair of idempotent commutative tables with k <= 3 (absorption
    # forces idempotence).
    implied = 0
    for k in (1, 2, 3):
        cells = list(itertools.combinations(range(k), 2))
        tables = []
        for values in itertools.product(range(k), repeat=len(cells)):
            table = [[i if i == j else None for j in range(k)] for i in range(k)]
            for (i, j), v in zip(cells, values):
                table[i][j] = table[j][i] = v
            tables.append(table)
        for meet, join in itertools.product(tables, repeat=2):
            if "absorption" in verify_boolean_laws(meet, join, list(range(k)), 0, 0):
                continue
            implied += 1
            assert all((meet[i][j] == i) == (join[i][j] == j)
                       for i in range(k) for j in range(k))
    assert implied > 10


def test_intervals_keep_the_class_of_their_parent():
    # interval_algebra does not re-check the class axioms: this is the theorem
    # it relies on, checked over every central element of a corpus
    b2_4 = functools.reduce(product, [boolean2()] * 4)
    parents = [table_algebra(name) for name in BUNDLED] + [
        product(L3, L3), b2_4, product(L3, luk_chain(4))]
    intervals = 0
    for alg in parents:
        cls = classify(alg)
        assert cls is not None
        for e in central_elements(alg):
            assert check_axioms(interval_algebra(alg, e).algebra, cls).ok, (alg.size, e)
            intervals += 1
    assert intervals > len(parents) * 2


def test_decompose_b2xl3():
    d = decompose(b2_x_l3(), 3)
    assert (d.part.algebra.size, d.co_part.algebra.size) == (2, 3)
    assert d.pair_map.bijective
    assert find_isomorphism(d.pair_map.target, b2_x_l3()) is not None


def test_decompose_trivial_and_square():
    d1 = decompose(L3, L3.one)
    assert d1.co_part.algebra.size == 1 and d1.pair_map.bijective
    d2 = decompose(b2_x_b2(), 2)
    assert (d2.part.algebra.size, d2.co_part.algebra.size) == (2, 2)
    assert find_isomorphism(d2.pair_map.target, b2_x_b2()) is not None


def test_decompose_round_trip_identity():
    for alg in (b2_x_l3(), b2_x_b2(), luk_chain(4)):
        for e in central_elements(alg):
            d = decompose(alg, e)
            m = d.co_part.algebra.size
            # the coordinates of the pair map are a |-> e*a and a |-> e^a*a
            for a in range(alg.size):
                pair = d.pair_map(a)
                assert pair // m == d.part.to_local(alg.times[e][a])
                assert pair % m == d.co_part.to_local(alg.times[alg.alpha[e]][a])
            inverse = {d.pair_map(a): a for a in range(alg.size)}
            assert all(inverse[d.pair_map(a)] == a for a in range(alg.size))


def test_every_central_decomposition_is_isomorphism():
    for alg in (boolean2(), L3, luk_chain(4), b2_x_b2(), b2_x_l3()):
        for e in central_elements(alg):
            assert decompose(alg, e).pair_map.bijective


def test_central_ideal_checks():
    alg = b2_x_l3()
    rep = central_ideal_check(alg, 3)
    assert rep.ok and rep.principal.members() == (0, 3)
    assert central_ideal_check(alg, alg.one).principal.members() == tuple(range(6))
    assert central_ideal_check(alg, alg.zero).principal.members() == (0,)
    for a in (boolean2(), L3, luk_chain(4), b2_x_b2(), b2_x_l3()):
        for e in central_elements(a):
            assert central_ideal_check(a, e).ok


def test_center_order_matches_leq():
    for alg in CORPUS:
        elems = center(alg).elements
        for e, f in itertools.product(elems, repeat=2):
            assert (alg.times[e][f] == e) == leq(alg, e, f)


def test_central_ideal_check_rejects_non_central():
    with pytest.raises(ValueError, match="not central"):
        central_ideal_check(L3, 1)


def power(alg, k):
    out = alg
    for _ in range(k - 1):
        out = product(out, alg)
    return out


A, B, C, E, A1, A2, B1, B2 = (Var(v) for v in ("a", "b", "c", "e", "a1", "a2", "b1", "b2"))
#: the paper's six centrality laws, the test reference; syntactic_centrality
#: checks all but the two (b) laws, which the (c) laws imply
PAPER_LAWS = (
    ("(a) q(e,a,a)=a", church_q(E, A, A), A),
    ("(b) q(e,q(e,a,b),c)=q(e,a,c)", church_q(E, church_q(E, A, B), C), church_q(E, A, C)),
    ("(b) q(e,a,q(e,b,c))=q(e,a,c)", church_q(E, A, church_q(E, B, C)), church_q(E, A, C)),
    ("(c) q commutes with +", church_q(E, A1 + A2, B1 + B2),
     church_q(E, A1, B1) + church_q(E, A2, B2)),
    ("(c) q commutes with *", church_q(E, A1 * A2, B1 * B2),
     church_q(E, A1, B1) * church_q(E, A2, B2)),
    ("(c) q commutes with alpha", church_q(E, A.a, B.a), church_q(E, A, B).a),
)
B_LAWS = PAPER_LAWS[1:3]
PLUS_LAW, TIMES_LAW, ALPHA_LAW = PAPER_LAWS[3:]


def test_centrality_laws_are_a_and_the_c_laws_for_plus_and_times():
    # the proofs that syntactic_centrality and center() state lean on (a) and
    # the (c) laws for + and *, which imply the (b) laws and the alpha law.
    # Elements 3 and 4 of SIX_INRS pass (a) and the + law and fail the * law
    # (test_reduced_centrality_equals_the_full_scans), so a verdict would show
    # the * law missing
    assert CENTRALITY_LAWS == PAPER_LAWS[:1] + (PLUS_LAW, TIMES_LAW)


def reference_syntactic_centrality(alg, e):
    """syntactic_centrality by the full n^4 scans of every law, no reduction."""
    for name, lhs, rhs in CENTRALITY_LAWS:
        out = check_identity(alg, name, lhs, rhs, fixed={"e": e})
        if not out.ok:
            return out
    return CheckOutcome("syntactic centrality", True)


@functools.lru_cache(maxsize=None)
def reduction_pool():
    """Every inrs up to n = 5, every luk-nrs at n = 6 and 7, and every
    product of two of l2, l3 and l4."""
    chains = [luk_chain(k) for k in (2, 3, 4)]
    return (tuple(alg for n in range(1, 6) for alg in models(n, INRS))
            + models(6, LUK_NRS) + models(7, LUK_NRS)
            + tuple(product(a, b) for a, b in itertools.product(chains, repeat=2)))


#: a 6-element inrs whose elements 3 and 4 pass (a) and the + law and fail
#: the * law: at e = 3, e^a*(1*1) = 2 but (e^a*1)*(e^a*1) = 0
SIX_INRS = FiniteAlgebra(
    size=6,
    plus=((0, 1, 2, 3, 4, 5), (1, 1, 1, 1, 5, 5), (2, 1, 2, 1, 4, 5), (3, 1, 1, 3, 5, 5),
          (4, 5, 4, 5, 4, 5), (5, 5, 5, 5, 5, 5)),
    times=((0, 0, 0, 0, 0, 0), (0, 1, 0, 3, 0, 1), (0, 2, 0, 0, 0, 2), (0, 3, 0, 3, 0, 3),
           (0, 2, 2, 0, 4, 4), (0, 1, 2, 3, 4, 5)),
    alpha=(5, 2, 1, 4, 3, 0), zero=0, one=5)


@functools.lru_cache(maxsize=None)
def inrs_pool():
    """reduction_pool(), every other inrs of oracle_pool() and SIX_INRS."""
    return tuple(dict.fromkeys(reduction_pool() + tuple(
        alg for alg in oracle_pool() if classify(alg) is not None) + (SIX_INRS,)))


def test_reduced_centrality_equals_the_full_scans():
    # centrality is defined on inrs tables only; the outcome, witness
    # included, must be the one the full scans give.  The verdict is also
    # the one of the paper's six laws: only the first failing law of a
    # non-central element, and so its witness, may differ
    verdicts, first_failures = set(), set()
    for alg in inrs_pool():
        for e in range(alg.size):
            out = syntactic_centrality(alg, e)
            assert out == reference_syntactic_centrality(alg, e), (alg, e)
            # the six-law scan, with the laws CENTRALITY_LAWS holds already known
            paper = out.ok and all(check_identity(alg, *law, fixed={"e": e}).ok
                                   for law in (*B_LAWS, ALPHA_LAW))
            assert out.ok == paper, (alg, e)
            verdicts.add(out.ok)
            if not out.ok:
                first_failures.add(out.name)
    assert verdicts == {True, False}
    assert first_failures == {PAPER_LAWS[0][0], PLUS_LAW[0], TIMES_LAW[0]}
    assert [syntactic_centrality(SIX_INRS, e).name for e in (3, 4)] == [TIMES_LAW[0]] * 2


def test_the_c_laws_imply_both_b_laws():
    # at every element of every inrs of the pool, central or not: where a (b)
    # law fails, so does the full (c) scan for + or for *
    b_failures = 0
    for alg in inrs_pool():
        for e in range(alg.size):
            if all(check_identity(alg, *law, fixed={"e": e}).ok for law in B_LAWS):
                continue
            b_failures += 1
            assert not all(check_identity(alg, *law, fixed={"e": e}).ok
                           for law in (PLUS_LAW, TIMES_LAW)), (alg, e)
    assert b_failures == 3189


def test_the_edges_imply_the_full_times_and_alpha_scans():
    # at every element of every inrs of the pool that passes (a), the rows of
    # the + law and the edge rows of the * law, the full scans of the * law
    # and of the alpha law, which syntactic_centrality does not run, pass
    passed = 0
    for alg in inrs_pool():
        for e in range(alg.size):
            if not (check_identity(alg, *PAPER_LAWS[0], fixed={"e": e}).ok
                    and all(_reductions_hold(alg, e, CENTRALITY_REDUCTIONS[law[0]])
                            for law in (PLUS_LAW, TIMES_LAW))):
                continue
            passed += 1
            for law in (TIMES_LAW, ALPHA_LAW):
                assert check_identity(alg, *law, fixed={"e": e}).ok, (alg, e, law[0])
    assert passed == 2148


def test_reduced_check_alone_decides_each_c_law():
    # the + law taken alone, for every element and not only past (a); the *
    # law past (a) and the + law, as its edge rows lean on both
    seen = set()
    for alg in inrs_pool():
        for e in range(alg.size):
            past_a = check_identity(alg, *PAPER_LAWS[0], fixed={"e": e}).ok
            for name, lhs, rhs in (PLUS_LAW, TIMES_LAW) if past_a else (PLUS_LAW,):
                full = check_identity(alg, name, lhs, rhs, fixed={"e": e}).ok
                assert _reductions_hold(alg, e, CENTRALITY_REDUCTIONS[name]) == full, (alg, e, name)
                seen.add((name, full))
                if not full:
                    break
    # both laws pass and fail; the * failures are those of SIX_INRS
    assert seen == {(law[0], full) for law in (PLUS_LAW, TIMES_LAW) for full in (True, False)}


def test_plus_law_edges_over_generators_are_the_full_scans():
    # x |-> e*x and x |-> e^a*x preserve joins iff they do on G = J u {0}, at
    # every element of every inrs of the oracle pool, central or not; where
    # both do, the edges of the * law hold iff they do with a1 or b1 over G
    seen = set()
    for alg in oracle_pool():
        if classify(alg) is None:
            continue
        z, generators = alg.zero, (alg.zero, *join_irreducibles(alg))
        for e in range(alg.size):
            for name, lhs, rhs in (PLUS_LAW, TIMES_LAW):
                fulls = []
                for edge, free in (({"e": e, "b1": z, "b2": z}, "a1"),
                                   ({"e": e, "a1": z, "a2": z}, "b1")):
                    full = check_identity(alg, name, lhs, rhs, fixed=edge).ok
                    assert holds(alg, lhs, rhs, edge, {free: generators}) == full, (alg, e, name)
                    seen.add((name, full))
                    fulls.append(full)
                if not all(fulls):
                    break
    assert seen == {(law[0], ok) for law in (PLUS_LAW, TIMES_LAW) for ok in (True, False)}


@st.composite
def small_tables(draw):
    n = draw(st.integers(2, 4))
    cell = st.integers(0, n - 1)
    table = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    return FiniteAlgebra(size=n, plus=draw(table), times=draw(table),
                         alpha=draw(st.lists(cell, min_size=n, max_size=n)),
                         zero=draw(cell), one=draw(cell))


@given(small_tables(), st.data())
@settings(max_examples=100, deadline=None)
def test_centrality_needs_an_inrs(alg, data):
    # almost every drawn table is not an inrs; centrality is defined on inrs only
    assume(classify(alg) is None)
    e = data.draw(st.integers(0, alg.size - 1))
    for test in (syntactic_centrality, semantic_centrality, is_central):
        with pytest.raises(ValueError, match="fails inrs axiom"):
            test(alg, e)


def test_luk_rs_center_is_the_boolean_elements():
    # the center of an MV-algebra is its Boolean center {e : e + e^a = 1}
    # (Cignoli, D'Ottaviano and Mundici 2000)
    chains = [luk_chain(k) for k in (2, 3, 4)]
    pool = ([alg for n in range(1, 8)
             for alg in models(n, LUK_RS)]
            + [product(a, b) for a, b in itertools.product(chains, repeat=2)]
            + [power(luk_chain(2), 3), product(product(luk_chain(2), luk_chain(3)), luk_chain(2))])
    for alg in pool:
        assert classify(alg) == LUK_RS
        boolean = tuple(e for e in range(alg.size) if alg.plus[e][alg.alpha[e]] == alg.one)
        assert central_elements(alg) == boolean


@pytest.mark.parametrize("alg, size", [(power(luk_chain(3), 3), 8),
                                       (power(boolean2(), 5), 32)])
def test_center_on_the_largest_products(alg, size):
    report = center(alg)
    assert len(report.elements) == size
    assert report.ok and central_laws_report(alg).ok


def test_theta_e_1_is_the_kernel_of_e_alpha_on_every_inrs():
    # what semantic_centrality reads: alpha is an involution with 0^a = 1, and
    # every congruence respects it
    pool = reduction_pool() + tuple(map(table_algebra, BUNDLED))
    assert {classify(alg) for alg in pool} == {INRS, LUK_NRS, LUK_RS}
    for alg in pool:
        for e in range(alg.size):
            assert congruences.kernel(alg, alg.alpha[e]) == \
                congruences.principal_congruence(alg, e, alg.one)


def test_semantic_centrality_reads_the_principal_congruences():
    # theta(e,0) and theta(e,1) are Cg(e,0) and Cg(e,1) on every inrs of the pool
    for alg in reduction_pool() + tuple(map(table_algebra, BUNDLED)):
        for e in range(alg.size):
            sem = semantic_centrality(alg, e)
            assert sem.theta_zero == congruences.principal_congruence(alg, e, alg.zero)
            assert sem.theta_one == congruences.principal_congruence(alg, e, alg.one)


def is_meet(alg, m, e, b):
    """m is the greatest lower bound of e and b in the order of (A, +)."""
    return (leq(alg, m, e) and leq(alg, m, b)
            and all(leq(alg, c, m) for c in range(alg.size) if leq(alg, c, e) and leq(alg, c, b)))


#: a <= e implies a*e = a, read m(a,e)*e = m(a,e) for the meet term m; it follows
#: at a central e, so central_laws_report does not check it
BELOW_LAW = ("a<=e implies a*e = a", (A.a + E.a).a * E, (A.a + E.a).a)


def test_central_element_laws_are_the_order_scans():
    # the identities against the leq scans they replaced, at every element,
    # central or not
    laws = (BELOW_LAW, *CENTRAL_ELEMENT_LAWS)
    verdicts = set()
    for alg in reduction_pool():
        n = alg.size
        for e in range(n):
            scans = (all(alg.times[a][e] == a for a in range(n) if leq(alg, a, e)),
                     all(is_meet(alg, alg.times[e][b], e, b) for b in range(n)))
            for (name, lhs, rhs), scan in zip(laws, scans, strict=True):
                assert check_identity(alg, name, lhs, rhs, fixed={"e": e}).ok == scan, (alg, e)
                verdicts.add((name, scan))
    assert verdicts == {(law[0], ok) for law in laws for ok in (True, False)}


def test_checks_center_skips_hold_on_every_inrs():
    # center() and syntactic_centrality no longer check these facts: each
    # follows from the inrs axioms and the centrality laws, and here each is
    # checked on every inrs of the oracle pool
    centrals = closed = 0
    for alg in oracle_pool():
        if classify(alg) is None:
            continue
        n, central = alg.size, set(central_elements(alg))
        # 0 and 1 are central, and e is central iff e^a is
        assert {alg.zero, alg.one} <= central, alg
        assert {alg.alpha[e] for e in central} == central, alg
        # (d) q(e,1,0) = e at every element
        assert all(q(alg, e, alg.one, alg.zero) == e for e in range(n)), alg
        # all eleven Boolean laws on the index tables of a closed Ce(A)
        tables = center_index_tables(alg)
        if tables is not None:
            assert verify_boolean_laws(*tables) == [], alg
            closed += 1
        # e*b is the meet of e and b, and a <= e implies a*e = a, at every central e
        for e in central:
            for law in (*CENTRAL_ELEMENT_LAWS, BELOW_LAW):
                assert check_identity(alg, *law, fixed={"e": e}).ok, (alg, e, law[0])
            centrals += 1
    assert centrals == 2304 and closed > 1000


def test_center_makes_one_principal_congruence_per_kernel(monkeypatch):
    # Con(A), theta(e,0) and theta(e,1) all read the prime quotients
    # Cg(j_*, j) of the join-irreducibles; they are the only fixpoints
    calls = []
    original = congruences.principal_congruence

    def counted(alg, a, b):
        calls.append((a, b))
        return original(alg, a, b)

    monkeypatch.setattr(congruences, "principal_congruence", counted)
    for alg, generators in ((power(boolean2(), 4), 4), (power(godel3(), 2), 4)):
        calls.clear()
        assert center(alg).ok
        assert sorted(calls) == sorted((lower, j) for j, lower in join_irreducibles(alg).items())
        assert len(calls) == generators
