import itertools

import pytest

from nearsemiring.catalog import b2_x_b2, b2_x_l3, boolean2, godel3, luk_chain, trivial
from nearsemiring.core import AlgebraError, product
from nearsemiring.mv import (MVAlgebra, check_mv_axioms, from_mv,
                             ideal_correspondence_report, mv_is_ideal,
                             roundtrip_check, to_mv)
from nearsemiring.ideals import ElementSet


def mv_chain(k):
    """Independent closed-form oracle: truncated addition on {0..k-1}."""
    return MVAlgebra(size=k,
                     oplus=[[min(k - 1, i + j) for j in range(k)] for i in range(k)],
                     neg=[k - 1 - i for i in range(k)],
                     zero=0)


def test_to_mv_matches_truncated_addition_on_chains():
    for k in range(2, 7):
        mv = to_mv(luk_chain(k))
        oracle = mv_chain(k)
        assert mv.oplus == oracle.oplus
        assert mv.neg == oracle.neg
        assert mv.zero == oracle.zero


def test_from_mv_recovers_lukasiewicz_tnorm():
    for k in range(2, 7):
        alg = from_mv(mv_chain(k))
        assert alg.times == luk_chain(k).times
        assert alg.plus == luk_chain(k).plus
        assert alg.one == k - 1
    alg3 = from_mv(mv_chain(3))
    assert alg3.times[1][1] == 0 and alg3.times[1][2] == 1


def test_b2_oplus_is_or():
    mv = to_mv(boolean2())
    assert mv.oplus == ((0, 1), (1, 1))


def test_product_translation_is_componentwise():
    mv = to_mv(b2_x_l3())
    m1, m2 = to_mv(boolean2()), to_mv(luk_chain(3))
    for (i, j), (k, l) in itertools.product(
            itertools.product(range(2), range(3)), repeat=2):
        assert mv.oplus[i * 3 + j][k * 3 + l] == m1.oplus[i][k] * 3 + m2.oplus[j][l]


def test_roundtrips_table_identical():
    for alg in (boolean2(), luk_chain(3), luk_chain(4), b2_x_l3()):
        assert roundtrip_check(alg).ok
        assert roundtrip_check(to_mv(alg)).ok
    for k in range(2, 7):
        assert roundtrip_check(mv_chain(k)).ok


def test_to_mv_rejects_non_semirings():
    with pytest.raises(ValueError, match=r"\(vii\)"):
        to_mv(godel3())


def test_from_mv_rejects_broken_input():
    broken = MVAlgebra(size=2, oplus=((0, 0), (0, 1)), neg=(1, 0), zero=0)
    report = check_mv_axioms(broken)
    assert not report.ok
    with pytest.raises(ValueError, match="MV axioms"):
        from_mv(broken)


def test_mv_axioms_pass_on_translates():
    for alg in (boolean2(), luk_chain(3), luk_chain(4), b2_x_l3()):
        assert check_mv_axioms(to_mv(alg)).ok


def test_mv_ideal_definition():
    mv = mv_chain(4)
    assert mv_is_ideal(mv, ElementSet.from_members(4, [0]))
    assert mv_is_ideal(mv, ElementSet.full(4))
    # {0, 1/3} is not oplus-closed beyond itself? 1+1=2 escapes
    assert not mv_is_ideal(mv, ElementSet.from_members(4, [0, 1]))
    assert not mv_is_ideal(mv, ElementSet.from_members(4, [0, 2]))


def reference_mv_is_ideal(mv, s):
    """The MV-ideal conditions written out on the raw tables: the reference
    for mv_is_ideal."""
    if mv.zero not in s:
        return False
    members = s.members()
    for a in members:
        for b in members:
            if mv.oplus[a][b] not in s:
                return False
        for b in range(mv.size):
            if mv.mv_leq(b, a) and b not in s:
                return False
    return True


def test_mv_is_ideal_matches_reference_on_all_subsets():
    l3, b2 = luk_chain(3), boolean2()
    for alg in (b2, l3, luk_chain(4), b2_x_b2(), b2_x_l3(), trivial(), luk_chain(12),
                product(b2_x_b2(), b2), product(l3, l3)):
        mv = to_mv(alg)
        for mask in range(1 << alg.size):
            s = ElementSet(alg.size, mask)
            assert mv_is_ideal(mv, s) == reference_mv_is_ideal(mv, s)


def test_ideal_correspondence_on_corpus():
    for alg in (boolean2(), luk_chain(3), luk_chain(4), b2_x_l3()):
        report = ideal_correspondence_report(alg)
        assert report.agree_everywhere, [s.members() for s in report.disagreements]


def test_ideal_correspondence_on_enumerated_semirings():
    from nearsemiring.search import EnumerationTask, enumerate_algebras
    pool = [alg for n in range(1, 6)
            for alg in enumerate_algebras(EnumerationTask(n, "luk-rs"))]
    assert pool
    for alg in pool:
        assert ideal_correspondence_report(alg).agree_everywhere


def test_mv_algebra_validation():
    with pytest.raises(ValueError):
        MVAlgebra(size=0, oplus=(), neg=(), zero=0)
    with pytest.raises(Exception):
        MVAlgebra(size=2, oplus=((0, 1),), neg=(1, 0), zero=0)
    with pytest.raises(ValueError):
        MVAlgebra(size=2, oplus=((0, 1), (1, 1)), neg=(1, 0), zero=5)


def test_mv_algebra_rejects_names_of_the_wrong_length():
    with pytest.raises(AlgebraError, match="names must have 2 entries, got 1"):
        MVAlgebra(2, ((0, 1), (1, 1)), (1, 0), 0, names=("a",))
    assert MVAlgebra(2, ((0, 1), (1, 1)), (1, 0), 0, names=("a", "b")).label(1) == "b"
