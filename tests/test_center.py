import itertools

import pytest

from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, godel3,
                                  luk_chain, trivial)
from nearsemiring.center import (center, central_elements, central_ideal_check,
                                 central_laws_report, decompose,
                                 interval_algebra, is_central, q)
from nearsemiring.core import FiniteAlgebra, find_isomorphism, leq

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
    sem = res.semantic
    assert sem.meet_is_diagonal and sem.join_is_full and sem.permute
    assert sem.reconstructs_product


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
        assert report.ok, (report.closure_failures, report.boolean_failures,
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
