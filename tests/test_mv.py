import copy
import importlib
import itertools
import pickle
import random

import pytest

from nearsemiring import bundled_file
from nearsemiring.algfile import load
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


def reference_mv_axioms(mv):
    """The hand-written scans check_mv_axioms replaced, kept as its reference:
    one (name, holds) per axiom."""
    n, op, neg, zero, one = mv.size, mv.oplus, mv.neg, mv.zero, mv.one
    es = range(n)
    return [
        ("oplus commutative", all(op[a][b] == op[b][a] for a in es for b in es)),
        ("oplus associative", all(op[op[a][b]][c] == op[a][op[b][c]]
                                  for a in es for b in es for c in es)),
        ("zero is neutral", all(op[zero][a] == a for a in es)),
        ("double negation", all(neg[neg[a]] == a for a in es)),
        ("neg(neg x + y) + y symmetric",
         all(op[neg[op[neg[a]][b]]][b] == op[neg[op[neg[b]][a]]][a] for a in es for b in es)),
        ("one absorbs", all(op[a][one] == one for a in es)),
    ]


MV_TRANSLATES = tuple(to_mv(alg) for alg in (boolean2(), luk_chain(3), luk_chain(4), b2_x_b2()))


def random_mv_tables(rng):
    """A random table, or a translate with one cell of oplus or neg redrawn."""
    if rng.random() < 0.5:
        n = rng.randint(1, 4)
        cell = range(n)
        return MVAlgebra(n, [[rng.choice(cell) for _ in cell] for _ in cell],
                         [rng.choice(cell) for _ in cell], rng.choice(cell))
    mv = rng.choice(MV_TRANSLATES)
    oplus, neg = [list(row) for row in mv.oplus], list(mv.neg)
    a, b, v = (rng.randrange(mv.size) for _ in range(3))
    if rng.random() < 0.8:
        oplus[a][b] = v
    else:
        neg[a] = v
    return MVAlgebra(mv.size, oplus, neg, mv.zero)


def test_mv_axioms_match_the_reference_scans():
    rng = random.Random(23)
    pinned = [mv_chain(k) for k in range(1, 7)] + list(MV_TRANSLATES)
    drawn = [random_mv_tables(rng) for _ in range(3000)]
    passed = 0
    for mv in pinned + drawn:
        report = check_mv_axioms(mv)
        assert [(c.name, c.ok) for c in report.checks] == reference_mv_axioms(mv), mv
        passed += report.ok
    assert len(pinned) < passed < len(pinned) + len(drawn)


def test_a_failed_mv_axiom_carries_its_witness():
    broken = MVAlgebra(size=2, oplus=((0, 0), (0, 1)), neg=(1, 0), zero=0, names=("lo", "hi"))
    bad = {c.name: c.witness.render(broken) for c in check_mv_axioms(broken).failures()}
    assert bad == {"zero is neutral": "x=hi: lhs=lo rhs=hi",
                   "one absorbs": "x=lo: lhs=lo rhs=hi"}


def test_mv_axiom_reports_stay_off_copies_and_pickles():
    mv = to_mv(luk_chain(3))
    assert check_mv_axioms(mv) is check_mv_axioms(mv)
    for other in (copy.copy(mv), copy.deepcopy(mv), pickle.loads(pickle.dumps(mv))):
        assert other == mv and vars(other).keys() < vars(mv).keys()


def test_roundtrip_scans_each_object_once(monkeypatch):
    # one MV scan per MV-algebra and one class decision per table, each direction
    axioms_module = importlib.import_module("nearsemiring.axioms")
    mv_module = importlib.import_module("nearsemiring.mv")
    table_scans, mv_scans = [], []

    def counted(scans, fn):
        def wrapper(alg, *args):
            scans.append(alg)
            return fn(alg, *args)
        return wrapper

    monkeypatch.setattr(axioms_module, "_decide_class",
                        counted(table_scans, axioms_module._decide_class))
    monkeypatch.setattr(mv_module, "check_laws", counted(mv_scans, mv_module.check_laws))
    for name, tables, mvs in (("b2xl3.alg", 2, 1), ("l3-mv.alg", 1, 2)):
        table_scans.clear()
        mv_scans.clear()
        assert roundtrip_check(load(bundled_file(name)).to_algebra()).ok
        assert (len(table_scans), len(mv_scans)) == (tables, mvs), name
        assert len({id(a) for a in table_scans + mv_scans}) == tables + mvs


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
