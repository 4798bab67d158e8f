import importlib
from collections import Counter

import pytest

from nearsemiring import axioms
from nearsemiring.axioms import (BASE_LAWS, CLASS_LAWS, CLASSES, INRS, LUK_NRS, LUK_RS,
                                 check_axioms, check_identity, check_laws, classify,
                                 holds, require_class)
from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, godel3,
                                  luk_chain, trivial)
from nearsemiring.core import FiniteAlgebra, join_irreducibles

from enumerated import oracle_pool


def test_boolean2_passes_luk_rs():
    report = check_axioms(boolean2(), LUK_RS)
    assert report.ok
    assert all(c.ok for c in report.derived)


def test_l3_passes_luk_nrs_and_luk_rs():
    for cls in (INRS, LUK_NRS, LUK_RS):
        report = check_axioms(luk_chain(3), cls)
        assert report.ok, report.failures()
        assert all(c.ok for c in report.derived)


def test_admission_evaluates_no_derived_identity(monkeypatch):
    axioms = importlib.import_module("nearsemiring.axioms")
    names = []
    check = axioms.check_identity

    def recording(alg, name, *args, **kwargs):
        names.append(name)
        return check(alg, name, *args, **kwargs)

    monkeypatch.setattr(axioms, "check_identity", recording)
    derived = {name for name, _ in axioms.DERIVED_LAWS}
    report = check_axioms(luk_chain(4), LUK_RS)
    assert report.ok and names and not derived & set(names)
    assert [c.name for c in report.derived] == [name for name, _ in axioms.DERIVED_LAWS]
    assert derived <= set(names)


def test_corpus_passes_luk_rs():
    for alg in (boolean2(), luk_chain(3), luk_chain(4), b2_x_l3(), b2_x_b2(), trivial()):
        assert check_axioms(alg, LUK_RS).ok


def test_godel3_fails_exactly_vii():
    report = check_axioms(godel3(), LUK_NRS)
    assert [c.name for c in report.failures()] == ["(vii)"]
    w = report.outcome("(vii)").witness
    assert w is not None
    # witness (x,y) = (1,h): at that assignment lhs evaluates to h, rhs to 0
    assert w.values() == (2, 1)
    assert (w.lhs, w.rhs) == (1, 0)
    assert w.render(godel3()) == "x=1, y=h: lhs=h rhs=0"


def test_godel3_passes_inrs_but_derived_fail():
    report = check_axioms(godel3(), INRS)
    assert report.ok
    ann = report.outcome("x*x^a = x^a*x = 0")
    assert not ann.ok  # h*h = h on the idempotent middle


def test_classify():
    assert classify(boolean2()) == LUK_RS
    assert classify(godel3()) == INRS
    broken = FiniteAlgebra(size=2, plus=((0, 1), (1, 1)), times=((0, 0), (0, 1)),
                           alpha=(0, 1), one=1)  # identity involution is not antitone
    assert classify(broken) is None


def test_require_class_raises_with_axiom_name():
    with pytest.raises(ValueError, match=r"\(vii\)"):
        require_class(godel3(), LUK_NRS)


def test_viii_and_join_recovery_on_corpus():
    for alg in (boolean2(), luk_chain(3), luk_chain(4), b2_x_l3(), b2_x_b2()):
        report = check_axioms(alg, LUK_NRS)
        assert report.outcome("(viii)").ok
        assert report.outcome("x+y = ((x*y^a)^a*y^a)^a").ok


def reference_classify(report):
    """classify by the full scans: the longest passing prefix of a
    check_axioms(alg, LUK_RS) report, as each class's axioms are a prefix of it."""
    axioms = report.axioms
    best = None
    for cls in CLASSES:
        if not all(c.ok for c in axioms[:len(BASE_LAWS) + 1 + len(CLASS_LAWS[cls])]):
            break
        best = cls
    return best


def test_classify_is_the_longest_passing_prefix_of_the_full_scans():
    refuted = Counter()
    for alg in oracle_pool():
        report = check_axioms(alg, LUK_RS)
        assert classify(alg) == reference_classify(report), alg
        refuted.update((c.name, c.detail) for c in report.failures())
    assert {classify(alg) for alg in oracle_pool()} == {None, *CLASSES}
    # the reduced laws are refuted by the full scans, not only passed
    for law in (("(i)", "(x+y)+z = x+(y+z)"), ("(iii)", ""), ("(assoc)", ""), ("(rdist)", "")):
        assert refuted[law] > 0, law


def test_each_reduction_decides_its_law_on_the_pool():
    # each law alone, on every table of the pool that meets its premises, not
    # only past the laws before it in the luk-rs order
    laws = dict(BASE_LAWS + CLASS_LAWS[LUK_RS])
    idempotent, commutative, associative = laws["(i)"][:3]
    seen = set()
    for alg in oracle_pool():
        if not (check_identity(alg, *idempotent).ok and check_identity(alg, *commutative).ok):
            continue
        associative_full = check_identity(alg, *associative).ok
        assert axioms._join_associative(alg) == associative_full, alg
        seen.add(("(i)", associative_full))
        if not check_laws(alg, BASE_LAWS[:1])[0].ok:
            continue
        full = {}
        for name in ("(iii)", "(rdist)", "(assoc)"):
            if name == "(assoc)" and not full["(iii)"]:
                continue  # (assoc) is decided over G once (iii) holds
            (_, lhs, rhs), = laws[name]
            full[name] = check_identity(alg, name, lhs, rhs).ok
            generators = (alg.zero, *join_irreducibles(alg))
            assert holds(alg, lhs, rhs, domains={"x": generators}) == full[name], (alg, name)
            seen.add((name, full[name]))
    assert seen == {(name, ok) for name in ("(i)", "(iii)", "(rdist)", "(assoc)")
                    for ok in (True, False)}
