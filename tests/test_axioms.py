import importlib

import pytest

from nearsemiring.axioms import (INRS, LUK_NRS, LUK_RS, check_axioms, classify,
                                 require_class)
from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, godel3,
                                  luk_chain, trivial)
from nearsemiring.core import FiniteAlgebra


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
