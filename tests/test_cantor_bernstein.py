import dataclasses
import importlib

import pytest

from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, l3_x_b2,
                                  luk_chain)
from nearsemiring.cantor_bernstein import (cb_isomorphism, cb_search,
                                           cb_sequences, make_cb_instance)
from nearsemiring.center import decompose, partition_decomposition
from nearsemiring.core import find_isomorphism


def identity_instance(alg):
    ident = tuple(range(alg.size))
    return make_cb_instance(alg, alg, alg.one, alg.one, ident, ident)


def swap_b2xb2_instance():
    sq = b2_x_b2()
    swap = tuple((p % 2) * 2 + p // 2 for p in range(4))
    return make_cb_instance(sq, sq, 3, 3, swap, tuple(range(4)))


def composed_instance():
    a, b = b2_x_l3(), l3_x_b2()
    gamma = tuple((p % 3) * 2 + p // 3 for p in range(6))
    beta = tuple((p % 2) * 3 + p // 2 for p in range(6))
    return make_cb_instance(a, b, a.one, b.one, gamma, beta)


INSTANCES = (identity_instance(boolean2()), swap_b2xb2_instance(),
             identity_instance(b2_x_l3()), composed_instance())


def test_degenerate_identity_instance():
    trace = cb_sequences(identity_instance(boolean2()))
    assert trace.ok
    assert trace.vs == (1, 1) and trace.us == (1, 1)
    assert trace.es == () and trace.ds == ()
    assert trace.iso.mapping == (0, 1)


def test_swap_instance_assembles_the_swap():
    trace = cb_sequences(swap_b2xb2_instance())
    assert trace.ok
    assert trace.v_inf == 3 and trace.u_inf == 3
    assert trace.iso.mapping == (0, 2, 1, 3)


def test_composed_instance_is_verified_isomorphism():
    iso = cb_isomorphism(composed_instance())
    assert iso.bijective
    assert iso.source is composed_instance().algebra_a or iso.source.size == 6


def test_all_lemma_level_checks_pass():
    for inst in INSTANCES:
        trace = cb_sequences(inst)
        assert trace.ok, [c.name for c in trace.failures()]
        names = [c.name for c in trace.checks]
        for expected in ("chain elements central", "difference elements central",
                         "chains weakly decrease", "strict descent before stabilization",
                         "gamma(v_inf) = u_inf", "beta(u_inf) = v_inf",
                         "gamma(e_n) = d_(n+1)", "beta(d_n) = e_(n+1)",
                         "e_(n-1) complements v_n inside [0, v_(n-1)]",
                         "pairwise meets vanish", "partition joins to 1",
                         "assembled map is an isomorphism"):
            assert expected in names


def test_trace_elements_are_central():
    from nearsemiring.center import is_central
    for inst in INSTANCES:
        trace = cb_sequences(inst)
        for v in trace.vs + trace.es:
            assert is_central(inst.algebra_a, v).central
        for u in trace.us + trace.ds:
            assert is_central(inst.algebra_b, u).central


def test_partition_decomposition_b2xl3():
    hom = partition_decomposition(b2_x_l3(), [3, 2])  # (1,0) and (0,1)
    assert hom.bijective
    assert hom.target.size == 6
    assert find_isomorphism(hom.target, b2_x_l3()) is not None


def test_partition_decomposition_single_top():
    hom = partition_decomposition(b2_x_b2(), [3])
    assert hom.bijective and hom.target.size == 4


def test_partition_decomposition_names_failed_clause():
    alg = b2_x_l3()
    with pytest.raises(ValueError, match="not central"):
        partition_decomposition(alg, [4, 2])       # (1,h) is not central
    with pytest.raises(ValueError, match="overlap"):
        partition_decomposition(alg, [3, 3])
    with pytest.raises(ValueError, match="join to 1"):
        partition_decomposition(alg, [3])


def test_partition_decomposition_tests_each_part_once(monkeypatch):
    center_module = importlib.import_module("nearsemiring.center")
    tested = []
    syntactic = center_module.syntactic_centrality

    def counting(alg, e):
        tested.append(e)
        return syntactic(alg, e)

    monkeypatch.setattr(center_module, "syntactic_centrality", counting)
    alg = b2_x_l3()
    parts = [3, alg.alpha[3]]
    assert partition_decomposition(alg, parts).bijective
    assert tested == parts


def test_make_instance_validation():
    sq = b2_x_b2()
    with pytest.raises(ValueError, match="not central"):
        make_cb_instance(luk_chain(3), luk_chain(3), 1, 2,
                         (0, 1, 2), (0, 1, 2))
    with pytest.raises(Exception):
        # not a homomorphism onto the interval
        make_cb_instance(sq, sq, 3, 3, (0, 0, 0, 0), tuple(range(4)))


def test_cb_search_finds_trivial_pair_on_equal_algebras():
    report = cb_search(luk_chain(3), luk_chain(3))
    assert [(f.a, f.b) for f in report.found] == [(2, 2)]
    assert any("trivial intervals" in note for note in report.notes)


def test_cb_search_no_pair_for_different_sizes():
    report = cb_search(boolean2(), luk_chain(3))
    assert not report.any_found
    assert any("sizes differ" in note for note in report.notes)


def test_cb_search_no_pair_for_different_centers():
    report = cb_search(b2_x_b2(), luk_chain(4))
    assert not report.any_found


def test_cb_search_swapped_products():
    report = cb_search(b2_x_l3(), l3_x_b2())
    assert report.any_found
    for f in report.found:
        assert f.iso.bijective


def test_partition_decomposition_b2xb2_coordinates():
    hom = partition_decomposition(b2_x_b2(), [2, 1])  # (1,0) and (0,1)
    assert hom.bijective
    assert find_isomorphism(hom.target, b2_x_b2()) is not None


def test_assembled_isomorphism_composes_with_search_results():
    from nearsemiring.core import Homomorphism
    inst = composed_instance()
    forward = cb_isomorphism(inst)                       # B2xL3 -> L3xB2
    back = find_isomorphism(l3_x_b2(), b2_x_l3())        # discovered independently
    assert back is not None
    composite = tuple(back(forward(a)) for a in range(6))
    auto = Homomorphism(b2_x_l3(), b2_x_l3(), composite)  # verifies preservation
    assert auto.bijective


def test_make_instance_rejects_non_central_b():
    l3 = luk_chain(3)
    with pytest.raises(ValueError, match="not central in the second"):
        make_cb_instance(l3, l3, 2, 1, (0, 1, 2), (0, 1, 2))


def test_partition_decomposition_rejects_empty_family():
    with pytest.raises(ValueError, match="non-empty"):
        partition_decomposition(b2_x_b2(), [])


def test_interval_parents_are_classified_once_per_call(monkeypatch):
    axioms = importlib.import_module("nearsemiring.axioms")
    center_module = importlib.import_module("nearsemiring.center")
    cb_module = importlib.import_module("nearsemiring.cantor_bernstein")
    checked, intervals = [], []
    decide, interval = axioms._decide_class, center_module._interval

    def counting_decide(alg):
        checked.append(alg)
        return decide(alg)

    def counting_interval(alg, e):
        intervals.append(alg)
        return interval(alg, e)

    monkeypatch.setattr(axioms, "_decide_class", counting_decide)
    monkeypatch.setattr(center_module, "_interval", counting_interval)
    monkeypatch.setattr(cb_module, "_interval", counting_interval)

    def calls_on(alg):
        return sum(c is alg for c in checked)

    a, b = dataclasses.replace(b2_x_l3()), dataclasses.replace(l3_x_b2())
    assert cb_search(a, b).any_found
    # require_class answers from classify: one decision holds every class verdict
    assert calls_on(a) == calls_on(b) == 1
    assert len(intervals) > 2
    # an interval over a central element keeps its parent's class: no
    # interval is re-checked
    assert len(checked) == calls_on(a) + calls_on(b)

    checked.clear()
    intervals.clear()
    d = dataclasses.replace(b2_x_l3())
    decompose(d, 3)
    assert calls_on(d) == len(checked) == 1
    assert len(intervals) == 2
