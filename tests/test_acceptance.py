"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion carries its stated wall-clock budget, asserted here.
"""

import itertools
import time
from contextlib import contextmanager

from nearsemiring import bundled_file
from nearsemiring.axioms import INRS, LUK_NRS, LUK_RS, check_axioms
from nearsemiring.cantor_bernstein import cb_sequences, make_cb_instance
from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, godel3, l3_x_b2,
                                  luk_chain, trivial)
from nearsemiring.center import (center, central_elements, central_ideal_check,
                                 decompose, is_central, partition_decomposition)
from nearsemiring.cli import main
from nearsemiring.congruences import all_congruences, malcev_and_regularity_report
from nearsemiring.core import find_isomorphism
from nearsemiring.ideals import (ElementSet, all_ideals, ideal_join_via_coset,
                                 is_ideal, skeleton, theta_partition)
from nearsemiring.mv import roundtrip_check, to_mv
from nearsemiring.search import (EnumerationTask, canonical_form, count,
                                 enumerate_algebras, frozen_counts)

from enumerated import models

CORPUS = (boolean2(), luk_chain(3), luk_chain(4), b2_x_l3(), b2_x_b2())


def listed_luk_nrs():
    """Every luk-nrs model up to n = 8, from the shared search."""
    return [alg for n in range(1, 9) for alg in models(n, LUK_NRS)]


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")
    print(f"criterion {number}: PASS - {label} ({elapsed:.2f}s)")


def test_criterion_1_axiom_suite():
    with criterion(1, "axiom suite", 1.0):
        for alg in CORPUS:
            assert check_axioms(alg, LUK_RS).ok
        report = check_axioms(godel3(), LUK_NRS)
        assert [c.name for c in report.failures()] == ["(vii)"]
        witness = report.outcome("(vii)").witness
        assert witness.values() == (2, 1)  # the pair (1, h)
        assert witness.render(godel3()) == "x=1, y=h: lhs=h rhs=0"


def test_criterion_2_kernel_ideal_bijection():
    with criterion(2, "kernel-ideal bijection", 60.0):
        pool = listed_luk_nrs() + [alg for alg in CORPUS if alg.size <= 6]
        for alg in pool:
            n = alg.size
            kernels = {ElementSet.from_members(n, t.block_of(alg.zero)).mask
                       for t in all_congruences(alg)}
            subsets = {m for m in range(1 << n)
                       if is_ideal(alg, ElementSet(n, m)).ok}
            assert kernels == subsets  # exact set equality, zero tolerance
            for theta in all_congruences(alg):
                k = ElementSet.from_members(n, theta.block_of(alg.zero))
                assert theta_partition(alg, k) == theta
            for m in subsets:
                s = ElementSet(n, m)
                coset = theta_partition(alg, s).block_of(alg.zero)
                assert ElementSet.from_members(n, coset).mask == s.mask


def test_criterion_3_malcev_permutability_regularity():
    with criterion(3, "permutability and 0-regularity", 10.0):
        for alg in listed_luk_nrs() + list(CORPUS):
            report = malcev_and_regularity_report(alg)
            assert report.ok, [c.name for c in report.checks if not c.ok]


def test_criterion_4_lattice_isomorphism_and_structure():
    with criterion(4, "ideal lattice structure", 60.0):
        pool = list(CORPUS) + [alg for n in range(2, 6)
                               for alg in enumerate_algebras(EnumerationTask(n, LUK_NRS))]
        for alg in pool:
            lattice = all_ideals(alg)
            cons = all_congruences(alg)
            thetas = [theta_partition(alg, s) for s in lattice.ideals]
            assert len(set(thetas)) == len(cons)  # bijective
            k = len(lattice.ideals)
            for i, j in itertools.product(range(k), repeat=2):
                assert theta_partition(alg, lattice.meet(i, j)) == thetas[i].meet(thetas[j])
                assert theta_partition(alg, lattice.join(i, j)) == thetas[i].join(thetas[j])
            for a, b, c in itertools.product(range(k), repeat=3):  # distributive
                assert lattice.meet_table[a][lattice.join_table[b][c]] == \
                    lattice.join_table[lattice.meet_table[a][b]][lattice.meet_table[a][c]]
            if alg.size <= 6:
                for j in range(k):          # equation (2) over every family
                    for fam_mask in range(1 << k):
                        family = [i for i in range(k) if fam_mask >> i & 1]
                        lhs = lattice.ideals[j] & lattice.join_of_family(family)
                        rhs = lattice.join_of_family(
                            lattice.meet_table[j][i] for i in family)
                        assert lhs.mask == rhs.mask
            for s in lattice.ideals:        # pseudocomplement laws
                star = lattice.pseudocomplement_of(s)
                star2 = lattice.pseudocomplement_of(star)
                assert s.issubset(star2)
                assert lattice.pseudocomplement_of(star2) == star
            for p in lattice.ideals:        # coset route to joins
                for r in lattice.ideals:
                    assert ideal_join_via_coset(alg, p, r).agree


def test_criterion_5_centrality():
    with criterion(5, "centrality and decomposition", 30.0):
        for alg in CORPUS + (godel3(), trivial()):
            for e in range(alg.size):
                assert is_central(alg, e).methods_agree
        for alg in listed_luk_nrs() + list(CORPUS):
            report = center(alg)
            assert report.ok
            for e in central_elements(alg):
                assert decompose(alg, e).pair_map.bijective
                assert central_ideal_check(alg, e).ok
            sk = skeleton(alg)
            assert sk.ok and sk.matches_central_ideals


def test_criterion_6_mv_round_trips():
    with criterion(6, "mv bridge round trips", 1.0):
        for alg in (boolean2(), luk_chain(3), luk_chain(4), b2_x_l3()):
            assert roundtrip_check(alg).ok
            assert roundtrip_check(to_mv(alg)).ok


def test_criterion_7_cantor_bernstein_machinery():
    with criterion(7, "interval isomorphism construction", 5.0):
        identity = lambda alg: tuple(range(alg.size))
        swap4 = tuple((p % 2) * 2 + p // 2 for p in range(4))
        instances = (
            make_cb_instance(boolean2(), boolean2(), 1, 1,
                             identity(boolean2()), identity(boolean2())),
            make_cb_instance(b2_x_b2(), b2_x_b2(), 3, 3, swap4, identity(b2_x_b2())),
            make_cb_instance(b2_x_l3(), b2_x_l3(), 5, 5,
                             identity(b2_x_l3()), identity(b2_x_l3())),
            make_cb_instance(b2_x_l3(), l3_x_b2(), 5, 5,
                             tuple((p % 3) * 2 + p // 3 for p in range(6)),
                             tuple((p % 2) * 3 + p // 2 for p in range(6))),
        )
        for inst in instances:
            trace = cb_sequences(inst)
            assert trace.ok, [c.name for c in trace.failures()]
            assert trace.iso is not None and trace.iso.bijective
        hom = partition_decomposition(b2_x_l3(), [3, 2])
        assert hom.bijective
        assert find_isomorphism(hom.target, b2_x_l3()) is not None


def test_criterion_8_adjudication_regressions(capsys):
    with criterion(8, "claims regressions on the 3-chain", 1.0):
        status = main(["claims", str(bundled_file("l3.alg"))])
        out = capsys.readouterr().out
        assert status == 1
        assert ("CLAIM semiring-ideal-conditions subset={0, h}\n"
                "VERDICT DISAGREE\n"
                "DETAIL conditions (i)-(iii) hold but the ideal predicate fails\n"
                "WITNESS (I1) a=1, b=h\n") in out
        assert ("CLAIM principal-ideal-products element=h\n"
                "VERDICT DISAGREE\n"
                "DETAIL {h*c | c in A} = {0, h} vs I(h) = {0, h, 1}\n"
                "WITNESS missing: {1}\n") in out
    print("criterion 8 claims output reproduced bit-exactly")


def test_criterion_9_enumeration_oracle():
    with criterion(9, "enumeration regression counts", 300.0):
        assert count(2, LUK_NRS) == 1
        assert count(3, LUK_NRS) == 1
        assert count(3, INRS) == 2
        frozen = frozen_counts()["counts"]
        for cls in (INRS, LUK_NRS, LUK_RS):
            live = enumerate_algebras(EnumerationTask(4, cls))
            assert len(live) == frozen[f"4,{cls}"]
            again = enumerate_algebras(EnumerationTask(4, cls))
            forms = [canonical_form(a).data for a in live]
            assert forms == [canonical_form(a).data for a in again]
