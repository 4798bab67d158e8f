import dataclasses
import functools
import gc
import importlib
import itertools

import pytest

from nearsemiring.axioms import CLASSES, INRS, LUK_NRS, LUK_RS, check_laws, classify
from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, godel3,
                                  luk_chain, trivial)
from nearsemiring.congruences import (Partition, all_congruences, join_irreducibles, kernel,
                                      malcev_and_regularity_report,
                                      partition_sort_key, polynomial_pairs, prime_quotients,
                                      principal_congruence)
from nearsemiring.core import product
from nearsemiring.terms import eval_term, x, y

from enumerated import models, oracle_pool

L3 = luk_chain(3)

CORPUS = (boolean2(), L3, luk_chain(4), b2_x_b2(), b2_x_l3(), godel3(), trivial())
LUK_CORPUS = (boolean2(), L3, luk_chain(4), b2_x_b2(), b2_x_l3())


def partitions(n):
    """Every partition of {0..n-1}: each element joins an earlier block or starts its own."""
    def rec(labels):
        if len(labels) == n:
            yield Partition(tuple(labels))
            return
        for label in sorted(set(labels)) + [len(labels)]:
            yield from rec(labels + [label])
    return rec([])


def brute_force_congruences(alg):
    """Oracle: filter every partition of the universe by substitution property."""
    return sorted((p for p in partitions(alg.size) if p.is_congruence(alg)),
                  key=partition_sort_key)


def relation(p):
    return frozenset((a, b) for a in range(p.size) for b in p.block_of(a))


def compose(p, q):
    """Reference relation composition p;q = {(a, c) : a p b and b q c for some b}."""
    return frozenset((a, c) for a in range(p.size) for b in p.block_of(a) for c in q.block_of(b))


def reference_principal_congruence(alg, a, b):
    """Cg(a, b) by a union-find fixpoint that merges the images of a merged
    pair under each basic translation, one union at a time."""
    n = alg.size
    parent = list(range(n))
    pending = []

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            pending.append((u, v))

    union(a, b)
    while pending:
        c, d = pending.pop()
        union(alg.alpha[c], alg.alpha[d])
        for e in range(n):
            union(alg.plus[c][e], alg.plus[d][e])
            union(alg.plus[e][c], alg.plus[e][d])
            union(alg.times[c][e], alg.times[d][e])
            union(alg.times[e][c], alg.times[e][d])
    return Partition.from_parent(parent)


def reference_all_congruences(alg):
    """Con(A) as the join closure of all n(n-1)/2 principal congruences,
    joining every pair of congruences found until nothing new appears."""
    n = alg.size
    principals = [reference_principal_congruence(alg, a, b)
                  for a in range(n) for b in range(a + 1, n)]
    cons = {Partition.discrete(n), *principals}
    frontier = list(cons)
    while frontier:
        p = frontier.pop()
        for q in list(cons):
            j = p.join(q)
            if j not in cons:
                cons.add(j)
                frontier.append(j)
    return tuple(sorted(cons, key=partition_sort_key))


def luk_models():
    """Every enumerated luk-nrs and luk-rs model up to n = 7."""
    return [alg for n in range(1, 8) for cls in (LUK_NRS, LUK_RS) for alg in models(n, cls)]


def kernel_identity_holds(alg, a, b):
    """Cg(a, b) = Cg(s(a, b), 0) v Cg(s(b, a), 0), with s(x, y) = x^a * y."""
    s_ab, s_ba = alg.times[alg.alpha[a]][b], alg.times[alg.alpha[b]][a]
    return principal_congruence(alg, a, b) == kernel(alg, s_ab).join(kernel(alg, s_ba))


def test_all_congruences_equals_the_all_pairs_reference():
    # the prime quotients generate on every inrs; every class is compared, and
    # g3^3 is an inrs that is not Lukasiewicz
    pool = ([alg for n in range(1, 6) for cls in CLASSES for alg in models(n, cls)]
            + luk_models()
            + [product(product(L3, luk_chain(4)), boolean2()),
               functools.reduce(product, [L3] * 3), functools.reduce(product, [boolean2()] * 5),
               functools.reduce(product, [godel3()] * 3)])
    assert {classify(alg) for alg in pool} == set(CLASSES)
    for alg in pool:
        assert all_congruences(alg) == reference_all_congruences(alg)


def test_principal_congruence_equals_the_union_closure_reference():
    for n in range(1, 6):
        for alg in models(n, INRS):
            for a, b in itertools.combinations(range(n), 2):
                assert principal_congruence(alg, a, b) == reference_principal_congruence(alg, a, b)


def test_kernel_of_a_join_is_the_join_of_the_kernels_on_every_inrs():
    # K[x+y] = K[x] v K[y] on every inrs, why kernel joins the prime quotients
    # below x; kernel against the fixpoint
    pool = [alg for n in range(1, 6) for alg in models(n, INRS)] + luk_models()
    for alg in pool:
        fixpoint = [principal_congruence(alg, a, alg.zero) for a in range(alg.size)]
        assert [kernel(alg, a) for a in range(alg.size)] == fixpoint, alg
        for a, b in itertools.combinations_with_replacement(range(alg.size), 2):
            assert fixpoint[alg.plus[a][b]] == fixpoint[a].join(fixpoint[b]), (alg, a, b)


def test_join_irreducibles_of_chains_and_products():
    # each join-irreducible j maps to its lower cover j_*
    assert join_irreducibles(luk_chain(5)) == {1: 0, 2: 1, 3: 2, 4: 3}
    assert join_irreducibles(b2_x_l3()) == {1: 0, 2: 1, 3: 0}
    assert join_irreducibles(trivial()) == {}


def test_every_cover_generates_the_prime_quotient_of_its_least_join_irreducible():
    # for a cover c < d and a least j in J with j <= d and j not <= c,
    # j ^ c = j_* and j + c = d, so Cg(c, d) = Cg(j_*, j) = P[j]
    covers = 0
    for alg in oracle_pool():
        if classify(alg) is None:
            continue
        P, n = alg.plus, alg.size
        quotients = prime_quotients(alg)
        for c, d in itertools.permutations(range(n), 2):
            if P[c][d] != d or any(P[c][v] == v and P[v][d] == d and v not in (c, d)
                                   for v in range(n)):
                continue
            below = [j for j in quotients if P[j][d] == d and P[j][c] != c]
            least = [j for j in below if all(P[i][j] != j for i in below if i != j)]
            assert least, (alg, c, d)
            for j in least:
                assert principal_congruence(alg, c, d) == quotients[j], (alg, c, d, j)
            covers += 1
    assert covers == 4885


def test_kernels_generate_every_principal_congruence_on_luk_models():
    for n in range(1, 7):
        for alg in models(n, LUK_NRS) + models(n, LUK_RS):
            for a, b in itertools.combinations(range(n), 2):
                assert kernel_identity_holds(alg, a, b), (alg, a, b)


def test_kernel_identity_fails_on_inrs():
    # the difference-term identity Cg(a, b) = K[s(a, b)] v K[s(b, a)] holds on
    # luk-* only; Con(A) does not lean on it, the prime quotients generate on
    # every inrs
    failures = [(alg, a, b) for alg in models(4, INRS)
                for a, b in itertools.combinations(range(4), 2)
                if not kernel_identity_holds(alg, a, b)]
    assert len(failures) == 7 and all(classify(alg) == INRS for alg, _, _ in failures)


def test_kernel_is_the_principal_congruence_with_zero():
    for alg in CORPUS:
        for a in range(alg.size):
            assert kernel(alg, a) == principal_congruence(alg, a, alg.zero)
            assert kernel(alg, a) is kernel(alg, a)


@pytest.mark.parametrize("live_first", [True, False], ids=["live-first", "copies-first"])
@pytest.mark.parametrize("collect", [True, False], ids=["gc-on", "gc-off"])
def test_memos_belong_to_one_algebra_instance(monkeypatch, collect, live_first):
    # an equal algebra, live or waiting for the collector, never answers for
    # another instance: each copy makes its own calls
    axioms_module = importlib.import_module("nearsemiring.axioms")
    congruences_module = importlib.import_module("nearsemiring.congruences")
    decide, principal = axioms_module._decide_class, congruences_module.principal_congruence
    calls = []

    def counted_decide(alg):
        calls.append(("_decide_class", alg))
        return decide(alg)

    def counted_principal(alg, a, b):
        calls.append(("principal_congruence", alg))
        return principal(alg, a, b)

    monkeypatch.setattr(axioms_module, "_decide_class", counted_decide)
    monkeypatch.setattr(congruences_module, "principal_congruence", counted_principal)
    was_enabled = gc.isenabled()
    if collect:
        gc.enable()
    else:
        gc.disable()
    try:
        # Con(A) reads one prime quotient per join-irreducible element
        for live, generators in ((luk_chain(5), 4), (b2_x_l3(), 3)):
            copies = [dataclasses.replace(live) for _ in range(2)]
            for alg in [live, *copies] if live_first else [*copies, live]:
                assert classify(alg) == LUK_RS
                assert all_congruences(alg) == all_congruences(live)
            # the live algebra's memos may predate this test
            for copy in copies:
                assert [name for name, alg in calls if alg is copy] == \
                    ["_decide_class"] + ["principal_congruence"] * generators
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_l3_is_simple():
    theta = principal_congruence(L3, 1, 0)
    assert theta.is_full()
    assert all_congruences(L3) == (Partition.discrete(3), Partition.full(3))


def test_principal_of_equal_pair_is_diagonal():
    for alg in CORPUS:
        for a in range(alg.size):
            assert principal_congruence(alg, a, a).is_discrete()


def test_b2xb2_principal_collapses_one_coordinate():
    # theta((1,0),(0,0)) identifies elements with equal second coordinate
    theta = principal_congruence(b2_x_b2(), 2, 0)
    assert theta.blocks == ((0, 2), (1, 3))


def test_polynomial_pairs_contains_diagonal_and_seed():
    for alg in CORPUS:
        for a, b in itertools.combinations(range(alg.size), 2):
            ps = polynomial_pairs(alg, a, b)
            assert (a, b) in ps
            assert all((e, e) in ps for e in range(alg.size))


def test_polynomial_pairs_identity_case():
    for alg in CORPUS:
        for a in range(alg.size):
            ps = polynomial_pairs(alg, a, a)
            assert ps == frozenset((e, e) for e in range(alg.size))


def test_polynomial_pairs_l3_witness():
    # p(x) = (x^a * x^a)^a sends h to 1 and 0 to 0, so (1,0) is in the orbit
    witness = (x.a * x.a).a
    assert eval_term(L3, witness, {"x": 1}) == 2
    assert eval_term(L3, witness, {"x": 0}) == 0
    ps = polynomial_pairs(L3, 1, 0)
    assert (2, 0) in ps


def test_polynomial_pairs_b2_full_relation():
    ps = polynomial_pairs(boolean2(), 1, 0)
    assert ps == frozenset(itertools.product(range(2), repeat=2))


def test_all_congruences_against_partition_filter_oracle():
    for alg in CORPUS:
        assert list(all_congruences(alg)) == brute_force_congruences(alg)


def test_b2xb2_has_boolean_congruence_lattice():
    cons = all_congruences(b2_x_b2())
    assert len(cons) == 4
    assert Partition.discrete(4) in cons and Partition.full(4) in cons
    assert Partition.from_pairs(4, [(0, 2), (1, 3)]) in cons
    assert Partition.from_pairs(4, [(0, 1), (2, 3)]) in cons
    # closed under meet and join, i.e. a lattice on the nose
    for p, q in itertools.combinations(cons, 2):
        assert p.meet(q) in cons
        assert p.join(q) in cons


def test_every_congruence_verified_post_hoc():
    for alg in CORPUS:
        for p in all_congruences(alg):
            assert p.congruence_defect(alg) is None


def majority(u, v, w):
    """m(u,v,w) = (u^v) + (v^w) + (u^w), with the meet term u ^ v = (u^a + v^a)^a."""
    def meet(s, t):
        return (s.a + t.a).a
    return meet(u, v) + meet(v, w) + meet(u, w)


#: the majority identities, which hold on every inrs
MAJORITY_LAWS = (
    ("m(x,x,y) = x", (("", majority(x, x, y), x),)),
    ("m(x,y,x) = x", (("", majority(x, y, x), x),)),
    ("m(y,x,x) = x", (("", majority(y, x, x), x),)),
)


def test_congruence_lattice_distributive_on_every_enumerated_inrs():
    # Jonsson: a majority term makes every inrs variety congruence distributive
    pool = [alg for n in range(1, 6) for alg in models(n, INRS)] + luk_models()
    assert len(pool) == 1059
    for alg in pool:
        assert all(out.ok for out in check_laws(alg, MAJORITY_LAWS)), alg
        cons = all_congruences(alg)
        for a, b, c in itertools.product(cons, repeat=3):
            assert a.meet(b.join(c)) == a.meet(b).join(a.meet(c)), alg


def test_all_congruences_deterministic():
    for alg in (L3, b2_x_l3()):
        assert all_congruences(alg) is all_congruences(alg)
        assert all_congruences(alg) == all_congruences(dataclasses.replace(alg))


def test_malcev_report_passes_on_luk_corpus():
    for alg in LUK_CORPUS:
        report = malcev_and_regularity_report(alg)
        assert report.ok, [c.name for c in report.checks if not c.ok]


def test_malcev_report_records_failures_on_godel3():
    report = malcev_and_regularity_report(godel3())
    out = report.outcome("p(x,y,y) = x")
    assert not out.ok and out.witness is not None
    # the congruence-level facts still hold on this simple algebra
    assert report.outcome("congruences permute").ok
    assert report.outcome("0-regularity").ok


def test_malcev_report_names_a_non_permuting_pair_on_an_inrs_model():
    report = malcev_and_regularity_report(models(4, INRS)[11])
    out = report.outcome("congruences permute")
    assert not out.ok
    assert out.detail == "blocks ((0,), (1, 2), (3,)) and ((0, 2), (1, 3)) do not permute"


def test_congruences_permute_iff_the_prime_quotients_do():
    # the report decides on pairs of distinct prime quotients; the scan over
    # all pairs of Con(A) is the reference, and both verdicts are seen.  The
    # refuting tables of the pool have two prime quotients; in the product
    # with b2 the refuting pair is the second and third of three
    verdicts = []
    for alg in oracle_pool() + (product(models(4, INRS)[11], boolean2()),):
        if classify(alg) is None:
            continue
        generators = dict.fromkeys(prime_quotients(alg).values())
        full = all(p.permutes_with(q) for p, q in itertools.combinations(all_congruences(alg), 2))
        assert all(p.permutes_with(q) for p, q in itertools.combinations(generators, 2)) == full
        assert malcev_and_regularity_report(alg).outcome("congruences permute").ok == full
        verdicts.append(full)
    assert len(verdicts) == 1143 and verdicts.count(False) == 4


def test_permutes_with_matches_the_composition_reference_on_all_partitions_of_five():
    parts = list(partitions(5))
    assert len(parts) == 52
    verdicts = [p.permutes_with(q) for p in parts for q in parts]
    assert verdicts == [compose(p, q) == compose(q, p) for p in parts for q in parts]
    assert verdicts.count(False) == 1840


def test_permutes_with_matches_the_composition_reference_on_inrs_congruences():
    for n in (4, 5):
        for alg in models(n, INRS):
            for p, q in itertools.product(all_congruences(alg), repeat=2):
                assert p.permutes_with(q) == (compose(p, q) == compose(q, p)), (alg, p, q)


def factor_pair_reference(p, q):
    """Complementary factor congruences by the definition: meet, join, permute."""
    return p.meet(q).is_discrete() and p.join(q).is_full() and p.permutes_with(q)


@pytest.mark.parametrize("n, factor_pairs", [(5, 2), (6, 122)])
def test_complements_matches_the_lattice_reference_on_all_partitions(n, factor_pairs):
    # on a 5-set only the full and discrete partitions split it; a 6-set also
    # splits as 2 x 3
    parts = list(partitions(n))
    verdicts = [p.complements(q) for p in parts for q in parts]
    assert verdicts == [factor_pair_reference(p, q) for p in parts for q in parts]
    assert verdicts.count(True) == factor_pairs


def test_complements_matches_the_lattice_reference_on_inrs_congruences():
    non_permuting = 0
    for n in (4, 5):
        for alg in models(n, INRS):
            for p, q in itertools.product(all_congruences(alg), repeat=2):
                assert p.complements(q) == factor_pair_reference(p, q), (alg, p, q)
                non_permuting += not p.permutes_with(q)
    assert non_permuting > 0


@pytest.mark.parametrize("labels", [(0, 0, 1), (1, 1), (0, 2, 1), (-1,), (0, 5)])
def test_partition_rejects_labels_that_do_not_name_each_block_by_its_least_element(labels):
    with pytest.raises(ValueError):
        Partition(labels)


def test_partition_lattice_operations_against_the_relations():
    p = Partition.from_pairs(5, [(3, 0), (1, 4)])
    assert p.labels == (0, 1, 2, 0, 1) and p.blocks == ((0, 3), (1, 4), (2,))
    parts = list(partitions(4))
    for p in partitions(5):
        assert p.blocks == tuple(sorted(tuple(sorted(b)) for b in p.blocks))
        assert all(p.labels[v] == b[0] for b in p.blocks for v in b)
        forward = Partition.from_pairs(5, relation(p))
        backward = Partition.from_pairs(5, ((b, a) for a, b in relation(p)))
        assert p == forward == backward and hash(p) == hash(forward) == hash(backward)
    for p, q in itertools.product(parts, repeat=2):
        assert p.refines(q) == (relation(p) <= relation(q))
        meet, join = p.meet(q), p.join(q)
        assert relation(meet) == relation(p) & relation(q)
        uppers = [r for r in parts if p.refines(r) and q.refines(r)]
        assert join in uppers and all(join.refines(r) for r in uppers)
        assert meet == q.meet(p) and hash(meet) == hash(q.meet(p))
        assert join == q.join(p) and hash(join) == hash(q.join(p))


def test_werner_closure_matches_everywhere():
    # Cg(a, b) is the equivalence closure of the unary-polynomial orbit of (a, b)
    for alg in CORPUS:
        for a, b in itertools.product(range(alg.size), repeat=2):
            closure = Partition.from_pairs(alg.size, polynomial_pairs(alg, a, b))
            assert closure == principal_congruence(alg, a, b), (alg, a, b)
    # on permutable (Lukasiewicz) algebras the raw orbit is the congruence
    for alg in LUK_CORPUS:
        n = alg.size
        for a, b in itertools.product(range(n), repeat=2):
            orbit = polynomial_pairs(alg, a, b)
            closure = Partition.from_pairs(n, orbit)
            assert orbit == {(u, v) for u, v in itertools.product(range(n), repeat=2)
                             if closure.same(u, v)}, (alg, a, b)


def test_all_congruences_size_guard(monkeypatch):
    import pytest
    from nearsemiring import core
    monkeypatch.setattr(core, "DEFAULT_MAX_SIZE", 4)
    with pytest.raises(core.SizeLimitError, match="universe size 6 exceeds the 4 limit"):
        all_congruences(b2_x_l3())
