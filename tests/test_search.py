import importlib
import itertools
import math
import random

import pytest

from nearsemiring.axioms import INRS, LUK_NRS, LUK_RS, check_axioms
from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, godel3, l3_x_b2,
                                  luk_chain)
from nearsemiring.core import FiniteAlgebra, find_isomorphism, product
from nearsemiring.search import (CanonicalForm, EnumerationCapExceeded, EnumerationTask,
                                 _Search, canonical_form, count, enumerate_algebras,
                                 enumerate_with_forms, frozen_counts, relabel)

from enumerated import searched


def semilattice_ok_partial(P, n):
    """All fully determined associativity instances hold (other laws are built in)."""
    for a in range(n):
        Pa = P[a]
        for b in range(n):
            ab = Pa[b]
            if ab is None:
                continue
            for c in range(n):
                bc = P[b][c]
                if bc is None:
                    continue
                left = P[ab][c]
                right = Pa[bc]
                if left is not None and right is not None and left != right:
                    return False
    return True


class FullRescanSearch(_Search):
    """Reference search: after every plus or times cell, rescan every constraint.

    The search re-tests only the instances that read the new cell; both must
    visit the same nodes and find the same models.
    """

    def _plus_phase(self, P, where, k):
        if k == len(self.plus_cells):
            return super()._plus_phase(P, where, k)
        i, j = self.plus_cells[k]
        for v in range(1, self.n):
            self._enter()
            P[i][j] = P[j][i] = v
            if semilattice_ok_partial(P, self.n):
                self._plus_phase(P, where, k + 1)
            P[i][j] = P[j][i] = None

    def _times_phase(self, P, alpha, autos, plus_autos):
        n = self.n
        T = [[None] * n for _ in range(n)]
        for i in range(n):
            T[0][i] = T[i][0] = 0
            T[n - 1][i] = T[i][n - 1] = i
        T[n - 1][n - 1] = n - 1

        def determined_ok():
            # left distributivity: (x+y)*z = x*z + y*z
            for a in range(n):
                for b in range(n):
                    s = P[a][b]
                    for c in range(n):
                        lhs = T[s][c]
                        r1, r2 = T[a][c], T[b][c]
                        if lhs is not None and r1 is not None and r2 is not None:
                            if lhs != P[r1][r2]:
                                return False
            if self.cls in (LUK_NRS, LUK_RS):
                for a in range(n):
                    for b in range(n):
                        u1 = T[a][alpha[b]]
                        u2 = T[b][alpha[a]]
                        if u1 is None or u2 is None:
                            continue
                        l = T[alpha[u1]][alpha[b]]
                        r = T[alpha[u2]][alpha[a]]
                        if l is not None and r is not None and l != r:
                            return False
            if self.cls == LUK_RS:
                for a in range(n):
                    for b in range(n):
                        ab = T[a][b]
                        if ab is None:
                            continue
                        for c in range(n):
                            bc = T[b][c]
                            if bc is None:
                                continue
                            l, r = T[ab][c], T[a][bc]
                            if l is not None and r is not None and l != r:
                                return False
            return True

        def fill(k):
            if k == len(self.times_cells):
                self._emit(P, alpha, autos, T, plus_autos)
                return
            i, j = self.times_cells[k]
            # luk-rs sets the cells i <= j and their mirrors
            cells = {(i, j), (j, i)} if self.cls == LUK_RS else {(i, j)}
            for v in range(n):
                self._enter()
                for a, b in cells:
                    T[a][b] = v
                if determined_ok():
                    fill(k + 1)
                for a, b in cells:
                    T[a][b] = None

        if not determined_ok():
            return
        fill(0)


class LabelledSearch(_Search):
    """Reference search: every labelled (plus, alpha) pair is a root.

    Isomorphic leaves are dropped by the brute-force canonical form, keeping
    the first copy met, and `admitted` counts the labelled leaves.  The
    search's own form needs its plus table to be least under relabelling,
    which these roots are not.
    """

    admitted = 0

    def _plus_automorphisms(self, P):
        return []

    def _emit(self, P, alpha, autos, T, plus_autos):
        alg = FiniteAlgebra(self.n, tuple(map(tuple, P)), tuple(map(tuple, T)),
                            alpha, 0, self.n - 1)
        self.admitted += 1
        self.found.setdefault(canonical_form(alg).data, alg)


class LabelledFullRescan(FullRescanSearch):
    """The full rescan over every labelled (plus, alpha) pair."""

    admitted = 0
    _plus_automorphisms = LabelledSearch._plus_automorphisms
    _emit = LabelledSearch._emit


def fix_first_plus_cell(search, value):
    """Prune every plus table whose first cell is not value.

    The first cell's values are still entered and checked, and a table past
    the check that holds another value returns at the second cell, so two
    searches wrapped alike still visit the same nodes.
    """
    plus_phase = search._plus_phase
    i, j = search.plus_cells[0]

    def fixed(P, where, k):
        if k != 1 or P[i][j] == value:
            plus_phase(P, where, k)

    search._plus_phase = fixed
    return search


def automorphism_count(alg):
    """|Aut(A)|: relabellings fixing 0 and n-1 that map every table to itself."""
    n = alg.size
    return sum(relabel(alg, [0, *sigma, n - 1]) == alg
               for sigma in itertools.permutations(range(1, n - 1)))


def relabel_canonical_form(alg):
    """Reference canonical form: relabel and encode every permutation."""
    def encode(a):
        flat = [a.size, a.zero, a.one]
        for row in a.plus + a.times:
            flat.extend(row)
        return bytes(flat + list(a.alpha))

    n = alg.size
    if n == 1:
        return encode(alg)
    rest = [i for i in range(n) if i not in (alg.zero, alg.one)]
    base = [0] * n
    base[alg.one] = n - 1
    for pos, i in enumerate(rest, start=1):
        base[i] = pos
    normal = relabel(alg, base)
    return min(encode(relabel(normal, [0, *sigma, n - 1]))
               for sigma in itertools.permutations(range(1, n - 1)))


def brute_force_models(n, cls):
    """Independent oracle: unpruned scan over every table completion, n <= 4.

    Deduplication uses find_isomorphism, not canonical forms, so the two
    enumeration routes share no code beyond the axiom checker.
    """
    zero, one = 0, n - 1
    mid = list(range(1, n - 1))
    found = []

    def plus_tables():
        cells = list(itertools.combinations(mid, 2))
        for values in itertools.product(range(n), repeat=len(cells)):
            P = [[None] * n for _ in range(n)]
            for i in range(n):
                P[i][i] = i
                P[0][i] = P[i][0] = i
                P[one][i] = P[i][one] = one
            for (i, j), v in zip(cells, values):
                P[i][j] = P[j][i] = v
            yield P

    def alphas():
        for perm in itertools.permutations(range(n)):
            if perm[0] == one and all(perm[perm[i]] == i for i in range(n)):
                yield perm

    for P in plus_tables():
        for alpha in alphas():
            for values in itertools.product(range(n), repeat=len(mid) ** 2):
                T = [[None] * n for _ in range(n)]
                for i in range(n):
                    T[0][i] = T[i][0] = 0
                    T[one][i] = T[i][one] = i
                for (i, j), v in zip(itertools.product(mid, mid), values):
                    T[i][j] = v
                alg = FiniteAlgebra(n, tuple(tuple(r) for r in P),
                                    tuple(tuple(r) for r in T), alpha, 0, one)
                if not check_axioms(alg, cls).ok:
                    continue
                if all(find_isomorphism(alg, seen) is None for seen in found):
                    found.append(alg)
    return found


def tables(models):
    return [(a.plus, a.times, a.alpha) for a in models]


def test_counts_match_frozen_table():
    nodes = {}
    for key, expected in frozen_counts()["counts"].items():
        n, cls = key.split(",")
        models, nodes[key] = searched(int(n), cls)
        assert len(models) == expected, key
    assert (nodes["7,luk-rs"], nodes["7,luk-nrs"]) == (59543, 1137795)


def test_luk_rs_models_are_the_luk_nrs_models_that_pass_luk_rs():
    # the luk-rs search checks no law at its leaves; its output must be the
    # luk-nrs output filtered by the full axiom check, tables and order alike
    for n in range(1, 8):
        luk_nrs, _ = searched(n, LUK_NRS)
        assert tables(searched(n, LUK_RS)[0]) == tables(
            a for a in luk_nrs if check_axioms(a, LUK_RS).ok), n


#: every class up to n = 5 and 6,luk-*: the cases checked against a reference
CHECKED_CASES = ([(n, cls) for n in range(1, 6) for cls in (INRS, LUK_NRS, LUK_RS)]
                 + [(6, LUK_RS), (6, LUK_NRS)])


def test_incremental_checks_visit_the_same_nodes_as_a_full_rescan():
    # at n = 6 the first plus cell 1+2 = 3 gives a join whose row is filled
    # after the rows it joins; up to n = 5 no plus table with such a join
    # admits an antitone involution.  No plus table with 1+2 = 3 is an orbit
    # root, so those cases search every labelled pair
    cases = [(n, cls, None) for n, cls in CHECKED_CASES]
    for n, cls, first in cases + [(6, LUK_NRS, 3), (6, LUK_RS, 3)]:
        fast_search, full_search = ((LabelledSearch, LabelledFullRescan) if first
                                    else (_Search, FullRescanSearch))
        fast, full = (S(EnumerationTask(n, cls)) for S in (fast_search, full_search))
        if first:
            fast, full = (fix_first_plus_cell(s, first) for s in (fast, full))
        forms = [sorted(canonical_form(a).data for a in s.run()) for s in (fast, full)]
        assert fast.nodes == full.nodes, (n, cls, first)
        assert forms[0] == forms[1], (n, cls, first)


def test_orbit_roots_match_the_labelled_search():
    # the reference searches every labelled (plus, alpha) pair; the search
    # must emit the same tables in the same order, and by orbit-stabilizer a
    # model has (n-2)!/|Aut(A)| labelled copies with 0 and n-1 in place
    orbit_sums, nodes = {}, {}
    for n, cls in CHECKED_CASES:
        search, reference = (S(EnumerationTask(n, cls)) for S in (_Search, LabelledSearch))
        models = search.run()
        assert tables(models) == tables(reference.run()), (n, cls)
        if n > 1:       # the one-element model is not a leaf of either search
            orbit_sums[n, cls] = sum(math.factorial(n - 2) // automorphism_count(alg)
                                     for alg in models)
            assert orbit_sums[n, cls] == reference.admitted, (n, cls)
        nodes[n, cls] = search.nodes, reference.nodes
    assert [orbit_sums[case] for case in ((4, INRS), (5, INRS), (5, LUK_NRS),
                                          (6, LUK_RS), (6, LUK_NRS))] == [54, 5824, 16, 48, 154]
    assert [nodes[case] for case in ((4, INRS), (5, INRS), (6, LUK_RS), (6, LUK_NRS))] == [
        (198, 271), (9953, 46030), (3506, 17400), (35216, 422388)]


def test_canonical_form_matches_the_relabel_reference():
    rng = random.Random(20261018)
    pool = [(alg, 3) for alg in enumerate_algebras(EnumerationTask(4, INRS))]
    pool += [(alg, 3) for alg in (luk_chain(1), godel3(), b2_x_l3(), luk_chain(8),
                                  product(boolean2(), luk_chain(4)),
                                  product(b2_x_b2(), boolean2()))]
    # one copy at n = 9, where the reference relabels 5,040 times
    pool.append((product(luk_chain(3), luk_chain(3)), 1))
    for alg, copies in pool:
        for _ in range(copies):
            perm = list(range(alg.size))
            rng.shuffle(perm)
            shuffled = relabel(alg, perm)
            assert canonical_form(shuffled).data == relabel_canonical_form(shuffled)


def test_canonical_form_matches_the_relabel_reference_on_tables_of_few_rows():
    # every row is constantly zero, constantly one or one seeded row, so
    # many relabellings tie on their leading rows (or on all of them) and
    # the row-by-row comparison must look further; the tables need not be
    # models of any class
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(2, 6)
        zero, one = rng.sample(range(n), 2)
        rows = [(zero,) * n, (one,) * n, tuple(rng.randrange(n) for _ in range(n))]
        plus, times = ([rng.choice(rows) for _ in range(n)] for _ in range(2))
        alg = FiniteAlgebra(n, plus, times, rng.choice(rows), zero, one)
        assert canonical_form(alg).data == relabel_canonical_form(alg), alg


def unordered_factorizations(n, smallest=2):
    """Ways to write n as a product of factors >= 2, ignoring order."""
    return 1 + sum(unordered_factorizations(n // d, d)
                   for d in range(smallest, int(n ** 0.5) + 1) if n % d == 0)


def test_luk_rs_counts_are_the_factorizations_of_n():
    # finite MV-algebras are exactly the finite products of Lukasiewicz chains
    counts = [len(enumerate_algebras(EnumerationTask(n, LUK_RS))) for n in range(1, 7)]
    assert counts == [unordered_factorizations(n) for n in range(1, 7)]
    assert counts == [1, 1, 1, 2, 1, 2]
    # and so must every frozen luk-rs count, offline ones included
    table = frozen_counts()
    frozen = {int(key.split(",")[0]): v for key, v in
              {**table["counts"], **table["offline_counts"]}.items()
              if key.endswith("," + LUK_RS)}
    assert sorted(frozen) == list(range(1, 9))
    assert all(v == unordered_factorizations(n) for n, v in frozen.items())


def test_enumerate_with_forms_pairs_each_model_with_its_canonical_form():
    # the search builds each form from Aut(plus); the brute-force
    # canonical_form over all (n-2)! relabellings is the oracle
    for n, cls in CHECKED_CASES + [(7, LUK_RS), (7, LUK_NRS)]:
        pairs = enumerate_with_forms(EnumerationTask(n, cls))
        assert tuple(alg for _, alg in pairs) == searched(n, cls)[0], (n, cls)
        for form, alg in pairs:
            assert form.data == canonical_form(alg).data, (n, cls)


def test_models_share_equal_rows():
    models = enumerate_algebras(EnumerationTask(4, INRS))
    rows = [r for m in models for r in m.plus + m.times]
    assert len({id(r) for r in rows}) == len(set(rows)) < len(rows)


def test_required_counts():
    assert count(2, LUK_NRS) == 1
    assert count(3, LUK_NRS) == 1
    assert count(3, INRS) == 2


def test_independent_oracle_agrees_up_to_n4():
    for n in (2, 3, 4):
        for cls in (INRS, LUK_NRS, LUK_RS):
            expected = len(brute_force_models(n, cls))
            assert count(n, cls) == expected, (n, cls)


def test_n3_models_are_l3_and_g3():
    from nearsemiring.catalog import godel3
    models = enumerate_algebras(EnumerationTask(3, INRS))
    assert len(models) == 2
    matched = {id(m) for target in (luk_chain(3), godel3())
               for m in models if find_isomorphism(m, target) is not None}
    assert len(matched) == 2


def test_every_output_passes_its_class():
    # the search admits a leaf without check_axioms; this is the full check
    for n, cls in CHECKED_CASES:
        for alg in enumerate_algebras(EnumerationTask(n, cls)):
            assert check_axioms(alg, cls).ok, (n, cls)


def test_admission_checks_only_the_laws_the_search_leaves_open(monkeypatch):
    # the search leaves no law open: no leaf of any class reaches an identity check
    axioms = importlib.import_module("nearsemiring.axioms")
    checked = []
    check = axioms.check_identity

    def recording(*args, **kwargs):
        checked.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(axioms, "check_identity", recording)
    assert [len(enumerate_algebras(EnumerationTask(n, cls)))
            for n, cls in ((4, INRS), (4, LUK_NRS), (4, LUK_RS), (6, LUK_RS))] == [30, 3, 2, 2]
    assert not checked


def test_outputs_pairwise_non_isomorphic():
    algs = enumerate_algebras(EnumerationTask(4, LUK_NRS))
    for a, b in itertools.combinations(algs, 2):
        assert find_isomorphism(a, b) is None
        assert canonical_form(a).data != canonical_form(b).data


def test_canonical_form_examples():
    assert canonical_form(b2_x_l3()) == canonical_form(l3_x_b2())
    assert canonical_form(luk_chain(4)) != canonical_form(b2_x_b2())
    assert isinstance(canonical_form(boolean2()), CanonicalForm)


def test_canonical_form_iff_isomorphic_on_pool():
    pool = list(enumerate_algebras(EnumerationTask(4, INRS))) + [
        b2_x_l3(), l3_x_b2(), luk_chain(4), b2_x_b2()]
    for a, b in itertools.combinations(pool, 2):
        same_form = canonical_form(a).data == canonical_form(b).data
        assert same_form == (find_isomorphism(a, b) is not None)


def test_permutation_completeness():
    rng = random.Random(20260810)
    pool = enumerate_algebras(EnumerationTask(4, LUK_NRS))
    forms = {canonical_form(a).data for a in pool}
    for alg in pool:
        mid = list(range(1, alg.size - 1))
        for _ in range(6):
            rng.shuffle(mid)
            perm = [0] + mid + [alg.size - 1]
            shuffled = relabel(alg, perm)
            assert canonical_form(shuffled).data in forms


def test_trivial_and_forced_sizes():
    assert len(enumerate_algebras(EnumerationTask(1, LUK_RS))) == 1
    two = enumerate_algebras(EnumerationTask(2, LUK_RS))
    assert len(two) == 1
    assert find_isomorphism(two[0], boolean2()) is not None


def test_enumeration_task_validation():
    with pytest.raises(ValueError):
        EnumerationTask(0, LUK_NRS)
    with pytest.raises(ValueError):
        EnumerationTask(3, "rings")
    with pytest.raises(ValueError):
        EnumerationTask(3, LUK_NRS, max_nodes=0)
    # the search is single-threaded: threads=1 is the field's one value
    with pytest.raises(ValueError, match="single-threaded"):
        EnumerationTask(3, LUK_NRS, threads=2)
    # the search holds all (n-2)! relabellings and compares each complete
    # plus table with them; 11! = 39,916,800 exceeds the default cap, so the
    # task is refused before any relabelling is built
    with pytest.raises(ValueError) as err:
        EnumerationTask(13, LUK_NRS)
    assert str(err.value) == ("size 13 needs 11! = 39916800 relabellings per plus table, "
                              "more than the node cap of 5000000")
    assert EnumerationTask(12, LUK_NRS).max_nodes == 5_000_000      # 10! = 3,628,800
    with pytest.raises(ValueError, match="5! = 120 relabellings"):
        EnumerationTask(7, INRS, max_nodes=119)
    assert EnumerationTask(7, INRS, max_nodes=120).size == 7


def test_node_cap_raises_with_the_partial_models_and_admits_a_full_run():
    # a capped run stops at exactly the cap with distinct models of the full
    # run; a cap of the full run's node count finishes, one less raises
    for n, cls, caps in ((4, INRS, (37, 40, 113)), (6, LUK_RS, (97, 401))):
        search = _Search(EnumerationTask(n, cls))
        models = search.run()
        full = {canonical_form(a).data for a in models}
        for cap in caps:
            with pytest.raises(EnumerationCapExceeded) as err:
                enumerate_algebras(EnumerationTask(n, cls, max_nodes=cap))
            assert err.value.nodes == cap, (n, cls, cap)
            partial = [canonical_form(a).data for a in err.value.partial]
            assert len(set(partial)) == len(partial), (n, cls, cap)
            assert set(partial) <= full, (n, cls, cap)
        assert enumerate_algebras(EnumerationTask(n, cls, max_nodes=search.nodes)) == models
        with pytest.raises(EnumerationCapExceeded) as err:
            enumerate_algebras(EnumerationTask(n, cls, max_nodes=search.nodes - 1))
        assert err.value.nodes == search.nodes - 1


def test_canonical_form_rejects_coinciding_constants():
    from nearsemiring.core import FiniteAlgebra
    broken = FiniteAlgebra(size=2, plus=((0, 0), (0, 0)), times=((0, 0), (0, 0)),
                           alpha=(0, 1), zero=0, one=0)
    with pytest.raises(Exception, match="coincide"):
        canonical_form(broken)
