import importlib
import itertools
import math
import random
import time
from operator import itemgetter

import pytest

from nearsemiring import cli
from nearsemiring.axioms import INRS, LUK_NRS, LUK_RS, check_axioms
from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, godel3, l3_x_b2,
                                  luk_chain)
from nearsemiring.core import AlgebraError, FiniteAlgebra, find_isomorphism, product
from nearsemiring.search import (CanonicalForm, EnumerationCapExceeded, EnumerationTask,
                                 _antitone_involutions, _children, _lattices, _orbit,
                                 _row_bound, _Search, canonical_form, count,
                                 enumerate_algebras,
                                 enumerate_with_forms, frozen_counts, relabel)

from enumerated import searched


def relabellings(n):
    """Every relabelling of n elements fixing 0 and n-1 but the identity, in
    lexicographic order of the new label -> old label orders, as the
    (gather, trans) pairs of the search."""
    labels = bytes(range(n))
    orders = (bytes((0, *middle, n - 1)) for middle in itertools.permutations(labels[1:-1]))
    return [(itemgetter(*old), bytes.maketrans(old, labels)) for old in orders][1:]


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


class PlusWalk(_Search):
    """Reference search: the plus tables by a labelled walk.

    The free cells i < j of the plus table are filled in order, each value
    a node, and every determined associativity instance is rescanned after
    each one.  A complete table is kept if it is the least of its
    relabellings, and the same scan gives its automorphisms Aut(P).  So the
    walk's complete tables are every labelled bounded lattice, and it keeps
    the least one of each isomorphism class, in increasing order.
    """

    def __init__(self, task):
        super().__init__(task)
        self.plus_cells = list(itertools.combinations(self.mid, 2))

    def run(self):
        n = self.n
        if n == 1:
            return super().run()
        self.relabellings = relabellings(n)
        P = [[None] * n for _ in range(n)]
        for i in range(n):
            P[i][i] = i
            P[0][i] = P[i][0] = i
            P[n - 1][i] = P[i][n - 1] = n - 1
        self._plus_phase(P, 0)
        return self._results()

    def _plus_phase(self, P, k):
        n = self.n
        if k == len(self.plus_cells):
            full = tuple(map(bytes, P))
            autos = self._plus_automorphisms(full)
            if autos is not None:
                self._alpha_phase(full, autos)
            return
        i, j = self.plus_cells[k]
        for v in range(1, n):
            self._enter()
            P[i][j] = P[j][i] = v
            if semilattice_ok_partial(P, n):
                self._plus_phase(P, k + 1)
        P[i][j] = P[j][i] = None

    def _plus_automorphisms(self, P):
        """Aut(P) but the identity, or None if a relabelling of P is smaller."""
        orbit = _orbit(P, ((g(P), g, t) for g, t in self.relabellings), len(self.relabellings))
        return None if orbit is None else orbit[1]


class FullRescanSearch(_Search):
    """Reference search: every times cell, then a rescan of every constraint.

    The search chooses each times table one column at a time, from the
    join-preserving maps (inrs) or from one antitone involution per section
    (luk-*), while this reference fills it cell by cell, row by row, under
    distributivity, interchange and, for luk-rs, associativity, setting the
    cells i <= j and their mirrors.
    """

    def _times_phase(self, P, alpha, sources, autos, fixing):
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

        times_cells = [(i, j) for i in self.mid for j in self.mid
                       if self.cls != LUK_RS or i <= j]
        emit = self._emitter(P, alpha, autos, fixing)

        def fill(k):
            if k == len(times_cells):
                emit(tuple(map(tuple, T)))
                return
            i, j = times_cells[k]
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


class LabelledSearch(PlusWalk):
    """Reference search: every labelled (plus, alpha) pair is a root.

    Isomorphic leaves are told apart by canonical_form, whose branch and
    bound over the new labels needs no property of the tables.  Each form
    keeps its least copy by (plus, alpha, times), whatever order the leaves
    come in, and `admitted` counts the labelled leaves.  The search's own
    form needs its plus table to be least under relabelling, which these
    roots are not.
    """

    admitted = 0

    def _plus_automorphisms(self, P):
        return []

    def _emitter(self, P, alpha, autos, fixing):
        plus = tuple(map(tuple, P))

        def emit(T):
            alg = FiniteAlgebra(self.n, plus, T, alpha, 0, self.n - 1)
            self.admitted += 1
            form = canonical_form(alg).data
            kept = self.found.get(form)
            least = (alg.plus, alg.alpha, alg.times)
            if kept is None or least < (kept.plus, kept.alpha, kept.times):
                self.found[form] = alg

        return emit


class LabelledFullRescan(LabelledSearch):
    """The cell-by-cell times tables over every labelled (plus, alpha) pair."""

    _times_phase = FullRescanSearch._times_phase


def fix_first_plus_cell(search, value):
    """Prune every plus table whose first cell is not value.

    The first cell's values are still entered and checked, and a table past
    the check that holds another value returns at the second cell, so two
    searches wrapped alike still visit the same nodes.
    """
    plus_phase = search._plus_phase
    i, j = search.plus_cells[0]

    def fixed(P, k):
        if k != 1 or P[i][j] == value:
            plus_phase(P, k)

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
    # luk-rs builds the luk-nrs tables and keeps the commutative ones: one tree
    assert (nodes["7,luk-rs"], nodes["7,luk-nrs"]) == (188, 188)


def test_nodes_are_the_lattice_children_roots_and_times_tables(monkeypatch):
    # a luk-nrs node is a lattice child (an enter call of _lattices), a kept
    # root (one _times_phase each) or a times table built (each one emitted)
    search_module = importlib.import_module("nearsemiring.search")
    lattices = search_module._lattices

    class Counted(_Search):
        children = roots = tables = 0

        def _child(self):
            self.children += 1
            self._enter()

        def _times_phase(self, *args):
            self.roots += 1
            super()._times_phase(*args)

        def _emitter(self, *args):
            emit = super()._emitter(*args)

            def counted(T):
                self.tables += 1
                emit(T)

            return counted

    parts = {}
    for n in (6, 7, 8):
        search = Counted(EnumerationTask(n, LUK_NRS))
        monkeypatch.setattr(search_module, "_lattices",
                            lambda size, enter: lattices(size, search._child))
        search.run()
        parts[n] = search.children, search.roots, search.tables
        assert search.nodes == sum(parts[n]), n
    assert parts == {6: (37, 12, 11), 7: (153, 20, 15), 8: (694, 61, 60)}


def test_luk_rs_models_are_the_luk_nrs_models_that_pass_luk_rs():
    # the luk-rs search keeps the commutative tables and checks no law at its
    # leaves; its output must be the luk-nrs output filtered by the full
    # axiom check, tables and order alike
    for n in range(1, 8):
        luk_nrs, _ = searched(n, LUK_NRS)
        assert tables(searched(n, LUK_RS)[0]) == tables(
            a for a in luk_nrs if check_axioms(a, LUK_RS).ok), n


#: every class up to n = 5 and 6,luk-*: the cases checked against a reference
CHECKED_CASES = ([(n, cls) for n in range(1, 6) for cls in (INRS, LUK_NRS, LUK_RS)]
                 + [(6, LUK_RS), (6, LUK_NRS)])


def test_times_columns_match_a_cell_by_cell_rescan():
    # the times tables are chosen column by column, not cell by cell as in
    # the reference: the searches must find the same forms on every case,
    # and on the orbit roots the same tables in the same order.  No plus
    # table with 1+2 = 3 is an orbit root, so the two cases at n = 6 that fix
    # that first cell compare the times phases on labelled pairs
    cases = [(n, cls, None) for n, cls in CHECKED_CASES]
    for n, cls, first in cases + [(6, LUK_NRS, 3), (6, LUK_RS, 3)]:
        if first:
            fast, full = (fix_first_plus_cell(S(EnumerationTask(n, cls)), first)
                          for S in (LabelledSearch, LabelledFullRescan))
        else:
            fast, full = (S(EnumerationTask(n, cls)) for S in (_Search, FullRescanSearch))
        models = [s.run() for s in (fast, full)]
        assert sorted(fast.found) == sorted(full.found), (n, cls, first)
        if not first:
            assert tables(models[0]) == tables(models[1]), (n, cls)


def plus_roots(search_class, n):
    """The (P, Aut(P)) pairs a search hands to its alpha phase, in order;
    each automorphism as its translation table."""
    class Roots(search_class):
        def _alpha_phase(self, P, autos):
            kept.append((P, sorted(t for _, t in autos)))

    kept = []
    Roots(EnumerationTask(n, INRS)).run()
    return kept


def test_lattice_generator_roots_are_the_least_tables_of_the_plus_walk():
    # the walk completes every labelled lattice and keeps the least of each
    # class with the automorphisms its scan found; the generator must give
    # the same tables and groups in the same order
    for n in range(2, 8):
        assert plus_roots(_Search, n) == plus_roots(PlusWalk, n), n


def subset_children(K):
    """The children of K by the module docstring's condition read literally:
    each subset U of K - {0} holding the top is kept if it is an up-set and,
    for each y != 0, U and the up-set of y meet in a least element, a + y.
    Laid out as _children lays them out, in the same order."""
    k = len(K)
    up = [{y for y in range(k) if K[x][y] == y} for x in range(k)]
    shift = [0, *range(2, k + 1)]
    children = []
    for bits in range(1 << (k - 2)):
        U = {x for x in range(1, k - 1) if bits >> (x - 1) & 1} | {k - 1}
        if any(not up[u] <= U for u in U):
            continue
        joins = []
        for y in range(1, k):
            least = [c for c in U & up[y] if U & up[y] <= up[c]]
            if not least:
                break
            joins.append(shift[least[0]])
        else:
            rows = [bytes(shift[v] for v in K[x]) for x in range(1, k)]
            children.append((bytes(range(k + 1)), bytes([1, 1, *joins]),
                             *(row[:1] + bytes([j]) + row[1:] for row, j in zip(rows, joins))))
    return children


def test_lattice_children_match_the_subset_filter():
    # _children builds only the unions of principal up-sets and reads each
    # a + y off one lookup; the reference tries every subset.  The children
    # of the lattices up to 8 elements are the 3,555 that _lattices(9) enters
    children = 0
    for level in _lattices(8, lambda: None):
        for K, _ in level:
            reference = subset_children(K)
            assert list(_children(K, lambda: None)) == reference, K
            children += len(reference)
    assert children == 3555


def test_lattice_generator_counts_the_lattices_of_each_size():
    # the unlabelled lattices of n elements, OEIS A006966: 1, 1, 1, 2, 5, 15,
    # 53, 222, 1078 for n = 1..9.  The generator starts at n = 2, and each
    # child it builds is one node: 1, 2, 7, 27, 116, 541 and 2,861
    # children for n = 3..9
    entered = []
    levels = [len(level) for level in _lattices(9, lambda: entered.append(1))]
    assert [1] + levels == [1, 1, 1, 2, 5, 15, 53, 222, 1078]
    assert len(entered) == 3555


def test_lattice_generator_puts_the_largest_down_set_at_label_one():
    # each least form starts its row 1 with as many 1s as any relabelling
    # can give it: label 1 is a middle with the largest down-set, and labels
    # 2..d-1 are the middles below it, d = |down-set of label 1|
    for level in _lattices(8, lambda: None):
        for P, _ in level:
            m = len(P)
            if m < 3:
                continue
            down = [P[x].count(x) for x in range(1, m - 1)]
            d = P[1].count(1)
            assert d == max(down), P
            assert [y for y in range(2, m - 1) if P[1][y] == 1] == list(range(2, d)), P


def test_lattice_generator_gives_each_lattice_its_automorphisms():
    # the generator composes the ties of each child's one scan with the
    # inverse of the first; at n = 8, past the plus walk's reach, each group
    # must be the relabellings but the identity that map P to itself
    n = 8
    *_, level = _lattices(n, lambda: None)
    assert len(level) == 222
    every = relabellings(n)
    for P, autos in level:
        fixed = [t for g, t in every
                 if all(bytes(g(row)).translate(t) == own for row, own in zip(g(P), P))]
        assert sorted(t for _, t in autos) == sorted(fixed), P


def test_antitone_involutions_of_an_interval():
    # the Boolean square has two (complement, and the one fixing both atoms),
    # a chain one; a section [y, 1] of b2^3 is a square above an atom and a
    # two-element chain above a coatom, and every element outside is fixed
    square = b2_x_b2()
    assert len(_antitone_involutions(square.plus, square.zero, square.one)) == 2
    chain = luk_chain(5)
    assert _antitone_involutions(chain.plus, 0, 4) == [(4, 3, 2, 1, 0)]
    assert _antitone_involutions(chain.plus, 2, 4) == [(0, 1, 4, 3, 2)]
    cube = product(b2_x_b2(), boolean2())
    P, top = cube.plus, cube.one
    up = {y: {x for x in range(8) if P[y][x] == x} for y in range(8)}
    atoms = [y for y in range(8) if len(up[y]) == 4]
    coatoms = [y for y in range(8) if len(up[y]) == 2]
    assert len(atoms) == len(coatoms) == 3
    for y in atoms + coatoms:
        sections = _antitone_involutions(P, y, top)
        assert len(sections) == (2 if y in atoms else 1), y
        for sigma in sections:
            assert sigma[y] == top and sigma[top] == y
            assert all(sigma[x] == x for x in range(8) if x not in up[y])
            assert all(sigma[sigma[x]] == x for x in range(8))
            assert all(P[sigma[b]][sigma[a]] == sigma[a]
                       for a in up[y] for b in up[y] if P[a][b] == b)
    assert _antitone_involutions(P, top, top) == [tuple(range(8))]


def involutions(elements):
    """Every involution of the list elements, as a dict."""
    if not elements:
        yield {}
        return
    head, rest = elements[0], elements[1:]
    for partner in elements:
        for sigma in involutions([x for x in rest if x != partner]):
            yield {**sigma, head: partner, partner: head}


def test_antitone_involutions_match_an_unpruned_reference():
    # the builder pairs x only with elements whose (below, above) counts in
    # the interval are x's swapped; the reference tries every involution of
    # the interval and keeps those that reverse its order
    sections = 0
    for level in _lattices(7, lambda: None):
        for P, _ in level:
            n, top = len(P), len(P) - 1
            for y in range(n):
                inside = [x for x in range(n) if P[y][x] == x]
                reference = []
                for sigma in involutions(inside):
                    vec = tuple(sigma.get(x, x) for x in range(n))
                    if all(P[vec[b]][vec[a]] == vec[a]
                           for a in inside for b in inside if P[a][b] == b):
                        reference.append(vec)
                assert _antitone_involutions(P, y, top) == sorted(reference), (P, y)
                sections += 1
    assert sections == 499


def test_inrs_columns_are_the_join_preserving_maps():
    # column z of an inrs times table is x -> x*z: (iv) and (ii) fix 0 -> 0
    # and n-1 -> z, and left distributivity says it preserves joins.  The
    # search's lists must be every such map among all n^(n-2) candidates,
    # in lexicographic order, for every plus table it keeps up to n = 6
    class PlusTables(_Search):
        def _alpha_phase(self, P, autos):
            kept.append(P)

    for n in range(3, 7):
        kept = []
        search = PlusTables(EnumerationTask(n, INRS))
        search.run()
        assert len(kept) == [1, 2, 5, 15][n - 3]      # the lattices of n elements
        # a = b and the mirror (b, a) of a pair give no other instance
        pairs = list(itertools.combinations(range(n), 2))
        for P in kept:
            for z in range(1, n - 1):
                candidates = ((0, *middle, z)
                              for middle in itertools.product(range(n), repeat=n - 2))
                assert search._join_maps(P, z) == [
                    f for f in candidates if all(f[P[a][b]] == P[f[a]][f[b]] for a, b in pairs)
                ], (n, P, z)


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
        (94, 141), (1425, 7564), (60, 1888), (60, 1888)]


def test_canonical_form_matches_the_relabel_reference():
    rng = random.Random(20261018)
    pool = [(alg, 3) for alg in enumerate_algebras(EnumerationTask(4, INRS))]
    pool += [(alg, 3) for alg in (luk_chain(1), godel3(), b2_x_l3(), luk_chain(8),
                                  product(boolean2(), luk_chain(4)),
                                  product(b2_x_b2(), boolean2()))]
    # one copy at n = 9, where the reference relabels 5,040 times
    pool.append((product(luk_chain(3), luk_chain(3)), 1))
    # and one of every 5,inrs model
    pool += [(alg, 1) for alg in searched(5, INRS)[0]]
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

    def table(n, constant_plus=False):
        zero, one = rng.sample(range(n), 2)
        rows = [(zero,) * n, (one,) * n, tuple(rng.randrange(n) for _ in range(n))]
        plus, times = ([rng.choice(rows) for _ in range(n)] for _ in range(2))
        if constant_plus:
            plus = [rng.choice(rows[:2]) for _ in range(n)]
        return FiniteAlgebra(n, plus, times, rng.choice(rows), zero, one)

    algs = [table(rng.randint(2, 6)) for _ in range(300)]
    # and at n = 7; where every plus row is constant, each order ties on
    # the plus table and the bounds of canonical_form prune nothing
    algs += [table(7) for _ in range(8)] + [table(n, True) for n in range(2, 8) for _ in range(2)]
    for alg in algs:
        assert canonical_form(alg).data == relabel_canonical_form(alg), alg


def test_row_bound_never_exceeds_the_image_of_an_order():
    # the bound on a placed row must be at most its image under each order
    # that completes the node's labels.  Seeded rows hold few distinct
    # values, many of them in their own column.  In the first row only zero
    # is placed, and 3 fills two unplaced columns and 1 one, neither its
    # own: the order 0 3 1 4 2 5 reads 0 1 2 1 there, so the bound must give
    # the more frequent 3 the lesser label
    rng = random.Random(8)
    cases = [([5, 3, 3, 0, 1, 1], 0, 5, [], [4, 1, 3, 2])]
    for _ in range(600):
        n = rng.randint(3, 7)
        zero, one = rng.sample(range(n), 2)
        values = rng.sample(range(n), rng.randint(1, 3))
        row = [x if rng.random() < 0.4 else rng.choice(values) for x in range(n)]
        middle = [x for x in range(n) if x not in (zero, one)]
        rng.shuffle(middle)
        k = rng.randint(1, n - 2)
        cases.append((row, zero, one, middle[:k - 1], middle[k - 1:]))
    for row, zero, one, placed, rest in cases:
        n, k = len(row), len(placed) + 1
        old = [zero, *placed]
        order = old + rest + [one]
        trans = bytes.maketrans(bytes(order), bytes([*range(k), *[k] * len(rest), n - 1]))
        bound = _row_bound(bytes(row[x] for x in order), k, trans, bytes(old + [one]), bytes(rest))
        for tail in itertools.permutations(rest):
            full = old + list(tail) + [one]
            image = bytes(full.index(row[x]) for x in full)
            assert bound <= image, (row, old, rest)


def test_canonical_form_reaches_sixteen_elements():
    # (n-2)! orders are out of reach here: 14! at n = 16.  A relabelled
    # copy gets its original's form, and on algebras of one size equal
    # forms agree with find_isomorphism
    rng = random.Random(34)
    b2, l3, l4 = boolean2(), luk_chain(3), luk_chain(4)
    square = b2_x_b2()
    algs = {"l12": luk_chain(12), "l3xl4": product(l3, l4), "b2^2xl3": product(square, l3),
            "b2^4": product(square, square), "l4^2": product(l4, l4),
            "b2^2xl4": product(square, l4)}
    forms = {name: canonical_form(alg).data for name, alg in algs.items()}
    for name in ("l3xl4", "b2^2xl3", "b2^4", "l4^2"):
        perm = list(range(algs[name].size))
        rng.shuffle(perm)
        assert canonical_form(relabel(algs[name], perm)).data == forms[name], name
    for group in (("l12", "l3xl4", "b2^2xl3"), ("b2^4", "l4^2", "b2^2xl4")):
        for a, b in itertools.combinations(group, 2):
            isomorphic = find_isomorphism(algs[a], algs[b]) is not None
            assert (forms[a] == forms[b]) == isomorphic, (a, b)


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
    assert sorted(frozen) == list(range(1, 11))
    assert all(v == unordered_factorizations(n) for n, v in frozen.items())


def test_enumerate_with_forms_pairs_each_model_with_its_canonical_form():
    # two routes to one form: the search reads it off Aut(plus), and
    # canonical_form finds it by branch and bound over the new labels
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
    # the search admits a leaf without check_axioms, and builds each model
    # past its root's first without a structural check: these are the full
    # checks
    for n, cls in CHECKED_CASES + [(7, LUK_RS), (7, LUK_NRS)]:
        for m in enumerate_algebras(EnumerationTask(n, cls)):
            assert check_axioms(m, cls).ok, (n, cls)
            assert m == FiniteAlgebra(n, m.plus, m.times, m.alpha, m.zero, m.one), (n, cls)


@pytest.mark.parametrize("bad, message", [
    (lambda z: (0, 9, 0, z), "column[1] = 9 is outside the universe [0, 4)"),
    (lambda z: (0, z), "column must have 4 entries, got 2"),
])
def test_each_root_checks_its_columns(monkeypatch, capsys, bad, message):
    # the times tables are built from the column lists, and only the root's
    # first model goes through the constructor: a faulty column is caught
    # as the root's columns are checked, before any table is built
    join_maps = _Search._join_maps
    monkeypatch.setattr(_Search, "_join_maps",
                        lambda self, P, z: join_maps(self, P, z) + [bad(z)])
    with pytest.raises(AlgebraError) as err:
        enumerate_algebras(EnumerationTask(4, INRS))
    assert str(err.value) == message
    assert cli.main(["enumerate", "--size", "4", "--class", "inrs"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    # the lattice child of size n whose middles are all atoms is compared
    # with all (n-2)! relabellings; 11! = 39,916,800 exceeds the default
    # cap, so the task is refused before any relabelling is built
    with pytest.raises(ValueError) as err:
        EnumerationTask(13, LUK_NRS)
    assert str(err.value) == ("size 13 needs 11! = 39916800 relabellings per lattice child, "
                              "more than the node cap of 5000000")
    assert EnumerationTask(12, LUK_NRS).max_nodes == 5_000_000      # 10! = 3,628,800
    with pytest.raises(ValueError, match="5! = 120 relabellings"):
        EnumerationTask(7, INRS, max_nodes=119)
    assert EnumerationTask(7, INRS, max_nodes=120).size == 7


def test_oversized_task_is_refused_without_computing_its_factorial():
    # (n-2)! is multiplied out only until it passes the cap, and an
    # unfinished product is never printed
    for size in (2000, 10**6):
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            EnumerationTask(size, LUK_NRS)
        assert time.perf_counter() - start < 0.5
        assert str(err.value) == (f"size {size} needs {size - 2}! relabellings per lattice child, "
                                  "more than the node cap of 5000000")


def test_node_cap_raises_with_the_partial_models_and_admits_a_full_run():
    # a capped run stops at exactly the cap with distinct models of the full
    # run; a cap of the full run's node count finishes, one less raises.
    # 6,luk-rs builds 37 lattice tables before its first root, so the cap of
    # 30 stops inside the lattice generator, with no model
    for n, cls, caps in ((4, INRS, (20, 40, 90)), (6, LUK_RS, (30, 45))):
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
