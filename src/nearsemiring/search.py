"""Exhaustive enumeration of the table models up to isomorphism.

Search order: bounded join-semilattice tables first (few at small sizes),
then antitone involutions of the induced order, then the multiplication
table.  Both tables are filled cell by cell with an incremental forward
check: after each assignment only the constraint instances that read the
new cell are re-tested (associativity of + for the plus table; left
distributivity and the interchange/associativity axioms of the requested
class for the multiplication table), found through indices by the cells
they read.  An instance can only newly fail when it reads the new cell, so
this prunes exactly the nodes a full rescan would.

Isomorphic copies are never searched twice.  The relabellings are the
permutations fixing 0 and n-1, and tables are compared in the search's own
order (row by row, which for a plus table is the order of its free cells).
A complete plus table P is kept only if it is the least of its relabellings;
the same scan collects its automorphisms Aut(P).  An antitone involution
alpha is kept only if it is the least of its conjugates under Aut(P), which
also yields Aut(P, alpha).  Each kept pair is one root per isomorphism
orbit of (P, alpha), and the times phase runs from the roots alone.  Inside
a root a leaf is kept only if its times table is the least of its
relabellings under Aut(P, alpha).  The search visits leaves in this same
order, so every model is kept exactly once, as the first copy a search over
all labelled pairs would meet.

Each kept model also gets its canonical form (the minimum encoding over all
permutations fixing zero and one), for the sort order and the file names of
`nsr enumerate --out`, without ranging over the (n-2)! permutations.  The
encoding starts with the plus table, and a kept plus table P is the least of
its relabellings: sigma(P) >= P for every sigma, with equality exactly for
sigma in Aut(P).  So the form is P followed by the least encoding of
(times, alpha) over Aut(P), one encoding per automorphism.  The full Aut(P)
is needed here, not Aut(P, alpha): a sigma that moves alpha can still make
the times table smaller.  The brute-force `canonical_form` stays public
and is the tests' oracle for these forms.

Every leaf is admitted without the axiom checker, because the search
guarantees every axiom of its class: the bounds, idempotence and
commutativity of (i) and all of (ii), (iv) and (v) are built into the
tables, (vi) by the involution builder, and associativity of +, (iii),
(vii) and (assoc) by the forward checks.  For luk-rs the times phase fills
only the cells i <= j and writes each value to T[i][j] and T[j][i], so
(comm) holds by construction, and (rdist) follows from (iii) and (comm):
z*(x+y) = (x+y)*z = x*z + y*z = z*x + z*y.

Enumerated algebras place zero at index 0 and one at index n-1.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .axioms import CLASSES, LUK_NRS, LUK_RS
from .core import AlgebraError, FiniteAlgebra

DEFAULT_MAX_NODES = 5_000_000


@dataclass(frozen=True)
class EnumerationTask:
    size: int
    algebra_class: str = LUK_NRS
    max_nodes: int = DEFAULT_MAX_NODES
    # perfbench/workloads.py passes threads=1, its one caller; the field goes
    # when the benchmark change of ROADMAP item 1 drops that argument
    threads: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be positive")
        if self.algebra_class not in CLASSES:
            raise ValueError(f"unknown class {self.algebra_class!r}")
        if self.max_nodes < 1:
            raise ValueError("caps must be positive")
        if self.threads != 1:
            raise ValueError("the search is single-threaded")
        # every complete plus table is compared with its (n-2)! relabellings,
        # which the search holds in memory: refuse a task for which that one
        # test costs more steps than its whole node budget
        orders = math.factorial(max(self.size - 2, 0))
        if orders > self.max_nodes:
            raise ValueError(f"size {self.size} needs {self.size - 2}! = {orders} relabellings "
                             f"per plus table, more than the node cap of {self.max_nodes}")


class EnumerationCapExceeded(Exception):
    """Node cap hit; carries the nodes visited and the deduplicated partial
    results."""

    def __init__(self, nodes: int, partial: tuple[FiniteAlgebra, ...]):
        super().__init__(f"node cap exceeded after {nodes} nodes with {len(partial)} "
                         "model(s) found")
        self.nodes = nodes
        self.partial = partial


@dataclass(frozen=True)
class CanonicalForm:
    data: bytes

    def hexdigest(self) -> str:
        return hashlib.sha256(self.data).hexdigest()[:16]


def relabel(alg: FiniteAlgebra, perm: Sequence[int]) -> FiniteAlgebra:
    """Apply a universe permutation (old index -> new index) to every table."""
    n = alg.size
    plus = [[0] * n for _ in range(n)]
    times = [[0] * n for _ in range(n)]
    alpha = [0] * n
    for i in range(n):
        alpha[perm[i]] = perm[alg.alpha[i]]
        for j in range(n):
            plus[perm[i]][perm[j]] = perm[alg.plus[i][j]]
            times[perm[i]][perm[j]] = perm[alg.times[i][j]]
    names = None
    if alg.names is not None:
        named = [""] * n
        for i in range(n):
            named[perm[i]] = alg.names[i]
        names = tuple(named)
    return FiniteAlgebra(size=n, plus=plus, times=times, alpha=alpha,
                         zero=perm[alg.zero], one=perm[alg.one], names=names)


def canonical_form(alg: FiniteAlgebra) -> CanonicalForm:
    """Lexicographically least encoding over permutations fixing zero and one.

    The encoding of a relabelled copy is its size, zero, one, then the plus
    and times tables row by row and the alpha vector.  Zero goes to 0 and
    one to n-1; the minimum ranges over all orders of the remaining
    elements, so equal forms characterize isomorphism.  Each order is
    encoded straight from the tables: gather rows and columns in the new
    order, then translate the old labels to the new ones.  The 2n+1 rows of
    an encoding all have length n, so the first row in which two encodings
    differ decides their byte order: each order's image is compared with
    the least so far one row at a time, and built in full only when it is
    smaller.
    """
    n = alg.size
    if n == 1:
        return CanonicalForm(bytes([1, alg.zero, alg.one, alg.plus[0][0],
                                    alg.times[0][0], alg.alpha[0]]))
    if alg.zero == alg.one:
        raise AlgebraError("designated constants coincide on a non-trivial "
                           "universe; such tables admit no bounded order")
    plus, times = tuple(map(bytes, alg.plus)), tuple(map(bytes, alg.times))
    alpha = (bytes(alg.alpha),)
    rest = [i for i in range(n) if i not in (alg.zero, alg.one)]
    # where 0 + x = x the image's plus row of zero is 0, 1, ..., n-1, and
    # where 1 + x = 1 its plus row of one is n-1 throughout, under every
    # order: such a row always ties, so the plus pass skips it
    deciding = slice(int(plus[alg.zero] == bytes(range(n))),
                     n - int(plus[alg.one] == bytes([alg.one]) * n))
    best: list[bytes] = []
    for gather, trans in _relabellings(alg.zero, rest, alg.one):
        # the plus rows decide almost every order: gather the rest on a tie only
        if best and (_compare(gather(plus)[deciding], best[deciding], gather, trans)
                     or _compare(gather(times) + alpha, best[n:], gather, trans)) >= 0:
            continue
        best = _image(gather(plus) + gather(times) + alpha, gather, trans)
    return CanonicalForm(bytes([n, 0, n - 1]) + b"".join(best))


_Relabelling = tuple[itemgetter, bytes]


def _relabellings(zero: int, rest: Sequence[int], one: int) -> Iterable[_Relabelling]:
    """Every order of rest between zero and one, in lexicographic order.

    Each order old (new label -> old label) comes as (gather, trans):
    gather(seq)[k] = seq[old[k]] and trans translates old labels to new, so
    a table's image has rows and columns gathered, then labels translated.
    """
    new_labels = bytes(range(len(rest) + 2))
    for middle in itertools.permutations(rest):
        old = (zero, *middle, one)
        yield itemgetter(*old), bytes.maketrans(bytes(old), new_labels)


def _compare(sources: Sequence[bytes], base: Sequence[bytes],
             gather: itemgetter, trans: bytes) -> int:
    """-1, 0 or 1 as the image of sources is less than, equal to or greater
    than base, where image row k is bytes(gather(sources[k])).translate(trans).

    Every row has the same length, so the first row that differs decides
    the byte order of the concatenations; the rows after it are not built.
    """
    for row, least in zip(sources, base):
        image = bytes(gather(row)).translate(trans)
        if image != least:
            return -1 if image < least else 1
    return 0


def _image(sources: Sequence[bytes], gather: itemgetter, trans: bytes) -> list[bytes]:
    """Every row of the image that _compare reads."""
    return [bytes(gather(row)).translate(trans) for row in sources]


def _least(base: Sequence[bytes],
           offered: Iterable[tuple[Sequence[bytes], _Relabelling]]
           ) -> Optional[list[_Relabelling]]:
    """The relabellings whose image is base, or None if an image is smaller.

    None means base is not the least of its orbit; otherwise the result is
    its stabilizer among the relabellings offered.
    """
    fixed = []
    for sources, relabelling in offered:
        order = _compare(sources, base, *relabelling)
        if order < 0:
            return None
        if order == 0:
            fixed.append(relabelling)
    return fixed


# -- the backtracking search ------------------------------------------------


def _where(T: list[list[Optional[int]]]) -> list[list[tuple[int, int]]]:
    """where[v]: the set cells of T holding v (read by _assoc_ok)."""
    R = range(len(T))
    where: list[list[tuple[int, int]]] = [[] for _ in R]
    for a in R:
        for b in R:
            if T[a][b] is not None:
                where[T[a][b]].append((a, b))
    return where


def _assoc_ok(T: list[list[Optional[int]]], where: list[list[tuple[int, int]]],
              i: int, j: int) -> bool:
    """Every determined instance of (x.y).z = x.(y.z) that reads T[i][j] holds
    (the four loops take (i, j) as T[x][y], T[y][z], T[xy][z] and T[x][yz])."""
    v = T[i][j]
    Ti, Tj, Tv = T[i], T[j], T[v]
    for c in range(len(T)):             # (x, y) = (i, j)
        bc = Tj[c]
        if bc is not None:
            l, r = Tv[c], Ti[bc]
            if l is not None and r is not None and l != r:
                return False
    for Ta in T:                        # (y, z) = (i, j)
        ab = Ta[i]
        if ab is not None:
            l, r = T[ab][j], Ta[v]
            if l is not None and r is not None and l != r:
                return False
    for a, b in where[i]:               # (xy, z) = (i, j)
        bc = T[b][j]
        if bc is not None:
            r = T[a][bc]
            if r is not None and r != v:
                return False
    for b, c in where[j]:               # (x, yz) = (i, j)
        ab = Ti[b]
        if ab is not None:
            l = T[ab][c]
            if l is not None and l != v:
                return False
    return True


def _antitone_involutions(P: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """Involutions with alpha(0) = n-1 that reverse the induced order."""
    mid = list(range(1, n - 1))
    out: list[tuple[int, ...]] = []

    def build(unpaired: list[int], alpha: dict[int, int]) -> None:
        if not unpaired:
            vec = [0] * n
            vec[0], vec[n - 1] = n - 1, 0
            for k, v in alpha.items():
                vec[k] = v
            for a in range(n):
                for b in range(n):
                    if P[a][b] == b and P[vec[b]][vec[a]] != vec[a]:
                        return
            out.append(tuple(vec))
            return
        head, rest = unpaired[0], unpaired[1:]
        for partner in [head] + rest:
            alpha[head] = partner
            alpha[partner] = head
            build([v for v in rest if v != partner], alpha)
            del alpha[head]
            if partner != head:
                del alpha[partner]

    if n == 1:
        return [(0,)]
    build(mid, {})
    return sorted(out)


class _Search:
    def __init__(self, task: EnumerationTask):
        self.n = task.size
        self.cls = task.algebra_class
        self.max_nodes = task.max_nodes
        self.nodes = 0
        self.found: dict[bytes, FiniteAlgebra] = {}
        self.rows: dict[tuple[int, ...], tuple[int, ...]] = {}
        n = self.n
        self.mid = list(range(1, n - 1))
        self.plus_cells = [(i, j) for k, i in enumerate(self.mid)
                           for j in self.mid[k + 1:]]
        # luk-rs sets only the cells i <= j, each with its mirror (j, i)
        self.times_cells = [(i, j) for i in self.mid for j in self.mid
                            if self.cls != LUK_RS or i <= j]
        # every relabelling fixing 0 and n-1 except the identity (the first order)
        self.relabellings = list(itertools.islice(_relabellings(0, self.mid, n - 1), 1, None))

    def _enter(self) -> None:
        """Count one node; raise at the cap."""
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise EnumerationCapExceeded(self.max_nodes, self._results())

    def _results(self) -> tuple[FiniteAlgebra, ...]:
        return tuple(alg for _, alg in sorted(self.found.items()))

    def run(self) -> tuple[FiniteAlgebra, ...]:
        n = self.n
        if n == 1:
            alg = FiniteAlgebra(1, ((0,),), ((0,),), (0,), 0, 0)
            self.found[canonical_form(alg).data] = alg
            return self._results()
        P: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            P[i][i] = i
            P[0][i] = P[i][0] = i
            P[n - 1][i] = P[i][n - 1] = n - 1
        # the preset cells hold every determined associativity instance: 0 is
        # neutral, n-1 absorbs, and the only set middle cells are a+a = a
        self._plus_phase(P, _where(P), 0)
        return self._results()

    def _plus_phase(self, P: list[list[Optional[int]]],
                    where: list[list[tuple[int, int]]], k: int) -> None:
        n = self.n
        if k == len(self.plus_cells):
            # every cell is set and was forward-checked when set, so P is
            # associative; commutativity and idempotence hold by construction
            full: list[list[int]] = [[v for v in row] for row in P]  # type: ignore[misc]
            autos = self._plus_automorphisms(full)
            if autos is not None:
                self._alpha_phase(full, autos)
            return
        # an instance (a, b, c) that reads P[j][i] has the mirror (c, b, a),
        # which reads the transposed cells, P[i][j] among them, and has the
        # same two sides swapped: checking (i, j) covers both new cells
        i, j = self.plus_cells[k]
        for v in range(1, n):
            self._enter()
            P[i][j] = P[j][i] = v
            where[v] += (i, j), (j, i)
            if _assoc_ok(P, where, i, j):
                self._plus_phase(P, where, k + 1)
            del where[v][-2:]
            P[i][j] = P[j][i] = None

    def _plus_automorphisms(self, P: list[list[int]]) -> Optional[list[_Relabelling]]:
        """Aut(P) but the identity, or None if a relabelling of P is smaller."""
        rows = tuple(map(bytes, P))
        return _least(rows, ((g(rows), (g, t)) for g, t in self.relabellings))

    def _alpha_phase(self, P: list[list[int]], autos: list[_Relabelling]) -> None:
        # the roots: each involution least among its conjugates under Aut(P),
        # with Aut(P, alpha)
        for alpha in _antitone_involutions(P, self.n):
            vec = (bytes(alpha),)
            fixed = _least(vec, ((vec, r) for r in autos))
            if fixed is not None:
                self._enter()
                self._times_phase(P, alpha, fixed, autos)

    def _times_phase(self, P: list[list[int]], alpha: tuple[int, ...],
                     autos: list[_Relabelling], plus_autos: list[_Relabelling]) -> None:
        """Fill the times table under the root (P, alpha); autos is Aut(P, alpha)
        and plus_autos is Aut(P), both without the identity."""
        n = self.n
        R = range(n)
        T: list[list[Optional[int]]] = [[None] * n for _ in R]
        for i in R:
            T[0][i] = T[i][0] = 0
            T[n - 1][i] = T[i][n - 1] = i
        T[n - 1][n - 1] = n - 1
        interchange = self.cls in (LUK_NRS, LUK_RS)
        assoc = self.cls == LUK_RS
        # left distributivity (x+y)*z = x*z + y*z at z = j reads rows x, y
        # and x+y of column j; dist[i] lists the pairs x < y that read row i
        # (x = 0 and x = y give trivial instances)
        dist: list[list[tuple[int, int, int]]] = [[] for _ in R]
        for a in range(1, n):
            for b in range(a + 1, n):
                s = P[a][b]
                for r in {a, b, s}:
                    dist[r].append((a, b, s))
        where = _where(T)

        def cell_ok(i: int, j: int) -> bool:
            """Every determined distributivity and interchange instance that
            reads T[i][j] holds (associativity is _assoc_ok's)."""
            for a, b, s in dist[i]:
                lhs, r1, r2 = T[s][j], T[a][j], T[b][j]
                if (lhs is not None and r1 is not None and r2 is not None
                        and lhs != P[r1][r2]):
                    return False
            if interchange:
                # (x*y^a)^a*y^a = (y*x^a)^a*x^a reads T[i][j] only if y = j^a
                # or x = j^a; swapping x and y swaps the sides, so the
                # instances with y = j^a cover both
                b = alpha[j]
                Tb = T[b]
                for a in R:
                    u1, u2 = T[a][j], Tb[alpha[a]]
                    if u1 is None or u2 is None:
                        continue
                    l, r = T[alpha[u1]][j], T[alpha[u2]][alpha[a]]
                    if l is not None and r is not None and l != r:
                        return False
            return True

        cells = self.times_cells

        def fill(k: int) -> None:
            if k == len(cells):
                self._emit(P, alpha, autos, T, plus_autos)
                return
            i, j = cells[k]
            Ti, Tj = T[i], T[j]
            # luk-rs sets the mirror cell (j, i) too; an associativity
            # instance that reads T[j][i] has the mirror (c, b, a), which
            # reads T[i][j] with the same sides swapped (T is commutative),
            # so _assoc_ok(i, j) covers both cells
            twin = self.cls == LUK_RS and i != j
            for v in R:
                self._enter()
                Ti[j] = v
                where[v].append((i, j))
                if twin:
                    Tj[i] = v
                    where[v].append((j, i))
                if (cell_ok(i, j) and (not twin or cell_ok(j, i))
                        and (not assoc or _assoc_ok(T, where, i, j))):
                    fill(k + 1)
                if twin:
                    where[v].pop()
                    Tj[i] = None
                where[v].pop()
                Ti[j] = None

        # before the first cell: every determined instance reads a set cell
        if all(cell_ok(a, b) and (not assoc or _assoc_ok(T, where, a, b))
               for v in R for a, b in where[v]):
            fill(0)

    def _emit(self, P, alpha, autos, T, plus_autos) -> None:
        rows = tuple(map(bytes, T))
        if autos and _least(rows, ((g(rows), (g, t)) for g, t in autos)) is None:
            return      # its least relabelling is another leaf of this root
        # P is least of its relabellings, so the canonical form is P followed
        # by the least (times, alpha) over Aut(P) (module docstring)
        vec = (bytes(alpha),)
        rest = [*rows, *vec]
        for g, t in plus_autos:
            if _compare(g(rows) + vec, rest, g, t) < 0:
                rest = _image(g(rows) + vec, g, t)
        n = self.n
        # a search meets few distinct rows, so the models it keeps share them
        row = self.rows.setdefault
        alg = FiniteAlgebra(n, tuple(row(r, r) for r in map(tuple, P)),
                            tuple(row(r, r) for r in map(tuple, T)), alpha, 0, n - 1)
        self.found[bytes([n, 0, n - 1]) + b"".join(map(bytes, P)) + b"".join(rest)] = alg


def enumerate_algebras(task: EnumerationTask) -> tuple[FiniteAlgebra, ...]:
    """All models of the class at the given size, one per isomorphism type.

    The multiplication table is searched once per orbit root (plus, alpha),
    and leaves are deduplicated under Aut(plus, alpha); each model is the
    first labelled copy in search order.  Output is sorted by canonical
    form, so it is deterministic.  A node-cap overrun raises
    EnumerationCapExceeded with the nodes visited and the partial results.
    """
    return _Search(task).run()


def enumerate_with_forms(task: EnumerationTask
                         ) -> tuple[tuple[CanonicalForm, FiniteAlgebra], ...]:
    """enumerate_algebras(task) with the canonical form the search kept for each model."""
    search = _Search(task)
    search.run()
    return tuple((CanonicalForm(data), alg) for data, alg in sorted(search.found.items()))


@functools.cache
def count(size: int, algebra_class: str = LUK_NRS) -> int:
    """Number of models up to isomorphism (cached per size and class)."""
    return len(enumerate_algebras(EnumerationTask(size, algebra_class)))


def frozen_counts() -> dict:
    """The checked-in regression table of enumeration counts."""
    text = resources.files("nearsemiring").joinpath(
        "data/enumeration_counts.json").read_text()
    return json.loads(text)
