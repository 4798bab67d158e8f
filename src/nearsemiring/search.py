"""Exhaustive enumeration of the table models up to isomorphism.

Search order: bounded join-semilattice tables first (few at small sizes),
then antitone involutions alpha of the induced order, then the
multiplication table.  The plus table is filled cell by cell with an
incremental forward check: after each assignment only the associativity
instances that read the new cell are re-tested, found through an index of
the cells by value.  An instance can only newly fail when it reads the new
cell, so this prunes exactly the nodes a full rescan would.

The multiplication table is chosen one column at a time.  Column w is the
map x -> x*w.  Axioms (ii) and (iv) fix columns 0 and n-1 and the entries
0*w = 0 and 1*w = w, and the other axioms of each class constrain one
column at a time, so a table is one independent choice per middle w from a
list of columns built for w; each choice tried is one node.  For an inrs,
left distributivity (x+y)*w = x*w + y*w says that column w preserves joins:
its list is every map f with f(0) = 0, f(n-1) = w and f(a+b) = f(a) + f(b),
found by a small backtrack over the middle cells that checks each instance
once its cells are set.  These lists never read alpha, so they are found
once per plus table.  A luk-* column is built, not searched.  Finite basic
algebras, term equivalent to the luk-nrs models, correspond one to one
with bounded lattices that carry an antitone involution sigma_y on every
section [y, 1] (Chajda, Halas and Kuhr, Semilattice Structures, 2007), with
sigma_0 = alpha and sigma_1 the identity.  With x (+) y = sigma_y(alpha(x)
+ y) and x*y = alpha(alpha(x) (+) alpha(y)), as in mv.from_mv, column w of
the times table is x*w = alpha(sigma_y(x + y)) for y = alpha(w).  So each
root (P, alpha) has one luk-nrs table per choice of the sigma_y, y a middle
element.  luk-rs keeps the commutative ones: a finite commutative basic
algebra is an MV-algebra (Botur and Halas, 2008).

Isomorphic copies are never searched twice.  The relabellings are the
permutations fixing 0 and n-1, and tables are compared in the search's own
order (row by row, which for a plus table is the order of its free cells).
A complete plus table P is kept only if it is the least of its relabellings;
the same scan collects its automorphisms Aut(P).  An antitone involution
alpha is kept only if it is the least of its conjugates under Aut(P), which
also yields Aut(P, alpha).  Each kept pair is one root per isomorphism
orbit of (P, alpha), and the times phase runs from the roots alone.  Inside
a root a leaf is kept only if its times table is the least of its
relabellings under Aut(P, alpha), so every model is kept exactly once, as
the least copy on the least root of its orbit.

Each kept model also gets its canonical form (the minimum encoding over all
permutations fixing zero and one), for the sort order and the file names of
`nsr enumerate --out`, without ranging over the (n-2)! permutations.  The
encoding starts with the plus table, and a kept plus table P is the least of
its relabellings: sigma(P) >= P for every sigma, with equality exactly for
sigma in Aut(P).  So the form is P followed by the least encoding of
(times, alpha) over Aut(P), one encoding per automorphism.  The full Aut(P)
is needed here, not Aut(P, alpha): a sigma that moves alpha can still make
the times table smaller.  The public `canonical_form` reaches the same
forms by another route, a branch and bound over the new labels that needs
no property of the tables, and the tests require the two to agree.

Every leaf is admitted without the axiom checker, because the search
guarantees every axiom of its class: the bounds, idempotence and
commutativity of (i) and all of (ii), (iv) and (v) are built into the
tables, (vi) by the involution builder, associativity of + by the forward
checks, (iii) of an inrs by its column lists, and every luk-* axiom by the
correspondence above.

Enumerated algebras place zero at index 0 and one at index n-1.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .axioms import CLASSES, INRS, LUK_NRS, LUK_RS
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
        # test costs more steps than its whole node budget; k! stops growing
        # once it passes the cap, and only a finished (n-2)! is printed
        orders, k = 1, 1
        while orders <= self.max_nodes and k < self.size - 2:
            k += 1
            orders *= k
        if orders > self.max_nodes:
            value = f" = {orders}" if k == self.size - 2 else ""
            raise ValueError(f"size {self.size} needs {self.size - 2}!{value} relabellings "
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
    elements, so equal forms characterize isomorphism.  The 2n+1 rows of an
    encoding all have length n, so the first row in which two encodings
    differ decides their byte order.

    The orders are searched depth first, one new label at a time: at a
    node, labels 0..k-1 and n-1 are placed, and each child gives label k
    to one of the old elements left (individualise and prune, as in McKay
    and Piperno, "Practical graph isomorphism, II", 2014).  Every placed
    plus row gets a lower bound on its image (_row_bound).  A node whose
    bounds exceed the least encoding found so far, at the first row where
    they differ, holds no smaller order and is pruned; a node whose bounds
    tie is kept, as an order below it may still win on a later row.
    Children are tried in the order of their bounds, so the first leaf is
    usually close to the least.  Each leaf, a complete order, is encoded
    straight from the tables and compared with the least so far one row at
    a time (_compare); it is built in full only when it is smaller.
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
    one = alg.one
    new_labels = bytes(range(n))
    best: list[bytes] = []
    old = [alg.zero]        # old[k]: the old element given new label k
    # where 0 + x = x the image's plus row of zero is 0, 1, ..., n-1 under
    # every order: it always ties, so the bounds start at the next row
    first = int(plus[alg.zero] == new_labels)

    def leaf(order: list[int]) -> None:
        nonlocal best
        gather, trans = itemgetter(*order), bytes.maketrans(bytes(order), new_labels)
        # the plus rows decide almost every leaf: gather the rest on a tie only
        if best and (_compare(gather(plus)[first:], best[first:n], gather, trans)
                     or _compare(gather(times) + alpha, best[n:], gather, trans)) >= 0:
            return
        best = _image(gather(plus) + gather(times) + alpha, gather, trans)

    def descend(left: list[int]) -> None:
        if len(left) <= 3:
            # at most six leaves: cheaper to compare than their bounds to build
            for tail in itertools.permutations(left):
                leaf(old + list(tail) + [one])
            return
        k = len(old)
        incumbent = best[first:k + 1]
        children: list[tuple[list[bytes], int]] = []
        least: list[bytes] = []     # the least full bounds of a sibling so far
        for c in left:
            rest = [u for u in left if u != c]
            order = old + [c] + rest + [one]
            gather = itemgetter(*order)
            # placed values keep their labels; the unplaced ones, exactly
            # rest, are bounded below by the next free label k+1
            trans = bytes.maketrans(bytes(order), new_labels[:k + 1]
                                    + bytes([k + 1]) * len(rest) + bytes([n - 1]))
            placed, unplaced = bytes(order[:k + 1] + [one]), bytes(rest)
            rows: list[bytes] = []
            # how the bounds compare with best and with the least sibling:
            # 0 while they tie, then -1 or 1 as they fall below or rise above
            to_best, to_least = (0 if incumbent else -1), (0 if least else -1)
            for o in order[first:k + 1]:
                row = _row_bound(bytes(gather(plus[o])), k + 1, trans, placed, unplaced)
                r = len(rows)
                rows.append(row)
                if to_best == 0:
                    to_best = (row > incumbent[r]) - (row < incumbent[r])
                if to_least == 0:
                    to_least = (row > least[r]) - (row < least[r])
                # above best, the child is pruned; below best but above the
                # least sibling, it is tried after that sibling, whatever
                # its later rows
                if to_best > 0 or to_best < 0 < to_least:
                    break
            if to_best <= 0:
                if to_least < 0:
                    least = rows
                children.append((rows, c))
        children.sort()
        for rows, c in children:
            # best may have improved since the child's bounds were compared
            if not best or rows <= best[first:first + len(rows)]:
                old.append(c)
                descend([u for u in left if u != c])
                old.pop()

    descend([i for i in range(n) if i not in (alg.zero, one)])
    return CanonicalForm(bytes([n, 0, n - 1]) + b"".join(best))


def _row_bound(row: bytes, k: int, trans: bytes, placed: bytes, unplaced: bytes) -> bytes:
    """A lower bound on the image of a row whose element has a label.

    Labels 0..k-1 and n-1 are placed, and row is gathered in the node's
    order: the placed columns, the columns of the unplaced elements in the
    order `unplaced`, then column n-1.  trans maps each placed value to its
    label and each unplaced one to k, the least label it can get; that
    bounds the placed columns and column n-1.

    The unplaced columns may still come in any order, so their entries are
    bounded as a whole, least first.  Placed values keep their labels: those
    below k come first and n-1 comes last.  Between them, an unplaced value
    v reads its label f(v) >= k on every entry that holds it.  Where v also
    stands in v's own column, f(v) is the position of that entry, so v is
    opened at the first position p that no lesser value fills, and its other
    entries read p; the most frequent such value is opened first.  The other
    unplaced values take k, k+1, ... in order of decreasing multiplicity,
    which puts the most entries on the least labels.
    """
    n = len(row)
    middle = row[k:n - 1]
    known = bytes(sorted(middle.translate(trans, unplaced)))
    low = len(known) - known.count(n - 1)
    values = middle.translate(None, placed)
    own = {v for v, u in zip(middle, unplaced) if v == u}
    counts = {v: values.count(v) for v in set(values)}
    opened = sorted(m for v, m in counts.items() if v in own)
    # the labels of the other values, greatest first, so the least is
    # popped; a value is opened at p only when no label left is below p,
    # so its other entries, reading p, join at the end
    pending = [k + i for i, m in enumerate(sorted(
        (m for v, m in counts.items() if v not in own), reverse=True)) for _ in range(m)][::-1]
    out = bytearray()
    for p in range(k + low, k + low + len(values)):
        if opened and (not pending or pending[-1] >= p):
            out.append(p)
            pending += [p] * (opened.pop() - 1)
        else:
            out.append(pending.pop())
    return (row[:k].translate(trans) + known[:low] + out + known[low:]
            + row[n - 1:].translate(trans))


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


def _antitone_involutions(P: list[list[int]], bottom: int, top: int) -> list[tuple[int, ...]]:
    """Involutions of the interval [bottom, top] of the order P induces that
    reverse it, sorted; each is a vector of length n fixing every element
    outside the interval."""
    n = len(P)
    inside = [x for x in range(n) if P[bottom][x] == x and P[x][top] == top]
    below = [(a, b) for a in inside for b in inside if P[a][b] == b]
    vec = list(range(n))
    vec[bottom], vec[top] = top, bottom
    out: list[tuple[int, ...]] = []

    def pair(unpaired: list[int]) -> None:
        if not unpaired:
            if all(P[vec[b]][vec[a]] == vec[a] for a, b in below):
                out.append(tuple(vec))
            return
        head, rest = unpaired[0], unpaired[1:]
        for partner in unpaired:
            vec[head], vec[partner] = partner, head
            pair([v for v in rest if v != partner])

    pair([x for x in inside if x not in (bottom, top)])
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
        # the last plus table whose inrs columns _times_phase found, and their lists
        self.inrs_columns: tuple[object, list[list[tuple[int, ...]]]] = (None, [])
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
        for alpha in _antitone_involutions(P, 0, self.n - 1):
            vec = (bytes(alpha),)
            fixed = _least(vec, ((vec, r) for r in autos))
            if fixed is not None:
                self._enter()
                self._times_phase(P, alpha, fixed, autos)

    def _times_phase(self, P: list[list[int]], alpha: tuple[int, ...],
                     autos: list[_Relabelling], plus_autos: list[_Relabelling]) -> None:
        """Every times table under the root (P, alpha); autos is Aut(P, alpha)
        and plus_autos is Aut(P), both without the identity.

        Column w of a table is the map x -> x*w, and the axioms of each class
        constrain one column at a time, so a table is one choice per middle w
        from columns[w - 1] (module docstring)."""
        n = self.n
        if self.cls == INRS:
            # an inrs column never reads alpha: its list is found once per P
            if self.inrs_columns[0] is not P:
                self.inrs_columns = P, [self._join_maps(P, w) for w in self.mid]
            columns = self.inrs_columns[1]
        else:
            # x*w = alpha(sigma_y(x + y)) with y = alpha(w), so sigma_y
            # decides column w alone: one column per choice of sigma_y
            columns = [[tuple(alpha[s[row[alpha[w]]]] for row in P)
                        for s in _antitone_involutions(P, alpha[w], n - 1)] for w in self.mid]
        if not all(columns):
            return
        cols = [(0,) * n, *(None for _ in self.mid), tuple(range(n))]
        emit = self._emitter(P, alpha, autos, plus_autos)

        def choose(w: int) -> None:
            if w == n - 1:
                T = list(zip(*cols))
                # luk-rs: a commutative basic algebra is an MV-algebra
                if self.cls != LUK_RS or T == cols:
                    emit(T)
                return
            for col in columns[w - 1]:
                self._enter()
                cols[w] = col
                choose(w + 1)

        choose(1)

    def _join_maps(self, P: list[list[int]], z: int) -> list[tuple[int, ...]]:
        """Every column x -> x*z of an inrs on the plus table P, in
        lexicographic order: the maps f with f(0) = 0 and f(n-1) = z, by (iv)
        and (ii), that preserve joins, f(a + b) = f(a) + f(b), which is left
        distributivity at z.  Each value tried for a middle cell is a node."""
        n = self.n
        # the instances a < b (a = 0 and a = b are trivial), each checked at
        # the last middle cell of a, b and a + b that the backtrack sets
        last: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for a in self.mid:
            for b in range(a + 1, n):
                s = P[a][b]
                last[max(x for x in (a, b, s) if x != n - 1)].append((a, b, s))
        f = [0, *(None for _ in self.mid), z]
        out: list[tuple[int, ...]] = []

        def fill(x: int) -> None:
            if x == n - 1:
                out.append(tuple(f))
                return
            for v in range(n):
                self._enter()
                f[x] = v
                if all(f[s] == P[f[a]][f[b]] for a, b, s in last[x]):
                    fill(x + 1)

        fill(1)
        return out

    def _emitter(self, P: list[list[int]], alpha: tuple[int, ...], autos: list[_Relabelling],
                 plus_autos: list[_Relabelling]) -> Callable[[Sequence[tuple[int, ...]]], None]:
        """emit(T), which keeps the times table T, given as row tuples, under
        the root (P, alpha) if no relabelling in autos = Aut(P, alpha) makes
        it smaller."""
        n = self.n
        vec = (bytes(alpha),)
        # a search meets few distinct rows, so the models it keeps share them
        row = self.rows.setdefault
        plus = tuple(row(r, r) for r in map(tuple, P))
        # P is least of its relabellings, so the canonical form is P followed
        # by the least (times, alpha) over Aut(P) (module docstring)
        prefix = bytes([n, 0, n - 1]) + b"".join(map(bytes, P))
        # the root's first model is checked in full; the others share its
        # checked plus table, alpha and constants, and only their times
        # tables are checked again
        first: Optional[FiniteAlgebra] = None

        def emit(T: Sequence[tuple[int, ...]]) -> None:
            nonlocal first
            rows = tuple(map(bytes, T))
            if autos and _least(rows, ((g(rows), (g, t)) for g, t in autos)) is None:
                return      # its least relabelling is another leaf of this root
            rest = [*rows, *vec]
            for g, t in plus_autos:
                if _compare(g(rows) + vec, rest, g, t) < 0:
                    rest = _image(g(rows) + vec, g, t)
            times = tuple(map(row, T, T))
            if first is None:
                alg = first = FiniteAlgebra(n, plus, times, alpha, 0, n - 1)
            else:
                alg = first.with_times(times)
            self.found[prefix + b"".join(rest)] = alg

        return emit


def enumerate_algebras(task: EnumerationTask) -> tuple[FiniteAlgebra, ...]:
    """All models of the class at the given size, one per isomorphism type.

    The multiplication table is chosen column by column, from the
    join-preserving maps (inrs) or from section involutions (luk-*), once
    per orbit root (plus, alpha), and leaves are
    deduplicated under Aut(plus, alpha); each model is the least copy on
    the least root of its orbit.  Output is sorted by canonical
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
