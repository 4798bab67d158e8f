"""Exhaustive enumeration of the table models up to isomorphism.

Search order: bounded join-semilattice tables first (few at small sizes),
then antitone involutions alpha of the induced order, then the
multiplication table.  A finite bounded join-semilattice is a lattice, so
the plus tables are the bounded lattices, and they are generated up to
isomorphism, one size at a time, by adding an atom (as in Heitzig and
Reinhold, "Counting finite lattices", Algebra Universalis 48, 2002):

  - every lattice L of at least 3 elements has an atom a, and L - {a} is a
    lattice with the same 0 and 1: the join of two elements other than a
    is never a, since only 0 lies below a;
  - conversely, let K be a lattice and U an up-set of K - {0} that holds 1,
    that is, a union of principal up-sets of elements other than 0.
    Adding a new element a with 0 < a < u for every u in U gives a lattice
    iff, for every y not in U with y != 0, U meets the up-set of y in a
    least element; that element is a + y, the c whose up-set is that
    intersection;
  - so the children of one table per isomorphism class of size m-1 reach
    every lattice of size m, and keeping one per class again (the least
    relabelling of each child, below) gives one table per lattice.

The multiplication table is chosen one column at a time.  Column w is the
map x -> x*w.  Axioms (ii) and (iv) fix columns 0 and n-1 and the entries
0*w = 0 and 1*w = w, and the other axioms of each class constrain one
column at a time, so the tables of a root are the product of one list of
columns per middle w; each table of that product is one node.  For an inrs,
left distributivity (x+y)*w = x*w + y*w says that column w preserves joins:
its list is every map f with f(0) = 0, f(n-1) = w and f(a+b) = f(a) + f(b),
found by a small backtrack over the middle cells that checks each instance
once its cells are set, each value tried a node.  These lists never read
alpha, so they are found once per plus table.  A luk-* column is built, not
searched.  Finite basic algebras, term equivalent to the luk-nrs models,
correspond one to one with bounded lattices that carry an antitone
involution sigma_y on every section [y, 1] (Chajda, Halas and Kuhr,
Semilattice Structures, 2007), with sigma_0 = alpha and sigma_1 the
identity.  With x (+) y = sigma_y(alpha(x) + y) and x*y = alpha(alpha(x)
(+) alpha(y)), as in mv.from_mv, column w of the times table is x*w =
alpha(sigma_y(x + y)) for y = alpha(w).  So each root (P, alpha) has one
luk-nrs table per choice of the sigma_y, y a middle element.  luk-rs keeps
the commutative ones: a finite commutative basic algebra is an MV-algebra
(Botur and Halas, 2008).

Isomorphic copies are never searched twice.  The relabellings are the
permutations fixing 0 and n-1, and tables are compared in the search's own
order (row by row, which for a plus table is the order of its free cells).
Each isomorph test is one scan (_orbit) for the least image and the
relabellings that reach it (McKay, "Isomorph-free exhaustive generation",
1998).  Each child lattice C is reduced to its least relabelling P, and the
children of one size are deduplicated on that form; the scan tries only
the relabellings that put a middle with the largest down-set at label 1
and the middles below it next, as every least image does (_lattices).
The relabellings taking C to P are the coset s0.Aut(C) of the first, s0,
so with s0 undone they are Aut(P).  An antitone involution alpha is kept
only if it is the least of its conjugates under Aut(P), which also yields
Aut(P, alpha).  The involution builder pairs two elements only when their
down-set and up-set counts are swapped (_antitone_involutions).
Each kept pair is one root per orbit of (P, alpha), and the times phase
runs from the roots alone.  Inside a root a leaf is kept only if its times
table is the least of its relabellings under Aut(P, alpha), so every model
is kept once, as the least copy on the least root of its orbit.

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
tables, (vi) by the involution builder, associativity of + by the lattice
generator, (iii) of an inrs by its column lists, and every luk-* axiom by
the correspondence above.  Nor is a leaf's times table checked as the
constructor checks one: each column of a root is checked once as a vector
of n values in [0, n), and only the root's first model goes through the
constructor.

So a node is a lattice child, a kept root, a value tried for a join-map
cell or a times table, and the node cap bounds their total.  The isomorph
scans are not nodes: the size refusal of EnumerationTask bounds the
longest of them.

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
from .core import AlgebraError, FiniteAlgebra, _as_vector

DEFAULT_MAX_NODES = 5_000_000


@dataclass(frozen=True)
class EnumerationTask:
    size: int
    algebra_class: str = LUK_NRS
    max_nodes: int = DEFAULT_MAX_NODES
    # perfbench/workloads.py passes threads=1, its one caller; the field goes
    # once that benchmark stops passing it
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
        # each lattice child of size n is compared once with the relabellings
        # that can reach its least image (_lattices), all (n-2)! of them for
        # the child whose middles are all atoms: refuse a task for which
        # that one scan costs more steps than its whole node budget; k!
        # stops growing once it passes the cap, and only a finished (n-2)!
        # is printed
        orders, k = 1, 1
        while orders <= self.max_nodes and k < self.size - 2:
            k += 1
            orders *= k
        if orders > self.max_nodes:
            value = f" = {orders}" if k == self.size - 2 else ""
            raise ValueError(f"size {self.size} needs {self.size - 2}!{value} relabellings "
                             f"per lattice child, more than the node cap of {self.max_nodes}")


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


def _relabelling(old: bytes) -> _Relabelling:
    """The relabelling with order old (new label k -> old label old[k]) as
    (gather, trans): an image's rows and columns are gathered, then its
    labels translated."""
    return itemgetter(*old), bytes.maketrans(old, bytes(range(len(old))))


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


def _orbit(base: Sequence[bytes], offered: Iterable[tuple[Sequence[bytes], itemgetter, bytes]],
           fixing: int) -> Optional[tuple[Sequence[bytes], list[_Relabelling]]]:
    """The least of base and its offered images, with the relabellings
    (gather, trans) whose image is that least, in the order offered; None
    if one of the first `fixing` relabellings makes an image smaller than
    base.  Each offered item is (sources, gather, trans), whose image
    _compare reads."""
    least, ties = base, []
    for position, (sources, gather, trans) in enumerate(offered):
        order = _compare(sources, least, gather, trans)
        if order < 0:
            if position < fixing:
                return None
            least, ties = _image(sources, gather, trans), [(gather, trans)]
        elif order == 0:
            ties.append((gather, trans))
    return least, ties


# -- the backtracking search ------------------------------------------------


def _children(K: tuple[bytes, ...], enter: Callable[[], None]) -> Iterable[tuple[bytes, ...]]:
    """The join tables of K with one new atom a, one per admissible up-set U
    of K - {0} holding 1 (module docstring); each child built is a node.

    The up-sets of K - {0} that hold 1 are the nonempty unions of the
    principal up-sets up[x], x != 0: such a union is an up-set holding 1,
    and an up-set U is the union of up[u] over u in U.  U meets up[y] in an
    up-set, which has a least element c iff it equals up[c], so a + y is
    the c with up[c] = U & up[y], one lookup, and U is admissible iff no
    lookup misses.  The up-sets are taken in ascending mask order.

    A child keeps 0 at index 0, puts a at 1 and moves every other x of K
    to x + 1, so K's top k-1 becomes k."""
    k = len(K)
    up = [sum(1 << y for y in range(k) if K[x][y] == y) for x in range(k)]
    least = {u: c for c, u in enumerate(up)}
    shift = bytes.maketrans(bytes(range(k)), bytes([0, *range(2, k + 1)]))
    first = bytes(range(k + 1))
    rows = [K[x].translate(shift) for x in range(1, k)]
    ups = {up[k - 1]}
    for u in up[1:]:
        ups |= {U | u for U in ups}
    for U in sorted(ups):
        joins = [least.get(U & u) for u in up[1:]]     # a + y for y = 1..k-1
        if None not in joins:
            enter()
            joins = bytes(joins).translate(shift)
            yield (first, bytes([1, 1, *joins]),
                   *(row[:1] + bytes([j]) + row[1:] for row, j in zip(rows, joins)))


def _lattices(n: int, enter: Callable[[], None]
              ) -> Iterable[list[tuple[tuple[bytes, ...], list[_Relabelling]]]]:
    """The bounded lattices of 2, 3, ..., n elements up to isomorphism, one
    size at a time, in increasing order: the join table P of each, least of
    its relabellings, and Aut(P) but the identity, as relabellings.  Those of
    size m are the least forms of the children of those of size m-1 (module
    docstring); each child built is a node.

    A child C is compared only with the relabellings that can reach its
    least image.  Row 0 of every image is 0, 1, ..., m-1, as 0 + x = x, so
    images first differ at row 1.  With x_k the element given label k, row 1
    reads 1 at positions 0 and 1, m-1 at position m-1, and at each j in
    2..m-2 it reads 1 if x_j <= x_1 (then x_1 + x_j = x_1) and at least 2
    otherwise (x_1 + x_j is then neither 0 nor x_1).  So row 1 is less the
    more 1s it starts with after position 1, and it starts with at most
    d(x_1) - 2 of them, d(x) = |down-set of x| = C[x].count(x), exactly
    when the middles below x_1 take labels 2..d(x_1)-1.  The least row 1
    thus has D - 2 such 1s, D the largest d(x) over the middles, and an
    order ties it iff x_1 is a middle with d(x_1) = D and labels 2..D-1 go
    to the middles below x_1.  So the scan tries each such x_1, the middles
    below it in every order, then the other middles in every order.  Every
    order that reaches the least image is among them, so its ties are the
    same coset s0.Aut(C) that a scan of all (m-2)! relabellings finds, and
    Aut(P) is unchanged.  Only a child whose middles are all atoms (D = 2)
    still needs all (m-2)! orders.  They are offered to the scan one at a
    time, never held as a list.
    """
    level = [((b"\x00\x01", b"\x01\x01"), [])]
    yield level
    for m in range(3, n + 1):
        labels = bytes(range(m))
        middles = labels[1:-1]
        forms: dict[tuple[bytes, ...], list[_Relabelling]] = {}
        for K, _ in level:
            for C in _children(K, enter):
                # d(x) for each middle x, and the orders that can reach the least image
                down = [C[x].count(x) for x in middles]
                most = max(down)
                orders = (bytes((0, x, *a, *b, m - 1))
                          for x, d in zip(middles, down) if d == most
                          for a, b in itertools.product(
                              itertools.permutations([y for y in middles
                                                      if y != x and C[x][y] == x]),
                              itertools.permutations([y for y in middles if C[x][y] != x])))
                # row 0 of every image is 0, 1, ..., m-1: start at row 1
                least, ties = _orbit(C[1:], ((g(C)[1:], g, t)
                                             for g, t in map(_relabelling, orders)), 0)
                P = (C[0], *least)
                if P not in forms:
                    # the ties are the coset s0.Aut(C) of the first, s0: Aut(P) holds
                    # s.s0^-1 for each later tie s, the order of s translated by s0
                    (_, s0), *others = ties
                    forms[P] = [_relabelling(bytes(g(labels)).translate(s0)) for g, _ in others]
        level = sorted(forms.items())
        yield level


def _antitone_involutions(P: Sequence[Sequence[int]], bottom: int, top: int
                          ) -> list[tuple[int, ...]]:
    """Involutions of the interval [bottom, top] of the order P induces that
    reverse it, sorted; each is a vector of length n fixing every element
    outside the interval.

    Such a sigma is an order anti-automorphism of the interval I: a <= b
    gives sigma(b) <= sigma(a), and applying sigma again gives the converse.
    So sigma maps the down-set of x in I onto the up-set of sigma(x) in I
    and the up-set of x onto the down-set of sigma(x): x can be paired with
    y only if y's (below, above) counts in I are x's swapped, and be fixed
    only if its two counts are equal.  Each complete pairing is still
    checked to reverse every pair a <= b.
    """
    n = len(P)
    inside = [x for x in range(n) if P[bottom][x] == x and P[x][top] == top]
    below = [(a, b) for a in inside for b in inside if P[a][b] == b]
    # x: [|{a in I: a <= x}|, |{b in I: x <= b}|]
    shape = {x: [0, 0] for x in inside}
    for a, b in below:
        shape[b][0] += 1
        shape[a][1] += 1
    vec = list(range(n))
    vec[bottom], vec[top] = top, bottom
    out: list[tuple[int, ...]] = []

    def pair(unpaired: list[int]) -> None:
        if not unpaired:
            if all(P[vec[b]][vec[a]] == vec[a] for a, b in below):
                out.append(tuple(vec))
            return
        head, rest = unpaired[0], unpaired[1:]
        dual = shape[head][::-1]
        for partner in unpaired:
            if shape[partner] == dual:
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
        self.mid = list(range(1, self.n - 1))

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
        for roots in _lattices(n, self._enter):
            pass        # the last size is n; each size is dropped once the next is built
        for P, autos in roots:
            self._alpha_phase(P, autos)
        return self._results()

    def _alpha_phase(self, P: Sequence[Sequence[int]], autos: list[_Relabelling]) -> None:
        """The roots on P, each involution least among its conjugates under
        Aut(P); autos is Aut(P) but the identity."""
        n, sources = self.n, None
        for alpha in _antitone_involutions(P, 0, n - 1):
            vec = (bytes(alpha),)
            orbit = _orbit(vec, ((vec, g, t) for g, t in autos), len(autos))
            if orbit is None:
                continue
            self._enter()
            if sources is None:
                # what the columns read of P alone: the inrs column lists,
                # or the luk-* section involutions sigma_y for each middle y
                sources = ([self._join_maps(P, w) for w in self.mid] if self.cls == INRS
                           else [_antitone_involutions(P, y, n - 1) for y in self.mid])
            fixed = set(orbit[1])
            self._times_phase(P, alpha, sources, orbit[1] + [r for r in autos if r not in fixed],
                              len(fixed))

    def _times_phase(self, P: Sequence[Sequence[int]], alpha: tuple[int, ...],
                     sources: list, autos: list[_Relabelling], fixing: int) -> None:
        """Every times table under the root (P, alpha), from the sources of
        P's columns; autos is Aut(P) but the identity, its first `fixing`
        relabellings Aut(P, alpha).

        Column w of a table is the map x -> x*w, and the axioms of each class
        constrain one column at a time, so the tables are the product of the
        lists columns[w - 1], w a middle, each table one node (module
        docstring)."""
        n = self.n
        # luk-*: x*w = alpha(sigma_y(x + y)) with y = alpha(w), so sigma_y
        # decides column w alone: one column per choice of sigma_y
        columns = sources if self.cls == INRS else [
            [tuple(alpha[s[row[alpha[w]]]] for row in P) for s in sources[alpha[w] - 1]]
            for w in self.mid]
        # each table below is n tuples of n ints in [0, n), its columns
        # taken from these lists, so the models past the root's first are
        # built without a check of their own (emit)
        columns = [[_as_vector(col, n, "column") for col in cs] for cs in columns]
        emit = self._emitter(P, alpha, autos, fixing)
        for choice in itertools.product(*columns):
            self._enter()
            cols = ((0,) * n, *choice, tuple(range(n)))
            T = tuple(zip(*cols))
            # luk-rs: a commutative basic algebra is an MV-algebra
            if self.cls != LUK_RS or T == cols:
                emit(T)

    def _join_maps(self, P: Sequence[Sequence[int]], z: int) -> list[tuple[int, ...]]:
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

    def _emitter(self, P: Sequence[Sequence[int]], alpha: tuple[int, ...],
                 autos: list[_Relabelling], fixing: int
                 ) -> Callable[[Sequence[tuple[int, ...]]], None]:
        """emit(T), which keeps the times table T, given as row tuples, under
        the root (P, alpha) if no sigma in Aut(P, alpha), the first `fixing`
        of autos, makes it smaller, and finds the least (T, alpha) over Aut(P)
        in the same scan: sigma fixes alpha, so (T, alpha) is the least until
        an image is smaller, and one smaller under sigma means sigma(T) < T."""
        n = self.n
        vec = (bytes(alpha),)
        # a search meets few distinct rows, so the models it keeps share them
        row = self.rows.setdefault
        plus = tuple(row(r, r) for r in map(tuple, P))
        # P is least of its relabellings, so the canonical form is P followed
        # by the least (times, alpha) over Aut(P) (module docstring)
        prefix = bytes([n, 0, n - 1]) + b"".join(map(bytes, P))
        # the root's first model is checked in full; the others share its
        # checked plus table, alpha and constants, and their times tables
        # are built from the columns _times_phase checked
        first: Optional[FiniteAlgebra] = None

        def emit(T: Sequence[tuple[int, ...]]) -> None:
            nonlocal first
            rows = tuple(map(bytes, T))
            rest = (*rows, *vec)
            if autos:
                orbit = _orbit(rest, ((g(rows) + vec, g, t) for g, t in autos), fixing)
                if orbit is None:
                    return      # its least relabelling is another leaf of this root
                rest = orbit[0]
            times = tuple(map(row, T, T))
            if first is None:
                alg = first = FiniteAlgebra(n, plus, times, alpha, 0, n - 1)
            else:
                alg = first._with_times(times)
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
