"""Congruence machinery: principal congruences, Con(A), permutability checks.

Principal congruences are computed by a union-find fixpoint (merge a pair,
then merge the images of every basic translation of the merged pair until
stable); each element's images are one translation row, built once per
algebra, and a merged pair's two rows are zipped.  The unary-polynomial pair
closure (polynomial_pairs) is computed independently as the subalgebra of
A x A generated by the pair together with the diagonal; principal_ideal_report
reads it, and the tests hold its equivalence closure to the fixpoint.

Con(A) and the kernels K[x] = Cg(x, 0) both read one memo per algebra: the
|J| prime quotients P[j] = Cg(j_*, j), where J is the set of join-irreducible
elements of (A, +) and j_* is the unique lower cover of j.  Every inrs
carries the meet term x ^ y = (x^a + y^a)^a of the induced order, so it is a
finite lattice, and the perspectivity argument for finite lattices applies
(Gratzer, The Congruences of a Finite Lattice, 2006; Freese, Computing
congruences efficiently, Algebra Universalis 59, 2008).  The classes of a
congruence are convex, so it is the join of the Cg(c, d) over the covers
c < d it collapses.  For such a cover take j minimal with j <= d and
j not <= c: then j is in J, j ^ c = j_* and j + c = d, so Cg(c, d) = P[j].
Hence Con(A) is the join closure of the P[j] (all_congruences), and
K[x] = V{P[j] : j in J, j <= x} (kernel), since K[j] = P[j] v K[j_*] and
K[x + y] = K[x] v K[y].  Both require an inrs, and Con(A) is built once per
algebra.  For the same reason Con(A) permutes iff the distinct P[j] permute
pairwise (malcev_and_regularity_report).

A Partition is one label vector: labels[v] is the least element of v's
block.  Meet, join, refinement and permutability all read the labels.  Two
equivalences a, b permute iff a;b is an equivalence iff a;b = a v b (Burris
and Sankappanavar, Ch. II), and a;b always lies inside a v b, so
permutes_with compares |a;b| with |a v b| and builds no set of pairs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .axioms import INRS, CheckOutcome, LawReport, Laws, check_laws, require_class
from .core import FiniteAlgebra, check_size, join_irreducibles, per_algebra
from .terms import ZERO, difference_s, malcev_p, x, y


def _find(parent: list[int], u: int) -> int:
    """Union-find root of u, halving the path on the way."""
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u


@dataclass(frozen=True)
class Partition:
    """An equivalence relation on {0..n-1} as a label vector.

    labels[v] is the least element of v's block, so equal relations compare
    equal and hash equal.  ``blocks`` lists each block ascending, blocks by
    least element.

    permutes_with counts pairs instead of composing: a;b lies inside a v b,
    and a;b = b;a iff a;b = a v b.  |a;b| is the sum of |A|*|B| over the
    blocks A of a and B of b that meet; |a v b| is the sum of |J|^2 over
    the blocks J of the join.

    complements counts label pairs: v |-> (a[v], b[v]) is one-to-one iff
    a ^ b is the diagonal, and onto A/a x A/b iff every block of a meets
    every block of b, that is iff a;b is full, which holds iff a v b is full
    and a, b permute.  So a, b are a factor pair iff there are n distinct
    label pairs and n = (blocks of a) * (blocks of b).
    """

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = self.labels
        for v, label in enumerate(labels):
            if not 0 <= label <= v or labels[label] != label:
                raise ValueError(f"labels {labels} do not name each block by its least element")

    # -- constructors ---------------------------------------------------

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(tuple(range(n)))

    @classmethod
    def full(cls, n: int) -> "Partition":
        return cls((0,) * n)

    @classmethod
    def from_parent(cls, parent: list[int]) -> "Partition":
        least: dict[int, int] = {}
        return cls(tuple(least.setdefault(_find(parent, v), v) for v in range(len(parent))))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        parent = list(range(n))
        for a, b in pairs:
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[rb] = ra
        return cls.from_parent(parent)

    # -- structure ------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        groups: dict[int, list[int]] = {}
        for v, label in enumerate(self.labels):
            groups.setdefault(label, []).append(v)
        return tuple(tuple(g) for g in groups.values())

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def same(self, a: int, b: int) -> bool:
        return self.labels[a] == self.labels[b]

    def block_of(self, a: int) -> tuple[int, ...]:
        label = self.labels[a]
        return tuple(v for v, w in enumerate(self.labels) if w == label)

    def is_discrete(self) -> bool:
        return self.num_blocks == self.size

    def is_full(self) -> bool:
        return self.num_blocks == 1

    # -- lattice operations ----------------------------------------------

    def meet(self, other: "Partition") -> "Partition":
        least: dict[tuple[int, int], int] = {}
        return Partition(tuple(least.setdefault(key, v)
                               for v, key in enumerate(zip(self.labels, other.labels))))

    def join(self, other: "Partition") -> "Partition":
        return Partition.from_pairs(
            self.size, itertools.chain(enumerate(self.labels), enumerate(other.labels)))

    def refines(self, other: "Partition") -> bool:
        return all(other.same(v, label) for v, label in enumerate(self.labels))

    def permutes_with(self, other: "Partition") -> bool:
        """self;other = other;self, by counting pairs (see the class docstring)."""
        mine, theirs = Counter(self.labels), Counter(other.labels)
        composed = sum(mine[a] * theirs[b] for a, b in set(zip(self.labels, other.labels)))
        joined = sum(k * k for k in Counter(self.join(other).labels).values())
        return composed == joined

    def complements(self, other: "Partition") -> bool:
        """self and other are a complementary factor pair of the set: their
        meet is the diagonal, their join is full and they permute (see the
        class docstring)."""
        return (self.num_blocks * other.num_blocks == self.size
                and len(set(zip(self.labels, other.labels))) == self.size)

    def congruence_defect(self, alg: FiniteAlgebra) -> Optional[str]:
        """None when the substitution property holds; else a description."""
        for block in self.blocks:
            for a, b in itertools.combinations(block, 2):
                if not self.same(alg.alpha[a], alg.alpha[b]):
                    return f"alpha breaks ({a},{b})"
                for c in range(alg.size):
                    for (name, t) in (("plus", alg.plus), ("times", alg.times)):
                        if not self.same(t[a][c], t[b][c]):
                            return f"{name} breaks ({a},{b}) on the left with {c}"
                        if not self.same(t[c][a], t[c][b]):
                            return f"{name} breaks ({a},{b}) on the right with {c}"
        return None

    def is_congruence(self, alg: FiniteAlgebra) -> bool:
        return self.congruence_defect(alg) is None


def partition_sort_key(p: Partition):
    """Canonical report order: finer partitions first, then lexicographic."""
    return (-p.num_blocks, p.blocks)


@per_algebra
def _translation_rows(alg: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """Row c lists the images of c under every basic translation: row c of
    + and *, column c of + and *, then c^a."""
    plus_t, times_t = zip(*alg.plus), zip(*alg.times)
    return tuple((*p, *pt, *t, *tt, a) for p, pt, t, tt, a
                 in zip(alg.plus, plus_t, alg.times, times_t, alg.alpha))


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Least congruence merging a and b, by union-find fixpoint.

    Each merge of two roots r, s queues (r, s); a queued pair's translation
    rows are zipped, and every differing pair of images is merged in turn.
    The merged pairs generate the relation, so it is closed under every
    basic translation, hence under the operations.
    """
    rows = _translation_rows(alg)
    parent = list(range(alg.size))
    pending: list[tuple[int, int]] = []
    if a != b:
        parent[b] = a
        pending.append((a, b))
    while pending:
        c, d = pending.pop()
        for u, v in zip(rows[c], rows[d]):
            if u != v:
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                if u != v:
                    parent[v] = u
                    pending.append((u, v))
    return Partition.from_parent(parent)


def polynomial_pairs(alg: FiniteAlgebra, a: int, b: int) -> frozenset[tuple[int, int]]:
    """Closure of {(a,b)} plus the diagonal under componentwise +, ., alpha.

    This is the subalgebra of A x A generated by (a,b) and the diagonal,
    i.e. exactly {(p(a), p(b)) : p a unary polynomial of A}.
    """
    n = alg.size
    pairs: set[tuple[int, int]] = {(e, e) for e in range(n)}
    pairs.add((a, b))
    work: list[tuple[int, int]] = sorted(pairs)

    def add(c: int, d: int) -> None:
        if (c, d) not in pairs:
            pairs.add((c, d))
            work.append((c, d))

    while work:
        c, d = work.pop()
        add(alg.alpha[c], alg.alpha[d])
        for e, f in list(pairs):
            add(alg.plus[c][e], alg.plus[d][f])
            add(alg.plus[e][c], alg.plus[f][d])
            add(alg.times[c][e], alg.times[d][f])
            add(alg.times[e][c], alg.times[f][d])
    return frozenset(pairs)


@per_algebra
def prime_quotients(alg: FiniteAlgebra) -> dict[int, Partition]:
    """{j: P[j]} with P[j] = Cg(j_*, j) for every j in J, the only principal
    congruence fixpoints behind Con(A) and the kernels.  Requires an inrs."""
    require_class(alg, INRS, "congruences")
    return {j: principal_congruence(alg, lower, j)
            for j, lower in join_irreducibles(alg).items()}


@per_algebra
def _kernel_slots(alg: FiniteAlgebra) -> list[Optional[Partition]]:
    return [None] * alg.size


def kernel(alg: FiniteAlgebra, x: int) -> Partition:
    """K[x] = Cg(x, 0): the join of the prime quotients P[j] with j in J below
    x, one union-find pass over their labels, kept per element on the algebra
    instance; K[0] is discrete.  Modulo K[j], j_* = j_* ^ j = j_* ^ 0 = 0, so
    K[j] = P[j] v K[j_*]; modulo K[x + y], x = x ^ (x + y) = x ^ 0 = 0, and
    modulo K[x] v K[y], x + y = 0, so K[x + y] = K[x] v K[y].  Requires an inrs.
    """
    ks = _kernel_slots(alg)
    k = ks[x]
    if k is None:
        P = alg.plus
        k = ks[x] = Partition.from_pairs(alg.size, itertools.chain.from_iterable(
            enumerate(p.labels) for j, p in prime_quotients(alg).items() if P[j][x] == x))
    return k


@per_algebra
def _congruences(alg: FiniteAlgebra) -> tuple[Partition, ...]:
    n = alg.size
    cons = {Partition.discrete(n)}
    for g in dict.fromkeys(prime_quotients(alg).values()):
        cons |= {c.join(g) for c in cons}
    return tuple(sorted(cons, key=partition_sort_key))


def all_congruences(alg: FiniteAlgebra) -> tuple[Partition, ...]:
    """Complete Con(A): the join closure of the prime quotients P[j] = Cg(j_*, j).

    Every congruence is the join of the Cg(c, d) over the covers c < d it
    collapses, because its classes are convex in the lattice order of the
    inrs, and each such Cg(c, d) is the P[j] of the least j in J below d and
    not below c (see the module docstring).  The closure adds one distinct
    P[j] at a time, joining it with every congruence found so far:
    |Con| * m joins for m distinct generators, once per algebra.  Includes
    the diagonal and the full relation; output is canonically ordered
    (finest first).  Requires an inrs, after the size check (core.check_size).
    """
    check_size("universe size", alg.size)
    return _congruences(alg)


#: the Mal'cev term p and the difference term s, each a lone identity
MALCEV_LAWS: Laws = (
    ("p(x,y,y) = x", (("", malcev_p(x, y, y), x),)),
    ("p(x,x,y) = y", (("", malcev_p(x, x, y), y),)),
    ("s(x,x) = 0", (("", difference_s(x, x), ZERO),)),
    ("s(0,x) = x", (("", difference_s(ZERO, x), x),)),
)


#: the Mal'cev report: MALCEV_LAWS, then permutability and 0-regularity
MalcevReport = LawReport


def malcev_and_regularity_report(alg: FiniteAlgebra) -> MalcevReport:
    """Run all four structure checks, recording failures instead of rejecting.

    On a Lukasiewicz near semiring every check passes; on another inrs the
    report documents what breaks and where.  Con(A) requires an inrs.

    Congruences permute pairwise iff the distinct prime quotients do: Con(A)
    is their join closure, and if theta permutes with phi and psi, which
    permute, then theta permutes with phi;psi = phi v psi.  The scan over
    all pairs of Con(A) runs only to name the first pair when they do not.
    """
    checks = list(check_laws(alg, MALCEV_LAWS))
    cons = _congruences(alg)

    bad = None
    if not all(p.permutes_with(q) for p, q in itertools.combinations(
            dict.fromkeys(prime_quotients(alg).values()), 2)):
        bad = next((p, q) for p, q in itertools.combinations(cons, 2)
                   if not p.permutes_with(q))
    checks.append(CheckOutcome(
        "congruences permute", bad is None,
        detail="" if bad is None else
        f"blocks {bad[0].blocks} and {bad[1].blocks} do not permute"))

    kernels: dict[tuple[int, ...], Partition] = {}
    collision = None
    for p in cons:
        k = p.block_of(alg.zero)
        if k in kernels and kernels[k] != p:
            collision = (kernels[k], p)
            break
        kernels[k] = p
    checks.append(CheckOutcome(
        "0-regularity", collision is None,
        detail="" if collision is None else
        f"congruences {collision[0].blocks} and {collision[1].blocks} share the 0-coset"))

    return MalcevReport(tuple(checks))
