"""Congruence machinery: principal congruences, Con(A), permutability checks.

Principal congruences are computed by a union-find fixpoint (merge a pair,
then merge the images of every basic translation of the merged pair until
stable).  The unary-polynomial pair closure is computed independently as the
subalgebra of A x A generated by the pair together with the diagonal; the two
routes are compared rather than assumed to agree.

The kernels K[x] = Cg(x, 0) are computed once per algebra (kernel) and shared
by Con(A), principal ideals and semantic centrality.  On a Lukasiewicz near
semiring they generate Con(A): with the difference term s(x, y) = x^a * y,
Cg(a, b) = Cg(s(a, b), 0) v Cg(s(b, a), 0), so n kernels replace the
n(n-1)/2 principal pairs.  The identity fails on some inrs tables, so
all_congruences uses the kernels only where classify finds luk-nrs or above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .axioms import LUK_NRS, LUK_RS, CheckOutcome, check_identity, classify
from .core import FiniteAlgebra, SizeLimitError, per_algebra
from .terms import ZERO, difference_s, malcev_p, x, y

DEFAULT_MAX_UNIVERSE = 256


def _find(parent: list[int], u: int) -> int:
    """Union-find root of u, halving the path on the way."""
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u


@dataclass(frozen=True)
class Partition:
    """An equivalence relation in canonical block form.

    Blocks are sorted internally and listed by least element, so equal
    relations compare equal and hash equal.
    """

    size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            for v in block:
                if v in seen:
                    raise ValueError(f"element {v} appears in two blocks")
                seen.add(v)
        if seen != set(range(self.size)):
            raise ValueError("blocks do not cover the universe exactly")
        canonical = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        object.__setattr__(self, "blocks", canonical)

    # -- constructors ---------------------------------------------------

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(n, tuple((i,) for i in range(n)))

    @classmethod
    def full(cls, n: int) -> "Partition":
        return cls(n, (tuple(range(n)),))

    @classmethod
    def from_parent(cls, parent: list[int]) -> "Partition":
        n = len(parent)
        groups: dict[int, list[int]] = {}
        for v in range(n):
            groups.setdefault(_find(parent, v), []).append(v)
        return cls(n, tuple(tuple(g) for g in groups.values()))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        parent = list(range(n))
        for a, b in pairs:
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[rb] = ra
        return cls.from_parent(parent)

    # -- structure ------------------------------------------------------

    @cached_property
    def block_index(self) -> tuple[int, ...]:
        idx = [0] * self.size
        for i, block in enumerate(self.blocks):
            for v in block:
                idx[v] = i
        return tuple(idx)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def same(self, a: int, b: int) -> bool:
        return self.block_index[a] == self.block_index[b]

    def block_of(self, a: int) -> tuple[int, ...]:
        return self.blocks[self.block_index[a]]

    def is_discrete(self) -> bool:
        return self.num_blocks == self.size

    def is_full(self) -> bool:
        return self.num_blocks == 1

    # -- lattice operations ----------------------------------------------

    def meet(self, other: "Partition") -> "Partition":
        groups: dict[tuple[int, int], list[int]] = {}
        for v in range(self.size):
            groups.setdefault((self.block_index[v], other.block_index[v]), []).append(v)
        return Partition(self.size, tuple(tuple(g) for g in groups.values()))

    def join(self, other: "Partition") -> "Partition":
        links = [(b[0], v) for b in self.blocks for v in b[1:]]
        links += [(b[0], v) for b in other.blocks for v in b[1:]]
        return Partition.from_pairs(self.size, links)

    def refines(self, other: "Partition") -> bool:
        return all(other.same(b[0], v) for b in self.blocks for v in b[1:])

    # -- relational views --------------------------------------------------

    def compose(self, other: "Partition") -> frozenset[tuple[int, int]]:
        """Relation composition self;other = {(a,c) : exists b, a self b other c}."""
        out: set[tuple[int, int]] = set()
        for block in self.blocks:
            reach: set[int] = set()
            for b in block:
                reach.update(other.block_of(b))
            out.update((a, c) for a in block for c in reach)
        return frozenset(out)

    def permutes_with(self, other: "Partition") -> bool:
        return self.compose(other) == other.compose(self)

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


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Least congruence merging a and b, by union-find fixpoint."""
    n = alg.size
    parent = list(range(n))
    pending: list[tuple[int, int]] = []

    def union(u: int, v: int) -> None:
        ru, rv = _find(parent, u), _find(parent, v)
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


@dataclass(frozen=True)
class PairSet:
    """A set of ordered pairs: the unary-polynomial orbit of a generating pair."""

    size: int
    pairs: frozenset[tuple[int, int]]

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def is_symmetric(self) -> bool:
        return all((b, a) in self.pairs for a, b in self.pairs)

    def is_transitive(self) -> bool:
        by_first: dict[int, set[int]] = {}
        for a, b in self.pairs:
            by_first.setdefault(a, set()).add(b)
        return all(c in by_first.get(a, ())
                   for a, b in self.pairs for c in by_first.get(b, ()))

    def equivalence_closure(self) -> Partition:
        return Partition.from_pairs(self.size, self.pairs)


def polynomial_pairs(alg: FiniteAlgebra, a: int, b: int) -> PairSet:
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
    return PairSet(n, frozenset(pairs))


@per_algebra
def _kernel_slots(alg: FiniteAlgebra) -> list[Optional[Partition]]:
    return [None] * alg.size


def kernel(alg: FiniteAlgebra, x: int) -> Partition:
    """K[x] = Cg(x, 0), computed once per element and kept on the algebra instance.

    A plain principal congruence, so valid on every class.
    """
    ks = _kernel_slots(alg)
    k = ks[x]
    if k is None:
        k = ks[x] = principal_congruence(alg, x, alg.zero)
    return k


def all_congruences(alg: FiniteAlgebra,
                    max_size: int = DEFAULT_MAX_UNIVERSE) -> tuple[Partition, ...]:
    """Complete Con(A): the join closure of a generating set of congruences.

    Every congruence is the join of the principal congruences of its pairs.
    On a table classify places at luk-nrs or above, Cg(a, b) is the join of
    the kernels Cg(s(a, b), 0) and Cg(s(b, a), 0) (s(x, y) = x^a * y), so the
    n kernels generate.  That identity fails on some inrs tables (at n = 4
    already), so every other table is generated by its n(n-1)/2 principal
    pairs.  Includes the diagonal and the full relation; output is
    canonically ordered (finest first).
    """
    n = alg.size
    if n > max_size:
        raise SizeLimitError(f"universe size {n} exceeds the {max_size} limit")
    if classify(alg) in (LUK_NRS, LUK_RS):
        generators = [kernel(alg, a) for a in range(n)]
    else:
        generators = [principal_congruence(alg, a, b)
                      for a in range(n) for b in range(a + 1, n)]

    cons: set[Partition] = {Partition.discrete(n), *generators}
    frontier = list(cons)
    while frontier:
        p = frontier.pop()
        for q in list(cons):
            j = p.join(q)
            if j not in cons:
                cons.add(j)
                frontier.append(j)
    return tuple(sorted(cons, key=partition_sort_key))


@dataclass(frozen=True)
class WernerComparison:
    """Both routes to a principal congruence, side by side."""

    pair_set: PairSet
    principal: Partition
    closure_matches: bool      # equivalence closure of the pair set = principal
    pairs_symmetric: bool
    pairs_transitive: bool

    @property
    def pairs_already_congruence(self) -> bool:
        return self.pairs_symmetric and self.pairs_transitive


def werner_comparison(alg: FiniteAlgebra, a: int, b: int) -> WernerComparison:
    ps = polynomial_pairs(alg, a, b)
    pc = principal_congruence(alg, a, b)
    return WernerComparison(
        pair_set=ps,
        principal=pc,
        closure_matches=ps.equivalence_closure() == pc,
        pairs_symmetric=ps.is_symmetric(),
        pairs_transitive=ps.is_transitive(),
    )


@dataclass(frozen=True)
class MalcevReport:
    """Permutability-term, permutability, 0-regularity and difference-term checks."""

    checks: tuple[CheckOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def outcome(self, name: str) -> CheckOutcome:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def malcev_and_regularity_report(alg: FiniteAlgebra,
                                 congruences: Optional[tuple[Partition, ...]] = None
                                 ) -> MalcevReport:
    """Run all four structure checks, recording failures instead of rejecting.

    On a Lukasiewicz near semiring every check passes; on other inputs the
    report documents what breaks and where.
    """
    checks = [check_identity(alg, "p(x,y,y) = x", malcev_p(x, y, y), x),
              check_identity(alg, "p(x,x,y) = y", malcev_p(x, x, y), y),
              check_identity(alg, "s(x,x) = 0", difference_s(x, x), ZERO),
              check_identity(alg, "s(0,x) = x", difference_s(ZERO, x), x)]
    cons = congruences if congruences is not None else all_congruences(alg)

    bad = next(((p, q) for p, q in itertools.combinations(cons, 2)
                if not p.permutes_with(q)), None)
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
