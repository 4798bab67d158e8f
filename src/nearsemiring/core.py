"""Finite algebras with operation tables: construction, products, isomorphism search.

An algebra here is a finite universe {0..n-1} together with total tables for
a binary join ``plus``, a binary multiplication ``times``, a unary involution
``alpha`` and two designated constants ``zero`` and ``one``.  Only structural
well-formedness (shapes, index ranges) is enforced at construction; whether
the tables satisfy any axioms is the job of :mod:`nearsemiring.axioms`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache, wraps
from typing import Callable, Iterable, Optional, Sequence, TypeVar

Table = tuple[tuple[int, ...], ...]

DEFAULT_MAX_SIZE = 4096


class AlgebraError(Exception):
    """Structurally malformed algebra data."""


class SizeLimitError(AlgebraError):
    """A construction would exceed the maximum universe size DEFAULT_MAX_SIZE."""


def check_size(what: str, n: int) -> None:
    """The size guard of all_congruences and product, read when they are called."""
    if n > DEFAULT_MAX_SIZE:
        raise SizeLimitError(f"{what} {n} exceeds the {DEFAULT_MAX_SIZE} limit")


def _ints(values: Sequence[int]) -> tuple[int, ...]:
    """The values as a tuple of ints; a tuple of ints is kept, not copied, so
    algebras can share their rows."""
    if type(values) is tuple and set(map(type, values)) <= {int}:
        return values
    return tuple(int(v) for v in values)


@lru_cache(maxsize=16)
def _universe(n: int) -> frozenset[int]:
    """[0, n) as a set: for ints, membership is the same as 0 <= v < n."""
    return frozenset(range(n))


def _as_table(rows: Sequence[Sequence[int]], n: int, what: str) -> Table:
    """The rows as n tuples of n ints in [0, n); a tuple of ints is kept, not copied."""
    rows = tuple(map(tuple, rows))      # tuple(row) is row for a tuple
    # the common case in a few whole-table passes (a call to min or max per
    # row costs more than the loop below at small n): n rows of n ints in range
    flat = itertools.chain.from_iterable
    if (len(rows) == n and set(map(len, rows)) <= {n}
            and set(map(type, flat(rows))) <= {int} and _universe(n).issuperset(flat(rows))):
        return rows
    # otherwise convert row by row and name the first fault
    rows = tuple(map(_ints, rows))
    if len(rows) != n:
        raise AlgebraError(f"{what} must have {n} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise AlgebraError(f"{what} row {i} must have {n} entries, got {len(row)}")
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise AlgebraError(f"{what}[{i}][{j}] = {v} is outside the universe [0, {n})")
    return rows


def _as_vector(vals: Sequence[int], n: int, what: str,
               universe: Optional[int] = None) -> tuple[int, ...]:
    """n values in [0, universe); the universe is [0, n) unless given."""
    vals = _ints(vals)
    if len(vals) != n:
        raise AlgebraError(f"{what} must have {n} entries, got {len(vals)}")
    universe = n if universe is None else universe
    if not _universe(universe).issuperset(vals):
        for i, v in enumerate(vals):
            if not 0 <= v < universe:
                raise AlgebraError(f"{what}[{i}] = {v} is outside the universe [0, {universe})")
    return vals


def _as_names(names: Sequence[str], n: int) -> tuple[str, ...]:
    """n distinct names, none with a "\\n" or "\\r" (a file read with universal
    newlines ends a line at either), so that load reads back what serialize writes."""
    names = tuple(str(s) for s in names)
    if len(names) != n:
        raise AlgebraError(f"names must have {n} entries, got {len(names)}")
    if len(set(names)) < n or any("\n" in s or "\r" in s for s in names):
        bad = next(s for i, s in enumerate(names) if s in names[:i] or "\n" in s or "\r" in s)
        raise AlgebraError(f"name {bad!r} repeats or holds a line break")
    return names


@dataclass(frozen=True)
class FiniteAlgebra:
    """Immutable operation-table algebra over the universe {0..size-1}.

    ``zero`` and ``one`` are explicit designated indices; they are not
    required to sit at positions 0 and n-1 (file round trips preserve
    whatever a document declares).  Values computed from the tables
    (:func:`per_algebra` memos, ``name_to_index``) are kept on the instance
    and left out of pickles and copies.
    """

    size: int
    plus: Table
    times: Table
    alpha: tuple[int, ...]
    zero: int = 0
    one: int = 0
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        n = self.size
        if n < 1:
            raise AlgebraError(f"size must be positive, got {n}")
        object.__setattr__(self, "plus", _as_table(self.plus, n, "plus"))
        object.__setattr__(self, "times", _as_table(self.times, n, "times"))
        object.__setattr__(self, "alpha", _as_vector(self.alpha, n, "alpha"))
        for which, v in (("zero", self.zero), ("one", self.one)):
            if not 0 <= v < n:
                raise AlgebraError(f"{which} = {v} is outside the universe [0, {n})")
        if self.names is not None:
            object.__setattr__(self, "names", _as_names(self.names, n))

    def __getstate__(self) -> dict:
        # fields only: a pickle or a copy computes its own memos; fields(self),
        # not _FIELDS, as mv.MVAlgebra borrows this method for its own fields
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    def with_times(self, times: Sequence[Sequence[int]]) -> "FiniteAlgebra":
        """This algebra with another times table, checked as the constructor
        checks it.  The other fields, which the constructor has checked, are
        shared; memos are not carried over."""
        times = _as_table(times, self.size, "times")
        alg = object.__new__(type(self))
        state, put = self.__dict__, object.__setattr__
        # set in field order, as __init__ does, so the two share one key layout
        for name in _FIELDS:
            put(alg, name, state[name])
        put(alg, "times", times)
        return alg

    # -- display ------------------------------------------------------

    def label(self, x: int) -> str:
        return self.names[x] if self.names is not None else str(x)

    @cached_property
    def name_to_index(self) -> dict[str, int]:
        if self.names is None:
            return {}
        return {s: i for i, s in enumerate(self.names)}

    def __repr__(self) -> str:  # compact; tables are noisy
        return f"<FiniteAlgebra n={self.size} zero={self.zero} one={self.one}>"

    def join_all(self, xs: Iterable[int]) -> int:
        acc = self.zero
        for x in xs:
            acc = self.plus[acc][x]
        return acc

    def same_tables(self, other: "FiniteAlgebra") -> bool:
        """Table-for-table equality, ignoring display names."""
        return (self.size == other.size and self.plus == other.plus
                and self.times == other.times and self.alpha == other.alpha
                and self.zero == other.zero and self.one == other.one)


_FIELDS = tuple(f.name for f in fields(FiniteAlgebra))

_T = TypeVar("_T")


def per_algebra(build: Callable[[FiniteAlgebra], _T]) -> Callable[[FiniteAlgebra], _T]:
    """build(alg), computed once per algebra instance and kept on it.

    The value lives in the instance's ``__dict__`` under a key naming the
    builder, so an equal copy computes its own and a memo lasts as long as
    the algebra.
    """
    key = f"{build.__module__}.{build.__qualname__}"

    @wraps(build)
    def remembered(alg: FiniteAlgebra) -> _T:
        try:
            return alg.__dict__[key]
        except KeyError:
            value = alg.__dict__[key] = build(alg)
            return value

    return remembered


def leq(alg: FiniteAlgebra, a: int, b: int) -> bool:
    """Induced order: a <= b iff a + b = b."""
    return alg.plus[a][b] == b


@per_algebra
def join_irreducibles(alg: FiniteAlgebra) -> dict[int, int]:
    """{j: j_*} for the j != 0 of (A, +) that are not the join j_* of the
    elements strictly below j.

    Meaningful once (A, +) is a semilattice with least element 0 (axiom (i)):
    then j_* is the unique lower cover of j, every x != 0 is the join of the
    j below it, and a map that preserves binary joins is fixed by its values
    on G = J u {0}.  The keys ascend.
    """
    P, z = alg.plus, alg.zero
    out = {}
    for j in range(alg.size):
        below = z
        for v, top in enumerate(P[j]):
            if top == j and v != j:
                below = P[below][v]
        if below != j:
            out[j] = below
    return out


def product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product with componentwise tables.

    Pair (i, j) gets the row-major index i*|b| + j; this indexing is part of
    the interface and is relied on by decomposition checks.  If either factor
    has names, pair (i, j) is named "(a_i,b_j)"; names that hold a comma can
    make two such labels equal, and then the product raises AlgebraError.
    """
    n, m = a.size, b.size
    check_size("product size", n * m)

    def idx(i: int, j: int) -> int:
        return i * m + j

    size = n * m
    plus = [[0] * size for _ in range(size)]
    times = [[0] * size for _ in range(size)]
    alpha = [0] * size
    for i, j in itertools.product(range(n), range(m)):
        p = idx(i, j)
        alpha[p] = idx(a.alpha[i], b.alpha[j])
        for k, l in itertools.product(range(n), range(m)):
            q = idx(k, l)
            plus[p][q] = idx(a.plus[i][k], b.plus[j][l])
            times[p][q] = idx(a.times[i][k], b.times[j][l])
    names = None
    if a.names is not None or b.names is not None:
        names = tuple(f"({a.label(i)},{b.label(j)})"
                      for i in range(n) for j in range(m))
    return FiniteAlgebra(size=size, plus=plus, times=times, alpha=alpha,
                         zero=idx(a.zero, b.zero), one=idx(a.one, b.one),
                         names=names)


@dataclass(frozen=True)
class Homomorphism:
    """A total map between algebras, verified to preserve +, ., alpha, 0, 1.

    Construction raises :class:`AlgebraError` if the map does not preserve
    the operations, so holding a Homomorphism value is itself the proof.
    """

    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]
    bijective: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        src, tgt = self.source, self.target
        m = _as_vector(self.mapping, src.size, "mapping", tgt.size)
        object.__setattr__(self, "mapping", m)
        if m[src.zero] != tgt.zero:
            raise AlgebraError(f"map does not preserve zero: {src.zero} -> {m[src.zero]} != {tgt.zero}")
        if m[src.one] != tgt.one:
            raise AlgebraError(f"map does not preserve one: {src.one} -> {m[src.one]} != {tgt.one}")
        for a in range(src.size):
            if m[src.alpha[a]] != tgt.alpha[m[a]]:
                raise AlgebraError(f"map does not preserve alpha at {a}")
            for b in range(src.size):
                if m[src.plus[a][b]] != tgt.plus[m[a]][m[b]]:
                    raise AlgebraError(f"map does not preserve plus at ({a},{b})")
                if m[src.times[a][b]] != tgt.times[m[a]][m[b]]:
                    raise AlgebraError(f"map does not preserve times at ({a},{b})")
        bij = src.size == tgt.size and len(set(m)) == tgt.size
        object.__setattr__(self, "bijective", bij)

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.size


def projections(a: FiniteAlgebra, b: FiniteAlgebra,
                prod: Optional[FiniteAlgebra] = None) -> tuple[Homomorphism, Homomorphism]:
    """The two coordinate projections of product(a, b), verified."""
    if prod is None:
        prod = product(a, b)
    m = b.size
    p1 = Homomorphism(prod, a, tuple(p // m for p in range(prod.size)))
    p2 = Homomorphism(prod, b, tuple(p % m for p in range(prod.size)))
    return p1, p2


def _invariant_profile(alg: FiniteAlgebra) -> list[tuple[int, int, int]]:
    """Per-element invariants preserved by isomorphisms fixing 0 and 1.

    (alpha orbit size, occurrence count in the times table, occurrence
    count in the plus table) -- cheap pruning data for the backtracker.
    """
    n = alg.size
    t_occ = [0] * n
    p_occ = [0] * n
    for a in range(n):
        for b in range(n):
            t_occ[alg.times[a][b]] += 1
            p_occ[alg.plus[a][b]] += 1
    return [(1 if alg.alpha[x] == x else 2, t_occ[x], p_occ[x]) for x in range(n)]


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> Optional[Homomorphism]:
    """Backtracking search for an isomorphism a -> b.

    Fixes zero -> zero and one -> one, prunes candidates by alpha-orbit size
    and operation in-degree profiles, and tries target elements in ascending
    order, so the first (hence returned) isomorphism is the lexicographically
    least one.  Returns None when the algebras are not isomorphic.
    """
    n = a.size
    if n != b.size:
        return None
    prof_a, prof_b = _invariant_profile(a), _invariant_profile(b)
    if sorted(prof_a) != sorted(prof_b):
        return None

    mapping: list[Optional[int]] = [None] * n
    used = [False] * n

    def consistent(x: int) -> bool:
        # checks involving x and previously assigned elements only
        y = mapping[x]
        assert y is not None
        ax, ay = a.alpha[x], b.alpha[y]
        if mapping[ax] is not None and mapping[ax] != ay:
            return False
        for u in range(n):
            v = mapping[u]
            if v is None:
                continue
            for (ta, tb) in ((a.plus, b.plus), (a.times, b.times)):
                for (p, q, pp, qq) in ((x, u, y, v), (u, x, v, y)):
                    r = mapping[ta[p][q]]
                    if r is not None and r != tb[pp][qq]:
                        return False
        return True

    order = list(dict.fromkeys([a.zero, a.one] + list(range(n))))

    def backtrack(k: int) -> Optional[Homomorphism]:
        if k == len(order):
            # consistent() skips a result assigned after its arguments, so the
            # complete map goes through the Homomorphism preservation test
            try:
                return Homomorphism(a, b, tuple(mapping))  # type: ignore[arg-type]
            except AlgebraError:
                return None
        x = order[k]
        forced = b.zero if x == a.zero else b.one if x == a.one else None
        for y in ([forced] if forced is not None else range(n)):
            if used[y] or prof_a[x] != prof_b[y]:
                continue
            mapping[x], used[y] = y, True
            if consistent(x):
                hom = backtrack(k + 1)
                if hom is not None:
                    return hom
            mapping[x], used[y] = None, False
        return None

    return backtrack(0)
