"""Exhaustive enumeration of the table models up to isomorphism.

Search order: bounded join-semilattice tables first (few at small sizes),
then antitone involutions of the induced order, then the multiplication
table cell by cell with forward checking of left distributivity and of the
interchange/associativity axioms of the requested class.  Isomorphic copies
are rejected by a brute-force canonical form (minimum table encoding over
all permutations fixing 0 and 1).

Enumerated algebras place zero at index 0 and one at index n-1.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional, Sequence

from .axioms import CLASSES, LUK_NRS, LUK_RS, check_axioms
from .core import AlgebraError, FiniteAlgebra

DEFAULT_MAX_NODES = 5_000_000


@dataclass(frozen=True)
class EnumerationTask:
    size: int
    algebra_class: str = LUK_NRS
    max_nodes: int = DEFAULT_MAX_NODES
    threads: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be positive")
        if self.algebra_class not in CLASSES:
            raise ValueError(f"unknown class {self.algebra_class!r}")
        if self.max_nodes < 1 or self.threads < 1:
            raise ValueError("caps must be positive")


class EnumerationCapExceeded(Exception):
    """Node cap hit; carries the deduplicated partial results and a resume token."""

    def __init__(self, partial: tuple[FiniteAlgebra, ...], resume: tuple[int, ...]):
        super().__init__(f"node cap exceeded after {len(partial)} models; "
                         "pass resume= the attached token to continue")
        self.partial = partial
        self.resume = resume


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


def _encode(alg: FiniteAlgebra) -> bytes:
    flat = [alg.size, alg.zero, alg.one]
    for row in alg.plus:
        flat.extend(row)
    for row in alg.times:
        flat.extend(row)
    flat.extend(alg.alpha)
    return bytes(flat)


def canonical_form(alg: FiniteAlgebra) -> CanonicalForm:
    """Lexicographically least encoding over permutations fixing zero and one.

    The algebra is first moved to the normal placement (zero at 0, one at
    n-1); the minimum then ranges over all permutations of the remaining
    elements, so equal forms characterize isomorphism.
    """
    n = alg.size
    if n == 1:
        return CanonicalForm(_encode(alg))
    if alg.zero == alg.one:
        raise AlgebraError("designated constants coincide on a non-trivial "
                           "universe; such tables admit no bounded order")
    base = [0] * n
    base[alg.zero] = 0
    base[alg.one] = n - 1
    rest = [i for i in range(n) if i not in (alg.zero, alg.one)]
    for pos, i in enumerate(rest, start=1):
        base[i] = pos
    normal = relabel(alg, base)
    middle = list(range(1, n - 1))
    best: Optional[bytes] = None
    for sigma in itertools.permutations(middle):
        perm = [0] + list(sigma) + [n - 1]
        enc = _encode(relabel(normal, perm))
        if best is None or enc < best:
            best = enc
    return CanonicalForm(best if best is not None else _encode(normal))


# -- the backtracking search ------------------------------------------------


def _semilattice_ok_partial(P: list[list[Optional[int]]], n: int) -> bool:
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
    def __init__(self, task: EnumerationTask, resume: Optional[tuple[int, ...]],
                 first_value: Optional[int] = None):
        self.n = task.size
        self.cls = task.algebra_class
        self.max_nodes = task.max_nodes
        self.cursor = resume
        self.first_value = first_value   # restricts the first plus cell (thread split)
        self.nodes = 0
        self.path: list[int] = []
        self.found: dict[bytes, FiniteAlgebra] = {}
        n = self.n
        self.mid = list(range(1, n - 1))
        self.plus_cells = [(i, j) for k, i in enumerate(self.mid)
                           for j in self.mid[k + 1:]]
        self.times_cells = [(i, j) for i in self.mid for j in self.mid]

    # cursor-aware candidate iteration: skip branches before the resume point
    def _candidates(self, values: Sequence[int]) -> Iterable[int]:
        depth = len(self.path)
        if (self.cursor is not None and depth < len(self.cursor)
                and list(self.cursor[:depth]) == self.path):
            start = self.cursor[depth]
            return [v for v in values if v >= start]
        return values

    def _enter(self, value: int) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            token = tuple(self.path + [value])
            raise EnumerationCapExceeded(self._results(), token)
        self.path.append(value)

    def _leave(self) -> None:
        self.path.pop()

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
        self._plus_phase(P, 0)
        return self._results()

    def _plus_phase(self, P: list[list[Optional[int]]], k: int) -> None:
        n = self.n
        if k == len(self.plus_cells):
            # every cell is set, so the last partial check covered all of
            # associativity (for n <= 3 no cell is free and the table is a
            # chain); commutativity and idempotence hold by construction
            self._alpha_phase([[v for v in row] for row in P])  # type: ignore[misc]
            return
        i, j = self.plus_cells[k]
        values: Sequence[int] = range(1, n)
        if k == 0 and self.first_value is not None:
            values = [self.first_value]
        for v in self._candidates(values):
            self._enter(v)
            P[i][j] = P[j][i] = v
            if _semilattice_ok_partial(P, n):
                self._plus_phase(P, k + 1)
            P[i][j] = P[j][i] = None
            self._leave()

    def _alpha_phase(self, P: list[list[int]]) -> None:
        candidates = _antitone_involutions(P, self.n)
        for idx in self._candidates(range(len(candidates))):
            self._enter(idx)
            self._times_phase(P, candidates[idx])
            self._leave()

    def _times_phase(self, P: list[list[int]], alpha: tuple[int, ...]) -> None:
        n = self.n
        T: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            T[0][i] = T[i][0] = 0
            T[n - 1][i] = T[i][n - 1] = i
        T[n - 1][n - 1] = n - 1

        def determined_ok() -> bool:
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

        def fill(k: int) -> None:
            if k == len(self.times_cells):
                self._emit(P, alpha, T)
                return
            i, j = self.times_cells[k]
            for v in self._candidates(range(n)):
                self._enter(v)
                T[i][j] = v
                if determined_ok():
                    fill(k + 1)
                T[i][j] = None
                self._leave()

        if not determined_ok():
            return
        fill(0)

    def _emit(self, P, alpha, T) -> None:
        alg = FiniteAlgebra(self.n, tuple(tuple(r) for r in P),
                            tuple(tuple(r) for r in T), alpha, 0, self.n - 1)
        if check_axioms(alg, self.cls).ok:
            form = canonical_form(alg).data
            self.found.setdefault(form, alg)


def enumerate_algebras(task: EnumerationTask,
                       resume: Optional[tuple[int, ...]] = None
                       ) -> tuple[FiniteAlgebra, ...]:
    """All models of the class at the given size, one per isomorphism type.

    Output is sorted by canonical form, so it is deterministic regardless of
    thread count.  A node-cap overrun raises EnumerationCapExceeded with the
    partial results and a resume token (resume is supported for threads=1).
    """
    if task.threads > 1:
        if resume is not None:
            raise ValueError("resume tokens are only supported with threads=1")
        single = EnumerationTask(task.size, task.algebra_class, task.max_nodes)
        if not _Search(single, None).plus_cells:   # nothing to split on
            return _Search(single, None).run()

        def branch(v: int) -> dict[bytes, FiniteAlgebra]:
            s = _Search(single, None, first_value=v)
            s.run()
            return dict(s.found)

        with ThreadPoolExecutor(max_workers=task.threads) as pool:
            merged: dict[bytes, FiniteAlgebra] = {}
            for part in pool.map(branch, range(1, task.size)):
                merged.update(part)
        return tuple(alg for _, alg in sorted(merged.items()))

    return _Search(task, resume).run()


def count(size: int, algebra_class: str = LUK_NRS, threads: int = 1) -> int:
    """Number of models up to isomorphism (cached per size and class)."""
    key = (size, algebra_class)
    if key not in _count_cache:
        _count_cache[key] = len(enumerate_algebras(
            EnumerationTask(size, algebra_class, threads=threads)))
    return _count_cache[key]


_count_cache: dict[tuple[int, str], int] = {}


def frozen_counts() -> dict:
    """The checked-in regression table of enumeration counts."""
    text = resources.files("nearsemiring").joinpath(
        "data/enumeration_counts.json").read_text()
    return json.loads(text)
