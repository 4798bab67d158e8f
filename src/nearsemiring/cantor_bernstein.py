"""Back-and-forth isomorphism construction from central-interval embeddings.

Given isomorphisms gamma: A -> [0,b] and beta: B -> [0,a] onto intervals
below central elements, the alternating chains v_{n+1} = beta(u_n),
u_{n+1} = gamma(v_n) stabilize on a finite algebra (strictly decreasing
central chains are bounded by the center size).  The stabilized values and
the difference elements split both algebras into products of intervals whose
factors gamma and beta exchange; the assembled map A -> B is then verified
as an isomorphism outright.

On finite algebras the hypotheses force a = 1 and b = 1 (a size count), so
the chains collapse immediately; every lemma-level identity is still checked
against the general formulas.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .axioms import INRS, CheckOutcome, require_class
from .center import (Interval, _interval, central_elements, interval_algebra,
                     syntactic_centrality)
from .core import FiniteAlgebra, Homomorphism, find_isomorphism, leq


@dataclass(frozen=True)
class CBInstance:
    """Two algebras with verified isomorphisms onto central intervals."""

    algebra_a: FiniteAlgebra
    algebra_b: FiniteAlgebra
    a: int                      # central in A
    b: int                      # central in B
    interval_a: Interval        # [0, a] inside A
    interval_b: Interval        # [0, b] inside B
    gamma: Homomorphism         # A -> interval_b.algebra, bijective
    beta: Homomorphism          # B -> interval_a.algebra, bijective

    def gamma_element(self, v: int) -> int:
        """gamma as a map into B's universe."""
        return self.interval_b.to_parent(self.gamma(v))

    def beta_element(self, u: int) -> int:
        """beta as a map into A's universe."""
        return self.interval_a.to_parent(self.beta(u))


def make_cb_instance(algebra_a: FiniteAlgebra, algebra_b: FiniteAlgebra,
                     a: int, b: int,
                     gamma_elements: Sequence[int],
                     beta_elements: Sequence[int]) -> CBInstance:
    """Build and verify an instance from element-level maps A->B and B->A.

    gamma_elements[x] must land inside [0, b] and the induced map onto the
    interval algebra must be an isomorphism; symmetrically for beta.
    """
    if not syntactic_centrality(algebra_a, a).ok:
        raise ValueError(f"{algebra_a.label(a)} is not central in the first algebra")
    if not syntactic_centrality(algebra_b, b).ok:
        raise ValueError(f"{algebra_b.label(b)} is not central in the second algebra")
    int_a = _interval(algebra_a, a)
    int_b = _interval(algebra_b, b)
    gamma = Homomorphism(algebra_a, int_b.algebra,
                         tuple(int_b.to_local(v) for v in gamma_elements))
    beta = Homomorphism(algebra_b, int_a.algebra,
                        tuple(int_a.to_local(v) for v in beta_elements))
    if not gamma.bijective:
        raise ValueError("gamma is not a bijection onto [0, b]")
    if not beta.bijective:
        raise ValueError("beta is not a bijection onto [0, a]")
    return CBInstance(algebra_a, algebra_b, a, b, int_a, int_b, gamma, beta)


@dataclass(frozen=True)
class CBTrace:
    """The chains, their difference elements, all verification verdicts,
    and the assembled isomorphism (None when a verification failed)."""

    instance: CBInstance
    vs: tuple[int, ...]          # v_0 .. v_{N+1} (last entry repeats at stabilization)
    us: tuple[int, ...]
    v_inf: int
    u_inf: int
    es: tuple[int, ...]          # e_n for n below the stabilization index
    ds: tuple[int, ...]
    checks: tuple[CheckOutcome, ...]
    iso: Optional[Homomorphism]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks) and self.iso is not None

    def failures(self) -> tuple[CheckOutcome, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _meet(alg: FiniteAlgebra, p: int, q: int) -> int:
    # for central arguments the product is the lattice meet
    return alg.times[p][q]


def cb_sequences(inst: CBInstance) -> CBTrace:
    """Run the chains to stabilization and verify every construction identity."""
    A, B = inst.algebra_a, inst.algebra_b
    checks: list[CheckOutcome] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append(CheckOutcome(name, ok, detail=detail))

    vs = [A.one]
    us = [B.one]
    while True:
        v_next = inst.beta_element(us[-1])
        u_next = inst.gamma_element(vs[-1])
        vs.append(v_next)
        us.append(u_next)
        if v_next == vs[-2] and u_next == us[-2]:
            break
        if len(vs) > A.size + B.size + 2:  # more steps than elements: impossible
            raise AssertionError("chains failed to stabilize")
    stab = len(vs) - 2  # first n with v_{n+1} = v_n and u_{n+1} = u_n
    v_inf, u_inf = vs[-1], us[-1]

    def v(n: int) -> int:
        return vs[min(n, stab)]

    def u(n: int) -> int:
        return us[min(n, stab)]

    def e(n: int) -> int:
        return _meet(A, v(n), A.alpha[v(n + 1)])

    def d(n: int) -> int:
        return _meet(B, u(n), B.alpha[u(n + 1)])

    es = tuple(e(n) for n in range(stab))
    ds = tuple(d(n) for n in range(stab))

    def first_bad(items, pred) -> Optional[str]:
        for label, value in items:
            if not pred(value):
                return label
        return None

    bad = first_bad([(f"v_{n}={A.label(w)}", w) for n, w in enumerate(vs)],
                    lambda w: syntactic_centrality(A, w).ok) or \
        first_bad([(f"u_{n}={B.label(w)}", w) for n, w in enumerate(us)],
                  lambda w: syntactic_centrality(B, w).ok)
    record("chain elements central", bad is None, bad or "")
    bad = first_bad([(f"e_{n}={A.label(w)}", w) for n, w in enumerate(es)],
                    lambda w: syntactic_centrality(A, w).ok) or \
        first_bad([(f"d_{n}={B.label(w)}", w) for n, w in enumerate(ds)],
                  lambda w: syntactic_centrality(B, w).ok)
    record("difference elements central", bad is None, bad or "")
    bad = first_bad([(f"v_{n} -> v_{n+1}", n) for n in range(len(vs) - 1)],
                    lambda n: leq(A, vs[n + 1], vs[n])) or \
        first_bad([(f"u_{n} -> u_{n+1}", n) for n in range(len(us) - 1)],
                  lambda n: leq(B, us[n + 1], us[n]))
    record("chains weakly decrease", bad is None, bad or "")
    bad = first_bad([(f"step {n}", n) for n in range(stab)],
                    lambda n: (vs[n + 1], us[n + 1]) != (vs[n], us[n]))
    record("strict descent before stabilization", bad is None, bad or "")
    record("gamma(v_inf) = u_inf", inst.gamma_element(v_inf) == u_inf,
           f"gamma({A.label(v_inf)}) = {B.label(inst.gamma_element(v_inf))}")
    record("beta(u_inf) = v_inf", inst.beta_element(u_inf) == v_inf,
           f"beta({B.label(u_inf)}) = {A.label(inst.beta_element(u_inf))}")
    bad = first_bad([(f"n={n}", n) for n in range(stab)],
                    lambda n: inst.gamma_element(e(n)) == d(n + 1))
    record("gamma(e_n) = d_(n+1)", bad is None, bad or "")
    bad = first_bad([(f"n={n}", n) for n in range(stab)],
                    lambda n: inst.beta_element(d(n)) == e(n + 1))
    record("beta(d_n) = e_(n+1)", bad is None, bad or "")

    # e_{n-1} is the complement of v_n relative to the interval [0, v_{n-1}]
    def relative_ok(n: int) -> bool:
        ctx = interval_algebra(A, v(n - 1))
        return e(n - 1) == ctx.to_parent(ctx.algebra.alpha[ctx.to_local(v(n))])

    bad = first_bad([(f"n={n}", n) for n in range(1, stab + 1)], relative_ok)
    record("e_(n-1) complements v_n inside [0, v_(n-1)]", bad is None, bad or "")

    parts_a = (v_inf,) + es
    parts_b = (u_inf,) + ds
    bad = first_bad([(f"A parts {A.label(p)},{A.label(r)}", (A, p, r))
                     for p, r in itertools.combinations(parts_a, 2)] +
                    [(f"B parts {B.label(p)},{B.label(r)}", (B, p, r))
                     for p, r in itertools.combinations(parts_b, 2)],
                    lambda t: _meet(t[0], t[1], t[2]) == t[0].zero)
    record("pairwise meets vanish", bad is None, bad or "")
    record("partition joins to 1",
           A.join_all(parts_a) == A.one and B.join_all(parts_b) == B.one,
           f"A join = {A.label(A.join_all(parts_a))}, "
           f"B join = {B.label(B.join_all(parts_b))}")

    iso: Optional[Homomorphism] = None
    if all(c.ok for c in checks):
        iso = _assemble(inst, v_inf, u_inf, es, ds, e, d)
        record("assembled map is an isomorphism", iso is not None and iso.bijective)
    return CBTrace(inst, tuple(vs), tuple(us), v_inf, u_inf, es, ds,
                   tuple(checks), iso)


def _assemble(inst: CBInstance, v_inf: int, u_inf: int,
              es: tuple[int, ...], ds: tuple[int, ...], e, d) -> Homomorphism:
    """Glue the factor isomorphisms along the partition of unity.

    gamma carries [0,v_inf] onto [0,u_inf] and [0,e_2k] onto [0,d_2k+1];
    beta carries [0,d_2k] onto [0,e_2k+1], so its inverse covers the odd
    A-factors.  Odd-length difference lists are padded with a trailing zero
    part (a one-element interval) to make the parity pairing total.
    """
    A, B = inst.algebra_a, inst.algebra_b
    k = len(es)
    if k % 2 == 1:  # e(k) and d(k) are 0 past stabilization
        es = es + (e(k),)
        ds = ds + (d(k),)
        k += 1
    beta_inv = {inst.beta_element(u): u for u in range(B.size)}

    def map_one(x: int) -> int:
        parts = (v_inf,) + es
        out = B.zero
        for i, p in enumerate(parts):
            comp = A.times[p][x]
            if i == 0:
                img = inst.gamma_element(comp)
            elif (i - 1) % 2 == 0:      # e_{2m} -> inside [0, d_{2m+1}]
                img = inst.gamma_element(comp)
            else:                        # e_{2m+1} -> through beta^{-1} into [0, d_{2m}]
                img = beta_inv[comp]
            out = B.plus[out][img]
        return out

    return Homomorphism(A, B, tuple(map_one(x) for x in range(A.size)))


def cb_isomorphism(inst: CBInstance) -> Homomorphism:
    """The assembled isomorphism; raises if any sequence verification failed."""
    trace = cb_sequences(inst)
    if not trace.ok:
        failed = ", ".join(c.name for c in trace.failures())
        raise ValueError(f"construction checks failed: {failed}")
    assert trace.iso is not None
    return trace.iso


@dataclass(frozen=True)
class CBFound:
    a: int
    b: int
    iso: Homomorphism


@dataclass(frozen=True)
class CBSearchReport:
    found: tuple[CBFound, ...]
    searched_pairs: int
    notes: tuple[str, ...]

    @property
    def any_found(self) -> bool:
        return bool(self.found)


def cb_search(algebra_a: FiniteAlgebra, algebra_b: FiniteAlgebra) -> CBSearchReport:
    """Search central pairs (a, b) with A = [0,b] and B = [0,a] up to isomorphism.

    For every qualifying pair the full construction runs and the resulting
    isomorphism is verified.  Both algebras must be inrs.  Each interval and
    its isomorphism is built at most once per central element, and a pair
    is examined only when [0,b] is isomorphic to A.
    """
    A, B = algebra_a, algebra_b
    require_class(A, INRS, "cb_search, algebra A")
    require_class(B, INRS, "cb_search, algebra B")
    notes: list[str] = []
    found: list[CBFound] = []
    searched = 0

    if A.size != B.size:
        notes.append(f"sizes differ (|A|={A.size}, |B|={B.size}): on finite algebras "
                     "mutual interval embeddings force equal sizes, so no instance exists")

    @functools.cache
    def beta_for(a: int) -> tuple[Interval, Optional[Homomorphism]]:
        int_a = _interval(A, a)
        return int_a, find_isomorphism(B, int_a.algebra)

    ce_a = central_elements(A)
    for b in central_elements(B):
        int_b = _interval(B, b)
        gamma = find_isomorphism(A, int_b.algebra)
        if gamma is None:
            continue
        for a in ce_a:
            searched += 1
            int_a, beta = beta_for(a)
            if beta is None:
                continue
            inst = CBInstance(A, B, a, b, int_a, int_b, gamma, beta)
            found.append(CBFound(a, b, cb_isomorphism(inst)))
    if not found and A.size == B.size:
        notes.append("no central pair carries mutual interval isomorphisms; "
                     "the algebras are not related by the construction")
    if found:
        proper = [f for f in found if f.a != A.one or f.b != B.one]
        if not proper:
            notes.append("only the trivial intervals a=1, b=1 qualify: proper "
                         "central intervals are impossible at finite scale")
    return CBSearchReport(tuple(found), searched, tuple(notes))
