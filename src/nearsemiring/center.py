"""Central elements: the if-then-else witness, centrality tests, decompositions.

An element is central when its two principal congruences theta(e,0) and
theta(e,1) are complementary factor congruences.  That semantic definition is
checked by one count: the pair is a factor pair iff a |-> (theta(e,0)[a],
theta(e,1)[a]) is a bijection onto the product of the quotients
(Partition.complements).  The equational characterization
through q(x,y,z) = x*y + x^a*z is checked independently, and the two verdicts
are compared rather than trusted to coincide.

No check is run whose verdict the inrs axioms and the checks before it
already fix.  q(0,a,b) = b and q(e^a,a,b) = q(e,b,a), so Ce(A) holds 0 and
1 = 0^a and is closed under alpha; (d) q(e,1,0) = e holds at every e by
(ii), (iv) and (i); (a) and the (c) laws for + and * imply the (b) laws
and the (c) law for alpha, and past (a) and the + law the edges of the *
law decide it (syntactic_centrality); and a closed Ce(A) satisfies the
Boolean laws and the meet law (center).  The tests check each of these
facts on every inrs of their pool.

Centrality is defined on an inrs, and both tests require one.  The
equational laws are CENTRALITY_LAWS.  The 4-variable (c) laws for + and *
cost n^4 per element as full scans; syntactic_centrality decides each by
its two edge rows in CENTRALITY_REDUCTIONS, reduced identities of |G|*n
instances, G = J u {0} (axioms.holds_at), and re-scans a law its rows
refute in full for the witness.  The semantic route reads the kernels
K[e] and K[e^a], joins of the |J| prime quotients Cg(j_*, j) (kernel).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from .axioms import (INRS, LUK_NRS, CheckOutcome, Laws, check_identity, check_laws, holds_at,
                     require_class)
from .congruences import Partition, all_congruences, kernel
from .core import FiniteAlgebra, Homomorphism, join_irreducibles, leq, product
from .ideals import ElementSet, generate_ideal, pseudocomplement, principal_ideal
from .terms import ONE, ZERO, Term, Var, church_q, x, y, z


def q(alg: FiniteAlgebra, e: int, a: int, b: int) -> int:
    """The if-then-else witness term: e*a + e^alpha*b."""
    return alg.plus[alg.times[e][a]][alg.times[alg.alpha[e]][b]]


_e, _a, _b, _a1, _a2, _b1, _b2 = (Var(v) for v in ("e", "a", "b", "a1", "a2", "b1", "b2"))
#: the equational centrality conditions on q(x,y,z) = x*y + x^a*z, in the order
#: they are checked, with e bound to the element under test (q(e,0,0)=0 and
#: q(e,1,1)=1 are the a=0 and a=1 instances of (a); (d), (b) and (c) for alpha
#: are implied, see the module docstring)
CENTRALITY_LAWS = (
    ("(a) q(e,a,a)=a", church_q(_e, _a, _a), _a),
    ("(c) q commutes with +", church_q(_e, _a1 + _a2, _b1 + _b2),
     church_q(_e, _a1, _b1) + church_q(_e, _a2, _b2)),
    ("(c) q commutes with *", church_q(_e, _a1 * _a2, _b1 * _b2),
     church_q(_e, _a1, _b1) * church_q(_e, _a2, _b2)),
)
#: per (c) law, the two edge rows that decide it (syntactic_centrality):
#: (lhs, rhs, the fixed variables, e then the two bound to 0, the one
#: variable ranged over G = J u {0})
CENTRALITY_REDUCTIONS = {
    name: ((lhs, rhs, ("e", "b1", "b2"), ("a1",)), (lhs, rhs, ("e", "a1", "a2"), ("b1",)))
    for name, lhs, rhs in CENTRALITY_LAWS[1:]}


def _reductions_hold(alg: FiniteAlgebra, e: int, rows: tuple) -> bool:
    """Every row at e: lhs = rhs with e bound, the other fixed variables bound
    to 0 and the ranged one over G = J u {0}."""
    zero = alg.zero
    generators = (zero, *join_irreducibles(alg))
    return all(holds_at(alg, lhs, rhs, fixed, ranged, e, zero, zero, generators)
               for lhs, rhs, fixed, ranged in rows)


def syntactic_centrality(alg: FiniteAlgebra, e: int) -> CheckOutcome:
    """The equational centrality conditions, in the order of CENTRALITY_LAWS.

    Requires an inrs.  A (c) law is decided by its two edge rows in
    CENTRALITY_REDUCTIONS, the instances with b1 = b2 = 0 and with
    a1 = a2 = 0; a law its rows refute gets the full compiled scan, so the
    outcome and its witness are those of the full scans, the reference the
    tests hold the rows to.  By (i), (iii) and (iv) the + edges say that
    x |-> e*x and x |-> e^a*x preserve joins, so a1 (b1) ranges over G
    (axioms.holds); given that and (iii), so do both sides of the * edges,
    e*(x*y) = (e*x)*(e*y) and e^a*(x*y) = (e^a*x)*(e^a*y).  Given the + edges
    the + law follows.

    Past (a) and the + law, the * edges imply the * law and the alpha law,
    by (i)-(vi).  x |-> e*x and x |-> e^a*x preserve joins, so they are
    monotone.  (a) at 1 gives e + e^a = 1, so the meet of e and e^a is
    (e + e^a)^a = 0 by (v) and (vi).  (a) at e gives e^a*e <= e, and
    e^a*e <= e^a*1 = e^a, so e^a*e = 0; likewise e*e^a = 0.  By the edges
    e*(e^a*b) = (e*e^a)*(e*b) = 0 and e^a*(e*b) = 0, and then (a) at b gives
    e*(e*b) = e*b and e^a*(e^a*b) = e^a*b.  So h(x) = (e*x, e^a*x) maps
    q(e,a,b) = e*a + e^a*b to (e*a, e^a*b): it is onto E x E', with E = e*A
    and E' = e^a*A, one to one by (a), and by the edges it multiplies
    coordinatewise.  Both sides of the * law have h-image
    ((e*a1)*(e*a2), (e^a*b1)*(e^a*b2)).  h and its inverse (u, v) |-> u + v
    preserve joins, so h is a lattice isomorphism with h(e) = (e, 0) and
    h(e^a) = (0, e^a).  alpha is an antitone involution, so it carries
    [0, e] onto [e^a, 1], which h carries onto E x {0} and E x {e^a}.  Read
    through h, alpha is then (u, 0) |-> (beta(u), e^a), likewise
    (0, v) |-> (e, beta'(v)), and as it turns the join of (u, 0) and (0, v)
    into their meet, (u, v) |-> (beta(u), beta'(v)).  Both sides of
    the alpha law, q(e,a^a,b^a) = q(e,a,b)^a, have h-image
    (beta(e*a), beta'(e^a*b)).

    The (c) laws imply the paper's (b) laws q(e,q(e,a,b),c) = q(e,a,c) and
    q(e,a,q(e,b,c)) = q(e,a,c), by (i), (ii) and (iv): e* and e^a* distribute
    over + (the + edges), and the * law at (a1,b1,a2,b2) = (1,0,a,0),
    (1,0,0,b), (0,1,0,c) and (0,1,b,0) gives e*(e*a) = e*a, e*(e^a*b) = 0,
    e^a*(e^a*c) = e^a*c and e^a*(e*b) = 0.  So both sides are e*a + e^a*c.
    """
    require_class(alg, INRS, "centrality")
    for name, lhs, rhs in CENTRALITY_LAWS:
        rows = CENTRALITY_REDUCTIONS.get(name)
        if rows and _reductions_hold(alg, e, rows):
            continue
        out = check_identity(alg, name, lhs, rhs, fixed={"e": e})
        if not out.ok:
            return out
    return CheckOutcome("syntactic centrality", True)


@dataclass(frozen=True)
class SemanticCentrality:
    """theta(e,0) and theta(e,1) tested as a complementary factor pair."""

    theta_zero: Partition
    theta_one: Partition

    @property
    def ok(self) -> bool:
        return self.theta_zero.complements(self.theta_one)


def semantic_centrality(alg: FiniteAlgebra, e: int) -> SemanticCentrality:
    """theta(e,0) is the kernel K[e] and theta(e,1) is K[e^a].  Requires an inrs.

    Every congruence respects alpha, which on an inrs is an involution with
    0^a = 1, so (e,1) lies in a congruence iff (e^a,0) does: Cg(e,1) = K[e^a].
    """
    require_class(alg, INRS, "centrality")
    return SemanticCentrality(kernel(alg, e), kernel(alg, alg.alpha[e]))


@dataclass(frozen=True)
class CentralityResult:
    element: int
    central: bool
    syntactic: CheckOutcome
    semantic: SemanticCentrality

    @property
    def methods_agree(self) -> bool:
        return self.syntactic.ok == self.semantic.ok


def is_central(alg: FiniteAlgebra, e: int) -> CentralityResult:
    """Centrality by the equational scan, compared with the factor-pair test.

    The verdict is the equational one; a mismatch is reported in the result
    (methods_agree) rather than raised -- that is the adjudication hook,
    though no algebra in the bundled corpus triggers it.
    """
    syn = syntactic_centrality(alg, e)
    return CentralityResult(e, syn.ok, syn, semantic_centrality(alg, e))


def central_elements(alg: FiniteAlgebra) -> tuple[int, ...]:
    """All central elements (equational route; center() re-verifies the rest)."""
    return tuple(e for e in range(alg.size) if syntactic_centrality(alg, e).ok)


#: the Boolean-algebra axioms (Burris and Sankappanavar, Ch. I) with + as join,
#: * as meet, alpha as complement, 0 as bottom and 1 as top; they hold on
#: every closed Ce(A) of an inrs (center), and ideals.skeleton scans them
BOOLEAN_LAWS: Laws = (
    ("meet commutative", (("", x * y, y * x),)),
    ("join commutative", (("", x + y, y + x),)),
    ("meet associative", (("", (x * y) * z, x * (y * z)),)),
    ("join associative", (("", (x + y) + z, x + (y + z)),)),
    ("absorption", (("x*(x+y) = x", x * (x + y), x), ("x+x*y = x", x + x * y, x))),
    ("meet distributes over join", (("", x * (y + z), x * y + x * z),)),
    ("join distributes over meet", (("", x + y * z, (x + y) * (x + z)),)),
    ("top is meet identity", (("", x * ONE, x),)),
    ("bottom is join identity", (("", x + ZERO, x),)),
    ("complements meet to bottom", (("", x * x.a, ZERO),)),
    ("complements join to top", (("", x + x.a, ONE),)),
)


def verify_boolean_laws(meet: Sequence[Sequence[int]], join: Sequence[Sequence[int]],
                        comp: Sequence[int], bot: int, top: int) -> list[str]:
    """The BOOLEAN_LAWS failed on the carrier {0..k-1}, given as k x k meet and
    join index tables and a complement vector, read as one table algebra."""
    alg = FiniteAlgebra(len(comp), plus=join, times=meet, alpha=comp, zero=bot, one=top)
    return [c.name for c in check_laws(alg, BOOLEAN_LAWS) if not c.ok]


@dataclass(frozen=True)
class LawFailure:
    law: str
    element: int
    witness: str


@dataclass(frozen=True)
class CentralLawsReport:
    failures: tuple[LawFailure, ...]
    elements: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _meet(s: Term, t: Term) -> Term:
    # alpha reverses the order of (A, +) on an inrs, so it carries joins to meets
    return (s.a + t.a).a


#: the central-element law central_laws_report scans, with e bound to the
#: element under test; (s^a+t^a)^a is the meet of s and t
CENTRAL_ELEMENT_LAWS = (
    ("e*b is the meet of e and b", _e * _b, _meet(_e, _b)),
)


def central_laws_report(alg: FiniteAlgebra) -> CentralLawsReport:
    """CENTRAL_ELEMENT_LAWS at every central element, by the exhaustive scan.

    e*b is the meet of e and b, a theorem at every central element of an
    inrs (center gives the proof), so center() does not scan it; this is the
    reference the tests hold the theorem to.  Five more laws are instances
    of the centrality laws: e*e = e, e*a = a*e and e*(a*b) = (e*a)*b (see
    center), (e*a)*b = a*(e*b) as (c) for * gives e*(a*b) at both (a,0,b,b)
    and (a,a,b,0), and e*(a+b) = e*a + e*b; and for a <= e the meet law
    gives a*e = e*a = a.  Requires an inrs.
    """
    require_class(alg, INRS, "central_laws_report")
    elements = central_elements(alg)
    checks = ((e, check_identity(alg, name, lhs, rhs, fixed={"e": e}))
              for e in elements for name, lhs, rhs in CENTRAL_ELEMENT_LAWS)
    return CentralLawsReport(tuple(LawFailure(c.name, e, c.witness.render(alg))
                                   for e, c in checks if not c.ok), elements)


@dataclass(frozen=True)
class CenterReport:
    """Ce(A): elements, the two routes' agreement, closure, the factor bijection."""

    algebra: FiniteAlgebra
    elements: tuple[int, ...]
    agreement_failures: tuple[int, ...]   # elements where the two methods disagree
    closure_failures: tuple[str, ...]
    factor_bijection_ok: bool

    @property
    def ok(self) -> bool:
        return (not self.agreement_failures and not self.closure_failures
                and self.factor_bijection_ok)


def center(alg: FiniteAlgebra) -> CenterReport:
    """All central elements with the Boolean algebra they carry.

    Checked: the two centrality routes agree, Ce(A) is closed under + and
    * (it holds 0 and 1 and is closed under alpha on every inrs), and
    e |-> theta(e,0) is a bijection onto the factor congruences.  The rest
    follows from the centrality laws by (i), (ii), (iv)-(vi), for central
    e, f, g and any a, b.  The * law at (a1,b1,a2,b2) = (a,a,1,0) with (a),
    (a,0,b,b), (1,0,1,0) and (1,0,0,1) gives e*a = a*e, e*(a*b) = (e*a)*b,
    e*e = e and e*e^a = 0, and (a) at 1 gives e + e^a = 1.  By the + edge
    e* preserves joins, so it is monotone and e*a <= e*1 = e.  So on a
    closed Ce(A) the eleven BOOLEAN_LAWS hold: the join laws and the
    identities are (i) and (ii); e*(e+f) = e*e + e*f = e and e + e*f = e;
    meet distributes by the + edge; and (e+f)*(e+g) = (e+f)*e + (e+f)*g =
    e + e*g + f*g = e + f*g, by the + edge at e+f, e*a = a*e and (iii).
    e*b is the meet of e and b: e*b <= e, and b = q(e,b,b) = e*b + e^a*b
    gives e*b <= b; if c <= e, b then e^a*c <= e^a*e = 0, so
    c = q(e,c,c) = e*c <= e*b.  As alpha is an antitone involution,
    (e^a+b^a)^a is that meet too.  The Boolean order e*f = e is e+f = f,
    as e+f = f+(f*e) = f and e*f = e*(e+f) = e.  Requires an inrs, as
    centrality does.
    """
    require_class(alg, INRS, "center")
    results = [is_central(alg, e) for e in range(alg.size)]
    elements = tuple(r.element for r in results if r.central)
    disagreements = tuple(r.element for r in results if not r.methods_agree)
    in_center = set(elements)

    closure: list[str] = []
    for e, f in itertools.product(elements, repeat=2):
        if alg.times[e][f] not in in_center:
            closure.append(f"{alg.label(e)}*{alg.label(f)} leaves the center")
        if alg.plus[e][f] not in in_center:
            closure.append(f"{alg.label(e)}+{alg.label(f)} leaves the center")

    factor_members: set[Partition] = set()
    for p, r in itertools.combinations_with_replacement(all_congruences(alg), 2):
        if p.complements(r):
            factor_members.add(p)
            factor_members.add(r)
    images = [r.semantic.theta_zero for r in results if r.central]
    bijection_ok = (len(set(images)) == len(images)
                    and set(images) == factor_members)

    return CenterReport(alg, elements, disagreements, tuple(closure), bijection_ok)


@dataclass(frozen=True)
class Interval:
    """The algebra on [0, e] for central e, with the member map to the parent.

    The carrier is re-indexed densely (tables need a {0..k-1} universe), but
    members and inherited names keep every report stated in parent elements.
    """

    parent: FiniteAlgebra
    element: int
    members: tuple[int, ...]
    algebra: FiniteAlgebra

    @cached_property
    def _local(self) -> dict[int, int]:
        return {p: i for i, p in enumerate(self.members)}

    def to_local(self, parent_element: int) -> int:
        try:
            return self._local[parent_element]
        except KeyError:
            raise ValueError(
                f"{self.parent.label(parent_element)} is not in "
                f"[0, {self.parent.label(self.element)}]") from None

    def to_parent(self, local_element: int) -> int:
        return self.members[local_element]


def interval_algebra(alg: FiniteAlgebra, e: int) -> Interval:
    """Relativize every operation to [0, e]: g_e(args) = e * g(args).

    Only central elements are accepted (the construction is only meaningful
    there).  Over a central element the interval belongs to the class of
    its parent, a theorem, so the result is not re-checked against the
    class axioms.
    """
    if not syntactic_centrality(alg, e).ok:
        raise ValueError(f"element {alg.label(e)} is not central; "
                         "interval algebras exist only over central elements")
    return _interval(alg, e)


def _interval(alg: FiniteAlgebra, e: int) -> Interval:
    """interval_algebra for an e its caller has already found central."""
    n = alg.size
    members = tuple(sorted({alg.times[e][b] for b in range(n)}))
    downset = tuple(sorted(x for x in range(n) if leq(alg, x, e)))
    if members != downset:  # equality is a theorem for central e
        raise AssertionError("interval carrier {e*b} differs from the down-set of e")
    local = {p: i for i, p in enumerate(members)}
    k = len(members)
    plus = [[local[alg.times[e][alg.plus[members[i]][members[j]]]] for j in range(k)]
            for i in range(k)]
    times = [[local[alg.times[e][alg.times[members[i]][members[j]]]] for j in range(k)]
             for i in range(k)]
    alpha = [local[alg.times[e][alg.alpha[members[i]]]] for i in range(k)]
    names = tuple(alg.label(p) for p in members) if alg.names is not None else None
    sub = FiniteAlgebra(size=k, plus=plus, times=times, alpha=alpha,
                        zero=local[alg.zero], one=local[e], names=names)
    return Interval(alg, e, members, sub)


def _product_map(alg: FiniteAlgebra, intervals: Sequence[Interval]) -> Homomorphism:
    """a |-> (p*a)_p onto the left fold of the products of the intervals [0, p],
    taken without names: nothing here reads them, and two may coincide (see product)."""
    target, *rest = (replace(iv.algebra, names=None) for iv in intervals)
    for factor in rest:
        target = product(target, factor)

    def index(a: int) -> int:
        idx = 0
        for iv in intervals:
            idx = idx * iv.algebra.size + iv.to_local(alg.times[iv.element][a])
        return idx

    hom = Homomorphism(alg, target, tuple(index(a) for a in range(alg.size)))
    if not hom.bijective:
        raise AssertionError("partition decomposition is not bijective")
    return hom


def partition_decomposition(alg: FiniteAlgebra,
                            parts: Sequence[int]) -> Homomorphism:
    """a |-> (a ^ part_i)_i onto the product of the interval algebras.

    Parts must be central, pairwise disjoint (product zero) and join to 1;
    the violated clause is named.  Product indexing is the left fold of the
    row-major pair indexing.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("parts must be a non-empty family")
    for p in parts:
        if not syntactic_centrality(alg, p).ok:
            raise ValueError(f"part {alg.label(p)} is not central")
    for p, r in itertools.combinations(parts, 2):
        if alg.times[p][r] != alg.zero:
            raise ValueError(f"parts {alg.label(p)} and {alg.label(r)} overlap")
    if alg.join_all(parts) != alg.one:
        raise ValueError("parts do not join to 1")
    return _product_map(alg, [_interval(alg, p) for p in parts])


@dataclass(frozen=True)
class Decomposition:
    """A = [0,e] x [0,e^a]; its projections are a |-> e*a and a |-> e^a*a."""

    element: int
    part: Interval
    co_part: Interval
    pair_map: Homomorphism        # a |-> (e*a, e^a*a), bijective onto the product


def decompose(alg: FiniteAlgebra, e: int) -> Decomposition:
    """Split the algebra along a central e: partition_decomposition of [e, e^a]."""
    part, co_part = interval_algebra(alg, e), interval_algebra(alg, alg.alpha[e])
    return Decomposition(e, part, co_part, _product_map(alg, [part, co_part]))


@dataclass(frozen=True)
class CentralIdealReport:
    """I(e) = [0,e], the factor-ideal pair, and the pseudocomplement identity."""

    element: int
    principal: ElementSet
    down_set: ElementSet
    ideal_is_interval: bool
    factor_meet_trivial: bool
    factor_join_full: bool
    complement_is_pseudocomplement: bool

    @property
    def ok(self) -> bool:
        return (self.ideal_is_interval and self.factor_meet_trivial
                and self.factor_join_full and self.complement_is_pseudocomplement)


def central_ideal_check(alg: FiniteAlgebra, e: int) -> CentralIdealReport:
    require_class(alg, LUK_NRS, "central_ideal_check")
    if not syntactic_centrality(alg, e).ok:
        raise ValueError(f"element {alg.label(e)} is not central")
    n = alg.size
    ie = principal_ideal(alg, e)
    down = ElementSet.from_members(n, (v for v in range(n) if leq(alg, v, e)))
    i_comp = principal_ideal(alg, alg.alpha[e])
    meet_trivial = (ie & i_comp).members() == (alg.zero,)
    join_full = generate_ideal(alg, ie | i_comp).mask == ElementSet.full(n).mask
    star = pseudocomplement(alg, ie)
    return CentralIdealReport(
        element=e,
        principal=ie,
        down_set=down,
        ideal_is_interval=ie.mask == down.mask,
        factor_meet_trivial=meet_trivial,
        factor_join_full=join_full,
        complement_is_pseudocomplement=star.mask == i_comp.mask,
    )
