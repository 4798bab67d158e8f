"""Ideals: the two-condition predicate, generation, theta(I), the ideal lattice.

The whole point of this module is dual-route computation: the subset
predicate (I1)/(I2) on one side and congruence kernels on the other.  Where
the two routes are supposed to coincide they are recomputed independently and
compared; genuine disagreements (they exist for the semiring-style claims)
surface as report findings, never as crashes.

Every subset predicate is an ordered list of Horn rules over bitmask subsets
on one engine (_Rules): (I1)/(I2) for is_ideal, generate_ideal and the
all_ideals scan, the semiring conditions (i)-(iii) for subset_conditions, and
the MV-ideal conditions of the translate in the mv module.  _Rules.closed
lists the closed subsets by NextClosure (Ganter 1984), at most n closures per
closed set, so no loop visits all 2^n subsets; the claims report and the MV
correspondence compare two of its lists and look closer only at the subsets
where they differ.

Id(A) itself is the family of congruence kernels (all_ideals), so its joins
and meets are read off that family: the meet is the intersection and the
join the least kernel above both, which within the NextClosure threshold is
also the (I1)/(I2) closure of the union.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .axioms import LUK_NRS, LUK_RS, require_class
from .congruences import Partition, all_congruences, kernel, polynomial_pairs
from .core import FiniteAlgebra, per_algebra

DEFAULT_SUBSET_THRESHOLD = 14


@dataclass(frozen=True)
class ElementSet:
    """A subset of the universe with bitset semantics."""

    size: int
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.size:
            raise ValueError(f"mask {self.mask:#x} has bits outside a universe of {self.size}")

    @classmethod
    def from_members(cls, size: int, members: Iterable[int]) -> "ElementSet":
        mask = 0
        for v in members:
            if not 0 <= v < size:
                raise ValueError(f"element {v} outside the universe [0, {size})")
            mask |= 1 << v
        return cls(size, mask)

    @classmethod
    def empty(cls, size: int) -> "ElementSet":
        return cls(size, 0)

    @classmethod
    def full(cls, size: int) -> "ElementSet":
        return cls(size, (1 << size) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.size) if self.mask >> v & 1)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.size and bool(self.mask >> v & 1)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.size, self.mask & other.mask)

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.size, self.mask | other.mask)

    def issubset(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def _check(self, other: "ElementSet") -> None:
        if self.size != other.size:
            raise ValueError("element sets over different universes")

    def render(self, alg: FiniteAlgebra) -> str:
        return "{" + ", ".join(alg.label(v) for v in self.members()) + "}"


def set_sort_key(s: ElementSet):
    return (len(s), s.members())


class _Rules:
    """Horn rules over bitmask subsets, in a fixed order.

    A subset breaks a rule ``(premise, conclusion, witness)`` when it holds
    every element of the premise but not every element of the conclusion.
    Rules no subset can break, and repeats of an earlier (premise,
    conclusion), are dropped: neither can be the first broken rule.
    """

    def __init__(self, rules: Iterable[tuple[int, int, object]]):
        first: dict[tuple[int, int], object] = {}
        for premise, conclusion, witness in rules:
            if conclusion & ~premise:
                first.setdefault((premise, conclusion), witness)
        self.rules = [(p, c, w) for (p, c), w in first.items()]

    def first_failure(self, mask: int) -> Optional[tuple[int, int, object]]:
        """The first rule the subset breaks, or None."""
        for rule in self.rules:
            if not rule[0] & ~mask and rule[1] & ~mask:
                return rule
        return None

    def closure(self, mask: int) -> int:
        """Least superset breaking no rule: add each broken rule's conclusion."""
        while (rule := self.first_failure(mask)) is not None:
            mask |= rule[1]
        return mask

    def closed(self, n: int) -> list[int]:
        """Masks of the subsets of [0, n) that break no rule, ascending.

        NextClosure (Ganter, "Two basic algorithms in concept analysis",
        1984): after the closed set a, the next one is the closure of a's
        bits above some absent bit i together with i, for the lowest such i
        whose closure adds no bit above i.  That is at most n closures per
        closed set, never a visit to a subset that is not closed.
        """
        closure = self.closure
        singles = [closure(1 << i) for i in range(n)]
        a = closure(0)
        found = [a]
        while True:
            for i in range(n):
                if a >> i & 1:
                    continue
                above = -(2 << i)
                b = closure(a & above | singles[i])
                if b & above == a & above:
                    a = b
                    found.append(a)
                    break
            else:
                return found


@per_algebra
def _ideal_rules(alg: FiniteAlgebra) -> _Rules:
    """0 in I, then (I1) and (I2), each with b outer and a inner.

    (I1): b and a*b^alpha in I force a.  (I2): a^alpha*b and b^alpha*a in I
    force every (a*c)^alpha*(b*c) and (c*a)^alpha*(c*b).  The witness is
    (rule, a, b); for "0 in I" a = b = zero.
    """
    n, t, al, zero = alg.size, alg.times, alg.alpha, alg.zero
    rules = [(0, 1 << zero, ("0 in I", zero, zero))]
    rules += [(1 << b | 1 << t[a][al[b]], 1 << a, ("(I1)", a, b))
              for b in range(n) for a in range(n)]
    for b in range(n):
        for a in range(n):
            req = 0
            for c in range(n):
                req |= 1 << t[al[t[a][c]]][t[b][c]] | 1 << t[al[t[c][a]]][t[c][b]]
            rules.append((1 << t[al[a]][b] | 1 << t[al[b]][a], req, ("(I2)", a, b)))
    return _Rules(rules)


@dataclass(frozen=True)
class IdealCheck:
    """Verdict of the (I1)/(I2) predicate with a witness on failure."""

    ok: bool
    failed: Optional[str] = None          # "0 in I" | "(I1)" | "(I2)"
    witness: tuple[tuple[str, int], ...] = ()
    detail: str = ""

    def render_witness(self, alg: FiniteAlgebra) -> str:
        return ", ".join(f"{k}={alg.label(v)}" for k, v in self.witness)


def is_ideal(alg: FiniteAlgebra, s: ElementSet) -> IdealCheck:
    """0 in s plus closure conditions (I1) and (I2), checked exhaustively.

    The first failure is reported: 0 in s, then (I1), then (I2), each scanned
    with b outer and a inner; an (I2) witness adds the first c whose product
    escapes s.
    """
    failure = _ideal_rules(alg).first_failure(s.mask)
    if failure is None:
        return IdealCheck(True)
    rule, a, b = failure[2]
    if rule == "0 in I":
        return IdealCheck(False, rule, (), "the designated zero is missing")
    if rule == "(I1)":
        return IdealCheck(False, rule, (("a", a), ("b", b)),
                          "a*b^a in S and b in S but a not in S")
    t, al = alg.times, alg.alpha
    c, detail = next((c, detail) for c in range(alg.size)
                     for v, detail in ((t[al[t[a][c]]][t[b][c]], "(a*c)^a*(b*c) escapes S"),
                                       (t[al[t[c][a]]][t[c][b]], "(c*a)^a*(c*b) escapes S"))
                     if v not in s)
    return IdealCheck(False, rule, (("a", a), ("b", b), ("c", c)), detail)


def generate_ideal(alg: FiniteAlgebra, seed: ElementSet) -> ElementSet:
    """Least ideal containing seed: (I1)/(I2) read as Horn rules, plus 0.

    Each failure adds what its rule forces (the missing a for "0 in I" and
    (I1), the (I2) requirement of (a, b) otherwise); the loop stops only when
    no rule fires, so the result is an ideal, and only forced elements were
    added, so it is the least one.
    """
    return ElementSet(alg.size, _ideal_rules(alg).closure(seed.mask))


@dataclass(frozen=True)
class ThetaResult:
    """theta(I) together with its verification status.

    For an ideal of a Lukasiewicz near semiring the relation is a congruence
    whose 0-coset is exactly the input; for anything else the defect is
    documented and ``partition`` stays None (the adjudication path).
    """

    relation: frozenset[tuple[int, int]]
    partition: Optional[Partition]
    defect: Optional[str] = None
    witness: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.partition is not None


def theta_of_ideal(alg: FiniteAlgebra, s: ElementSet) -> ThetaResult:
    """The relation a ~ b iff a^alpha*b and b^alpha*a both land in s."""
    n, t, al = alg.size, alg.times, alg.alpha
    rel = frozenset((a, b) for a in range(n) for b in range(n)
                    if (s.mask >> t[al[a]][b] & 1) and (s.mask >> t[al[b]][a] & 1))
    for a in range(n):
        if (a, a) not in rel:
            return ThetaResult(rel, None, "not reflexive", (a,))
    by_first: dict[int, set[int]] = {}
    for a, b in rel:
        by_first.setdefault(a, set()).add(b)
    for a, b in rel:
        for c in by_first[b]:
            if c not in by_first[a]:
                return ThetaResult(rel, None, "not transitive", (a, b, c))
    part = Partition.from_pairs(n, rel)
    defect = part.congruence_defect(alg)
    if defect is not None:
        return ThetaResult(rel, None, f"not a congruence: {defect}", ())
    coset = ElementSet.from_members(n, part.block_of(alg.zero))
    if coset.mask != s.mask:
        return ThetaResult(rel, None,
                           f"0-coset is {coset.members()} instead of the input", ())
    return ThetaResult(rel, part)


def theta_partition(alg: FiniteAlgebra, s: ElementSet) -> Partition:
    """theta(I) for a known ideal; raises if verification fails."""
    res = theta_of_ideal(alg, s)
    if res.partition is None:
        raise ValueError(f"theta of {s.members()} is not a congruence: {res.defect}")
    return res.partition


# -- the ideal lattice ----------------------------------------------------


@dataclass(frozen=True)
class IdealLattice:
    """All ideals with containment order, join/meet tables and pseudocomplements.

    The ideals are the congruence kernels; meets are intersections and a
    join is the least ideal above both (see all_ideals).
    """

    algebra: FiniteAlgebra
    ideals: tuple[ElementSet, ...]         # by size, so ideals[0] is {0}
    join_table: tuple[tuple[int, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]
    pseudocomplements: tuple[int, ...]
    oracle_partial: bool = False

    @cached_property
    def _lookup(self) -> dict[int, int]:
        return {s.mask: i for i, s in enumerate(self.ideals)}

    def index(self, s: ElementSet) -> int:
        try:
            return self._lookup[s.mask]
        except KeyError:
            raise KeyError(f"{s.members()} is not an ideal of this lattice") from None

    def contains(self, s: ElementSet) -> bool:
        return s.mask in self._lookup

    def leq(self, i: int, j: int) -> bool:
        return self.ideals[i].issubset(self.ideals[j])

    def join(self, i: int, j: int) -> ElementSet:
        return self.ideals[self.join_table[i][j]]

    def meet(self, i: int, j: int) -> ElementSet:
        return self.ideals[self.meet_table[i][j]]

    def pseudocomplement_of(self, s: ElementSet) -> ElementSet:
        return self.ideals[self.pseudocomplements[self.index(s)]]

    def join_of_family(self, indices: Iterable[int]) -> ElementSet:
        """Join of an arbitrary family; the empty family joins to {0}."""
        acc = 0
        for i in indices:
            acc = self.join_table[acc][i]
        return self.ideals[acc]


def all_ideals(alg: FiniteAlgebra,
               threshold: int = DEFAULT_SUBSET_THRESHOLD) -> IdealLattice:
    """Id(A) with the lattice structure, cross-checked against Con(A) kernels.

    At every size each congruence 0-coset is checked against (I1)/(I2).
    Within the threshold every (I1)/(I2)-closed subset is listed as well and
    the ideals are asserted equal to the 0-cosets (the kernel correspondence);
    beyond it the result is flagged oracle-partial: the kernels are ideals,
    but that no other ideal exists was not checked.

    The lattice is read off the kernel family, with no closure run to build
    it.  The meet of two members is their intersection, checked to be a
    member.  A family closed under intersection that holds A (the kernel of
    the full congruence) has a least member above I u J, the intersection of
    all members above it; every other member above is larger, so in size
    order it comes first.  Within the threshold the family is every closed
    set, so that member is also the (I1)/(I2) closure of I u J.
    """
    require_class(alg, LUK_NRS, "all_ideals")
    n = alg.size
    cons = all_congruences(alg)
    kernels = {ElementSet.from_members(n, p.block_of(alg.zero)).mask for p in cons}

    rules = _ideal_rules(alg)
    not_ideals = sorted(m for m in kernels if rules.first_failure(m) is not None)
    if not_ideals:
        raise AssertionError("congruence kernels fail the ideal predicate on a "
                             f"Lukasiewicz near semiring: {not_ideals}")
    oracle_partial = n > threshold
    if not oracle_partial:
        scanned = rules.closed(n)
        if set(scanned) != kernels:
            raise AssertionError(
                "ideal predicate and congruence kernels disagree on a "
                f"Lukasiewicz near semiring: subsets {sorted(scanned)} vs "
                f"kernels {sorted(kernels)}")

    # ideals[0] is {0}: every kernel holds 0, and the discrete congruence has {0}
    ideals = tuple(sorted((ElementSet(n, m) for m in kernels), key=set_sort_key))
    k = len(ideals)
    lookup = {s.mask: i for i, s in enumerate(ideals)}
    # up[i]: the members that contain ideals[i], as a k-bit int
    up = [sum(1 << j for j, t in enumerate(ideals) if s.issubset(t)) for s in ideals]

    # each join is the least member above both (see the docstring), which
    # holds only if every meet is a member: the loop raises before returning
    # if one is not
    join_table = [[0] * k for _ in range(k)]
    meet_table = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            met = (ideals[i] & ideals[j]).mask
            if met not in lookup:
                raise AssertionError(
                    f"ideals are not closed under meet: {ideals[i].members()} meet "
                    f"{ideals[j].members()} is {ElementSet(n, met).members()}")
            above = up[i] & up[j]
            if not above:
                raise AssertionError(f"no ideal holds both {ideals[i].members()} "
                                     f"and {ideals[j].members()}")
            join_table[i][j] = join_table[j][i] = (above & -above).bit_length() - 1
            meet_table[i][j] = meet_table[j][i] = lookup[met]

    # the star of i joins every ideal meeting i in {0}, so it holds them all;
    # that it meets i in {0} itself is the part to check
    pstar = []
    for i in range(k):
        acc = 0
        for j in range(k):
            if meet_table[i][j] == 0:
                acc = join_table[acc][j]
        if meet_table[i][acc] != 0:
            raise AssertionError("pseudocomplement verification failed")
        pstar.append(acc)

    return IdealLattice(alg, ideals, tuple(tuple(r) for r in join_table),
                        tuple(tuple(r) for r in meet_table), tuple(pstar),
                        oracle_partial)


@dataclass(frozen=True)
class JoinViaCoset:
    """Both routes to the ideal join: the coset route and the generated ideal."""

    coset_route: ElementSet     # [I]_theta(J)
    generated: ElementSet       # least ideal containing I union J

    @property
    def agree(self) -> bool:
        return self.coset_route.mask == self.generated.mask


def ideal_join_via_coset(alg: FiniteAlgebra, i: ElementSet, j: ElementSet) -> JoinViaCoset:
    """[I]_theta(J) compared with the generated join (they coincide on luk-nrs)."""
    theta_j = theta_partition(alg, j)
    coset = ElementSet.from_members(
        alg.size, (a for block in theta_j.blocks if any(b in i for b in block) for a in block))
    return JoinViaCoset(coset, generate_ideal(alg, i | j))


def pseudocomplement(alg: FiniteAlgebra, i: ElementSet) -> ElementSet:
    """Largest ideal meeting i trivially (join over all such ideals)."""
    return all_ideals(alg).pseudocomplement_of(i)


@dataclass(frozen=True)
class SkeletonReport:
    """The Boolean skeleton {I* : I ideal} with all its verification results."""

    members: tuple[ElementSet, ...]
    boolean_failures: tuple[str, ...]
    central_ideals: tuple[ElementSet, ...]      # {I(e) : e central}, sorted
    intervals_ok: bool                          # every member is [0, e] with e central

    @property
    def matches_central_ideals(self) -> bool:
        return self.members == self.central_ideals

    @property
    def ok(self) -> bool:
        return (not self.boolean_failures and self.matches_central_ideals
                and self.intervals_ok)


def skeleton(alg: FiniteAlgebra) -> SkeletonReport:
    """{I* : I in Id(A)} as a Boolean lattice, compared with the central ideals.

    Requires an inrs, as centrality does."""
    from .center import central_elements, verify_boolean_laws

    lattice = all_ideals(alg)
    star, meet_table = lattice.pseudocomplements, lattice.meet_table
    member_idx = sorted(set(star))
    members = tuple(lattice.ideals[i] for i in member_idx)
    pos = {i: p for p, i in enumerate(member_idx)}

    # the complement I* and the skeleton join (I* meet J*)* are
    # pseudocomplements, so they are members; only the meet can leave
    failures = [f"meet of members {p},{q} leaves the skeleton"
                for p, i in enumerate(member_idx) for q, j in enumerate(member_idx)
                if meet_table[i][j] not in pos]
    meet = [[pos.get(meet_table[i][j], p) for j in member_idx]
            for p, i in enumerate(member_idx)]
    join = [[pos[star[meet_table[star[i]][star[j]]]] for j in member_idx] for i in member_idx]
    comp = [pos[star[i]] for i in member_idx]
    bot = pos.get(0)
    top = pos.get(len(lattice.ideals) - 1)
    if bot is None or top is None:
        failures.append("skeleton is not bounded by {0} and A")
    else:
        failures.extend(verify_boolean_laws(meet, join, comp, bot, top))

    ce = central_elements(alg)
    central = sorted((principal_ideal(alg, e) for e in ce), key=set_sort_key)
    intervals_ok = True
    for s in members:
        tops = [e for e in s.members()
                if all(alg.plus[v][e] == e for v in s.members())]
        down = tops and ElementSet.from_members(
            alg.size, (v for v in range(alg.size) if alg.plus[v][tops[0]] == tops[0]))
        if not tops or down.mask != s.mask or tops[0] not in ce:
            intervals_ok = False
    return SkeletonReport(members, tuple(failures), tuple(central), intervals_ok)


def principal_ideal(alg: FiniteAlgebra, a: int) -> ElementSet:
    """Least ideal containing a: the 0-coset of the principal congruence theta(a, 0)."""
    return ElementSet.from_members(alg.size, kernel(alg, a).block_of(alg.zero))


@dataclass(frozen=True)
class PrincipalIdealReport:
    """The kernel route vs the unary-polynomial description of I(a)."""

    element: int
    ideal: ElementSet                # 0-coset of theta(a, 0)
    polynomial_route: ElementSet     # {p(a) : p unary polynomial, p(0) = 0}

    @property
    def agree(self) -> bool:
        return self.ideal.mask == self.polynomial_route.mask


def principal_ideal_report(alg: FiniteAlgebra, a: int) -> PrincipalIdealReport:
    ideal = principal_ideal(alg, a)
    pol_route = ElementSet.from_members(
        alg.size, (c for c, d in polynomial_pairs(alg, a, alg.zero) if d == alg.zero))
    return PrincipalIdealReport(a, ideal, pol_route)


# -- the semiring-specific claims (adjudicated, not assumed) ----------------


@dataclass(frozen=True)
class ClaimFinding:
    """A target on which a semiring-style claim and the workbench disagree."""

    claim: str                       # stable claim identifier
    target_kind: str                 # "subset" | "element"
    target: str                      # rendered with element names
    detail: str
    witness: str


@per_algebra
def _semiring_rules(alg: FiniteAlgebra) -> _Rules:
    """(i) 0 in S, then (ii) b outer and a inner, then (iii) c outer and a
    inner, a*c before c*a; the witness is (why, witness pairs)."""
    n, p, t, zero = alg.size, alg.plus, alg.times, alg.zero
    rules = [(0, 1 << zero, ("(i) 0 not in S", ()))]
    rules += [(1 << a | 1 << b, 1 << p[a][b], ("(ii) not closed under +", (("a", a), ("b", b))))
              for b in range(n) for a in range(n)]
    for c in range(n):
        for a in range(n):
            rules.append((1 << a, 1 << t[a][c], ("(iii) a*c escapes S", (("a", a), ("c", c)))))
            rules.append((1 << a, 1 << t[c][a], ("(iii) c*a escapes S", (("a", a), ("c", c)))))
    return _Rules(rules)


def subset_conditions(alg: FiniteAlgebra, s: ElementSet):
    """The commutative-semiring-style conditions (i)-(iii) for a subset."""
    failure = _semiring_rules(alg).first_failure(s.mask)
    if failure is None:
        return True, "", ()
    return (False,) + failure[2]


def claim_for_subset(alg: FiniteAlgebra, s: ElementSet) -> ClaimFinding:
    """The finding for a subset on which (I1)/(I2) and (i)-(iii) disagree."""
    check = is_ideal(alg, s)
    target = s.render(alg)
    if not check.ok:
        return ClaimFinding("semiring-ideal-conditions", "subset", target,
                            "conditions (i)-(iii) hold but the ideal predicate fails",
                            f"{check.failed} {check.render_witness(alg)}")
    _, conds_why, conds_witness = subset_conditions(alg, s)
    witness = conds_why + (": " + ", ".join(f"{k}={alg.label(v)}" for k, v in conds_witness)
                           if conds_witness else "")
    return ClaimFinding("semiring-ideal-conditions", "subset", target,
                        "the ideal predicate holds but conditions (i)-(iii) fail",
                        witness)


def claim_for_element(alg: FiniteAlgebra, a: int) -> Optional[ClaimFinding]:
    """The finding where {a*c | c in A} is not I(a), or None."""
    products = ElementSet.from_members(alg.size,
                                       (alg.times[a][c] for c in range(alg.size)))
    ideal = principal_ideal(alg, a)
    if products.mask == ideal.mask:
        return None
    detail = (f"{{{alg.label(a)}*c | c in A}} = {products.render(alg)}"
              f" vs I({alg.label(a)}) = {ideal.render(alg)}")
    missing = ideal.mask & ~products.mask
    extra = products.mask & ~ideal.mask
    parts = []
    if missing:
        parts.append("missing: " + ElementSet(alg.size, missing).render(alg))
    if extra:
        parts.append("extra: " + ElementSet(alg.size, extra).render(alg))
    return ClaimFinding("principal-ideal-products", "element", alg.label(a),
                        detail, "; ".join(parts))


@dataclass(frozen=True)
class ClaimsReport:
    agree: int                                # targets with no finding
    disagreements: tuple[ClaimFinding, ...]
    subsets_scanned: bool


def semiring_claims_report(alg: FiniteAlgebra,
                           threshold: int = DEFAULT_SUBSET_THRESHOLD) -> ClaimsReport:
    """Evaluate both semiring-specific claims over every subset and element.

    The subsets on which the claim errs are the symmetric difference of the
    (I1)/(I2) and (i)-(iii) closed sets; a finding is built only for those,
    and for the elements whose products miss I(a).  Requires a Lukasiewicz
    semiring (the claims are only stated there); inputs that miss the class
    are rejected with the failed axiom.
    """
    require_class(alg, LUK_RS, "semiring_claims_report")
    n = alg.size
    subsets_scanned = n <= threshold
    split = (set(_ideal_rules(alg).closed(n)) ^ set(_semiring_rules(alg).closed(n))
             if subsets_scanned else ())
    findings = [claim_for_subset(alg, ElementSet(n, m)) for m in sorted(split)]
    findings += filter(None, (claim_for_element(alg, a) for a in range(n)))
    targets = (1 << n if subsets_scanned else 0) + n
    return ClaimsReport(targets - len(findings), tuple(findings), subsets_scanned)
