"""Ideals: the two-condition predicate, generation, theta(I), the ideal lattice.

The whole point of this module is dual-route computation: the subset
predicate (I1)/(I2) on one side and congruence kernels on the other.  Where
the two routes are supposed to coincide they are recomputed independently and
compared; genuine disagreements (they exist for the semiring-style claims)
surface as report findings, never as crashes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .axioms import LUK_NRS, LUK_RS, require_class
from .congruences import Partition, all_congruences, kernel, polynomial_pairs
from .core import FiniteAlgebra

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


class _IdealRules:
    """(I1) and (I2) of one algebra as element tables over bitmask subsets.

    ``i1[b][a] = a*b^alpha``; ``hyp[a][b] = a^alpha*b``; ``i2[a][b]`` is the
    mask of every ``(a*c)^alpha*(b*c)`` and ``(c*a)^alpha*(c*b)``, which (I2)
    requires once ``hyp[a][b]`` and ``hyp[b][a]`` are in.  Built once per
    algebra (see ``_ideal_rules``).
    """

    def __init__(self, alg: FiniteAlgebra):
        n, t, al = alg.size, alg.times, alg.alpha
        self.n = n
        self.zero = alg.zero
        self.i1 = [[t[a][al[b]] for a in range(n)] for b in range(n)]
        self.hyp = [[t[al[a]][b] for b in range(n)] for a in range(n)]
        i2 = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                req = 0
                for c in range(n):
                    req |= 1 << t[al[t[a][c]]][t[b][c]]
                    req |= 1 << t[al[t[c][a]]][t[c][b]]
                i2[a][b] = req
        self.i2 = i2

    def first_failure(self, mask: int) -> Optional[tuple[str, int, int]]:
        """The first rule the subset breaks, with its (a, b), or None.

        Order: "0 in I" (a = b = zero), then "(I1)" and "(I2)", each with b
        outer and a inner.  For "0 in I" and "(I1)" the missing element is a.
        """
        if not mask >> self.zero & 1:
            return "0 in I", self.zero, self.zero
        n, i1 = self.n, self.i1
        for b in range(n):
            if mask >> b & 1:
                row = i1[b]
                for a in range(n):
                    if (mask >> row[a] & 1) and not (mask >> a & 1):
                        return "(I1)", a, b
        hyp, i2 = self.hyp, self.i2
        for b in range(n):
            for a in range(n):
                if (mask >> hyp[a][b] & 1) and (mask >> hyp[b][a] & 1) and i2[a][b] & ~mask:
                    return "(I2)", a, b
        return None


_rules: "weakref.WeakKeyDictionary[FiniteAlgebra, _IdealRules]" = weakref.WeakKeyDictionary()


def _ideal_rules(alg: FiniteAlgebra) -> _IdealRules:
    """The rule table of alg, remembered while the algebra lives."""
    try:
        return _rules[alg]
    except KeyError:
        rules = _rules[alg] = _IdealRules(alg)
        return rules


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
    rule, a, b = failure
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
    rules = _ideal_rules(alg)
    mask = seed.mask
    while (failure := rules.first_failure(mask)) is not None:
        rule, a, b = failure
        mask |= rules.i2[a][b] if rule == "(I2)" else 1 << a
    return ElementSet(alg.size, mask)


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
    n, hyp = alg.size, _ideal_rules(alg).hyp
    rel = frozenset((a, b) for a in range(n) for b in range(n)
                    if (s.mask >> hyp[a][b] & 1) and (s.mask >> hyp[b][a] & 1))
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
    """All ideals with containment order, join/meet tables and pseudocomplements."""

    algebra: FiniteAlgebra
    ideals: tuple[ElementSet, ...]
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

    @property
    def bottom(self) -> ElementSet:
        return self.ideals[0]

    @property
    def top(self) -> ElementSet:
        return self.ideals[-1]

    def join_of_family(self, indices: Iterable[int]) -> ElementSet:
        """Join of an arbitrary family; the empty family joins to {0}."""
        acc = self.index(ElementSet.from_members(self.algebra.size, [self.algebra.zero]))
        for i in indices:
            acc = self.join_table[acc][i]
        return self.ideals[acc]


def all_ideals(alg: FiniteAlgebra,
               threshold: int = DEFAULT_SUBSET_THRESHOLD) -> IdealLattice:
    """Id(A) with the lattice structure, cross-checked against Con(A) kernels.

    Within the brute-force threshold every subset is tested against the ideal
    predicate and the collection is asserted equal to the congruence 0-cosets
    (the kernel correspondence); beyond it the kernels alone are used and the
    result is flagged oracle-partial.
    """
    require_class(alg, LUK_NRS, "all_ideals")
    n = alg.size
    cons = all_congruences(alg)
    kernels = {ElementSet.from_members(n, p.block_of(alg.zero)).mask for p in cons}

    oracle_partial = n > threshold
    if not oracle_partial:
        rules = _ideal_rules(alg)
        scanned = [m for m in range(1 << n) if rules.first_failure(m) is None]
        if set(scanned) != kernels:
            raise AssertionError(
                "ideal predicate and congruence kernels disagree on a "
                f"Lukasiewicz near semiring: subsets {sorted(scanned)} vs "
                f"kernels {sorted(kernels)}")

    ideals = tuple(sorted((ElementSet(n, m) for m in kernels), key=set_sort_key))
    k = len(ideals)
    lookup = {s.mask: i for i, s in enumerate(ideals)}

    join_table = [[0] * k for _ in range(k)]
    meet_table = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            joined = generate_ideal(alg, ideals[i] | ideals[j])
            met = ideals[i] & ideals[j]
            if joined.mask not in lookup or met.mask not in lookup:
                raise AssertionError("ideals are not closed under join/meet")
            join_table[i][j] = join_table[j][i] = lookup[joined.mask]
            meet_table[i][j] = meet_table[j][i] = lookup[met.mask]

    # re-verify the lattice axioms against the containment order
    for i in range(k):
        for j in range(k):
            jt, mt = join_table[i][j], meet_table[i][j]
            ok_join = (ideals[i].issubset(ideals[jt]) and ideals[j].issubset(ideals[jt])
                       and all(not (ideals[i].issubset(ideals[u])
                                    and ideals[j].issubset(ideals[u]))
                               or ideals[jt].issubset(ideals[u]) for u in range(k)))
            ok_meet = (ideals[mt].issubset(ideals[i]) and ideals[mt].issubset(ideals[j])
                       and all(not (ideals[u].issubset(ideals[i])
                                    and ideals[u].issubset(ideals[j]))
                               or ideals[u].issubset(ideals[mt]) for u in range(k)))
            if not (ok_join and ok_meet):
                raise AssertionError("join/meet tables disagree with containment")

    pstar = []
    for i in range(k):
        acc = lookup[ElementSet.from_members(n, [alg.zero]).mask]
        for j in range(k):
            if meet_table[i][j] == 0 and len(ideals[meet_table[i][j]]) == 1:
                acc = join_table[acc][j]
        # verify: largest ideal meeting ideals[i] trivially
        star = ideals[acc]
        zero_ideal = ideals[0]
        if (ideals[meet_table[i][acc]] != zero_ideal
                or any((ideals[meet_table[i][j]] == zero_ideal)
                       and not ideals[j].issubset(star) for j in range(k))):
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
        alg.size, (a for a in range(alg.size)
                   if any(b in i for b in theta_j.block_of(a))))
    return JoinViaCoset(coset, generate_ideal(alg, i | j))


def pseudocomplement(alg: FiniteAlgebra, i: ElementSet,
                     lattice: Optional[IdealLattice] = None) -> ElementSet:
    """Largest ideal meeting i trivially (join over all such ideals)."""
    if lattice is None:
        lattice = all_ideals(alg)
    return lattice.pseudocomplement_of(i)


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


def skeleton(alg: FiniteAlgebra, lattice: Optional[IdealLattice] = None) -> SkeletonReport:
    """{I* : I in Id(A)} as a Boolean lattice, compared with the central ideals."""
    from .center import central_elements, verify_boolean_laws

    if lattice is None:
        lattice = all_ideals(alg)
    member_idx = sorted(set(lattice.pseudocomplements))
    members = tuple(lattice.ideals[i] for i in member_idx)
    pos = {i: p for p, i in enumerate(member_idx)}

    failures: list[str] = []

    def meet(p: int, q: int) -> int:
        got = lattice.meet_table[member_idx[p]][member_idx[q]]
        if got not in pos:
            failures.append(f"meet of members {p},{q} leaves the skeleton")
            return p
        return pos[got]

    def join(p: int, q: int) -> int:
        # skeleton join: (I* meet J*)*
        got = lattice.pseudocomplements[
            lattice.meet_table[lattice.pseudocomplements[member_idx[p]]]
                              [lattice.pseudocomplements[member_idx[q]]]]
        if got not in pos:
            failures.append(f"join of members {p},{q} leaves the skeleton")
            return p
        return pos[got]

    def comp(p: int) -> int:
        got = lattice.pseudocomplements[member_idx[p]]
        if got not in pos:
            failures.append(f"complement of member {p} leaves the skeleton")
            return p
        return pos[got]

    bot = pos.get(0)
    top = pos.get(len(lattice.ideals) - 1)
    if bot is None or top is None:
        failures.append("skeleton is not bounded by {0} and A")
    else:
        failures.extend(verify_boolean_laws(range(len(members)), meet, join, comp, bot, top))

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
    pairs = polynomial_pairs(alg, a, alg.zero)
    pol_route = ElementSet.from_members(
        alg.size, (c for c, d in pairs.pairs if d == alg.zero))
    return PrincipalIdealReport(a, ideal, pol_route)


# -- the semiring-specific claims (adjudicated, not assumed) ----------------


@dataclass(frozen=True)
class ClaimFinding:
    claim: str                       # stable claim identifier
    target_kind: str                 # "subset" | "element"
    target: str                      # rendered with element names
    verdict: str                     # "AGREE" | "DISAGREE"
    detail: str
    witness: str = ""


def subset_conditions(alg: FiniteAlgebra, s: ElementSet):
    """The commutative-semiring-style conditions (i)-(iii) for a subset."""
    if alg.zero not in s:
        return False, "(i) 0 not in S", ()
    members = s.members()
    for b in members:
        for a in members:
            if alg.plus[a][b] not in s:
                return False, "(ii) not closed under +", (("a", a), ("b", b))
    for c in range(alg.size):
        for a in members:
            if alg.times[a][c] not in s:
                return False, "(iii) a*c escapes S", (("a", a), ("c", c))
            if alg.times[c][a] not in s:
                return False, "(iii) c*a escapes S", (("a", a), ("c", c))
    return True, "", ()


def claim_for_subset(alg: FiniteAlgebra, s: ElementSet) -> ClaimFinding:
    conds_ok, conds_why, conds_witness = subset_conditions(alg, s)
    check = is_ideal(alg, s)
    target = s.render(alg)
    if conds_ok == check.ok:
        which = "both routes accept" if check.ok else "both routes reject"
        return ClaimFinding("semiring-ideal-conditions", "subset", target,
                            "AGREE", which)
    if conds_ok and not check.ok:
        witness = f"{check.failed} {check.render_witness(alg)}"
        return ClaimFinding("semiring-ideal-conditions", "subset", target,
                            "DISAGREE",
                            "conditions (i)-(iii) hold but the ideal predicate fails",
                            witness)
    witness = conds_why + (": " + ", ".join(f"{k}={alg.label(v)}" for k, v in conds_witness)
                           if conds_witness else "")
    return ClaimFinding("semiring-ideal-conditions", "subset", target, "DISAGREE",
                        "the ideal predicate holds but conditions (i)-(iii) fail",
                        witness)


def claim_for_element(alg: FiniteAlgebra, a: int) -> ClaimFinding:
    products = ElementSet.from_members(alg.size,
                                       (alg.times[a][c] for c in range(alg.size)))
    ideal = principal_ideal(alg, a)
    target = alg.label(a)
    detail = (f"{{{alg.label(a)}*c | c in A}} = {products.render(alg)}"
              f" vs I({alg.label(a)}) = {ideal.render(alg)}")
    if products.mask == ideal.mask:
        return ClaimFinding("principal-ideal-products", "element", target,
                            "AGREE", detail)
    missing = ideal.mask & ~products.mask
    extra = products.mask & ~ideal.mask
    parts = []
    if missing:
        parts.append("missing: " + ElementSet(alg.size, missing).render(alg))
    if extra:
        parts.append("extra: " + ElementSet(alg.size, extra).render(alg))
    return ClaimFinding("principal-ideal-products", "element", target,
                        "DISAGREE", detail, "; ".join(parts))


@dataclass(frozen=True)
class ClaimsReport:
    findings: tuple[ClaimFinding, ...]
    subsets_scanned: bool

    def disagreements(self) -> tuple[ClaimFinding, ...]:
        return tuple(f for f in self.findings if f.verdict == "DISAGREE")

    @property
    def ok(self) -> bool:
        return not self.disagreements()


def semiring_claims_report(alg: FiniteAlgebra,
                           threshold: int = DEFAULT_SUBSET_THRESHOLD) -> ClaimsReport:
    """Evaluate both semiring-specific claims over every subset and element.

    Requires a Lukasiewicz semiring (the claims are only stated there);
    inputs that miss the class are rejected with the failed axiom.
    """
    require_class(alg, LUK_RS, "semiring_claims_report")
    findings: list[ClaimFinding] = []
    subsets_scanned = alg.size <= threshold
    if subsets_scanned:
        for mask in range(1 << alg.size):
            findings.append(claim_for_subset(alg, ElementSet(alg.size, mask)))
    for a in range(alg.size):
        findings.append(claim_for_element(alg, a))
    return ClaimsReport(tuple(findings), subsets_scanned)
