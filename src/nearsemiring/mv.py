"""Term-equivalence bridge between Lukasiewicz semirings and MV-algebras.

Both directions are plain table transforms; round trips are required to be
table-identical (the translations are term operations on the same carrier),
and every produced structure is re-checked against its axioms.  MV-ideals are
a table of Horn rules on the subset engine of the ideals module, built once
per ideal_correspondence_report; the subsets closed under it are compared
with those closed under the (I1)/(I2) table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .axioms import LUK_RS, CheckOutcome, check_axioms, require_class
from .core import AlgebraError, FiniteAlgebra, Table, _as_table, _as_vector
from .ideals import ElementSet, _ideal_rules, _Rules


class AdjudicationError(Exception):
    """A verification the theory promises can never fail did fail."""


@dataclass(frozen=True)
class MVAlgebra:
    """Finite MV-algebra as tables: a commutative oplus monoid with involution."""

    size: int
    oplus: Table
    neg: tuple[int, ...]
    zero: int = 0
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        n = self.size
        if n < 1:
            raise ValueError(f"size must be positive, got {n}")
        object.__setattr__(self, "oplus", _as_table(self.oplus, n, "oplus"))
        object.__setattr__(self, "neg", _as_vector(self.neg, n, "neg"))
        if not 0 <= self.zero < n:
            raise ValueError(f"zero = {self.zero} is outside the universe")
        if self.names is not None:
            names = tuple(str(s) for s in self.names)
            if len(names) != n:
                raise AlgebraError(f"names must have {n} entries, got {len(names)}")
            object.__setattr__(self, "names", names)

    @property
    def one(self) -> int:
        return self.neg[self.zero]

    def label(self, v: int) -> str:
        return self.names[v] if self.names is not None else str(v)

    def same_tables(self, other: "MVAlgebra") -> bool:
        return (self.size == other.size and self.oplus == other.oplus
                and self.neg == other.neg and self.zero == other.zero)

    def mv_leq(self, a: int, b: int) -> bool:
        return self.oplus[self.neg[a]][b] == self.one


@dataclass(frozen=True)
class MVReport:
    checks: tuple[CheckOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckOutcome, ...]:
        return tuple(c for c in self.checks if not c.ok)


def check_mv_axioms(mv: MVAlgebra) -> MVReport:
    """A standard complete finite axiom set, checked exhaustively."""
    n, op, neg, zero = mv.size, mv.oplus, mv.neg, mv.zero
    one = mv.one
    checks: list[CheckOutcome] = []

    def law(name: str, violations) -> None:
        first = next(iter(violations), None)
        checks.append(CheckOutcome(name, first is None,
                                   detail="" if first is None else f"at {first}"))

    law("oplus commutative",
        ((a, b) for a in range(n) for b in range(n) if op[a][b] != op[b][a]))
    law("oplus associative",
        ((a, b, c) for a in range(n) for b in range(n) for c in range(n)
         if op[op[a][b]][c] != op[a][op[b][c]]))
    law("zero is neutral", (a for a in range(n) if op[zero][a] != a))
    law("double negation", (a for a in range(n) if neg[neg[a]] != a))
    law("neg(neg x + y) + y symmetric",
        ((a, b) for a in range(n) for b in range(n)
         if op[neg[op[neg[a]][b]]][b] != op[neg[op[neg[b]][a]]][a]))
    law("one absorbs", (a for a in range(n) if op[a][one] != one))
    return MVReport(tuple(checks))


def to_mv(alg: FiniteAlgebra) -> MVAlgebra:
    """x (+) y = ((x^a + y) * y^a)^a on a Lukasiewicz semiring."""
    require_class(alg, LUK_RS, "to_mv")
    n, p, t, al = alg.size, alg.plus, alg.times, alg.alpha
    oplus = [[al[t[p[al[a]][b]][al[b]]] for b in range(n)] for a in range(n)]
    mv = MVAlgebra(size=n, oplus=oplus, neg=al, zero=alg.zero, names=alg.names)
    report = check_mv_axioms(mv)
    if not report.ok:
        raise AdjudicationError(
            "translated structure fails MV axioms: "
            + ", ".join(c.name + " " + c.detail for c in report.failures()))
    return mv


def from_mv(mv: MVAlgebra) -> FiniteAlgebra:
    """Recover +, *, alpha, 1 from oplus and negation.

    x + y = neg(neg x (+) y) (+) y, x * y = neg(neg x (+) neg y), 1 = neg 0.
    """
    report = check_mv_axioms(mv)
    if not report.ok:
        raise ValueError("input fails MV axioms: "
                         + ", ".join(c.name for c in report.failures()))
    n, op, neg = mv.size, mv.oplus, mv.neg
    plus = [[op[neg[op[neg[a]][b]]][b] for b in range(n)] for a in range(n)]
    times = [[neg[op[neg[a]][neg[b]]] for b in range(n)] for a in range(n)]
    alg = FiniteAlgebra(size=n, plus=plus, times=times, alpha=neg,
                        zero=mv.zero, one=mv.one, names=mv.names)
    back = check_axioms(alg, LUK_RS)
    if not back.ok:
        raise AdjudicationError(
            "translated structure fails Lukasiewicz semiring axioms: "
            + ", ".join(c.name for c in back.failures()))
    return alg


@dataclass(frozen=True)
class RoundTrip:
    ok: bool
    mismatch: str = ""      # first differing table cell, when not ok


def roundtrip_check(x: Union[FiniteAlgebra, MVAlgebra]) -> RoundTrip:
    """R(M(A)) = A for semirings, M(R(B)) = B for MV-algebras, on the nose."""
    if isinstance(x, FiniteAlgebra):
        back = from_mv(to_mv(x))
        for name, mine, theirs in (("plus", x.plus, back.plus),
                                   ("times", x.times, back.times)):
            for i, j in itertools.product(range(x.size), repeat=2):
                if mine[i][j] != theirs[i][j]:
                    return RoundTrip(False,
                                     f"{name}[{i}][{j}]: {mine[i][j]} != {theirs[i][j]}")
        if x.alpha != back.alpha:
            return RoundTrip(False, "alpha differs")
        if (x.zero, x.one) != (back.zero, back.one):
            return RoundTrip(False, "designated constants differ")
        return RoundTrip(True)
    back_mv = to_mv(from_mv(x))
    for i, j in itertools.product(range(x.size), repeat=2):
        if x.oplus[i][j] != back_mv.oplus[i][j]:
            return RoundTrip(False,
                             f"oplus[{i}][{j}]: {x.oplus[i][j]} != {back_mv.oplus[i][j]}")
    if x.neg != back_mv.neg or x.zero != back_mv.zero:
        return RoundTrip(False, "neg or zero differs")
    return RoundTrip(True)


def _mv_ideal_rules(mv: MVAlgebra) -> _Rules:
    """0 in S, then a, b in S force a (+) b, then a in S forces its down-set."""
    n, op = mv.size, mv.oplus
    rules = [(0, 1 << mv.zero, None)]
    rules += [(1 << a | 1 << b, 1 << op[a][b], None) for a in range(n) for b in range(n)]
    rules += [(1 << a, sum(1 << b for b in range(n) if mv.mv_leq(b, a)), None)
              for a in range(n)]
    return _Rules(rules)


def mv_is_ideal(mv: MVAlgebra, s: ElementSet) -> bool:
    """MV-ideal: contains 0, closed under oplus, downward closed."""
    return _mv_ideal_rules(mv).first_failure(s.mask) is None


@dataclass(frozen=True)
class IdealCorrespondence:
    """Subset-by-subset comparison of the two ideal notions on one carrier."""

    disagreements: tuple[ElementSet, ...]

    @property
    def agree_everywhere(self) -> bool:
        return not self.disagreements


def ideal_correspondence_report(alg: FiniteAlgebra) -> IdealCorrespondence:
    """Is S semiring-ideal iff S MV-ideal of the translate?  Reported, not assumed."""
    n = alg.size
    split = set(_ideal_rules(alg).closed(n)) ^ set(_mv_ideal_rules(to_mv(alg)).closed(n))
    return IdealCorrespondence(tuple(ElementSet(n, m) for m in sorted(split)))
