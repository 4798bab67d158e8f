"""Term-equivalence bridge between Lukasiewicz semirings and MV-algebras.

Both directions are plain table transforms; round trips are required to be
table-identical (the translations are term operations on the same carrier),
and every produced structure is re-checked against its axioms once (the MV
axioms are the law table MV_LAWS, kept per instance).  MV-ideals are a table
of Horn rules on the subset engine of the ideals module, built once per
ideal_correspondence_report; the subsets closed under it are compared with
those closed under the (I1)/(I2) table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .axioms import (LUK_RS, LawReport, Laws, check_axioms, check_laws, classify,
                     require_class)
from .core import FiniteAlgebra, Table, _as_names, _as_table, _as_vector, per_algebra
from .ideals import ElementSet, _ideal_rules, _Rules
from .terms import ONE, ZERO, x, y, z


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
            object.__setattr__(self, "names", _as_names(self.names, n))

    # as on FiniteAlgebra: labels, and pickles and copies that compute their own memos
    __getstate__ = FiniteAlgebra.__getstate__
    label = FiniteAlgebra.label

    @property
    def one(self) -> int:
        return self.neg[self.zero]

    def same_tables(self, other: "MVAlgebra") -> bool:
        return (self.size == other.size and self.oplus == other.oplus
                and self.neg == other.neg and self.zero == other.zero)

    def mv_leq(self, a: int, b: int) -> bool:
        return self.oplus[self.neg[a]][b] == self.one


#: Chang's axioms (Cignoli, D'Ottaviano and Mundici, 2000) on the table view
#: of check_mv_axioms: + is oplus, alpha is neg and 1 is neg 0
MV_LAWS: Laws = (
    ("oplus commutative", (("", x + y, y + x),)),
    ("oplus associative", (("", (x + y) + z, x + (y + z)),)),
    ("zero is neutral", (("", ZERO + x, x),)),
    ("double negation", (("", x.a.a, x),)),
    ("neg(neg x + y) + y symmetric", (("", (x.a + y).a + y, (y.a + x).a + x),)),
    ("one absorbs", (("", x + ONE, ONE),)),
)


def _odot(mv: MVAlgebra) -> list[list[int]]:
    """The table of x (.) y = neg(neg x (+) neg y)."""
    n, op, neg = mv.size, mv.oplus, mv.neg
    return [[neg[op[neg[a]][neg[b]]] for b in range(n)] for a in range(n)]


@per_algebra
def check_mv_axioms(mv: MVAlgebra) -> LawReport:
    """MV_LAWS on mv read as a table algebra, with x*y = neg(neg x (+) neg y).

    Computed once per instance and kept on it; an equal copy computes its own.
    """
    view = FiniteAlgebra(mv.size, mv.oplus, _odot(mv), mv.neg, mv.zero, mv.one)
    return LawReport(check_laws(view, MV_LAWS))


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
            + ", ".join(f"{c.name} -- witness: {c.witness.render(mv)}"
                        for c in report.failures()))
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
    alg = FiniteAlgebra(size=n, plus=plus, times=_odot(mv), alpha=neg,
                        zero=mv.zero, one=mv.one, names=mv.names)
    if classify(alg) != LUK_RS:
        raise AdjudicationError(
            "translated structure fails Lukasiewicz semiring axioms: "
            + ", ".join(c.name for c in check_axioms(alg, LUK_RS).failures()))
    return alg


@dataclass(frozen=True)
class RoundTrip:
    ok: bool
    mismatch: str = ""      # first differing table cell, when not ok


def roundtrip_check(x: Union[FiniteAlgebra, MVAlgebra]) -> RoundTrip:
    """R(M(A)) = A for semirings, M(R(B)) = B for MV-algebras, on the nose."""
    if isinstance(x, FiniteAlgebra):
        back = from_mv(to_mv(x))
        tables = (("plus", x.plus, back.plus), ("times", x.times, back.times))
        rest = (("alpha differs", x.alpha != back.alpha),
                ("designated constants differ", (x.zero, x.one) != (back.zero, back.one)))
    else:
        back = to_mv(from_mv(x))
        tables = (("oplus", x.oplus, back.oplus),)
        rest = (("neg or zero differs", x.neg != back.neg or x.zero != back.zero),)
    for name, mine, theirs in tables:
        for i, j in itertools.product(range(x.size), repeat=2):
            if mine[i][j] != theirs[i][j]:
                return RoundTrip(False, f"{name}[{i}][{j}]: {mine[i][j]} != {theirs[i][j]}")
    mismatch = next((what for what, differs in rest if differs), "")
    return RoundTrip(not mismatch, mismatch)


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
