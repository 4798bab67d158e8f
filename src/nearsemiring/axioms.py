"""Axiom and identity checking by evaluation over the operation tables.

``check_identity``, ``check_laws`` and ``check_axioms`` are exhaustive: they
scan every assignment of the variables (O(n^k) for k variables) and report
the first failing one as the witness.  They are the oracles the rest of the
workbench leans on, and they take no algebraic shortcuts.

``classify`` only needs a verdict, so it decides the luk-rs axioms by exact
reductions that lean on the axioms before them: associativity of + by
up-sets, and the 3-variable laws (iii), (assoc) and (rdist) with x ranged
over G = J u {0}, the join-irreducibles of (A, +) and 0 (_decide_class gives
the arguments).  Every failure a caller sees is still worded from
``check_axioms``, so every witness comes from the full scans, which stay the
reference the tests hold ``classify`` to.  ``holds`` decides the reduced
identities, here and, through ``holds_at``, in ``center``.

Each identity is compiled, on first use, into one generated Python scan: nested
loops over the operation tables with the first variable varying fastest, so
the first failing assignment is the reported witness.  A variable ranges over
A unless the scan is given a domain of its own for it.  Each subterm, and each
table row it reads, is computed in the outermost loop where its variables are
bound.  The generated source names only the tables, its loop variables and
its hoisted locals.  ``terms.eval_term`` stays the
reference semantics the compiled scans are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Collection, Mapping, Optional

from .core import FiniteAlgebra, join_irreducibles, leq, per_algebra
from .terms import (JOIN_FROM_TIMES, LUK_LHS, LUK_RHS, ONE, ZERO, Alpha, Const, Plus,
                    Term, Times, Var, x, y, z)

INRS = "inrs"
LUK_NRS = "luk-nrs"
LUK_RS = "luk-rs"
CLASSES = (INRS, LUK_NRS, LUK_RS)


@dataclass(frozen=True)
class Witness:
    """A falsifying assignment together with the two evaluated sides."""

    env: tuple[tuple[str, int], ...]
    lhs: int
    rhs: int

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.env)

    def render(self, alg: FiniteAlgebra) -> str:
        binds = ", ".join(f"{k}={alg.label(v)}" for k, v in self.env)
        return f"{binds}: lhs={alg.label(self.lhs)} rhs={alg.label(self.rhs)}"


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    witness: Optional[Witness] = None
    detail: str = ""


@lru_cache(maxsize=256)
def _compile(lhs: Term, rhs: Term, fixed: tuple[str, ...], ranged: tuple[str, ...] = ()
             ) -> tuple[tuple[str, ...], Callable]:
    """The scanned variables and the scan for lhs = rhs.

    ``scan(P, T, A, Z, O, R, *fixed values, *domains)`` takes the plus, times
    and alpha tables, the constants 0 and 1 and range(n), and returns the
    first failing assignment, first variable fastest, as a tuple
    (values..., lhs, rhs), or None.  Every variable ranges over R except the
    ``ranged`` ones: each ranges over its own argument after the fixed
    values, in the order of ``ranged``.

    Every subterm, and every table row a product or sum reads, is computed
    once in the outermost loop where all of its variables are bound (before
    the loops if it reads only fixed values and constants), as a local
    h0, h1, ...; only the subterms that read the innermost variable are
    evaluated per instance.  Equal subterms share one local.
    """
    variables = tuple(v for v in dict.fromkeys(lhs.variables() + rhs.variables())
                      if v not in fixed)
    k = len(variables)
    # a fixed value is bound on entry (depth 0), variable i by the loop at depth k - i
    bound = {name: (f"f{i}", 0) for i, name in enumerate(fixed)}
    bound.update((name, (f"v{i}", k - i)) for i, name in enumerate(variables))
    hoisted: list[list[str]] = [[] for _ in range(k + 1)]
    local: dict[str, str] = {}

    def bind(expr: str, depth: int) -> tuple[str, int]:
        """expr, or the local holding it when it is invariant in the innermost loop."""
        if depth == k:
            return expr, depth
        if expr not in local:
            local[expr] = f"h{len(local)}"
            hoisted[depth].append(f"{local[expr]} = {expr}")
        return local[expr], depth

    def source(t: Term) -> tuple[str, int]:
        """t as a Python expression over the tables, and the depth binding it."""
        if isinstance(t, Var):
            return bound[t.name]
        if isinstance(t, Const):
            return ("Z" if t.which == "0" else "O"), 0
        if isinstance(t, Alpha):
            arg, depth = source(t.arg)
            return bind(f"A[{arg}]", depth)
        if isinstance(t, (Plus, Times)):
            (left, dl), (right, dr) = source(t.left), source(t.right)
            row, _ = bind(f"{'P' if isinstance(t, Plus) else 'T'}[{left}]", dl)
            return bind(f"{row}[{right}]", max(dl, dr))
        raise TypeError(f"not a term: {t!r}")

    (left, _), (right, _) = source(lhs), source(rhs)
    domain = {name: f"f{len(fixed) + i}" for i, name in enumerate(ranged)}
    params = ", ".join(["P", "T", "A", "Z", "O", "R"]
                       + [f"f{i}" for i in range(len(fixed) + len(ranged))])
    lines = [f"def scan({params}):"] + [" " + h for h in hoisted[0]]
    for depth in range(1, k + 1):
        i = k - depth
        lines.append(" " * depth + f"for v{i} in {domain.get(variables[i], 'R')}:")
        lines += [" " * (depth + 1) + h for h in hoisted[depth]]
    pad = " " * (k + 1)
    found = "".join(f"v{i}, " for i in range(k)) + f"{left}, {right}"
    lines += [f"{pad}if {left} != {right}:", f"{pad} return ({found})"]
    space: dict = {}
    exec("\n".join(lines), space)
    return variables, space["scan"]


@lru_cache(maxsize=1024)
def _passed(name: str) -> CheckOutcome:
    return CheckOutcome(name, True)


def check_identity(alg: FiniteAlgebra, name: str, lhs: Term, rhs: Term,
                   fixed: Optional[Mapping[str, int]] = None) -> CheckOutcome:
    """Scan every assignment of the variables of lhs = rhs for a failure.

    Variables in ``fixed`` are bound to the given elements: they are not
    scanned and do not appear in the witness.  A pass is one shared outcome
    per name.
    """
    fixed = fixed or {}
    variables, scan = _compile(lhs, rhs, tuple(fixed))
    R = range(alg.size)
    hit = scan(alg.plus, alg.times, alg.alpha, alg.zero, alg.one, R, *fixed.values())
    if hit is None:
        return _passed(name)
    *values, l, r = hit
    return CheckOutcome(name, False, Witness(tuple(zip(variables, values)), l, r))


def holds(alg: FiniteAlgebra, lhs: Term, rhs: Term,
          fixed: Optional[Mapping[str, int]] = None,
          domains: Optional[Mapping[str, Collection[int]]] = None) -> bool:
    """lhs = rhs with each variable of ``domains`` over its elements and
    every other one over A; ``fixed`` binds as in check_identity.

    Ranging g over G = J u {0} needs (i): then every x != 0 is a join of
    elements of J.  So if the identity reads f(g + y) = f(g) + f(y), a pass
    means that f preserves every binary join (write a = j + a' with j in J
    and induct on the number of joinands).  Likewise, two maps that preserve
    binary joins agree everywhere iff they agree on G.
    """
    fixed, domains = fixed or {}, domains or {}
    return holds_at(alg, lhs, rhs, tuple(fixed), tuple(domains),
                    *fixed.values(), *domains.values())


def holds_at(alg: FiniteAlgebra, lhs: Term, rhs: Term, fixed: tuple[str, ...],
             ranged: tuple[str, ...], *args: object) -> bool:
    """holds with the variable names apart from their values: args are the
    values of fixed, then the domains of ranged, in order.  A caller that
    decides one identity many times builds the name tuples once."""
    _, scan = _compile(lhs, rhs, fixed, ranged)
    return scan(alg.plus, alg.times, alg.alpha, alg.zero, alg.one, range(alg.size),
                *args) is None


def _antitone(alg: FiniteAlgebra) -> CheckOutcome:
    for b in range(alg.size):
        for a in range(alg.size):
            if leq(alg, a, b) and not leq(alg, alg.alpha[b], alg.alpha[a]):
                w = Witness((("x", a), ("y", b)),
                            alg.plus[alg.alpha[b]][alg.alpha[a]], alg.alpha[a])
                return CheckOutcome("(vi)", False, w, "x<=y but not y^a<=x^a")
    return CheckOutcome("(vi)", True)


Laws = tuple[tuple[str, tuple[tuple[str, Term, Term], ...]], ...]

#: the law of (i) that classify decides by up-sets (_join_associative)
_JOIN_ASSOCIATIVE = ("(x+y)+z = x+(y+z)", (x + y) + z, x + (y + z))
#: the identity axioms (i)-(v) of every class; an entry is a bundle of
#: identities (check_laws), and a lone identity carries no sublaw name
BASE_LAWS: Laws = (
    ("(i)", (("x+x = x", x + x, x),
             ("x+y = y+x", x + y, y + x),
             _JOIN_ASSOCIATIVE,
             ("0+x = x", ZERO + x, x),
             ("x+1 = 1", x + ONE, ONE))),
    ("(ii)", (("x*1 = x", x * ONE, x), ("1*x = x", ONE * x, x))),
    ("(iii)", (("", (x + y) * z, x * z + y * z),)),
    ("(iv)", (("x*0 = 0", x * ZERO, ZERO), ("0*x = 0", ZERO * x, ZERO))),
    ("(v)", (("", x.a.a, x),)),
)
_INTERCHANGE = ("(vii)", (("", LUK_LHS, LUK_RHS),))
#: the axioms each class adds after the antitone axiom (vi)
CLASS_LAWS: dict[str, Laws] = {
    INRS: (),
    LUK_NRS: (_INTERCHANGE,),
    LUK_RS: (_INTERCHANGE,
             ("(assoc)", (("", (x * y) * z, x * (y * z)),)),
             ("(comm)", (("", x * y, y * x),)),
             ("(rdist)", (("", z * (x + y), z * x + z * y),))),
}
#: consequences of the Lukasiewicz axioms, reported but never admitting
DERIVED_LAWS: Laws = (
    ("(viii)", (("", (x + y).a + x.a, x.a),)),
    ("x*x^a = x^a*x = 0", (("x*x^a = 0", x * x.a, ZERO), ("x^a*x = 0", x.a * x, ZERO))),
    ("x+y = ((x*y^a)^a*y^a)^a", (("", x + y, JOIN_FROM_TIMES),)),
)


def check_laws(alg: FiniteAlgebra, laws: Laws) -> tuple[CheckOutcome, ...]:
    """One verdict per entry of a law table, in table order: the first failing
    identity of its bundle, whose detail names the sublaw, or a pass."""
    out = []
    for name, bundle in laws:
        for sublaw, lhs, rhs in bundle:
            verdict = check_identity(alg, name, lhs, rhs)
            if not verdict.ok:
                verdict = replace(verdict, detail=sublaw)
                break
        out.append(verdict)
    return tuple(out)


@dataclass(frozen=True)
class LawReport:
    """Verdicts in check order: a law table's, and any checks that follow it."""

    checks: tuple[CheckOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckOutcome, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def outcome(self, name: str) -> CheckOutcome:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts for a requested class, plus the derived checks.

    The derived identities are evaluated on first access of ``derived``.
    """

    algebra_class: str
    axioms: tuple[CheckOutcome, ...]
    alg: FiniteAlgebra = field(repr=False, compare=False)

    @cached_property
    def derived(self) -> tuple[CheckOutcome, ...]:
        return check_laws(self.alg, DERIVED_LAWS)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.axioms)

    def failures(self) -> tuple[CheckOutcome, ...]:
        return tuple(c for c in self.axioms if not c.ok)

    def outcome(self, name: str) -> CheckOutcome:
        return LawReport(self.axioms + self.derived).outcome(name)


def check_axioms(alg: FiniteAlgebra, algebra_class: str = LUK_NRS) -> AxiomReport:
    """Verdict per axiom of the requested class.

    inrs checks (i)-(vi); luk-nrs adds the interchange axiom (vii); luk-rs
    further requires multiplication to be a monoid operation and then also
    records commutativity and right distributivity (they are theorems for
    Lukasiewicz semirings, but are re-verified rather than trusted).
    Derived identities -- (viii) and the two recovered laws -- are reported
    separately when read; they never affect admission for the class.
    """
    if algebra_class not in CLASSES:
        raise ValueError(f"unknown class {algebra_class!r}; expected one of {CLASSES}")
    checks = (check_laws(alg, BASE_LAWS) + (_antitone(alg),)
              + check_laws(alg, CLASS_LAWS[algebra_class]))
    return AxiomReport(algebra_class, checks, alg)


def _join_associative(alg: FiniteAlgebra) -> bool:
    """(x+y)+z = x+(y+z), given x+x = x and x+y = y+x, in n^2/2 set operations.

    With up(a) = {b : a+b = b} as an n-bit int, + is associative iff
    up(a+b) = up(a) & up(b) for all a < b.  If so, (a+b)+c and a+(b+c) both
    have the up-set up(a) & up(b) & up(c), and equal up-sets name one element:
    u is in up(u), so up(u) = up(v) gives v+u = u and u+v = v.
    """
    P, n = alg.plus, alg.size
    up = [sum(1 << b for b, top in enumerate(row) if top == b) for row in P]
    return all(up[row[b]] == up[a] & up[b] for a, row in enumerate(P) for b in range(a + 1, n))


#: the laws decided with x over G = J u {0}: once (i) holds, (iii) and (rdist)
#: say that x |-> x*z and x |-> z*x preserve binary joins, and given (iii) both
#: sides of (assoc) preserve joins in x (see holds)
_OVER_G = frozenset({"(iii)", "(assoc)", "(rdist)"})


def _laws_hold(alg: FiniteAlgebra, laws: Laws) -> bool:
    """Every law of the table holds, each decided by the reductions of
    _decide_class; a law may lean on the laws before it in luk-rs order."""
    for name, bundle in laws:
        for law in bundle:
            _, lhs, rhs = law
            if law is _JOIN_ASSOCIATIVE:
                ok = _join_associative(alg)
            elif name in _OVER_G:
                ok = holds(alg, lhs, rhs, domains={"x": (alg.zero, *join_irreducibles(alg))})
            else:
                ok = check_identity(alg, name, lhs, rhs).ok
            if not ok:
                return False
    return True


def _decide_class(alg: FiniteAlgebra) -> Optional[str]:
    """The best class, deciding the luk-rs axioms in order up to the first failure.

    Each class's axioms are a prefix of the luk-rs list, so the best class
    is the longest passing prefix.  Associativity of + is decided by up-sets
    (_join_associative), after x+x = x and x+y = y+x.  Once (i) holds,
    (iii), (assoc) and (rdist) are scanned with x over G = J u {0}, n^2*|G|
    instances each instead of n^3.  Every other law gets its full scan.
    """
    if not _laws_hold(alg, BASE_LAWS) or not _antitone(alg).ok:
        return None
    best = INRS
    for cls in CLASSES[1:]:
        if not _laws_hold(alg, CLASS_LAWS[cls][len(CLASS_LAWS[best]):]):
            break
        best = cls
    return best


@per_algebra
def classify(alg: FiniteAlgebra) -> Optional[str]:
    """Best class the algebra passes, or None if not even an inrs.

    Decided by _decide_class, which equals the longest passing prefix of
    check_axioms(alg, LUK_RS).  Computed once per algebra instance and kept
    on it; an equal copy computes its own.
    """
    return _decide_class(alg)


def require_class(alg: FiniteAlgebra, algebra_class: str, context: str = "") -> None:
    """Raise with the first failed axiom when the algebra misses its class.

    The verdict is the memoised classify; the axiom report is built only to
    word a failure.
    """
    best = classify(alg)
    if best is not None and algebra_class in CLASSES[:CLASSES.index(best) + 1]:
        return
    bad = check_axioms(alg, algebra_class).failures()[0]
    where = f" ({context})" if context else ""
    witness = f" witness {bad.witness.render(alg)}" if bad.witness else ""
    raise ValueError(
        f"algebra fails {algebra_class} axiom {bad.name}{where}:"
        f" {bad.detail or 'identity violated'}{witness}")
