"""Term syntax over the signature (+, ., alpha, 0, 1) and table evaluation.

Terms are built with operators: ``x + y``, ``x * y`` and ``x.a`` (involution),
e.g. the join-recovery term is ``((x * y.a).a * y.a).a``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import FiniteAlgebra


class UnboundVariableError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"variable '{self.name}' is not bound in the environment"


class Term:
    __slots__ = ()

    def __add__(self, other: "Term") -> "Term":
        return Plus(self, other)

    def __mul__(self, other: "Term") -> "Term":
        return Times(self, other)

    @property
    def a(self) -> "Term":
        return Alpha(self)

    def variables(self) -> tuple[str, ...]:
        """Free variables in first-occurrence order."""
        out: list[str] = []

        def walk(t: Term) -> None:
            if isinstance(t, Var):
                if t.name not in out:
                    out.append(t.name)
            elif isinstance(t, Alpha):
                walk(t.arg)
            elif isinstance(t, (Plus, Times)):
                walk(t.left)
                walk(t.right)

        walk(self)
        return tuple(out)

    def __getstate__(self) -> dict:
        # the cached hash depends on this process's string hashing
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def _node(cls: type) -> type:
    """A frozen dataclass term node that computes its hash once.

    The generated hash walks the whole tree, and terms key the cache of
    compiled scans that every identity check looks up.
    """
    cls = dataclass(frozen=True)(cls)
    tree_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = tree_hash(self)
            return h

    cls.__hash__ = __hash__
    return cls


@_node
class Var(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@_node
class Const(Term):
    which: str  # "0" or "1", resolved against the algebra's designated indices

    def __str__(self) -> str:
        return self.which


@_node
class Plus(Term):
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@_node
class Times(Term):
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


@_node
class Alpha(Term):
    arg: Term

    def __str__(self) -> str:
        return f"{self.arg}^a"


ZERO = Const("0")
ONE = Const("1")


def eval_term(alg: FiniteAlgebra, t: Term, env: Mapping[str, int]) -> int:
    """Structural recursion over the operation tables."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariableError(t.name) from None
    if isinstance(t, Const):
        return alg.zero if t.which == "0" else alg.one
    if isinstance(t, Plus):
        return alg.plus[eval_term(alg, t.left, env)][eval_term(alg, t.right, env)]
    if isinstance(t, Times):
        return alg.times[eval_term(alg, t.left, env)][eval_term(alg, t.right, env)]
    if isinstance(t, Alpha):
        return alg.alpha[eval_term(alg, t.arg, env)]
    raise TypeError(f"not a term: {t!r}")


# Named terms used throughout the structure theory.

x, y, z = Var("x"), Var("y"), Var("z")

#: both sides of the interchange law that separates Lukasiewicz from plain
#: involutive near semirings
LUK_LHS = (x * y.a).a * y.a
LUK_RHS = (y * x.a).a * x.a

#: join recovered from the multiplication: x + y = ((x * y^a)^a * y^a)^a
JOIN_FROM_TIMES = ((x * y.a).a * y.a).a


def church_q(x: Term, y: Term, z: Term) -> Term:
    """Ternary if-then-else witness q(x, y, z) = x*y + x^a*z."""
    return x * y + x.a * z


def malcev_p(x: Term, y: Term, z: Term) -> Term:
    """Permutability witness p(x,y,z) = (((x*y^a)^a*z^a) + ((z*y^a)^a*x^a))^a."""
    return ((x * y.a).a * z.a + (z * y.a).a * x.a).a


def difference_s(x: Term, y: Term) -> Term:
    """Subtraction-style difference witness s(x, y) = x^a * y."""
    return x.a * y
