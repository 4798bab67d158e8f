"""The compiled identity scan of check_identity against an interpreted reference.

The reference walks the same assignments (first variable fastest) with
itertools.product and evaluates both sides with eval_term, so the two must
return the same CheckOutcome, witness included.
"""

import itertools
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from nearsemiring import axioms
from nearsemiring.axioms import (INRS, LUK_RS, CheckOutcome, Witness, check_axioms,
                                 check_identity, check_laws, holds)
from nearsemiring.catalog import boolean2, full_corpus, l3_x_b2, luk_chain
from nearsemiring.center import BOOLEAN_LAWS, CENTRALITY_LAWS
from nearsemiring.congruences import MALCEV_LAWS
from nearsemiring.core import FiniteAlgebra, join_irreducibles
from nearsemiring.mv import MV_LAWS
from nearsemiring.search import EnumerationTask, enumerate_algebras
from nearsemiring.terms import ONE, ZERO, Alpha, Plus, Times, Var, eval_term

from test_center import ALPHA_LAW, B_LAWS


def reference_check(alg, name, lhs, rhs, detail="", fixed=None):
    fixed = fixed or {}
    variables = [v for v in dict.fromkeys(lhs.variables() + rhs.variables())
                 if v not in fixed]
    for combo in itertools.product(range(alg.size), repeat=len(variables)):
        env = dict(zip(reversed(variables), combo))
        l, r = (eval_term(alg, t, {**fixed, **env}) for t in (lhs, rhs))
        if l != r:
            w = Witness(tuple((v, env[v]) for v in variables), l, r)
            return CheckOutcome(name, False, w, detail)
    return CheckOutcome(name, True, detail=detail)


def axiom_identities():
    """Every (name, lhs, rhs) check_axioms hands to check_identity,
    the derived identities (evaluated when read) included.

    The 2-element Boolean algebra passes every axiom, so no bundle stops early.
    """
    seen = []

    def record(alg, name, lhs, rhs):
        seen.append((name, lhs, rhs))
        return reference_check(alg, name, lhs, rhs)

    original = axioms.check_identity
    axioms.check_identity = record
    try:
        check_axioms(boolean2(), LUK_RS).derived
    finally:
        axioms.check_identity = original
    return seen


ALGEBRAS = (full_corpus() + (l3_x_b2(),)
            + tuple(alg for n in range(2, 5)
                    for alg in enumerate_algebras(EnumerationTask(n, INRS))))


def test_axiom_identities_match_the_reference():
    identities = axiom_identities()
    assert len(identities) == 19
    for alg in ALGEBRAS:
        for name, lhs, rhs in identities:
            assert check_identity(alg, name, lhs, rhs) == reference_check(alg, name, lhs, rhs)


def test_centrality_laws_match_the_reference_for_every_element():
    # the (b) laws and the alpha law are not centrality checks any more, but
    # the tests still scan them as references, so their q-terms stay in the
    # compiler's coverage
    failures = 0
    for alg in ALGEBRAS:
        for e in range(alg.size):
            for name, lhs, rhs in CENTRALITY_LAWS + B_LAWS + (ALPHA_LAW,):
                got = check_identity(alg, name, lhs, rhs, fixed={"e": e})
                assert got == reference_check(alg, name, lhs, rhs, fixed={"e": e})
                if not got.ok:
                    failures += 1
                    assert "e" not in dict(got.witness.env)
    assert failures  # the witness path is exercised too


def reference_laws(alg, laws):
    """check_laws by the interpreted scan: per entry, the first failing
    identity of its bundle, with the sublaw name as the detail."""
    out = []
    for name, bundle in laws:
        failed = (reference_check(alg, name, lhs, rhs, detail) for detail, lhs, rhs in bundle)
        out.append(next((c for c in failed if not c.ok), CheckOutcome(name, True)))
    return tuple(out)


def test_law_tables_match_the_reference():
    # the MV axioms, the Boolean laws and the Mal'cev identities, read on
    # every table of ALGEBRAS; witnesses included
    for laws in (MV_LAWS, BOOLEAN_LAWS, MALCEV_LAWS):
        failures = 0
        for alg in ALGEBRAS:
            got = check_laws(alg, laws)
            assert got == reference_laws(alg, laws)
            failures += sum(not c.ok for c in got)
        assert failures  # the witness path is exercised for every table


def test_generated_scan_names_only_its_own_identifiers():
    # variable names never reach the generated source, however odd they are
    odd, other = Var("__import__('os').getcwd()"), Var("x y")
    lhs, rhs = (odd + other) * Var("e"), odd
    variables, scan = axioms._compile(lhs, rhs, ("e",))
    assert variables == (odd.name, other.name)
    names, codes = set(), [scan.__code__]
    while codes:
        code = codes.pop()
        names.update(code.co_names + code.co_varnames + code.co_freevars + code.co_cellvars)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_names"))
    names.discard(".0")  # the implicit iterator argument of a generator expression
    # v: loop variables, f: fixed values and domains, h: hoisted subterms
    assert all(re.fullmatch(r"[PTAZOR]|[vfh]\d+", n) for n in names), names
    alg = boolean2()
    assert (check_identity(alg, "odd", lhs, rhs, fixed={"e": 1})
            == reference_check(alg, "odd", lhs, rhs, fixed={"e": 1}))


class CountingTable(list):
    """A table that counts its row reads by row index."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = {}

    def __getitem__(self, i):
        self.reads[i] = self.reads.get(i, 0) + 1
        return super().__getitem__(i)


def test_generated_scan_reads_loop_invariant_rows_once():
    # e*(x+y) = e*x + e*y with e fixed: the row T[e] is read once, before the
    # loops, not three times per instance; the verdict and the witness are
    # the interpreted scan's
    x, y, e = Var("x"), Var("y"), Var("e")
    lhs, rhs = e * (x + y), e * x + e * y
    _, scan = axioms._compile(lhs, rhs, ("e",))
    for alg in (luk_chain(5), l3_x_b2()):
        n = alg.size
        for f in range(n):
            T = CountingTable(alg.times)
            assert scan(alg.plus, T, alg.alpha, alg.zero, alg.one, range(n), f) is None
            assert T.reads == {f: 1}
    broken = FiniteAlgebra(3, ((0, 1, 2), (1, 1, 2), (2, 2, 2)), ((0, 0, 0), (0, 2, 1), (0, 1, 2)),
                           (2, 1, 0), 0, 2)
    verdicts = [check_identity(broken, "", lhs, rhs, fixed={"e": f}) for f in range(3)]
    assert verdicts == [reference_check(broken, "", lhs, rhs, fixed={"e": f}) for f in range(3)]
    assert not all(v.ok for v in verdicts)


def reference_holds(alg, lhs, rhs, fixed, domains):
    variables = [v for v in dict.fromkeys(lhs.variables() + rhs.variables()) if v not in fixed]
    for combo in itertools.product(*(domains.get(v, range(alg.size)) for v in variables)):
        env = {**fixed, **dict(zip(variables, combo))}
        if eval_term(alg, lhs, env) != eval_term(alg, rhs, env):
            return False
    return True


def test_holds_ranges_each_variable_over_its_domain():
    # two or three ranged variables and a fixed e, against eval_term over
    # exactly the product of their domains: x over G = J u {0}, y over e*A,
    # z over e^a*A or A; some identities pass only on the domains
    x, y, z, e = (Var(v) for v in "xyze")
    identities = (((x + y) * z, x * z + y * z, "xy"),
                  (e * (x * y), (e * x) * (e * y), "xy"),
                  (x * y + z, z + y * x, "xyz"),
                  (x * (y + z), x * y + x * z, "xyz"))
    seen = set()
    for alg in full_corpus() + (l3_x_b2(),):
        for f in range(alg.size):
            every = {"x": (alg.zero, *join_irreducibles(alg)), "y": set(alg.times[f]),
                     "z": set(alg.times[alg.alpha[f]])}
            for lhs, rhs, ranged in identities:
                domains = {v: every[v] for v in ranged}
                got = holds(alg, lhs, rhs, {"e": f}, domains)
                assert got == reference_holds(alg, lhs, rhs, {"e": f}, domains), (alg, f, lhs)
                seen.add((got, check_identity(alg, "", lhs, rhs, fixed={"e": f}).ok))
    assert seen == {(True, True), (True, False), (False, False)}


@st.composite
def tables(draw):
    n = draw(st.integers(1, 4))
    cell = st.integers(0, n - 1)
    square = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    return FiniteAlgebra(n, draw(square), draw(square),
                         draw(st.lists(cell, min_size=n, max_size=n)), draw(cell), draw(cell))


TERMS = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z"), Var("e"), ZERO, ONE]),
    lambda sub: st.one_of(st.builds(Plus, sub, sub), st.builds(Times, sub, sub),
                          st.builds(Alpha, sub)),
    max_leaves=10)


@given(tables(), TERMS, TERMS, st.data())
@settings(max_examples=150, deadline=None)
def test_random_terms_on_random_tables_match_the_reference(alg, lhs, rhs, data):
    e = data.draw(st.none() | st.integers(0, alg.size - 1))
    fixed = {} if e is None else {"e": e}
    assert (check_identity(alg, "drawn", lhs, rhs, fixed=fixed)
            == reference_check(alg, "drawn", lhs, rhs, fixed=fixed))
