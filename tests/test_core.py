import dataclasses
import itertools
import pickle
import random

import pytest

from nearsemiring import core
from nearsemiring.catalog import (b2_x_b2, b2_x_l3, boolean2, godel3, l3_x_b2,
                                  luk_chain, trivial)
from nearsemiring.core import (AlgebraError, FiniteAlgebra, Homomorphism,
                               SizeLimitError, find_isomorphism, leq, product,
                               projections)
from nearsemiring.terms import (JOIN_FROM_TIMES, UnboundVariableError,
                                eval_term, x, y)

L3 = luk_chain(3)
H = 1  # the middle element of a 3-chain


def test_eval_term_annihilation_on_middle():
    # x * x^a at the middle element of the 3-chain
    assert eval_term(L3, x * x.a, {"x": H}) == L3.zero


def test_eval_term_identity_case():
    for alg in (L3, boolean2(), godel3()):
        for e in range(alg.size):
            assert eval_term(alg, x, {"x": e}) == e


def test_eval_term_join_recovery():
    # ((x*y^a)^a*y^a)^a at x=h, y=1 equals h+1 = 1
    assert eval_term(L3, JOIN_FROM_TIMES, {"x": H, "y": 2}) == 2
    assert L3.plus[H][2] == 2


def test_eval_term_unbound_variable():
    with pytest.raises(UnboundVariableError) as err:
        eval_term(L3, x + y, {"x": 0})
    assert err.value.name == "y"


def test_leq_chain():
    assert leq(L3, 0, H)
    assert not leq(L3, 2, H)
    assert leq(L3, H, H)


def test_leq_product_componentwise():
    p = b2_x_l3()
    # (1,0) has index 1*3+0 = 3, (1,h) has index 1*3+1 = 4
    assert leq(p, 3, 4)
    assert not leq(p, 4, 3)
    # oracle: componentwise order on all pairs
    for i in range(2):
        for j in range(3):
            for k in range(2):
                for l in range(3):
                    expect = (max(i, k) == k) and (max(j, l) == l)
                    assert leq(p, i * 3 + j, k * 3 + l) == expect


def test_product_b2_b2_tables():
    p = b2_x_b2()
    assert p.size == 4
    assert p.zero == 0 and p.one == 3
    # hand oracle: bitwise on 2-bit codes, index = 2*first + second
    for u in range(4):
        for v in range(4):
            assert p.plus[u][v] == (u | v)
            assert p.times[u][v] == (u & v)
        assert p.alpha[u] == (~u) & 3


def test_product_with_trivial_is_isomorphic():
    p = product(L3, trivial())
    iso = find_isomorphism(p, L3)
    assert iso is not None and iso.bijective
    assert iso.mapping == (0, 1, 2)


def test_product_size_guard(monkeypatch):
    monkeypatch.setattr(core, "DEFAULT_MAX_SIZE", 8)
    with pytest.raises(SizeLimitError, match="product size 9 exceeds the 8 limit"):
        product(L3, L3)


def test_homomorphism_rejects_non_preserving_map():
    with pytest.raises(AlgebraError):
        Homomorphism(boolean2(), boolean2(), (1, 0))
    with pytest.raises(AlgebraError):
        Homomorphism(L3, L3, (0, 0, 0))


def test_homomorphism_embeds_into_a_larger_target():
    # the map's values range over the target universe, not the source's
    emb = Homomorphism(boolean2(), L3, (0, 2))
    assert emb.mapping == (0, 2)
    assert not emb.bijective and not emb.surjective()
    with pytest.raises(AlgebraError, match="outside the universe"):
        Homomorphism(boolean2(), L3, (0, 3))


def test_projections_are_verified_homomorphisms():
    p1, p2 = projections(boolean2(), L3)
    assert p1.surjective() and p2.surjective()
    assert not p1.bijective


def test_find_isomorphism_identity():
    iso = find_isomorphism(L3, L3)
    assert iso is not None
    assert iso.mapping == (0, 1, 2)


def test_find_isomorphism_absent_for_chain_vs_square():
    assert find_isomorphism(luk_chain(4), b2_x_b2()) is None


def test_find_isomorphism_swaps_coordinates():
    iso = find_isomorphism(b2_x_l3(), l3_x_b2())
    assert iso is not None and iso.bijective
    # (i,j) at i*3+j must land on (j,i) at j*2+i
    expected = tuple((p % 3) * 2 + (p // 3) for p in range(6))
    assert iso.mapping == expected


def _preserves(a, b, m):
    return (m[a.zero] == b.zero and m[a.one] == b.one
            and all(m[a.alpha[u]] == b.alpha[m[u]] for u in range(a.size))
            and all(m[a.plus[u][v]] == b.plus[m[u]][m[v]]
                    and m[a.times[u][v]] == b.times[m[u]][m[v]]
                    for u in range(a.size) for v in range(a.size)))


def test_find_isomorphism_is_the_least_preserving_bijection():
    # a relabelled copy, with two times entries swapped in half the cases: the
    # swap keeps the occurrence profiles, so only the full test at a complete
    # map can reject some of those copies
    rng = random.Random(20261018)
    for _ in range(600):
        n = rng.randint(1, 6)
        table = lambda: [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        a = FiniteAlgebra(n, table(), table(), [rng.randrange(n) for _ in range(n)], 0, n - 1)
        perm = list(range(n))
        rng.shuffle(perm)
        plus, times, alpha = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)], [0] * n
        for i in range(n):
            alpha[perm[i]] = perm[a.alpha[i]]
            for j in range(n):
                plus[perm[i]][perm[j]] = perm[a.plus[i][j]]
                times[perm[i]][perm[j]] = perm[a.times[i][j]]
        if rng.random() < 0.5:
            i, j, k, l = (rng.randrange(n) for _ in range(4))
            times[i][j], times[k][l] = times[k][l], times[i][j]
        b = FiniteAlgebra(n, plus, times, alpha, perm[0], perm[n - 1])
        least = next((m for m in itertools.permutations(range(n)) if _preserves(a, b, m)), None)
        iso = find_isomorphism(a, b)
        assert (None if iso is None else iso.mapping) == least


def test_isomorphism_relation_reflexive_symmetric_on_corpus():
    from nearsemiring.catalog import full_corpus
    corpus = full_corpus()
    for a in corpus:
        assert find_isomorphism(a, a) is not None
    for a in corpus:
        for b in corpus:
            assert (find_isomorphism(a, b) is None) == (find_isomorphism(b, a) is None)


def test_malformed_tables_rejected():
    with pytest.raises(AlgebraError):
        FiniteAlgebra(size=2, plus=((0, 1),), times=((0, 0), (0, 1)), alpha=(1, 0), one=1)
    with pytest.raises(AlgebraError):
        FiniteAlgebra(size=2, plus=((0, 3), (1, 1)), times=((0, 0), (0, 1)), alpha=(1, 0), one=1)


GOOD_3 = ((0, 1, 2), (1, 1, 2), (2, 2, 2))


@pytest.mark.parametrize("which", ["plus", "times"])
@pytest.mark.parametrize("table, message", [
    (GOOD_3[:2], "{} must have 3 rows, got 2"),
    (GOOD_3 + ((2, 2, 2),), "{} must have 3 rows, got 4"),
    (((0, 1, 2), (1, 1), (2, 2, 2)), "{} row 1 must have 3 entries, got 2"),
    (((0, 1, 2), (1, -1, 2), (2, 2, 2)), "{}[1][1] = -1 is outside the universe [0, 3)"),
    (((0, 1, 2), (1, 1, 2), (2, 3, 2)), "{}[2][1] = 3 is outside the universe [0, 3)"),
    # two bad entries: the first in row-major order is named
    (((0, 1, 2), (1, 1, 5), (-2, 2, 2)), "{}[1][2] = 5 is outside the universe [0, 3)"),
    (((0, 1, 2), (1, 4, -1), (2, 2, 2)), "{}[1][1] = 4 is outside the universe [0, 3)"),
    # rows are checked in order, each for its length before its entries
    (((0, 9, 2), (1, 1), (2, 2, 2)), "{}[0][1] = 9 is outside the universe [0, 3)"),
    (((0, 1), (1, 9, 2), (2, 2, 2)), "{} row 0 must have 3 entries, got 2"),
])
def test_malformed_tables_name_the_first_fault(which, table, message):
    tables = {"plus": GOOD_3, "times": GOOD_3, which: table}
    with pytest.raises(AlgebraError) as err:
        FiniteAlgebra(size=3, alpha=(2, 1, 0), one=2, **tables)
    assert str(err.value) == message.format(which)


def test_tables_become_tuples_of_ints_and_int_tuple_rows_are_kept():
    alg = FiniteAlgebra(size=3, plus=GOOD_3, times=[[0, 0, 0], [0, True, 1], (0, 1, 2.0)],
                        alpha=(2, 1, 0), one=2)
    assert all(a is b for a, b in zip(alg.plus, GOOD_3))
    assert alg.times == ((0, 0, 0), (0, 1, 1), (0, 1, 2))
    assert {type(v) for row in alg.times for v in row} == {int}


def reference_ints(values):
    if type(values) is tuple and all(type(v) is int for v in values):
        return values
    return tuple(int(v) for v in values)


def reference_table(rows, n, what):
    """Tables converted and checked row by row, with no whole-table pass."""
    rows = tuple(map(reference_ints, map(tuple, rows)))
    if len(rows) != n:
        raise AlgebraError(f"{what} must have {n} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise AlgebraError(f"{what} row {i} must have {n} entries, got {len(row)}")
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise AlgebraError(f"{what}[{i}][{j}] = {v} is outside the universe [0, {n})")
    return rows


def reference_vector(vals, n, what, universe=None):
    vals = reference_ints(vals)
    if len(vals) != n:
        raise AlgebraError(f"{what} must have {n} entries, got {len(vals)}")
    universe = n if universe is None else universe
    for i, v in enumerate(vals):
        if not 0 <= v < universe:
            raise AlgebraError(f"{what}[{i}] = {v} is outside the universe [0, {universe})")
    return vals


def outcome(build):
    """build(), or the type and message of the exception it raises."""
    try:
        return build()
    except (AlgebraError, TypeError, ValueError) as err:
        return type(err), str(err)


def test_construction_matches_the_row_by_row_reference():
    # seeded tables and vectors, most of them models' shapes, some with a
    # bool, float, string, None, negative or out-of-range entry, a short or
    # long row, a missing or extra row, or a list in place of a tuple: the
    # constructor must build what the reference builds, keeping the same
    # rows, or raise the same exception with the same message
    rng = random.Random(35)
    odd = [True, False, 1.0, 2.5, "1", "x", None, -1, -3]
    # a checked algebra of each size, from which _with_times derives models
    bases = {n: FiniteAlgebra(n, c.plus, c.plus, c.alpha)
             for n, c in ((n, luk_chain(n)) for n in range(1, 7))}
    for _ in range(1500):
        n = rng.randint(1, 6)

        def table():
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] = rng.choice(odd + [n, n + 2])
            if rng.random() < 0.15:
                rng.choice(rows).pop()
            if rng.random() < 0.15:
                rows.append(list(range(n)))
            if rng.random() < 0.1:
                rows.pop()
            return tuple(row if rng.random() < 0.2 else tuple(row) for row in rows)

        plus, times = table(), table()
        alpha = [rng.randrange(n) for _ in range(n + rng.choice((0, 0, 0, -1, 1)))]
        if alpha and rng.random() < 0.3:
            alpha[rng.randrange(len(alpha))] = rng.choice(odd + [n])
        alpha = tuple(alpha) if rng.random() < 0.8 else alpha

        def kept(tables, vector):
            # what was built, and which given rows and vector it keeps as they are
            rows = [[a is b for a, b in zip(*pair)] for pair in zip(tables, (plus, times))]
            return tables, vector, rows, vector is alpha

        def construct():
            alg = FiniteAlgebra(n, plus, times, alpha)
            return kept((alg.plus, alg.times), alg.alpha)

        assert outcome(construct) == outcome(lambda: kept(
            (reference_table(plus, n, "plus"), reference_table(times, n, "times")),
            reference_vector(alpha, n, "alpha"))), (plus, times, alpha)

        # _with_times takes a well-formed times table as it is, unchecked
        # (the enumerator checks the columns it builds tables from), and
        # shares every other field with the algebra it derives from
        try:
            checked = reference_table(times, n, "times")
        except (AlgebraError, TypeError, ValueError):
            checked = None
        if checked is not None:
            base = bases[n]
            alg = base._with_times(checked)
            assert alg.times is checked and all(
                getattr(alg, name) is getattr(base, name)
                for name in ("size", "plus", "alpha", "zero", "one", "names"))
            assert alg == FiniteAlgebra(n, base.plus, times, base.alpha, base.zero,
                                        base.one, base.names), times
        # a map into a universe of another size, as Homomorphism checks it
        universe = rng.randint(1, 8)
        assert (outcome(lambda: kept((), core._as_vector(alpha, n, "map", universe)))
                == outcome(lambda: kept((), reference_vector(alpha, n, "map", universe))))


def test_designated_constants_need_not_sit_at_the_ends():
    # file round-trip fidelity: engines must honor explicit zero/one indices
    from nearsemiring.axioms import check_axioms
    from nearsemiring.center import center
    from nearsemiring.ideals import all_ideals
    from nearsemiring.search import canonical_form, relabel

    moved = relabel(L3, [1, 2, 0])   # zero lands at index 1, one at index 0
    assert (moved.zero, moved.one) == (1, 0)
    assert check_axioms(moved, "luk-rs").ok
    assert canonical_form(moved) == canonical_form(L3)
    assert [s.members() for s in all_ideals(moved).ideals] == [(1,), (0, 1, 2)]
    assert center(moved).elements == (0, 1)
    iso = find_isomorphism(moved, L3)
    assert iso is not None and iso.mapping == (2, 0, 1)


def test_term_rendering_and_error_message():
    from nearsemiring.terms import LUK_LHS, UnboundVariableError
    assert str(LUK_LHS) == "((x * y^a)^a * y^a)"
    err = UnboundVariableError("y")
    assert "variable 'y' is not bound" in str(err)


def test_equality_is_by_tables_and_names_and_pickles_carry_fields_only():
    a = luk_chain(5)
    b = dataclasses.replace(a)
    assert a is not b and a == b and hash(a) == hash(b)
    renamed = dataclasses.replace(a, names=tuple("abcde"))
    assert renamed != a and renamed.same_tables(a)
    # memos and cached properties stay with the instance that computed them
    from nearsemiring.axioms import LUK_RS, classify
    from nearsemiring.congruences import kernel
    field_names = {f.name for f in dataclasses.fields(FiniteAlgebra)}
    assert classify(renamed) == LUK_RS and kernel(renamed, 1).is_full()
    assert renamed.name_to_index["b"] == 1 and set(renamed.__dict__) > field_names
    # a model derived from a checked one is the algebra the constructor
    # builds from the same fields, and computes its own memos
    times = [[min(x, y) for y in range(5)] for x in range(5)]
    derived = renamed._with_times(tuple(map(tuple, times)))
    built = FiniteAlgebra(5, renamed.plus, times, renamed.alpha, renamed.zero,
                          renamed.one, renamed.names)
    assert derived == built and hash(derived) == hash(built)
    assert pickle.dumps(derived) == pickle.dumps(built)
    assert derived.names is renamed.names and set(derived.__dict__) == field_names
    assert classify(derived) == classify(built) != LUK_RS
    assert not kernel(derived, 1).is_full() and derived.name_to_index == renamed.name_to_index
    for original in (a, renamed, derived):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original and hash(copy) == hash(original)
        assert set(copy.__dict__) == field_names
