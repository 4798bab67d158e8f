"""Property tests over randomly drawn elements, subsets and relabelings."""

import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsemiring.algfile import AlgebraDocument, parse, serialize
from nearsemiring.axioms import LUK_NRS
from nearsemiring.catalog import b2_x_l3, luk_chain
from nearsemiring.congruences import Partition, principal_congruence, polynomial_pairs
from nearsemiring.core import AlgebraError, find_isomorphism
from nearsemiring.ideals import ElementSet, generate_ideal, is_ideal
from nearsemiring.mv import to_mv
from nearsemiring.search import EnumerationTask, canonical_form, enumerate_algebras, relabel

POOL = (enumerate_algebras(EnumerationTask(4, LUK_NRS))
        + enumerate_algebras(EnumerationTask(5, LUK_NRS)))
FORMS = {canonical_form(a).data for a in POOL}


@given(st.sampled_from(POOL), st.data())
@settings(max_examples=60, deadline=None)
def test_relabeling_lands_on_a_known_canonical_form(alg, data):
    mid = data.draw(st.permutations(list(range(1, alg.size - 1))))
    perm = [0] + list(mid) + [alg.size - 1]
    shuffled = relabel(alg, perm)
    assert canonical_form(shuffled).data in FORMS
    assert find_isomorphism(shuffled, alg) is not None


@given(st.sampled_from(POOL), st.data())
@settings(max_examples=60, deadline=None)
def test_principal_congruence_is_closure_of_polynomial_pairs(alg, data):
    a = data.draw(st.integers(0, alg.size - 1))
    b = data.draw(st.integers(0, alg.size - 1))
    pairs = polynomial_pairs(alg, a, b)
    closure = Partition.from_pairs(alg.size, pairs)
    assert closure == principal_congruence(alg, a, b)
    # Lukasiewicz algebras are congruence permutable: the orbit is already
    # symmetric and transitive, so it is the whole closure
    assert pairs == {(u, v) for u in range(alg.size) for v in range(alg.size)
                     if closure.same(u, v)}


@given(st.sampled_from(POOL + (b2_x_l3(), luk_chain(6))), st.data())
@settings(max_examples=80, deadline=None)
def test_generated_ideal_is_least_ideal_containing_seed(alg, data):
    mask = data.draw(st.integers(0, (1 << alg.size) - 1))
    seed = ElementSet(alg.size, mask)
    grown = generate_ideal(alg, seed)
    assert is_ideal(alg, grown).ok
    assert seed.issubset(grown)
    # removing any non-seed, non-zero element breaks one of the conditions
    for v in grown.members():
        if v in seed or v == alg.zero:
            continue
        smaller = ElementSet(alg.size, grown.mask & ~(1 << v))
        assert not is_ideal(alg, smaller).ok or not seed.issubset(smaller)


L3 = luk_chain(3)
#: arbitrary text, with repeats, line breaks and the characters serialize escapes drawn often
NAME = st.text() | st.sampled_from(("a", "a\nb", "\n", "\r", "a\rb", " ", "#", '"', "\\"))


def read_as_a_file(text):
    """The text as open(path, encoding="utf-8").read() gives it back: universal newlines."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8").read()


@pytest.mark.parametrize("alg, kind", [(L3, "luk-rs"), (to_mv(L3), "mv")])
@given(names=st.lists(NAME, min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_serialized_names_parse_back(alg, kind, names):
    # the constructor refuses names serialize cannot write; '#', quotes and
    # backslashes inside a name survive the round trip
    try:
        named = dataclasses.replace(alg, names=tuple(names))
    except AlgebraError:
        assert len(set(names)) < 3 or any("\n" in s or "\r" in s for s in names)
        return
    doc = AlgebraDocument.from_algebra(named, kind)
    text = serialize(doc)
    assert parse(text) == parse(read_as_a_file(text)) == doc
