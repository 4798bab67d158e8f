import pytest

from nearsemiring import bundled_file
from nearsemiring.algfile import (AlgebraDocument, ParseError, load, parse,
                                  serialize)
from nearsemiring.catalog import b2_x_l3, godel3, luk_chain
from nearsemiring.mv import MVAlgebra, to_mv


def test_bundled_l3_parses_to_the_chain():
    doc = load(bundled_file("l3.alg"))
    alg = doc.to_algebra()
    assert alg == luk_chain(3)
    assert alg.names == ("0", "h", "1")
    assert doc.kind == "luk-rs"


def test_bundled_mv_file():
    doc = load(bundled_file("l3-mv.alg"))
    mv = doc.to_algebra()
    assert isinstance(mv, MVAlgebra)
    assert mv.same_tables(to_mv(luk_chain(3)))


def test_trivial_algebra_accepted():
    doc = parse("kind = inrs\nsize = 1\nzero = 0\none = 0\n"
                "plus = [[0]]\ntimes = [[0]]\nalpha = [0]\n")
    alg = doc.to_algebra()
    assert alg.size == 1 and alg.zero == alg.one == 0


def test_serialize_parse_round_trip_on_documents():
    for alg, kind in ((luk_chain(3), "luk-rs"), (godel3(), "inrs"),
                      (b2_x_l3(), "luk-rs")):
        doc = AlgebraDocument.from_algebra(alg, kind)
        assert parse(serialize(doc)) == doc
        assert parse(serialize(doc)).to_algebra() == alg
    mv_doc = AlgebraDocument.from_algebra(to_mv(luk_chain(4)))
    assert parse(serialize(mv_doc)) == mv_doc


def test_serialization_is_byte_exact_on_canonical_files():
    for name in ("b2.alg", "l3.alg", "l4.alg", "g3.alg", "b2xb2.alg",
                 "b2xl3.alg", "l3-mv.alg", "trivial.alg"):
        text = bundled_file(name).read_text()
        assert serialize(parse(text)) == text


def test_whitespace_and_comments_are_insignificant():
    text = ("# a chain\nkind=luk-rs\n size =3\nzero=0\none=2\n"
            "plus=[[0,1,2],[1,1,2],\n[2,2,2]]  # join\n"
            "times=[[0,0,0],[0,0,1],[0,1,2]]\nalpha=[2,1,0]\n")
    assert parse(text).to_algebra().same_tables(luk_chain(3))


def test_dimension_error_points_at_offending_row():
    text = ("kind = luk-nrs\nsize = 3\nzero = 0\none = 2\n"
            "plus = [\n  [0, 1, 2],\n  [1, 1],\n  [2, 2, 2],\n]\n"
            "times = [[0,0,0],[0,0,1],[0,1,2]]\nalpha = [2,1,0]\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "row 1 must have 3 entries" in str(err.value)
    assert err.value.line == 7


def test_out_of_range_entry_is_located():
    text = ("kind = luk-nrs\nsize = 2\nzero = 0\none = 1\n"
            "plus = [[0, 1], [1, 9]]\ntimes = [[0,0],[0,1]]\nalpha = [1,0]\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "outside the universe" in str(err.value)
    assert err.value.line == 5


@pytest.mark.parametrize("word", ["--2", "²", "٣", "-"])
def test_malformed_integers_are_located(word):
    # an integer is ASCII -?[0-9]+; anything else is a word, so it gets the
    # key's own diagnostic with line and column
    with pytest.raises(ParseError) as err:
        parse(f"kind = luk-nrs\nsize = {word}\n")
    assert (err.value.message, err.value.line, err.value.col) == (
        "size must be an integer", 2, 8)
    with pytest.raises(ParseError) as err:
        parse("kind = luk-nrs\nsize = 2\nzero = 0\none = 1\n"
              f"plus = [[0, 1], [1, {word}]]\ntimes = [[0,0],[0,1]]\nalpha = [1,0]\n")
    assert (err.value.message, err.value.line, err.value.col) == (
        "plus entries must be integers", 5, 21)


def test_missing_key_diagnostic():
    with pytest.raises(ParseError, match="missing key 'alpha'"):
        parse("kind = luk-nrs\nsize = 2\nzero = 0\none = 1\n"
              "plus = [[0,1],[1,1]]\ntimes = [[0,0],[0,1]]\n")


def test_unknown_kind_and_unexpected_key():
    with pytest.raises(ParseError, match="unknown kind"):
        parse("kind = ring\nsize = 1\nzero = 0\n")
    with pytest.raises(ParseError, match="unexpected key 'neg'"):
        parse("kind = inrs\nsize = 1\nzero = 0\none = 0\n"
              "plus = [[0]]\ntimes = [[0]]\nalpha = [0]\nneg = [0]\n")


def test_duplicate_key_and_unterminated_string():
    with pytest.raises(ParseError, match="duplicate key"):
        parse("kind = inrs\nkind = inrs\n")
    with pytest.raises(ParseError, match="unterminated string"):
        parse('names = ["0\n')


def test_names_with_special_characters_round_trip():
    alg = b2_x_l3()
    doc = AlgebraDocument.from_algebra(alg, "luk-rs")
    text = serialize(doc)
    assert parse(text).to_algebra().names == alg.names


def test_quoted_names_with_escapes_round_trip():
    from nearsemiring.core import FiniteAlgebra
    alg = FiniteAlgebra(size=2, plus=((0, 1), (1, 1)), times=((0, 0), (0, 1)),
                        alpha=(1, 0), one=1, names=('lo"w', "hi\\gh"))
    doc = AlgebraDocument.from_algebra(alg, "luk-rs")
    text = serialize(doc)
    assert parse(text).to_algebra().names == ('lo"w', "hi\\gh")
    assert serialize(parse(text)) == text
