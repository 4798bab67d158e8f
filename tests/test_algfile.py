import functools
import random
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import pytest

from nearsemiring import bundled_file
from nearsemiring.algfile import (KINDS, AlgebraDocument, ParseError, load,
                                  load_map, parse, serialize)
from nearsemiring.catalog import b2_x_l3, godel3, luk_chain
from nearsemiring.core import product
from nearsemiring.mv import MVAlgebra, to_mv

BUNDLED = ("b2.alg", "l3.alg", "l4.alg", "g3.alg", "b2xb2.alg", "b2xl3.alg",
           "l3xb2.alg", "trivial.alg", "l3-mv.alg")


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


# -- the per-character tokenizer and token-object parser that `parse`
# replaced, kept as the reference for its documents and diagnostics --------

@dataclass(frozen=True)
class _Token:
    kind: str      # "word" | "int" | "string" | "punct"
    value: str
    line: int
    col: int

    def is_punct(self, ch: str) -> bool:
        # a quoted "]" is a string, not a bracket
        return self.kind == "punct" and self.value == ch


# ASCII digits only: str.isdigit() also holds for "²" and other digits int() rejects
_INT = re.compile(r"-?[0-9]+")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for ln, line in enumerate(text.split("\n"), start=1):
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            if ch == "#":  # a comment outside a string runs to the end of the line
                break
            col = i + 1
            if ch in "[],=":
                tokens.append(_Token("punct", ch, ln, col))
                i += 1
            elif ch == '"':
                j = i + 1
                out = []
                while j < len(line):
                    if line[j] == "\\" and j + 1 < len(line):
                        out.append(line[j + 1])
                        j += 2
                    elif line[j] == '"':
                        break
                    else:
                        out.append(line[j])
                        j += 1
                else:
                    raise ParseError("unterminated string", ln, col)
                tokens.append(_Token("string", "".join(out), ln, col))
                i = j + 1
            else:
                j = i
                while j < len(line) and not line[j].isspace() and line[j] not in '[],="#':
                    j += 1
                word = line[i:j]
                kind = "int" if _INT.fullmatch(word) else "word"
                tokens.append(_Token(kind, word, ln, col))
                i = j
    return tokens


@dataclass(frozen=True)
class _Value:
    payload: Union[int, str, tuple]
    line: int
    col: int


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expect: str = "") -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("punct", "", 1, 1)
            raise ParseError(f"unexpected end of input{' (expected ' + expect + ')' if expect else ''}",
                             last.line, last.col)
        self.pos += 1
        return tok

    def entries(self) -> dict[str, _Value]:
        out: dict[str, _Value] = {}
        while self._peek() is not None:
            key = self._next("key")
            if key.kind != "word":
                raise ParseError(f"expected a key, got {key.value!r}", key.line, key.col)
            eq = self._next("'='")
            if not eq.is_punct("="):
                raise ParseError(f"expected '=' after {key.value}", eq.line, eq.col)
            value = self.value()
            if key.value in out:
                raise ParseError(f"duplicate key {key.value}", key.line, key.col)
            out[key.value] = value
        return out

    def value(self) -> _Value:
        tok = self._next("value")
        if tok.kind == "int":
            return _Value(int(tok.value), tok.line, tok.col)
        if tok.kind in ("word", "string"):
            return _Value(tok.value, tok.line, tok.col)
        if tok.is_punct("["):
            items: list[_Value] = []
            while True:
                nxt = self._peek()
                if nxt is None:
                    raise ParseError("unterminated list", tok.line, tok.col)
                if nxt.is_punct("]"):
                    self._next()
                    break
                items.append(self.value())
                sep = self._peek()
                if sep is not None and sep.is_punct(","):
                    self._next()
            return _Value(tuple(items), tok.line, tok.col)
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)


def _want_int(entries: dict[str, _Value], key: str, lo: int = 0,
              hi: Optional[int] = None) -> int:
    v = entries[key]
    if not isinstance(v.payload, int):
        raise ParseError(f"{key} must be an integer", v.line, v.col)
    if v.payload < lo or (hi is not None and v.payload >= hi):
        bound = f"[{lo}, {hi})" if hi is not None else f">= {lo}"
        raise ParseError(f"{key} = {v.payload} is out of range {bound}", v.line, v.col)
    return v.payload


def _want_entries(key: str, items: Sequence[_Value], n: int) -> tuple[int, ...]:
    """The entries of a vector or of one matrix row: integers in [0, n)."""
    for item in items:
        if not isinstance(item.payload, int):
            raise ParseError(f"{key} entries must be integers", item.line, item.col)
        if not 0 <= item.payload < n:
            raise ParseError(f"{key} entry {item.payload} is outside the universe [0, {n})",
                             item.line, item.col)
    return tuple(item.payload for item in items)


def _want_vector(entries: dict[str, _Value], key: str, n: int) -> tuple[int, ...]:
    v = entries[key]
    if not isinstance(v.payload, tuple):
        raise ParseError(f"{key} must be a list", v.line, v.col)
    if len(v.payload) != n:
        raise ParseError(f"{key} must have {n} entries, got {len(v.payload)}",
                         v.line, v.col)
    return _want_entries(key, v.payload, n)


def _want_matrix(entries: dict[str, _Value], key: str, n: int) -> tuple[tuple[int, ...], ...]:
    v = entries[key]
    if not isinstance(v.payload, tuple):
        raise ParseError(f"{key} must be a matrix", v.line, v.col)
    if len(v.payload) != n:
        raise ParseError(f"{key} must have {n} rows, got {len(v.payload)}", v.line, v.col)
    rows = []
    for r, row in enumerate(v.payload):
        if not isinstance(row.payload, tuple):
            raise ParseError(f"{key} row {r} must be a list", row.line, row.col)
        if len(row.payload) != n:
            raise ParseError(f"{key} row {r} must have {n} entries, got {len(row.payload)}",
                             row.line, row.col)
        rows.append(_want_entries(key, row.payload, n))
    return tuple(rows)


def reference_parse(text: str) -> AlgebraDocument:
    """The per-character tokenizer and token-object parser that `parse` replaced."""
    entries = _Parser(_tokenize(text)).entries()

    def need(key: str) -> _Value:
        if key not in entries:
            raise ParseError(f"missing key '{key}'", 1, 1)
        return entries[key]

    kind_v = need("kind")
    if kind_v.payload not in KINDS:
        raise ParseError(f"unknown kind {kind_v.payload!r} (expected one of {', '.join(KINDS)})",
                         kind_v.line, kind_v.col)
    kind = str(kind_v.payload)
    need("size")
    size = _want_int(entries, "size", lo=1)
    need("zero")
    zero = _want_int(entries, "zero", 0, size)

    names: Optional[tuple[str, ...]] = None
    if "names" in entries:
        v = entries["names"]
        if not isinstance(v.payload, tuple):
            raise ParseError("names must be a list of strings", v.line, v.col)
        if len(v.payload) != size:
            raise ParseError(f"names must have {size} entries, got {len(v.payload)}",
                             v.line, v.col)
        for item in v.payload:
            if isinstance(item.payload, (int, tuple)):
                raise ParseError("names entries must be quoted strings",
                                 item.line, item.col)
        names = tuple(str(item.payload) for item in v.payload)

    expected = {"kind", "size", "zero", "names"}
    if kind == "mv":
        expected |= {"oplus", "neg"}
    else:
        expected |= {"one", "plus", "times", "alpha"}
    for key, v in entries.items():
        if key not in expected:
            raise ParseError(f"unexpected key '{key}' for kind {kind}", v.line, v.col)

    if kind == "mv":
        need("oplus")
        need("neg")
        return AlgebraDocument(kind=kind, size=size, zero=zero, names=names,
                               oplus=_want_matrix(entries, "oplus", size),
                               neg=_want_vector(entries, "neg", size))
    for key in ("one", "plus", "times", "alpha"):
        need(key)
    return AlgebraDocument(kind=kind, size=size, zero=zero, names=names,
                           one=_want_int(entries, "one", 0, size),
                           plus=_want_matrix(entries, "plus", size),
                           times=_want_matrix(entries, "times", size),
                           alpha=_want_vector(entries, "alpha", size))


# the characters a mutant draws from: punctuation, digits, a non-ASCII digit,
# ASCII and non-ASCII whitespace that is not a line break
MUTATION_CHARS = '[],="#\\0123456789-\u00b2\t\r\x1c '
LADDER = ((2, 2, 2), (3, 3), (12,), (3, 4), (2, 2, 2, 2))


def mutation_documents() -> list[str]:
    texts = [bundled_file(name).read_text() for name in BUNDLED]
    for factors in LADDER:
        alg = functools.reduce(product, [luk_chain(k) for k in factors])
        texts.append(serialize(AlgebraDocument.from_algebra(alg, "luk-rs")))
    return texts


def mutate(rng: random.Random, text: str) -> str:
    """One insert, delete or replace of a character at a seeded position."""
    i = rng.randrange(len(text))
    op = rng.choice(("insert", "delete", "replace"))
    if op == "delete":
        return text[:i] + text[i + 1:]
    ch = rng.choice(MUTATION_CHARS)
    return text[:i] + ch + text[i + (op == "replace"):]


def outcome(parser, text):
    try:
        return parser(text)
    except ParseError as err:
        return (err.message, err.line, err.col)


def test_parse_matches_the_reference_parser_on_seeded_mutants():
    texts = mutation_documents()
    rng = random.Random(20)
    errors = 0
    for _ in range(3000):
        text = mutate(rng, rng.choice(texts))
        want = outcome(reference_parse, text)
        got = outcome(parse, text)
        if isinstance(want, AlgebraDocument) and want.names is not None \
                and len(set(want.names)) < want.size:
            # the reference accepted repeated element names
            assert isinstance(got, tuple) and got[0].startswith("duplicate name"), text
        else:
            assert got == want, text
        errors += isinstance(want, tuple)
    # the mutants reach both outcomes
    assert 1000 < errors < 3000


def test_re_whitespace_is_str_isspace():
    # the lexer skips what `\s` matches; the reference skipped str.isspace()
    space = re.compile(r"\s")
    assert [c for c in range(sys.maxunicode + 1) if space.match(chr(c))] == \
        [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def test_columns_count_code_points():
    # "\u00e9" is 2 bytes in UTF-8 and "\U0001d538" is 4 (2 UTF-16 units); each is one column
    with pytest.raises(ParseError) as err:
        parse('kind = luk-nrs\nsize = 2\nnames = ["\u00e9\U0001d538", "b"]  zero = 7\n')
    assert (err.value.message, err.value.line, err.value.col) == (
        "zero = 7 is out of range [0, 2)", 3, 29)


def test_duplicate_names_are_rejected_at_the_second():
    text = ('kind = luk-rs\nsize = 3\nnames = ["a", "b", "a"]\nzero = 0\none = 2\n'
            'plus = [[0,1,2],[1,1,2],[2,2,2]]\ntimes = [[0,0,0],[0,0,1],[0,1,2]]\n'
            'alpha = [2,1,0]\n')
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (
        "duplicate name 'a'", 3, 20)


def test_bare_word_names_are_refused_at_the_first_word():
    text = ('kind = luk-rs\nsize = 2\nnames = [lo, hi]\nzero = 0\none = 1\n'
            'plus = [[0,1],[1,1]]\ntimes = [[0,0],[0,1]]\nalpha = [1,0]\n')
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (
        "names entries must be quoted strings", 3, 10)
    # a kind may still be a word, and names may be quoted strings
    assert parse(text.replace("[lo, hi]", '["lo", "hi"]')).names == ("lo", "hi")


def test_map_diagnostics_are_located(tmp_path):
    m = tmp_path / "m.map"
    for text, message, line, col in (
            ("map = [0, [1]]\n", "map entries must be integers or element names", 1, 11),
            ("# the map\nmap = 3\n", "map must be a list", 2, 7),
            ("maps = [0]\n", "missing key 'map'", 1, 1)):
        m.write_text(text)
        with pytest.raises(ParseError) as err:
            load_map(m)
        assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    m.write_text('map = [0, "h", x]  # names or indices\n')
    assert load_map(m) == (0, "h", "x")


def test_a_list_valued_kind_is_shown_without_positions():
    with pytest.raises(ParseError) as err:
        parse("kind = [luk-rs, [1]]\nsize = 1\n")
    assert (err.value.message, err.value.line, err.value.col) == (
        "unknown kind ('luk-rs', (1,)) (expected one of inrs, luk-nrs, luk-rs, mv)", 1, 8)
