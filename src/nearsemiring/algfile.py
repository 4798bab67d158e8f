"""The .alg document format: parse with positioned diagnostics, serialize canonically.

Grammar (whitespace-insensitive between tokens, '#' outside a string starts a
comment that runs to the end of the line):

    kind  = inrs | luk-nrs | luk-rs | mv
    size  = <int>
    names = ["...", ...]            # optional
    zero  = <int>
    one   = <int>                   # table kinds only
    plus  = [[...], ...]            # size x size matrices
    times = [[...], ...]
    alpha = [...]                   # length-size vector
    oplus = [[...], ...]            # mv kind
    neg   = [...]                   # mv kind

Serialization is canonical: parse(serialize(doc)) == doc, and serializing a
parsed canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core import FiniteAlgebra
from .mv import MVAlgebra

KINDS = ("inrs", "luk-nrs", "luk-rs", "mv")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


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


@dataclass(frozen=True)
class AlgebraDocument:
    """A parsed .alg file; to_algebra() builds the table structure."""

    kind: str
    size: int
    zero: int
    names: Optional[tuple[str, ...]] = None
    one: Optional[int] = None
    plus: Optional[tuple[tuple[int, ...], ...]] = None
    times: Optional[tuple[tuple[int, ...], ...]] = None
    alpha: Optional[tuple[int, ...]] = None
    oplus: Optional[tuple[tuple[int, ...], ...]] = None
    neg: Optional[tuple[int, ...]] = None

    @property
    def is_mv(self) -> bool:
        return self.kind == "mv"

    def to_algebra(self) -> Union[FiniteAlgebra, MVAlgebra]:
        if self.is_mv:
            return MVAlgebra(size=self.size, oplus=self.oplus, neg=self.neg,
                             zero=self.zero, names=self.names)
        return FiniteAlgebra(size=self.size, plus=self.plus, times=self.times,
                             alpha=self.alpha, zero=self.zero, one=self.one,
                             names=self.names)

    @classmethod
    def from_algebra(cls, alg: Union[FiniteAlgebra, MVAlgebra],
                     kind: Optional[str] = None) -> "AlgebraDocument":
        if isinstance(alg, MVAlgebra):
            return cls(kind="mv", size=alg.size, zero=alg.zero, names=alg.names,
                       oplus=alg.oplus, neg=alg.neg)
        if kind is None:
            from .axioms import classify
            kind = classify(alg) or "inrs"
        return cls(kind=kind, size=alg.size, zero=alg.zero, names=alg.names,
                   one=alg.one, plus=alg.plus, times=alg.times, alpha=alg.alpha)


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


def parse(text: str) -> AlgebraDocument:
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


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _fmt_vector(vals: Sequence[int]) -> str:
    return "[" + ", ".join(str(v) for v in vals) + "]"


def _fmt_matrix(rows: Sequence[Sequence[int]]) -> str:
    body = "".join(f"  {_fmt_vector(row)},\n" for row in rows)
    return "[\n" + body + "]"


def serialize(doc: AlgebraDocument) -> str:
    lines = [f"kind = {doc.kind}", f"size = {doc.size}"]
    if doc.names is not None:
        lines.append("names = [" + ", ".join(_quote(s) for s in doc.names) + "]")
    lines.append(f"zero = {doc.zero}")
    if doc.is_mv:
        lines.append(f"oplus = {_fmt_matrix(doc.oplus)}")
        lines.append(f"neg = {_fmt_vector(doc.neg)}")
    else:
        lines.append(f"one = {doc.one}")
        lines.append(f"plus = {_fmt_matrix(doc.plus)}")
        lines.append(f"times = {_fmt_matrix(doc.times)}")
        lines.append(f"alpha = {_fmt_vector(doc.alpha)}")
    return "\n".join(lines) + "\n"


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load(path) -> AlgebraDocument:
    return parse(_read(path))


def load_map(path) -> tuple[Union[int, str], ...]:
    """The entries of a map document, `map = [..]`: indices or element names."""
    entries = _Parser(_tokenize(_read(path))).entries()
    if "map" not in entries:
        raise ParseError("missing key 'map'", 1, 1)
    v = entries["map"]
    if not isinstance(v.payload, tuple):
        raise ParseError("map must be a list", v.line, v.col)
    for item in v.payload:
        if isinstance(item.payload, tuple):
            raise ParseError("map entries must be integers or element names",
                             item.line, item.col)
    return tuple(item.payload for item in v.payload)
