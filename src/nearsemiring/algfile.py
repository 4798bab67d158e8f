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

Lexical rules: an integer is ASCII -?[0-9]+; any other run of non-space,
non-punctuation characters is a word (a kind or a map entry, never a name); a
string is double-quoted, ends on its own line and takes backslash escapes (a
backslash keeps the next character); whitespace is str.isspace(). Columns
count code points. Lists nest at most 32 deep. Element names are distinct.

Serialization is canonical: parse(serialize(doc)) == doc, and serializing a
parsed canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import itertools
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


# One match per token: a word or integer, a bracket, ',' or '=', a string that
# ends on its own line, a lone '"' (a string left open) or a comment. Whatever
# no alternative matches is whitespace: re's \s is exactly str.isspace().
_TOKEN = re.compile(r'[^\s\[\],="#]+|[\[\],=]|"(?:\\.|[^"\\\n])*"|"|#[^\n]*')
# ASCII digits only: str.isdigit() also holds for "²" and other digits int() rejects
_INT = re.compile(r"-?[0-9]+")
_ESCAPE = re.compile(r"\\(.)")
_PUNCT = frozenset("[],=")
# valid documents nest lists two deep (a table); the cap keeps parsing off the
# interpreter's recursion limit on hostile input
_MAX_DEPTH = 32


def _error(text: str, at: int, message: str) -> ParseError:
    """A ParseError at token `at` of `text`; only here are lines and columns found."""
    starts = (m.start() for m in _TOKEN.finditer(text) if m.group()[0] != "#")
    start = next(itertools.islice(starts, at, None))
    line_start = text.rfind("\n", 0, start) + 1
    return ParseError(message, text.count("\n", 0, line_start) + 1, start - line_start + 1)


class _Word(str):
    """The payload of an unquoted word: a kind or a map entry, never a name."""


def _scalar(tok: str) -> Union[int, str]:
    """The payload of a word, integer or string token."""
    if tok[0] == '"':
        return _ESCAPE.sub(r"\1", tok[1:-1])
    return int(tok) if _INT.fullmatch(tok) else _Word(tok)


def _entries(text: str) -> dict[str, tuple]:
    """The `key = value` entries of a document, in order.

    Each value is a (payload, token index) pair: the payload is an int, a str
    (a word or a string) or a tuple of values, and the index places a diagnostic.
    """
    tokens = _TOKEN.findall(text)
    if "#" in text:
        tokens = [t for t in tokens if t[0] != "#"]
    if '"' in tokens:
        raise _error(text, tokens.index('"'), "unterminated string")
    n = len(tokens)
    # a table repeats few distinct tokens: convert each of them once
    payload = {t: _scalar(t) for t in set(tokens)}

    def value(i: int, depth: int = 1) -> tuple[tuple, int]:
        """The value that starts at token i, and the index of the token after it;
        depth counts the lists open around it, itself included."""
        if i == n:
            raise _error(text, n - 1, "unexpected end of input (expected value)")
        tok = tokens[i]
        if tok != "[":
            if tok in _PUNCT:
                raise _error(text, i, f"unexpected token {tok!r}")
            return (payload[tok], i), i + 1
        if depth > _MAX_DEPTH:
            raise _error(text, i, f"lists nested more than {_MAX_DEPTH} deep")
        items = []
        j = i + 1
        while True:
            if j == n:
                raise _error(text, i, "unterminated list")
            tok = tokens[j]
            if tok == "]":
                return (tuple(items), i), j + 1
            if tok in _PUNCT:
                item, j = value(j, depth + 1)
            else:
                item = (payload[tok], j)
                j += 1
            items.append(item)
            if j < n and tokens[j] == ",":
                j += 1

    out: dict[str, tuple] = {}
    i = 0
    while i < n:
        key = tokens[i]
        if key[0] in '[],="' or isinstance(payload[key], int):
            shown = payload[key] if key[0] == '"' else key
            raise _error(text, i, f"expected a key, got {shown!r}")
        if i + 1 == n:
            raise _error(text, i, "unexpected end of input (expected '=')")
        if tokens[i + 1] != "=":
            raise _error(text, i + 1, f"expected '=' after {key}")
        entry, j = value(i + 2)
        if key in out:
            raise _error(text, i, f"duplicate key {key}")
        out[key] = entry
        i = j
    return out


def _plain(payload):
    """A payload without its token indices, as a diagnostic shows it."""
    return tuple(_plain(p) for p, _ in payload) if isinstance(payload, tuple) else payload


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


def _want_int(text: str, entries: dict[str, tuple], key: str, lo: int = 0,
              hi: Optional[int] = None) -> int:
    v, at = entries[key]
    if not isinstance(v, int):
        raise _error(text, at, f"{key} must be an integer")
    if v < lo or (hi is not None and v >= hi):
        bound = f"[{lo}, {hi})" if hi is not None else f">= {lo}"
        raise _error(text, at, f"{key} = {v} is out of range {bound}")
    return v


def _want_entries(text: str, key: str, items: Sequence[tuple], n: int) -> tuple[int, ...]:
    """The entries of a vector or of one matrix row: integers in [0, n)."""
    for v, at in items:
        if not isinstance(v, int):
            raise _error(text, at, f"{key} entries must be integers")
        if not 0 <= v < n:
            raise _error(text, at, f"{key} entry {v} is outside the universe [0, {n})")
    return tuple([v for v, _ in items])


def _want_vector(text: str, entries: dict[str, tuple], key: str, n: int) -> tuple[int, ...]:
    v, at = entries[key]
    if not isinstance(v, tuple):
        raise _error(text, at, f"{key} must be a list")
    if len(v) != n:
        raise _error(text, at, f"{key} must have {n} entries, got {len(v)}")
    return _want_entries(text, key, v, n)


def _want_matrix(text: str, entries: dict[str, tuple], key: str,
                 n: int) -> tuple[tuple[int, ...], ...]:
    v, at = entries[key]
    if not isinstance(v, tuple):
        raise _error(text, at, f"{key} must be a matrix")
    if len(v) != n:
        raise _error(text, at, f"{key} must have {n} rows, got {len(v)}")
    rows = []
    for r, (row, at) in enumerate(v):
        if not isinstance(row, tuple):
            raise _error(text, at, f"{key} row {r} must be a list")
        if len(row) != n:
            raise _error(text, at, f"{key} row {r} must have {n} entries, got {len(row)}")
        rows.append(_want_entries(text, key, row, n))
    return tuple(rows)


def parse(text: str) -> AlgebraDocument:
    entries = _entries(text)

    def need(key: str) -> tuple:
        if key not in entries:
            raise ParseError(f"missing key '{key}'", 1, 1)
        return entries[key]

    kind, at = need("kind")
    if kind not in KINDS:
        raise _error(text, at, f"unknown kind {_plain(kind)!r} "
                               f"(expected one of {', '.join(KINDS)})")
    kind = str(kind)
    need("size")
    size = _want_int(text, entries, "size", lo=1)
    need("zero")
    zero = _want_int(text, entries, "zero", 0, size)

    names: Optional[tuple[str, ...]] = None
    if "names" in entries:
        v, at = entries["names"]
        if not isinstance(v, tuple):
            raise _error(text, at, "names must be a list of strings")
        if len(v) != size:
            raise _error(text, at, f"names must have {size} entries, got {len(v)}")
        for name, at in v:
            if type(name) is not str:  # an int, a list or a bare _Word
                raise _error(text, at, "names entries must be quoted strings")
        # an element name must pick one element (nsr decompose --element NAME)
        seen: set[str] = set()
        for name, at in v:
            if name in seen:
                raise _error(text, at, f"duplicate name {name!r}")
            seen.add(name)
        names = tuple(name for name, _ in v)

    expected = {"kind", "size", "zero", "names"}
    if kind == "mv":
        expected |= {"oplus", "neg"}
    else:
        expected |= {"one", "plus", "times", "alpha"}
    for key, (_, at) in entries.items():
        if key not in expected:
            raise _error(text, at, f"unexpected key '{key}' for kind {kind}")

    if kind == "mv":
        need("oplus")
        need("neg")
        return AlgebraDocument(kind=kind, size=size, zero=zero, names=names,
                               oplus=_want_matrix(text, entries, "oplus", size),
                               neg=_want_vector(text, entries, "neg", size))
    for key in ("one", "plus", "times", "alpha"):
        need(key)
    return AlgebraDocument(kind=kind, size=size, zero=zero, names=names,
                           one=_want_int(text, entries, "one", 0, size),
                           plus=_want_matrix(text, entries, "plus", size),
                           times=_want_matrix(text, entries, "times", size),
                           alpha=_want_vector(text, entries, "alpha", size))


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
    text = _read(path)
    entries = _entries(text)
    if "map" not in entries:
        raise ParseError("missing key 'map'", 1, 1)
    v, at = entries["map"]
    if not isinstance(v, tuple):
        raise _error(text, at, "map must be a list")
    for item, at in v:
        if isinstance(item, tuple):
            raise _error(text, at, "map entries must be integers or element names")
    return tuple(item for item, _ in v)
