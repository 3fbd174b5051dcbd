"""Text serialization for stage sequences and factor tuples.

Sequence grammar (canonical form on one line):

    n=2; 10/01; 01/10; 01/10

``n=<int>;`` followed by n+1 square matrices separated by ``;``, each
matrix its rows joined by ``/``, most significant bit first.
Whitespace may appear between any two tokens and ``#`` starts a comment
running to end of line.  Files conventionally use the ``.alg`` suffix.

A document is a sequence preceded by an optional block of metadata
comments of the form ``# key: value``; formatting a parsed document
reproduces it byte for byte.

Factor tuples use the same token rules: ``n=<int>;`` then B (n x n)
then the n inner matrices ((n-1) x (n-1) each); for n=1 the inner
matrices are empty and omitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .algorithm import AlgorithmSeq
from .config import N_MAX
from .factory import FactorTuple
from .gf2 import BitMatrix

__all__ = [
    "ParseError",
    "AlgorithmDocument",
    "parse_sequence",
    "format_sequence",
    "parse_document",
    "format_document",
    "parse_factors",
    "format_factors",
]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _is_digit(ch: str) -> bool:
    return ch.isascii() and ch.isdigit()


class _Scanner:
    def __init__(self, text: str, start_line: int = 1):
        self.text = text
        self.pos = 0
        self.line = start_line
        self.col = 1

    def _advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_space(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            elif ch.isspace():
                self._advance()
            else:
                return

    def at_end(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def expect(self, ch: str) -> None:
        got = self.peek()
        if got != ch:
            shown = repr(got) if got else "end of input"
            raise self.fail(f"expected {ch!r}, found {shown}")
        self._advance()

    def matrix(self, rows: int, cols: int, label: str) -> BitMatrix:
        words = []
        for r in range(rows):
            if r:
                self.expect("/")
            word = 0
            width = 0
            while self.peek() in ("0", "1"):
                word = (word << 1) | (self._advance() == "1")
                width += 1
            if width != cols:
                raise self.fail(f"{label}: row {r} has {width} digits, expected {cols}")
            words.append(word)
        return BitMatrix(rows, cols, tuple(words))

    def header(self) -> int:
        self.expect("n")
        self.expect("=")
        if not _is_digit(self.peek()):
            raise self.fail("expected an integer")
        line, col = self.line, self.col
        digits = ""
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            digits += self._advance()
        digits = digits.lstrip("0") or "0"
        # the digit count goes first: int() refuses very long digit strings
        if len(digits) > len(str(N_MAX)) or not 1 <= int(digits) <= N_MAX:
            shown = digits if len(digits) <= 8 else f"a {len(digits)}-digit number"
            raise ParseError(f"n must be in 1..{N_MAX}, got {shown}", line, col)
        self.expect(";")
        return int(digits)

    def finish(self, expected: str) -> None:
        if self.peek() == ";":
            self._advance()
        if not self.at_end():
            raise self.fail(f"unexpected trailing input after {expected}")


def parse_sequence(text: str, start_line: int = 1) -> AlgorithmSeq:
    sc = _Scanner(text, start_line)
    n = sc.header()
    mats = [sc.matrix(n, n, "matrix 0")]
    for k in range(1, n + 1):
        sc.expect(";")
        mats.append(sc.matrix(n, n, f"matrix {k}"))
    sc.finish(f"{n + 1} matrices")
    return AlgorithmSeq(tuple(mats))


def format_sequence(P: AlgorithmSeq) -> str:
    return f"n={P.n}; " + "; ".join(m.to_text() for m in P)


_META_LINE = re.compile(r"#\s*([A-Za-z0-9_-]+):\s*(.*?)\s*$")


@dataclass(frozen=True)
class AlgorithmDocument:
    seq: AlgorithmSeq
    metadata: dict[str, str] = field(default_factory=dict)


def parse_document(text: str) -> AlgorithmDocument:
    """Sequence file with a leading ``# key: value`` metadata block."""
    lines = text.split("\n")
    metadata: dict[str, str] = {}
    consumed = 0
    for raw in lines:
        stripped = raw.strip()
        if not stripped:
            consumed += 1
            continue
        if not stripped.startswith("#"):
            break
        m = _META_LINE.match(stripped)
        if m:
            metadata[m.group(1)] = m.group(2)
        consumed += 1
    body = "\n".join(lines[consumed:])
    return AlgorithmDocument(parse_sequence(body, start_line=consumed + 1), metadata)


def format_document(doc: AlgorithmDocument) -> str:
    head = "".join(f"# {k}: {v}\n" for k, v in doc.metadata.items())
    return head + format_sequence(doc.seq) + "\n"


def parse_factors(text: str) -> FactorTuple:
    sc = _Scanner(text)
    n = sc.header()
    b = sc.matrix(n, n, "matrix B")
    qs = []
    for k in range(1, n + 1):
        if n == 1:
            qs.append(BitMatrix(0, 0, ()))
            continue
        sc.expect(";")
        qs.append(sc.matrix(n - 1, n - 1, f"inner matrix {k}"))
    sc.finish("the factor matrices")
    return FactorTuple(b, tuple(qs))


def format_factors(f: FactorTuple) -> str:
    parts = [f"n={f.n}", f.b.to_text()]
    if f.n > 1:
        parts.extend(q.to_text() for q in f.qs)
    return f"{parts[0]}; " + "; ".join(parts[1:])
