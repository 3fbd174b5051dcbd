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

At n=64 a sequence is 270 KB of text.  The scanner reads a matrix in one
regex match only where the row-by-row loop would read the same rows and
stop at the same offset, and else runs that loop from the same position, so
every error text, line and column is the loop's.  Either way it gives the
canonical row text, and ``parse_sequence`` decodes all n+1 of them into
the stage words at once.  ``format_sequence`` and ``format_factors``
write through ``algorithm._text``, the one writer of a word stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algorithm import AlgorithmSeq, _proved, _sequence, _text
from .config import N_MAX
from .factory import FactorTuple, _factors
from .gf2 import _words

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


_SPACE = re.compile(r"(?:\s|#[^\n]*)*")
_BITS = re.compile(r"[01]+")
_DIGITS = re.compile(r"[0-9]+")


@lru_cache(maxsize=None)
def _compact(rows: int, cols: int) -> re.Pattern:
    """A whole rows x cols matrix, rows >= 1, written with no space or comment inside."""
    return re.compile(rf"[01]{{{cols}}}(?:/[01]{{{cols}}}){{{rows - 1}}}")


class _Scanner:
    """Tokens by compiled regexes; line and column are derived from
    ``pos`` only when an error is raised."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_space(self) -> None:
        self.pos = _SPACE.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos : self.pos + 1]

    def error(self, message: str, pos: int) -> ParseError:
        line = 1 + self.text.count("\n", 0, pos)
        return ParseError(message, line, pos - self.text.rfind("\n", 0, pos))

    def fail(self, message: str) -> ParseError:
        return self.error(message, self.pos)

    def expect(self, ch: str) -> None:
        got = self.peek()
        if got != ch:
            shown = repr(got) if got else "end of input"
            raise self.fail(f"expected {ch!r}, found {shown}")
        self.pos += 1

    def matrix(self, rows: int, cols: int, label: str) -> str:
        """The matrix's canonical row text: rows of exactly ``cols`` digits joined by ``/``."""
        if rows:
            self.skip_space()
            m = _compact(rows, cols).match(self.text, self.pos)
            # a bit run after space or a comment would extend the last row in the loop below
            if m and not _BITS.match(self.text, end := _SPACE.match(self.text, m.end()).end()):
                self.pos = end
                return m.group()
        texts = []
        for r in range(rows):
            if r:
                self.expect("/")
            # a row is one or more runs of digits, split by space or comments
            bits = ""
            while m := _BITS.match(self.text, _SPACE.match(self.text, self.pos).end()):
                bits += m.group()
                self.pos = m.end()
            self.skip_space()
            if len(bits) != cols:
                raise self.fail(f"{label}: row {r} has {len(bits)} digits, expected {cols}")
            texts.append(bits)
        return "/".join(texts)

    def header(self) -> int:
        self.expect("n")
        self.expect("=")
        self.skip_space()
        m = _DIGITS.match(self.text, self.pos)
        if not m:
            raise self.fail("expected an integer")
        self.pos = m.end()
        digits = m.group().lstrip("0") or "0"
        # the digit count goes first: int() refuses very long digit strings
        if len(digits) > len(str(N_MAX)) or not 1 <= int(digits) <= N_MAX:
            shown = digits if len(digits) <= 8 else f"a {len(digits)}-digit number"
            raise self.error(f"n must be in 1..{N_MAX}, got {shown}", m.start())
        self.expect(";")
        return int(digits)

    def finish(self, expected: str) -> None:
        if self.peek() == ";":
            self.pos += 1
        if not self.at_end():
            raise self.fail(f"unexpected trailing input after {expected}")


def _decode(texts: list[str], n: int) -> np.ndarray:
    """The row words, (len(texts), n) uint64, of n x n matrices in canonical row text,
    decoded at once: with a '/' after each text, every row is n digits and a '/'."""
    if not n:
        return np.zeros((len(texts), 0), np.uint64)
    chars = np.frombuffer("/".join([*texts, ""]).encode(), np.uint8).reshape(len(texts), n, n + 1)
    return _words(chars[..., :n] - ord("0"))


def parse_sequence(text: str) -> AlgorithmSeq:
    sc = _Scanner(text)
    n = sc.header()
    texts = [sc.matrix(n, n, "matrix 0")]
    for k in range(1, n + 1):
        sc.expect(";")
        texts.append(sc.matrix(n, n, f"matrix {k}"))
    sc.finish(f"{n + 1} matrices")
    return _sequence(_proved(_decode(texts, n), "stage matrix {}"))


def format_sequence(P: AlgorithmSeq) -> str:
    return f"n={P.n}; " + P.key().replace(";", "; ")


_HEAD_LINE = re.compile(r"[^\S\n]*(#[^\n]*)?\n")  # a blank or comment line
_META_LINE = re.compile(r"#\s*([A-Za-z0-9_-]+):\s*(.*?)\s*$")


@dataclass(frozen=True)
class AlgorithmDocument:
    seq: AlgorithmSeq
    metadata: dict[str, str] = field(default_factory=dict)


def parse_document(text: str) -> AlgorithmDocument:
    """Sequence file with a leading ``# key: value`` metadata block, read line
    by line up to the first line that is neither blank nor a comment; the
    scanner skips that block as comments, so error lines count from the top."""
    metadata: dict[str, str] = {}
    pos = 0
    while line := _HEAD_LINE.match(text, pos):
        if line.group(1) and (m := _META_LINE.match(line.group(1))):
            metadata[m.group(1)] = m.group(2)
        pos = line.end()
    return AlgorithmDocument(parse_sequence(text), metadata)


def format_document(doc: AlgorithmDocument) -> str:
    head = "".join(f"# {k}: {v}\n" for k, v in doc.metadata.items())
    return head + format_sequence(doc.seq) + "\n"


def parse_factors(text: str) -> FactorTuple:
    sc = _Scanner(text)
    n = sc.header()
    b = sc.matrix(n, n, "matrix B")
    qs = []
    for k in range(1, n + 1):
        if n > 1:  # at n = 1 each inner matrix is 0x0 and written as nothing
            sc.expect(";")
        qs.append(sc.matrix(n - 1, n - 1, f"inner matrix {k}"))
    sc.finish("the factor matrices")
    return _factors(_decode([b], n)[0], _decode(qs, n - 1), check=True)


def format_factors(f: FactorTuple) -> str:
    n = f.n  # at n = 1 each inner matrix is 0x0 and written as nothing
    mats = _text(f.b_words[None], n) + (";" + _text(f.q_words, n - 1) if n > 1 else "")
    return f"n={n}; " + mats.replace(";", "; ")
