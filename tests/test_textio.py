import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linwht import factorize, pease, sample_member, textio
from linwht.gf2 import SingularError
from linwht.textio import (
    AlgorithmDocument,
    ParseError,
    format_document,
    format_factors,
    format_sequence,
    parse_document,
    parse_factors,
    parse_sequence,
)

from helpers import FIXTURES, naive_format_factors, random_sequence, read_fixture


def test_parse_canonical_line():
    P = parse_sequence("n=2; 10/01; 01/10; 01/10")
    assert P.key() == pease(2).key()


def test_whitespace_and_comments_insignificant():
    text = """
    # leading comment
    n = 2 ;   10/01 ;  # inline comment
      01/10;
      0 1 / 1 0   # digits may be split
    """
    P = parse_sequence(text)
    assert P.key() == pease(2).key()


def test_optional_trailing_semicolon():
    assert parse_sequence("n=1; 1; 1;").n == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**30))
def test_format_parse_round_trip(n, seed):
    P = sample_member(n, seed)
    text = format_sequence(P)
    assert format_sequence(parse_sequence(text)) == text


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_sequence("m=2; 10/01; 01/10; 01/10")
    assert e.value.line == 1 and e.value.column == 1
    with pytest.raises(ParseError) as e:
        parse_sequence("n=2;\n10/01;\n01/10")
    assert e.value.line == 3


# (line, column) of each error as reported before the scanner read
# tokens by regular expressions, which derive both from the offset.
@pytest.mark.parametrize(
    "parse,text,line,column",
    [
        # an error after a multi-line comment
        (parse_sequence, "# a comment\n# that runs\n# over three lines\nn=2; 10/01; 01/10; 0110\n", 5, 1),
        # a row split across lines by whitespace and a comment
        (parse_sequence, "n=2; 10/01; 01/10;\n  1 # the row goes on\n  0 / 0 1 0\n", 4, 1),
        (parse_sequence, "n=2; 10/01; 01/10; 01/10\n\t# tail\n  01", 3, 5),
        # an error in the body of a document with a metadata header
        (parse_document, "# name: x\n# seed: 1\n\nn=2; 10/01;\n01/10; 01/1x\n", 5, 12),
        (parse_document, "# name: x\n\n# seed: 2\nn=70; 1", 4, 3),
        # an empty, blank or header-only document ends on its own last line
        (parse_document, "", 1, 1),
        (parse_document, "\n", 2, 1),
        (parse_document, "# a: b\n", 2, 1),
        # a wrong row width at the end of input
        (parse_sequence, "n=2;\n10/01;\n01/10;\n01/1", 4, 5),
        # a stray character after the last matrix
        (parse_sequence, "n=2; 10/01; 01/10; 01/10 x", 1, 26),
        (parse_sequence, "n=2; 10/01; 01/10; 01/10;\n# done\n ;", 3, 2),
        (parse_factors, "n=3; 100/010/001; 10/01; 10/01; 10/01\n\n  ! ", 3, 3),
    ],
)
def test_parse_error_positions_pinned(parse, text, line, column):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.column) == (line, column)
    assert str(e.value).endswith(f"(line {line}, column {column})")


@pytest.mark.parametrize(
    "text",
    [
        "n=0; 1",
        "n=2; 10/01; 01/10",
        "n=2; 10/01; 01/10; 01/10; 10/01",
        "n=2; 100/01; 01/10; 01/10",
        "n=2; 10/01/11; 01/10; 01/10",
        "n=2; 10/01; 01/10; 01/10 junk",
        "n=x; 10/01",
        "",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_sequence(text)


def test_parse_rejects_singular_stage():
    with pytest.raises(SingularError) as e:
        parse_sequence("n=2; 10/01; 11/11; 01/10")
    assert "1" in str(e.value)


def test_document_metadata_round_trip():
    doc = AlgorithmDocument(pease(2), {"name": "pease", "n": "2"})
    text = format_document(doc)
    back = parse_document(text)
    assert back.metadata == {"name": "pease", "n": "2"}
    assert format_document(back) == text


def test_document_without_metadata():
    doc = parse_document("n=1; 1; 1\n")
    assert doc.metadata == {}
    assert doc.seq.n == 1


def test_document_plain_comments_not_metadata():
    text = "# just a remark without a colon-key\nn=1; 1; 1\n"
    doc = parse_document(text)
    assert doc.metadata == {}


def test_document_metadata_stops_at_the_sequence():
    """``# k: v`` lines after the first non-comment line are comments, not metadata."""
    text = "# name: x\n\n  # seed: 1\r\nn=1; 1;\n# late: 2\n1\n# after: 3\n"
    doc = parse_document(text)
    assert doc.metadata == {"name": "x", "seed": "1"}
    assert doc.seq.key() == "1;1"


def test_document_one_row_per_line_n64():
    P = sample_member(64, 3)
    rows = ";\n".join(m.to_text().replace("/", "/\n") for m in P)
    text = "# name: member\n# seed: 3\nn=64;\n" + rows + "\n# trailing: no\n"
    assert text.count("\n") == 4 + 65 * 64
    doc = parse_document(text)
    assert doc.metadata == {"name": "member", "seed": "3"}
    assert doc.seq == P


def test_document_error_line_accounts_for_header():
    with pytest.raises(ParseError) as e:
        parse_document("# name: x\n# seed: 1\nn=2; 100/01; 01/10; 01/10\n")
    assert e.value.line == 3


def test_all_fixtures_parse():
    for path in sorted(FIXTURES.glob("*.alg")):
        doc = parse_document(path.read_text())
        assert doc.seq.n in (2, 3)


def test_fixture_round_trips_bytewise():
    text = read_fixture("pease2.alg")
    assert format_document(parse_document(text)) == text


def test_factor_round_trip():
    from linwht import factorize

    f = factorize(sample_member(4, 11))
    text = format_factors(f)
    assert parse_factors(text) == f
    assert format_factors(parse_factors(text)) == text


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
def test_factor_text_matches_per_matrix_writer(n):
    """``format_factors`` writes B and the stacked inner matrices through one
    byte array each, byte for byte as ``to_text`` writes each matrix."""
    for seed in range(3):
        f = factorize(sample_member(n, seed))
        assert format_factors(f) == naive_format_factors(f)


def test_factor_grammar_n1():
    f = parse_factors("n=1; 1")
    assert f.n == 1 and f.qs[0].rows == 0
    assert format_factors(f) == "n=1; 1"


@pytest.mark.parametrize(
    "text",
    [
        "n=2; 10/01; 1",
        "n=2; 10/01; 1; 1; 1",
        "n=2; 10/01; 11/01; 1",
        "n=1; 1; 1",
    ],
)
def test_factor_grammar_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_factors(text)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**30), st.booleans())
@example(1, 0, True)
@example(2, 5, False)
@example(64, 1, True)
@example(64, 2, False)
def test_format_sequence_joins_stage_texts(n, seed, member):
    """``key()``'s one-array writer writes what joining each stage's ``to_text``
    writes, and the formatter writes the key."""
    P = sample_member(n, seed) if member else random_sequence(n, random.Random(seed))
    assert P.key() == ";".join(m.to_text() for m in P)
    assert format_sequence(P) == f"n={P.n}; " + "; ".join(m.to_text() for m in P)


# ``_Scanner.matrix`` first tries one match of the whole matrix and reads it
# only when no row loop could read it differently; these tests pin that down
# against the row loop, forced by a compact pattern that never matches.
_NEVER = re.compile(r"(?!)")
_SEPARATORS = (" ", "\t", "\n", "\r\n", "# c\n", "  # a comment\r\n")
# a bit turned to 2, a '/' or a bit dropped, or a digit after a matrix's last row
_CORRUPTIONS = ("2", "drop /", "drop bit", " 1", "\t0", "# c\n1", "#\r\n0")


def _canonical(kind: str, n: int, seed: int):
    P = sample_member(n, seed)
    if kind == "factors":
        return parse_factors, format_factors(factorize(P))
    if kind == "document":
        doc = AlgorithmDocument(P, {"name": "x", "seed": str(seed)})
        return parse_document, format_document(doc)
    return parse_sequence, format_sequence(P)


def _corrupt(text: str, start: int, how: str, pick: int) -> str:
    """``text`` with one corruption at the ``pick``-th candidate site after offset ``start``."""
    body = range(start, len(text))
    if how == "drop /":
        sites = [i for i in body if text[i] == "/"]
    elif how in ("2", "drop bit"):
        sites = [i for i in body if text[i] in "01"]
    else:  # after the last bit of a matrix: one followed by ';', a newline or the end
        sites = [i + 1 for i in body if text[i] in "01" and text[i + 1 : i + 2] in (";", "\n", "")]
    if not sites:
        return text
    i = sites[pick % len(sites)]
    if how == "2":
        return text[:i] + "2" + text[i + 1 :]
    if how.startswith("drop"):
        return text[:i] + text[i + 1 :]
    return text[:i] + how + text[i:]


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "column", None)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(("sequence", "document", "factors")),
    st.integers(1, 8),
    st.integers(0, 2**30),
    st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_SEPARATORS)), max_size=12),
    st.none() | st.tuples(st.sampled_from(_CORRUPTIONS), st.integers(0, 10**6)),
    st.booleans(),
)
@example("factors", 1, 0, [], None, False)
@example("sequence", 1, 0, [], (" 1", 0), False)
@example("factors", 1, 3, [(0, "# c\n")], ("# c\n1", 0), True)
@example("document", 64, 1, [(4000, "\r\n"), (9, " ")], ("#\r\n0", 64), True)
@example("sequence", 64, 2, [], ("drop /", 4000), False)
@example("factors", 64, 3, [(1, "\t")], ("2", 77), False)
def test_compact_match_agrees_with_row_loop(kind, n, seed, spacing, corruption, crlf):
    """Canonical text with random spacing, comments, CRLF line ends and at most
    one corrupted character parses to the same value, or fails with the same
    error text, line and column, with and without the compact match."""
    parse, text = _canonical(kind, n, seed)
    start = text.index(";") + 1  # spacing and corruption go after the header
    if corruption:
        text = _corrupt(text, start, *corruption)
    for offset, sep in spacing:
        at = start + offset % (len(text) - start + 1)
        text = text[:at] + sep + text[at:]
    if crlf:
        text = text.replace("\r\n", "\n").replace("\n", "\r\n")
    fast = _outcome(parse, text)
    with mock.patch.object(textio, "_compact", lambda rows, cols: _NEVER):
        assert fast == _outcome(parse, text)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_canonical_text_takes_the_compact_match(n):
    """With a row loop that can read no digit, canonical text still parses:
    every matrix of it was read by the compact match."""
    for kind in ("sequence", "document", "factors"):
        parse, text = _canonical(kind, n, n)
        expected = parse(text)
        with mock.patch.object(textio, "_BITS", _NEVER):
            assert parse(text) == expected
