import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linwht import pease, sample_member
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

from helpers import FIXTURES, read_fixture


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
