import contextlib
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linwht import count_algorithms, count_algorithms_simplified, count_bit_index_algorithms, pease
from linwht.catalog import CATALOG
from linwht.cli import main
from linwht.textio import format_sequence, parse_document, parse_factors, parse_sequence

from helpers import FIXTURES, N2_ROWS, SubtractFailsInWorkers, naive_corner_witness, random_sequence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(FIXTURES / name)


def test_check_fast_pass(capsys):
    code, out, err = run_cli(capsys, "check", "--fast", fixture("pease2.alg"))
    assert code == 0
    assert out.startswith("PASS fast")
    assert err == ""


def test_check_default_is_fast(capsys):
    code, out, _ = run_cli(capsys, "check", fixture("pease2.alg"))
    assert code == 0 and "PASS fast" in out


def test_check_fast_fail(capsys):
    code, out, _ = run_cli(capsys, "check", fixture("nonmember2.alg"))
    assert code == 1
    assert out.startswith("FAIL fast")


def test_check_oracle_and_corners(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--oracle", fixture("pease2.alg"), fixture("nonmember2.alg")
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("PASS oracle") and lines[1].startswith("FAIL oracle")

    code, out, _ = run_cli(capsys, "check", "--corners", fixture("break_product_n3.alg"))
    assert code == 0 and "PASS corners" in out


def test_check_corners_names_first_bad_pair(capsys, tmp_path):
    names = ("nonmember2", "break_inverse_n2", "break_inverse_n3")
    code, out, _ = run_cli(capsys, "check", "--corners", *(fixture(f"{m}.alg") for m in names))
    assert code == 1
    assert out.splitlines() == [
        f"FAIL corners {fixture('nonmember2.alg')}: corner of P_{{1:1}} is 1",
        f"FAIL corners {fixture('break_inverse_n2.alg')}: corner of P_{{1:1}}^-1 is 1",
        f"FAIL corners {fixture('break_inverse_n3.alg')}: corner of P_{{2:2}} is 1",
    ]
    # a witness with k < l, found by the naive search
    rng = random.Random(0)
    P = random_sequence(3, rng)
    while (naive_corner_witness(P) or (0, 0))[:2] != (1, 2):
        P = random_sequence(3, rng)
    path = tmp_path / "k_below_l.alg"
    path.write_text(format_sequence(P) + "\n")
    code, out, _ = run_cli(capsys, "check", "--corners", str(path))
    suffix = "^-1" if naive_corner_witness(P)[2] else ""
    assert code == 1 and out == f"FAIL corners {path}: corner of P_{{1:2}}{suffix} is 1\n"


def test_check_modes_agree_on_fixtures(capsys):
    for name in ("pease2", "nonmember2", "break_product_n2", "break_inverse_n3"):
        fast = run_cli(capsys, "check", "--fast", fixture(f"{name}.alg"))[0]
        oracle = run_cli(capsys, "check", "--oracle", fixture(f"{name}.alg"))[0]
        assert fast == oracle


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("n=1; 1; 1\n"))
    code, out, _ = run_cli(capsys, "check", "-")
    assert code == 0 and "PASS fast -" in out


def test_check_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("n=2; 10/01")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "error:" in err


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "no_such_file.alg")
    assert code == 2 and "error:" in err


PYPROJECT = str(Path(__file__).parent.parent / "pyproject.toml")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", fixture("pease2.alg"), "no_such_file.alg"),
        ("check", fixture("pease2.alg"), PYPROJECT),
        ("check", "-", "-"),
        ("check", "--oracle", fixture("pease2.alg"), fixture("break_product_n3.alg")),
    ],
    ids=["missing", "unparsable", "stdin-twice", "oracle-too-big"],
)
def test_check_bad_later_input_prints_no_verdict(capsys, monkeypatch, argv):
    """A bad second input exits 2 before the first file's verdict is printed."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("n=1; 1; 1\n"))
    monkeypatch.setenv("WHT_MAX_N", "2")  # the n=3 fixture is past the oracle limit
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv,stdin,named",
    [
        (("check", fixture("pease2.alg"), PYPROJECT), "", PYPROJECT),
        (("check", fixture("pease2.alg"), "-"), "n=2; 11/11; 10/01; 10/01\n", "-"),
        (
            ("check", "--oracle", fixture("pease2.alg"), fixture("break_product_n3.alg")),
            "",
            fixture("break_product_n3.alg"),
        ),
        (("build", fixture("singular_inner.factors")), "", fixture("singular_inner.factors")),
    ],
    ids=["unparsable", "singular-stdin", "oracle-too-big", "singular-factors"],
)
def test_check_error_names_the_file(capsys, monkeypatch, argv, stdin, named):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    monkeypatch.setenv("WHT_MAX_N", "2")  # the n=3 fixture is past the oracle limit
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {named}: ")


def test_check_out_of_memory_names_the_file(capsys, monkeypatch):
    """An input too large for the memory at hand exits 2 with one line naming the file."""

    def exhausted(P):
        raise MemoryError("Unable to allocate 1.00 GiB for an array with shape (16384, 16384)")

    monkeypatch.setattr("linwht.cli.evaluate", exhausted)
    path = fixture("pease2.alg")
    code, out, err = run_cli(capsys, "check", "--oracle", path)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")


def test_check_out_of_memory_on_a_panel_thread(capsys, monkeypatch, tmp_path):
    """A MemoryError raised on one of the oracle's panel threads exits 2
    with one line naming the file, like one raised in the caller."""
    monkeypatch.setattr("linwht.oracle.os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr("linwht.oracle.np", SubtractFailsInWorkers())
    path = tmp_path / "pease10.alg"
    path.write_text(format_sequence(pease(10)) + "\n")
    code, out, err = run_cli(capsys, "check", "--oracle", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
    assert "worker thread" in err


def test_count_output(capsys):
    code, out, _ = run_cli(capsys, "count", "-n", "4")
    assert code == 0
    assert "members             16059338588160" in out
    assert "members-simplified  4014834647040" in out
    assert "bit-index           31104" in out


def _assert_exact(text, x):
    """``text`` spells x, checked without converting x to a string."""
    k = len(text)
    assert 10 ** (k - 1) <= x < 10 ** k
    assert int(text[:40]) == x // 10 ** (k - 40)
    assert int(text[-40:]) == x % 10**40


@pytest.mark.parametrize("n", [30, 64])
def test_count_exact_past_int_str_limit(capsys, n):
    code, out, err = run_cli(capsys, "count", "-n", str(n))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"n={n}"
    fields = dict(line.split() for line in lines[1:])
    _assert_exact(fields["members"], count_algorithms(n))
    _assert_exact(fields["members-simplified"], count_algorithms_simplified(n))
    _assert_exact(fields["bit-index"], count_bit_index_algorithms(n))


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "-n", "0"),
        ("count", "-n", "65"),
        ("count", "-n", "3000"),
        ("catalog", "pease", "-n", "65"),
        ("sample", "-n", "65"),
        ("enumerate", "-n", "65"),
        ("bench", "--repeat", "0"),
        ("bench", "--repeat", "1001"),
        ("bench", "--sizes", "4,65"),
        ("bench", "--sizes", "0"),
        ("bench", "--sizes", "a"),
    ],
)
def test_bad_sizes_exit_2_before_any_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_bench_sizes_error_names_the_option_and_item(capsys):
    code, out, err = run_cli(capsys, "bench", "--sizes", "4,a")
    assert (code, out) == (2, "")
    assert err.startswith("error: --sizes '4,a': ") and err.rstrip().endswith("'a'")


def test_count_table_script_past_int_str_limit():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "print_count_table.py"), "--max-n", "30"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "30"
    _assert_exact(last[2], count_algorithms(30))


@pytest.mark.parametrize(
    "argv,first",
    [
        (("run_census.py", "2"), "n=2  raw=6  distinct=6  verified=6  ("),
        (("print_count_table.py", "--max-n", "4"), "  n                 |GL_n|"),
        (("find_counterexamples.py", "--n", "2", "--budget", "2000"), "# found-by: "),
    ],
    ids=["run_census", "print_count_table", "find_counterexamples"],
)
def test_scripts_run(argv, first):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(first)


@pytest.mark.parametrize(
    "argv",
    [
        ("run_census.py", "4"),
        ("run_census.py", "0"),
        ("find_counterexamples.py", "--n", "1"),
        ("find_counterexamples.py", "--n", "2", "65"),
    ],
)
def test_scripts_refuse_bad_sizes(argv):
    """A size outside the scripts' range is one usage error, exit 2, before any work."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(rf"{argv[0]}: error: .*n must be in \d\.\.\d+, got -?\d+", proc.stderr.splitlines()[-1])


def test_enumerate_n2_table(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "2", "--format", "table")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 6
    rows = set()
    for line in lines:
        mats, prod, x = line.split(" | ")
        rows.add((tuple(mats.split("; ")), prod.removeprefix("product "), x.removeprefix("X ")))
    assert rows == N2_ROWS
    assert "# raw=6" in out


def test_enumerate_alg_lines_parse(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "2")
    seqs = [parse_sequence(l) for l in out.splitlines() if not l.startswith("#")]
    assert len(seqs) == 6


def test_enumerate_dedupe_verify_summary(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "2", "--dedupe", "--verify-oracle")
    assert code == 0
    assert out.splitlines()[-1] == "# raw=6 distinct=6 verified=6"


def test_enumerate_bit_index(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "3", "--bit-index", "--dedupe")
    assert code == 0
    assert out.splitlines()[-1] == "# raw=48 distinct=48"


def test_enumerate_bounds_exit_2(capsys):
    code, _, err = run_cli(capsys, "enumerate", "-n", "4")
    assert code == 2 and "error:" in err


def test_enumerate_n3_full_verification(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "3", "--dedupe", "--verify-oracle")
    assert code == 0
    assert out.splitlines()[-1] == "# raw=36288 distinct=36288 verified=36288"


def test_check_modes_agree_on_sampled_inputs(capsys, tmp_path):
    """Differential fast-vs-oracle agreement across sizes, members and not."""
    import random

    from helpers import random_sequence, twisted_member

    from linwht import sample_member

    rng = random.Random(100)
    cases = []
    for n in range(2, 7):
        cases.append(sample_member(n, n))
        cases.append(random_sequence(n, rng))
        cases.append(twisted_member(n, rng))
    for idx, P in enumerate(cases):
        path = tmp_path / f"case{idx}.alg"
        path.write_text(format_sequence(P) + "\n")
        fast = run_cli(capsys, "check", "--fast", str(path))[0]
        oracle = run_cli(capsys, "check", "--oracle", str(path))[0]
        assert fast == oracle, format_sequence(P)


def test_sample_deterministic_and_checked(capsys):
    code, out1, _ = run_cli(capsys, "sample", "-n", "5", "--seed", "9")
    code2, out2, _ = run_cli(capsys, "sample", "-n", "5", "--seed", "9")
    assert code == code2 == 0
    assert out1 == out2
    doc = parse_document(out1)
    assert doc.metadata["seed"] == "9"
    from linwht import is_member

    assert is_member(doc.seq)


def test_factorize_output(capsys):
    code, out, _ = run_cli(capsys, "factorize", fixture("pease2.alg"))
    assert code == 0
    assert out.strip() == "n=2; 10/01; 1; 1"


def test_factorize_non_member_exit_1(capsys):
    code, _, err = run_cli(capsys, "factorize", fixture("nonmember2.alg"))
    assert code == 1 and "error:" in err


def test_build_from_factor_file(capsys, tmp_path):
    path = tmp_path / "f.factors"
    path.write_text("n=3; 100/010/001; 10/01; 10/01; 10/01\n")
    code, out, _ = run_cli(capsys, "build", str(path))
    assert code == 0
    assert out.strip() == format_sequence(pease(3))


def test_build_factorize_round_trip_via_cli(capsys, tmp_path):
    seq_path = tmp_path / "m.alg"
    code, out, _ = run_cli(capsys, "sample", "-n", "4", "--seed", "3")
    seq_path.write_text(out)
    code, factors, _ = run_cli(capsys, "factorize", str(seq_path))
    f_path = tmp_path / "m.factors"
    f_path.write_text(factors)
    code, rebuilt, _ = run_cli(capsys, "build", str(f_path))
    assert rebuilt.strip() == format_sequence(parse_document(out).seq)


def test_catalog_output(capsys):
    code, out, _ = run_cli(capsys, "catalog", "pease", "-n", "2")
    assert code == 0 and out.strip() == "n=2; 10/01; 01/10; 01/10"
    code, out, _ = run_cli(capsys, "catalog", "ict", "-n", "2", "--sequency")
    assert code == 0
    assert parse_sequence(out).n == 2


def test_catalog_unknown_name(capsys):
    code, *_ = run_cli(capsys, "catalog", "nope", "-n", "2")
    assert code == 2


def test_export_dot_stdout_and_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "export-dot", fixture("pease2.alg"))
    assert code == 0 and out.startswith("digraph wht {")
    target = tmp_path / "g.dot"
    code, out2, _ = run_cli(capsys, "export-dot", fixture("pease2.alg"), "-o", str(target))
    assert code == 0 and out2 == ""
    assert target.read_text() == out


def test_export_dot_guard(capsys, tmp_path):
    path = tmp_path / "big.alg"
    path.write_text(format_sequence(pease(7)) + "\n")
    code, out, err = run_cli(capsys, "export-dot", str(path))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: {path}: ") and "WHT_MAX_N" in line


def test_bench_small(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "4,8", "--repeat", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n=4 min_ms=")
    assert lines[1].startswith("n=8 min_ms=")
    assert lines[2].startswith("oracle refused n=15")


@pytest.mark.parametrize("limit", ["abc", "0", "-3"])
def test_bench_bad_limit_exits_2_before_any_output(capsys, monkeypatch, limit):
    monkeypatch.setenv("WHT_MAX_N", limit)
    code, out, err = run_cli(capsys, "bench", "--sizes", "3", "--repeat", "1")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: WHT_MAX_N must be ")


def test_bench_construction_lines(capsys):
    """After the check and oracle lines, one line per size with the min of
    --repeat runs of sample_member, build, factorize, format_document and
    parse_document; then one line per dense size n=10..12 with the min of
    --repeat runs of evaluate."""
    code, out, _ = run_cli(capsys, "bench", "--sizes", "3,64", "--repeat", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    for line, n in zip(lines[3:5], (3, 64)):
        m = re.fullmatch(rf"n={n} sample_ms=([0-9.]+) build_ms=([0-9.]+) factorize_ms=([0-9.]+)"
                         r" format_ms=([0-9.]+) parse_ms=([0-9.]+)", line)
        assert m, line
        assert all(float(v) > 0 for v in m.groups())
    for line, n in zip(lines[5:], (10, 11, 12)):
        m = re.fullmatch(rf"n={n} evaluate_ms=([0-9.]+)", line)
        assert m, line
        assert float(m.group(1)) > 0


def test_usage_errors(capsys):
    """argparse's refusals follow the CLI contract: exit 2, nothing on stdout, one ``error:`` line."""
    for argv in [(), ("frobnicate",), ("count",), ("count", "-n", "3", "--bogus"), ("bench", "--repeat", "abc"),
                 ("check", "--fast", "--oracle", "x"), ("catalog", "nope", "-n", "3")]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


def test_help_exits_0_on_stdout(capsys):
    code, out, err = run_cli(capsys, "-h")
    assert (code, err) == (0, "") and out.startswith("usage: wht")


def test_closed_stdout_exits_141_quietly():
    """A reader that stops early (``wht enumerate -n 3 | head -1``) ends the
    run with the shell's SIGPIPE status and nothing on stderr."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "linwht.cli", "enumerate", "-n", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.stdout.readline().startswith(b"n=3; ")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "linwht.cli", "check", "--fast", fixture("pease2.alg")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("PASS fast")


# -- the contract as a property: generated input never raises, and a refusal is one line ------

_EDIT_CHARS = "01/ \n#n=[]"
_SIZES = ("-1", "0", "1", "2", "3", "4", "5", "6", "7", "63", "64", "65")


@st.composite
def _mutated_fixture(draw):
    """A fixture's bytes after a few bit flips, replacements, deletions and insertions."""
    data = bytearray((FIXTURES / draw(st.sampled_from(sorted(os.listdir(FIXTURES))))).read_bytes())
    for _ in range(draw(st.integers(0, 4))):
        op, at = draw(st.sampled_from(("flip", "replace", "delete", "insert"))), draw(st.integers(0, len(data)))
        if op == "insert":
            data[at:at] = draw(st.sampled_from(_EDIT_CHARS)).encode()
        elif at < len(data) and op == "delete":
            del data[at]
        elif at < len(data) and op == "replace":
            data[at] = ord(draw(st.sampled_from(_EDIT_CHARS)))
        elif at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


def _file_argv():
    """A subcommand that reads a file, given the written input, stdin, a directory or no file."""
    command = st.sampled_from(
        (("check",), ("check", "--fast"), ("check", "--oracle"), ("check", "--corners"),
         ("factorize",), ("build",), ("export-dot",))
    )
    source = st.sampled_from(("{input}", "{input}", "-", "{dir}", "{missing}"))
    return st.tuples(command, source, st.sampled_from(((), ("{fixture}",), ("-",)))).map(
        lambda t: t[0] + (t[1],) + (t[2] if t[0][0] == "check" else ())
    ) | st.tuples(source, st.sampled_from(("{out}", "{dir}", "{dir}/absent/g.dot"))).map(
        lambda t: ("export-dot", t[0], "-o", t[1])
    )


def _usage_argv():
    """Argv that argparse refuses: any other argv with an unknown option, or a missing, unknown,
    badly typed or conflicting subcommand, option or choice."""
    return (_file_argv() | _size_argv()).map(lambda a: a + ("--bogus",)) | st.sampled_from(
        ((), ("frobnicate",), ("count",), ("count", "-n"), ("sample", "-n", "x"), ("bench", "--repeat", "abc"),
         ("check",), ("check", "--fast", "--oracle", "{input}"), ("catalog", "nope", "-n", "3"),
         ("export-dot", "{input}", "-o"))
    )


def _size_argv():
    """Every other subcommand, at and past its size bounds.  Enumerations stay cheap: the full
    n=3 and bit-index n=4 lists run only as explicit examples, and nothing verifies at n=3."""
    n = st.sampled_from(_SIZES)
    small = st.sampled_from(("-1", "0", "1", "2", "5", "65"))
    return st.one_of(
        small.map(lambda v: ("count", "-n", v)),
        st.tuples(st.sampled_from(("-1", "0", "1", "2", "4")), st.booleans(), st.booleans(), st.booleans()).map(
            lambda t: ("enumerate", "-n", t[0]) + ("--dedupe",) * t[1] + ("--format", "table") * t[2]
            + ("--verify-oracle",) * t[3]
        ),
        st.tuples(st.sampled_from(("-1", "0", "1", "2", "3", "5")), st.booleans(), st.booleans()).map(
            lambda t: ("enumerate", "--bit-index", "-n", t[0]) + ("--dedupe",) * t[1]
            + ("--verify-oracle",) * (t[2] and t[0] != "3")
        ),
        st.tuples(n, st.sampled_from(((), ("--seed", "0"), ("--seed", "-1"), ("--seed", str(1 << 70))))).map(
            lambda t: ("sample", "-n", t[0]) + t[1]
        ),
        st.tuples(st.sampled_from(sorted(CATALOG)), n, st.booleans()).map(
            lambda t: ("catalog", t[0], "-n", t[1]) + ("--sequency",) * t[2]
        ),
        st.tuples(
            st.sampled_from(("", ",", "0", "1", "3,", " 3", "1,,2", "64", "65", "-1", "abc", "3,65")),
            st.sampled_from(("1", "1", "-1", "0", "1001")),
        ).map(lambda t: ("bench", "--sizes", t[0], "--repeat", t[1])),
    )


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    (root / "a_dir").mkdir()
    return root


@settings(max_examples=150, deadline=None)
@given(
    argv=st.one_of(_file_argv(), _size_argv(), _usage_argv()),
    data=_mutated_fixture(),
    limit=st.sampled_from((None, "0", "-3", "abc", "2", "14")),
)
@example(argv=("enumerate", "-n", "3"), data=b"", limit=None)
@example(argv=("enumerate", "--bit-index", "-n", "4"), data=b"", limit="2")
@example(argv=("count", "-n", "64"), data=b"", limit=None)
@example(argv=("bench", "--sizes", "3", "--repeat", "1"), data=b"", limit="abc")
@example(argv=("check", "--oracle", "{fixture}", "{input}"), data=b"n=1; 1; 1\n", limit="abc")
def test_cli_contract_on_generated_input(contract_dir, argv, data, limit):
    """Any argv, over mutated files, stdin and bad paths, under any WHT_MAX_N: ``main`` returns
    0, 1 or 2 without raising, success writes nothing to stderr, and a refusal, argparse's usage
    errors included, prints nothing on stdout and one ``error:`` line."""
    (contract_dir / "input").write_bytes(data)
    paths = {"input": contract_dir / "input", "dir": contract_dir / "a_dir", "out": contract_dir / "out.dot",
             "missing": contract_dir / "missing.alg", "fixture": FIXTURES / "pease2.alg"}
    argv = [a.format(**paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        if limit is None:
            mp.delenv("WHT_MAX_N", raising=False)
        else:
            mp.setenv("WHT_MAX_N", limit)
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert err.getvalue() == "", argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error:"), (argv, err.getvalue())
