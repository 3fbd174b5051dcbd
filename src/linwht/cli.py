"""Command line front end.  Exit codes: 0 success, 1 failed check, 2 bad input, 141 stdout closed."""

from __future__ import annotations

import argparse
import os
import sys
import timeit
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from .algorithm import AlgorithmSeq
from .catalog import CATALOG, to_sequency
from .config import N_MAX, SizeLimitError, active_limits
from .dot import export_dot
from .factory import (
    build,
    census,
    enumerate_bit_index_members,
    enumerate_members,
    factorize,
    sample_member,
)
from .gf2 import _packed
from .groups import (
    count_algorithms,
    count_algorithms_simplified,
    count_bit_index_algorithms,
    exact_str,
)
from .membership import (
    NotMemberError,
    _corner_witness,
    _structure,
    check_membership,
)
from .oracle import evaluate, hadamard
from .textio import (
    AlgorithmDocument,
    ParseError,
    format_document,
    format_factors,
    format_sequence,
    parse_document,
    parse_factors,
)

__all__ = ["main"]
_REPEAT_MAX = 1000  # the most runs ``wht bench`` times of each operation, so a run stays bounded


@contextmanager
def _naming(source: str):
    """A parse, validation, size or allocation error raised inside names its source, a file or option."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"{source}: {exc}") from exc


def _load(path: str, parse=parse_document):
    """``parse`` of the file's text (``-`` reads stdin)."""
    with _naming(path):
        return parse(sys.stdin.read() if path == "-" else Path(path).read_text())


def _check_size(n: int) -> int:
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n must be in 1..{N_MAX}, got {n}")
    return n


def _check_one(P: AlgorithmSeq, mode: str) -> tuple[bool, Optional[str]]:
    if mode == "fast":
        report = check_membership(P)
        return report.passed, report.witness
    if mode == "oracle":
        ok = bool((evaluate(P) == hadamard(P.n)).all())
        return ok, None if ok else "computed matrix differs from the transform"
    bad = _corner_witness(P)
    if bad is None:
        return True, None
    k, l, inverse = bad
    return False, f"corner of P_{{{k}:{l}}}{'^-1' if inverse else ''} is 1"


def _cmd_check(args) -> int:
    mode = "oracle" if args.oracle else "corners" if args.corners else "fast"
    # every file is read, parsed and checked before the first verdict is
    # printed, so a bad input exits 2 with nothing on stdout
    seqs = [_load(path).seq for path in args.files]
    verdicts = []
    for path, P in zip(args.files, seqs):
        with _naming(path):
            verdicts.append(_check_one(P, mode))
    for path, (ok, reason) in zip(args.files, verdicts):
        print(f"PASS {mode} {path}" if ok else f"FAIL {mode} {path}: {reason}")
    return 0 if all(ok for ok, _ in verdicts) else 1


def _cmd_count(args) -> int:
    n = args.n
    print(f"n={n}")
    print(f"members             {exact_str(count_algorithms(n))}")
    print(f"members-simplified  {exact_str(count_algorithms_simplified(n))}")
    print(f"bit-index           {exact_str(count_bit_index_algorithms(n))}")
    return 0


def _format_row(P: AlgorithmSeq, table: bool) -> str:
    if not table:
        return format_sequence(P)
    mats = P.key().replace(";", "; ")
    _, prefix, x, _ = _structure(P)
    return f"{mats} | product {_packed(prefix[-1]).to_text()} | X {x.to_text()}"


def _cmd_enumerate(args) -> int:
    source = enumerate_bit_index_members if args.bit_index else enumerate_members
    table = args.format == "table"
    survey = census(
        source(args.n),
        args.n,
        dedupe=args.dedupe,
        verify="oracle" if args.verify_oracle else None,
        emit=lambda P: print(_format_row(P, table)),
    )
    summary = f"# raw={survey.raw}"
    if args.dedupe:
        summary += f" distinct={survey.distinct}"
    if args.verify_oracle:
        summary += f" verified={survey.verified}"
    print(summary)
    return 1 if args.verify_oracle and survey.verified < survey.distinct else 0


def _cmd_sample(args) -> int:
    P = sample_member(args.n, args.seed)
    meta = {"n": str(args.n)}
    if args.seed is not None:
        meta["seed"] = str(args.seed)
    sys.stdout.write(format_document(AlgorithmDocument(P, meta)))
    return 0


def _cmd_factorize(args) -> int:
    P = _load(args.file).seq
    print(format_factors(factorize(P)))
    return 0


def _cmd_build(args) -> int:
    f = _load(args.file, parse_factors)
    print(format_sequence(build(f)))
    return 0


def _cmd_catalog(args) -> int:
    P = CATALOG[args.name](args.n)
    if args.sequency:
        P = to_sequency(P)
    print(format_sequence(P))
    return 0


def _cmd_export_dot(args) -> int:
    P = _load(args.file).seq
    with _naming(args.file):
        text = export_dot(P)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args) -> int:
    with _naming(f"--sizes {args.sizes!r}"):
        sizes = [_check_size(int(s)) for s in args.sizes.split(",") if s]
    if not 1 <= args.repeat <= _REPEAT_MAX:
        raise ValueError(f"--repeat must be in 1..{_REPEAT_MAX}, got {args.repeat}")
    guard = active_limits().oracle_max_n  # read, like every option, before anything is timed

    def best_ms(op) -> str:
        return f"{min(timeit.repeat(op, number=1, repeat=args.repeat)) * 1e3:.3f}"
    members = [(n, sample_member(n, seed=n)) for n in sizes]
    for n, P in members:
        print(f"n={n} min_ms={best_ms(lambda: check_membership(P))}")
    try:
        hadamard(guard + 1)
        print(f"oracle accepted n={guard + 1}, guard not active")
    except SizeLimitError:
        print(f"oracle refused n={guard + 1} (limit {guard})")
    for n, P in members:
        f, doc = factorize(P), AlgorithmDocument(P)
        text = format_document(doc)
        print(f"n={n} sample_ms={best_ms(lambda: sample_member(n, seed=n))} "
              f"build_ms={best_ms(lambda: build(f))} factorize_ms={best_ms(lambda: factorize(P))} "
              f"format_ms={best_ms(lambda: format_document(doc))} "
              f"parse_ms={best_ms(lambda: parse_document(text))}")
    for n in range(10, min(12, guard) + 1):
        P = sample_member(n, seed=n)
        print(f"n={n} evaluate_ms={best_ms(lambda: evaluate(P))}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subparsers inherit it, so ``main`` prints every usage error as one line
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wht",
        description="Construct, verify and export fast Walsh-Hadamard transform algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify sequence files")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--fast", action="store_true", help="structural check (default)")
    g.add_argument("--oracle", action="store_true", help="compare against the dense transform")
    g.add_argument("--corners", action="store_true", help="corner condition only")
    p.add_argument("files", nargs="+", help=".alg files, or - for stdin")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("count", help="closed-form algorithm counts")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list all members at a small size")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--bit-index", action="store_true", help="permutation-matrix stages only")
    p.add_argument("--dedupe", action="store_true", help="drop duplicate sequences")
    p.add_argument("--verify-oracle", action="store_true", help="verify each against the transform")
    p.add_argument("--format", choices=("alg", "table"), default="alg")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="draw a uniform random member")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("factorize", help="recover the (B, Q) coordinates of a member")
    p.add_argument("file")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("build", help="build a member from a factor file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("catalog", help="print a named reference algorithm")
    p.add_argument("name", choices=sorted(CATALOG))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--sequency", action="store_true", help="output rows in Paley (bit-reversed) order")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("export-dot", help="render the dataflow as DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("bench", help="time the fast check, construction, text I/O and dense evaluate")
    p.add_argument("--sizes", default="3,4,8,16,32,64")
    p.add_argument("--repeat", type=int, default=5)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)  # -h prints help and exits 0
        if "n" in vars(args):
            _check_size(args.n)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NotMemberError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ParseError, SizeLimitError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
