import random
import re

import pytest

from linwht import SizeLimitError, enumerate_members, export_dot, is_member, iterative_ct, pease, sample_member
from linwht.catalog import CATALOG
from linwht.textio import parse_sequence

from helpers import bit_reverse, naive_apply, random_sequence


N1_EXPECTED = """digraph wht {
  rankdir=LR;
  in0 [shape=plaintext, label="x0"];
  in1 [shape=plaintext, label="x1"];
  s1b0 [shape=box, label="F2"];
  out0 [shape=plaintext, label="y0"];
  out1 [shape=plaintext, label="y1"];
  in0 -> s1b0 [headlabel="0"];
  in1 -> s1b0 [headlabel="1"];
  s1b0 -> out0 [taillabel="0"];
  s1b0 -> out1 [taillabel="1"];
}
"""


def test_n1_straight_wiring():
    assert export_dot(pease(1)) == N1_EXPECTED


def test_deterministic_output():
    P = pease(3)
    assert export_dot(P) == export_dot(P)


def test_node_and_edge_counts():
    n = 3
    text = export_dot(pease(n))
    assert len(re.findall(r"^  in\d+ \[", text, re.M)) == 8
    assert len(re.findall(r"^  s\d+b\d+ \[", text, re.M)) == n * 4
    assert len(re.findall(r"^  out\d+ \[", text, re.M)) == 8
    assert len(re.findall(r" -> ", text)) == (n + 1) * 8


def test_six_n2_members_have_distinct_wiring():
    edge_sets = set()
    for P in enumerate_members(2):
        edges = frozenset(line for line in export_dot(P).splitlines() if "->" in line)
        edge_sets.add(edges)
    assert len(edge_sets) == 6


def test_works_on_non_members():
    P = parse_sequence("n=2; 10/01; 10/01; 10/01")
    text = export_dot(P)
    assert "in0 -> s2b0" in text


def test_constant_geometry_wiring_spot_check():
    # shuffle between stages: stage-2 output 1 (port 1 of b0) feeds stage-1
    # position 2 (port 0 of b1)
    text = export_dot(pease(2))
    assert '  s2b0 -> s1b1 [taillabel="1", headlabel="0"];' in text
    assert '  in2 -> s2b0 [headlabel="1"];' in text


def test_ict_first_stage_pairs_adjacent_inputs():
    # stage n pairs inputs differing in the lowest bit
    text = export_dot(iterative_ct(4))
    groups = {}
    for m in re.finditer(r"in(\d+) -> s4b(\d+)", text):
        groups.setdefault(int(m.group(2)), []).append(int(m.group(1)))
    for pair in groups.values():
        assert len(pair) == 2 and pair[0] ^ pair[1] == 1


def test_output_stage_of_sequency_pease():
    from linwht import to_sequency

    text = export_dot(to_sequency(pease(3)))
    for m in re.finditer(r"s1b(\d+) -> out(\d+) \[taillabel=\"(\d)\"\]", text):
        src = (int(m.group(1)) << 1) | int(m.group(3))
        assert int(m.group(2)) == bit_reverse(src, 3)


def test_export_guard():
    with pytest.raises(SizeLimitError):
        export_dot(pease(7))


def test_export_guard_env_override(monkeypatch):
    monkeypatch.setenv("WHT_MAX_N", "2")
    with pytest.raises(SizeLimitError):
        export_dot(pease(3))
    assert export_dot(pease(2)).startswith("digraph wht {")


def naive_dot(P) -> str:
    """The export written edge by edge: wire p of stage k, from the input (k = n) or a butterfly
    port, goes to port or output ``naive_apply(P[k], p)``."""
    n, size = P.n, 1 << P.n
    lines = ["digraph wht {", "  rankdir=LR;"]
    lines += [f'  in{i} [shape=plaintext, label="x{i}"];' for i in range(size)]
    lines += [f'  s{k}b{b} [shape=box, label="F2"];' for k in range(n, 0, -1) for b in range(size // 2)]
    lines += [f'  out{j} [shape=plaintext, label="y{j}"];' for j in range(size)]
    for k in range(n, -1, -1):
        for p in range(size):
            q = naive_apply(P[k], p)
            tail, tail_port = (f"in{p}", []) if k == n else (f"s{k + 1}b{p >> 1}", [f'taillabel="{p & 1}"'])
            head, head_port = (f"out{q}", []) if k == 0 else (f"s{k}b{q >> 1}", [f'headlabel="{q & 1}"'])
            lines.append(f"  {tail} -> {head} [{', '.join(tail_port + head_port)}];")
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_export_matches_naive_rendering(n):
    """Members, the catalog and random non-members export exactly the naive rendering."""
    rng = random.Random(n)
    seqs = [sample_member(n, rng.randrange(1 << 30)) for _ in range(3)]
    seqs += [make(n) for make in CATALOG.values()]
    seqs += [random_sequence(n, rng) for _ in range(3)]
    assert n == 1 or not all(is_member(P) for P in seqs[-3:])
    for P in seqs:
        got, want = export_dot(P), naive_dot(P)
        assert got.splitlines() == want.splitlines(), P.key()
        assert got == want
