"""DOT dataflow export.

The graph reads left to right in application order: input nodes, then
butterfly stage n down to stage 1, then output nodes.  Values move from
stage k+1 to stage k through the linear permutation of P_k, into the
first butterflies through P_n and out to the result through P_0.
Butterfly ports are recorded as taillabel (source port) and headlabel
(target port), 0 for the top wire and 1 for the bottom wire.  Output is
deterministic: identical sequences export byte-identical text.
"""

from __future__ import annotations

from .algorithm import AlgorithmSeq
from .config import _guard
from .oracle import perm_indices

__all__ = ["export_dot"]


def export_dot(P: AlgorithmSeq) -> str:
    """Render the dataflow as a DOT digraph.

    Membership is not required; failing sequences can be drawn too.
    Guarded by the export size limit (override via WHT_MAX_N).
    """
    _guard(P.n, export=True)
    n, tables = P.n, perm_indices(P.stack, P.n).tolist()  # row k holds P_k * i at column i
    size = 1 << n
    lines = ["digraph wht {", "  rankdir=LR;"]
    for i in range(size):
        lines.append(f'  in{i} [shape=plaintext, label="x{i}"];')
    for k in range(n, 0, -1):
        for b in range(size // 2):
            lines.append(f'  s{k}b{b} [shape=box, label="F2"];')
    for j in range(size):
        lines.append(f'  out{j} [shape=plaintext, label="y{j}"];')
    for i, q in enumerate(tables[n]):
        lines.append(f'  in{i} -> s{n}b{q >> 1} [headlabel="{q & 1}"];')
    for k in range(n - 1, 0, -1):
        for p, q in enumerate(tables[k]):
            lines.append(
                f'  s{k + 1}b{p >> 1} -> s{k}b{q >> 1} '
                f'[taillabel="{p & 1}", headlabel="{q & 1}"];'
            )
    for p, q in enumerate(tables[0]):
        lines.append(f'  s1b{p >> 1} -> out{q} [taillabel="{p & 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
