"""Print the algorithm-count table for a range of sizes.

Columns: the member count from the parametrization, the simplified
closed form (which undercounts by a factor of 2^(n-2)), and the count
of members whose stages are all permutation matrices.  Counts are exact
for every n up to 64.
"""

import argparse

from linwht.config import N_MAX
from linwht.groups import (
    count_algorithms,
    count_algorithms_simplified,
    count_bit_index_algorithms,
    count_gl,
    exact_str,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=8)
    args = ap.parse_args()
    if not 1 <= args.max_n <= N_MAX:
        ap.error(f"--max-n must be in 1..{N_MAX}, got {args.max_n}")

    header = f"{'n':>3} {'|GL_n|':>22} {'members':>34} {'simplified':>34} {'bit-index':>18}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_n + 1):
        print(
            f"{n:>3} {exact_str(count_gl(n)):>22} {exact_str(count_algorithms(n)):>34} "
            f"{exact_str(count_algorithms_simplified(n)):>34} "
            f"{exact_str(count_bit_index_algorithms(n)):>18}"
        )


if __name__ == "__main__":
    main()
