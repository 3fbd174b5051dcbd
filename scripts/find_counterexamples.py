"""Search for sequences that satisfy exactly one membership condition.

Neither the product condition nor the inverse condition implies the
other; this script finds fresh witnesses for both gaps by seeded random
search and prints them as .alg documents ready to commit as fixtures.

Usage: python scripts/find_counterexamples.py [--n 2 3] [--seed 0] [--budget 100000]
"""

import argparse

from linwht.config import N_MAX
from linwht.membership import check_membership, find_counterexample
from linwht.textio import AlgorithmDocument, format_document


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=100_000)
    args = ap.parse_args()
    for n in args.n:
        if not 2 <= n <= N_MAX:
            ap.error(f"--n must be in 2..{N_MAX}, got {n}")

    for n in args.n:
        for which in ("product", "inverse"):
            P = find_counterexample(n, which, budget=args.budget, seed=args.seed)
            if P is None:
                print(f"# n={n} {which}: nothing found within {args.budget} draws")
                continue
            r = check_membership(P)
            holds = "inverse" if r.cond_inverse else "product"
            doc = AlgorithmDocument(
                P,
                {
                    "found-by": f"seeded random search, seed {args.seed}",
                    "violates": f"{which} condition",
                    "holds": f"{holds} condition",
                },
            )
            print(format_document(doc), end="")
            print()


if __name__ == "__main__":
    main()
