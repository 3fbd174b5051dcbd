"""Enumerate every member at a small size and verify each one.

Usage: python scripts/run_census.py [n] [--oracle]

Prints raw and distinct counts plus how many members survived
verification, and the closed-form prediction for comparison.
"""

import argparse
import time

from linwht.config import MEMBER_ENUM_MAX
from linwht.factory import survey_members
from linwht.groups import count_algorithms, count_algorithms_simplified


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("n", type=int, nargs="?", default=3)
    ap.add_argument("--oracle", action="store_true", help="also compare each against the dense transform")
    args = ap.parse_args()
    if not 1 <= args.n <= MEMBER_ENUM_MAX:
        ap.error(f"n must be in 1..{MEMBER_ENUM_MAX}, got {args.n}")

    t0 = time.perf_counter()
    s = survey_members(args.n, verify_oracle=args.oracle)
    dt = time.perf_counter() - t0
    print(f"n={args.n}  raw={s.raw}  distinct={s.distinct}  verified={s.verified}  ({dt:.1f}s)")
    print(f"closed form            : {count_algorithms(args.n)}")
    print(f"simplified closed form : {count_algorithms_simplified(args.n)}")
    if s.distinct == s.raw:
        print("no collisions: the construction is injective at this size")
    else:
        print(f"collisions: {s.raw - s.distinct} duplicate sequences")


if __name__ == "__main__":
    main()
