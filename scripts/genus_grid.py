#!/usr/bin/env python3
"""Sweep the (p, n, m) grid and compare the genus formula with the Cech oracle.

Each cell completes y^(p^n) = x + t*x^(p^m) over GF(p)(t) and reports the
closed-form arithmetic genus, the truncated Cech H^1 dimension, whether the
truncation stabilized, and whether the boundary point is regular.
"""

import argparse

from unipic import (
    FieldDesc,
    cech_h1_dim,
    genus_from_formula,
    is_regular_at_infinity,
    make_form,
    naive_completion,
)


def run_grid(primes, max_level: int) -> list[tuple]:
    rows = []
    for p in primes:
        field = FieldDesc(p, ("t",))
        t = field.var("t")
        for n in range(1, max_level + 1):
            for m in range(1, max_level + 1):
                C = naive_completion(make_form(n, [field.one()] + [field.zero()] * (m - 1) + [t]))
                dim, stable = cech_h1_dim(C)
                regular = is_regular_at_infinity(C).is_field
                rows.append((p, n, m, genus_from_formula(C), dim, stable, regular))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--max-level", type=int, default=2,
                    help="largest n and m in the sweep")
    args = ap.parse_args()

    rows = run_grid(args.primes, args.max_level)
    print(f"{'p':>2} {'n':>2} {'m':>2} {'formula':>8} {'cech':>6} "
          f"{'stable':>7} {'regular':>8}")
    mismatches = 0
    for p, n, m, g, dim, stable, regular in rows:
        if g != dim or not stable:
            mismatches += 1
        print(f"{p:>2} {n:>2} {m:>2} {g:>8} {dim:>6} "
              f"{str(stable).lower():>7} {str(regular).lower():>8}")
    print(f"{len(rows)} cells, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
