#!/usr/bin/env python3
"""Dimension and length growth of codes from iterated (2,p) torus knots
around the unknot: dimension climbs by one per iteration while the
length follows n_1 = 3, n_{m+1} = 4 n_m + p.

Usage: python scripts/cable_growth.py [--primes 3,5,7] [--iterations 6]
"""

import argparse

from knotcode.fields import FqField
from knotcode.generators import builtin
from knotcode.cable import cable_dimensions, iterated_cable_length


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--primes", default="3,5,7")
    ap.add_argument("--iterations", type=int, default=6)
    args = ap.parse_args()
    for p in (int(x) for x in args.primes.split(",")):
        field = FqField(p)
        stages = cable_dimensions(builtin("unknot"), field, -1, [(2, p)] * args.iterations)
        print(f"== iterated (2,{p}) cables over F_{p} at t = -1 ==")
        print(f"{'m':>3} {'delta':>6} {'dim':>4} {'length':>8} {'rate':>8}")
        for m, (_, delta, dim) in enumerate(stages[1:], start=1):
            n = iterated_cable_length(p, m)
            print(f"{m:>3} {str(list(field.decode(delta))):>6} {dim:>4} {n:>8} {dim / n:>8.4f}")
        print()


if __name__ == "__main__":
    main()
