#!/usr/bin/env python3
"""Sweep the time-averaged tail probability against its infinite-horizon
limit and print plot-ready CSV: one row per averaging horizon.

Example:
    python3 scripts/tail_probability_sweep.py --T 154 --q 6 --factors 1 3 10 30 100 300 1000
"""
import argparse
import sys

from hamchain import walk


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=int, default=154, help="history length (transitions)")
    ap.add_argument("--q", type=int, default=6, help="tail divisor")
    ap.add_argument("--factors", type=float, nargs="+",
                    default=[1, 3, 10, 30, 100, 300, 1000],
                    help="averaging horizons as multiples of T")
    args = ap.parse_args(argv)
    try:
        specs = [walk.WalkSpec(args.T, args.q, f * args.T) for f in args.factors]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    limit = walk.tail_prob_limit(args.T, args.q)
    print(f"# T={args.T} q={args.q} threshold={walk.tail_threshold(args.T, args.q)} "
          f"limit={limit:.12g} target=(q-1)/q={1 - 1 / args.q:.12g}")
    print("tau0_over_T,tail_prob,residual,residual_times_tau0_over_T")
    for f, spec in zip(args.factors, specs):
        tail = walk.tail_prob(spec.T, spec.q, spec.tau0)
        resid = abs(tail - limit)
        print(f"{f:g},{tail:.12g},{resid:.6g},{resid * f:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
