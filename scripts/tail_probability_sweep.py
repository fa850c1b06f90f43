#!/usr/bin/env python3
"""Sweep the time-averaged tail probability against its infinite-horizon
limit and print plot-ready CSV: one row per averaging horizon.

Example:
    python3 scripts/tail_probability_sweep.py --T 154 --q 6 --factors 1 3 10 30 100 300 1000
"""
import math
import sys

from hamchain import cli, walk
from hamchain.runner import DEFAULT_Q


def sweep(T: int, q: int, factors: list[float]) -> int:
    # the horizons are checked here and T and q by tail_prob before its
    # first tail, and every tail is computed before anything is written, so
    # bad input ends at once in one error line and an empty stdout
    horizons = [f * T for f in factors]
    if not all(0 < h < math.inf for h in horizons):
        # a NaN factor fails too, and so does one whose horizon overflows
        raise ValueError(f"need factors whose horizons factor*T are finite and > 0; "
                         f"got T={T} and factors {factors}")
    tails = [walk.tail_prob(T, q, h) for h in horizons]
    limit = walk.tail_prob_limit(T, q)

    lines = [f"# T={T} q={q} threshold={walk.tail_threshold(T, q)} "
             f"limit={limit:.12g} target=(q-1)/q={1 - 1 / q:.12g}\n",
             "tau0_over_T,tail_prob,residual,residual_times_tau0_over_T\n"]
    for f, tail in zip(factors, tails):
        resid = abs(tail - limit)
        lines.append(f"{f:g},{tail:.12g},{resid:.6g},{resid * f:.6g}\n")
    cli.write(None, lines)
    return 0


def main(argv=None) -> int:
    ap = cli.Parser(description=__doc__)
    ap.add_argument("--T", type=int, default=154, help="history length (transitions)")
    ap.add_argument("--q", type=int, default=DEFAULT_Q, help="tail divisor")
    ap.add_argument("--factors", type=float, nargs="+",
                    default=[1, 3, 10, 30, 100, 300, 1000],
                    help="averaging horizons as multiples of T")
    return cli.exit_code(lambda args: sweep(**vars(args)), ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
