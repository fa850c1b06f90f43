#!/usr/bin/env python3
"""End-to-end demonstration of the measurement protocol on both machines:
pad a small circuit, sample, and compare the empirical acceptance rate and
readout histogram with the spectral prediction and the direct simulation.

Example:
    python3 scripts/protocol_demo.py --shots 5000 --seed 7
"""
import sys

import numpy as np

from hamchain import cli, gates, walk
from hamchain.circuit import Circuit, simulate_circuit
from hamchain.gates import QubitState
from hamchain.runner import DEFAULT_Q, RunPlan, run


def demo(args) -> int:
    circuit = Circuit(2, 1, {(1, 1): gates.W})
    # both runs finish before anything is written, and RunPlan checks the
    # arguments first, so bad input ends in one error line and an empty stdout
    plans = [RunPlan(circuit, scheme, q=args.q, shots=args.shots,
                     seed=args.seed, initial=args.initial) for scheme in ("ham5", "ham8")]
    reports = [run(plan) for plan in plans]
    ideal = np.abs(simulate_circuit(circuit, QubitState.basis(args.initial)).amps) ** 2

    lines = []
    for plan, report in zip(plans, reports):
        predicted = walk.tail_prob(report.T, plan.q, report.tau0)
        hist = report.histogram()
        total = sum(hist.values())
        emp = np.zeros(4)
        for key, cnt in hist.items():
            emp[int(key, 2)] = cnt / total
        tv = 0.5 * float(np.sum(np.abs(emp - ideal)))
        lines += [f"{plan.scheme}: T={report.T} rounds_total={report.rounds_total} "
                  f"threshold={report.threshold}\n",
                  f"  acceptance {report.acceptance_rate:.4f} (predicted {predicted:.4f})\n",
                  f"  readout histogram {dict(sorted(hist.items()))}  "
                  f"TV distance to direct simulation {tv:.4f}\n"]
    cli.write(None, lines)
    return 0


def main(argv=None) -> int:
    ap = cli.Parser(description=__doc__)
    ap.add_argument("--shots", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--q", type=int, default=DEFAULT_Q)
    ap.add_argument("--initial", default="10")
    return cli.exit_code(demo, ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
