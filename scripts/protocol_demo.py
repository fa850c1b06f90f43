#!/usr/bin/env python3
"""End-to-end demonstration of the measurement protocol on both machines:
pad a small circuit, sample, and compare the empirical acceptance rate and
readout histogram with the spectral prediction and the direct simulation.

Example:
    python3 scripts/protocol_demo.py --shots 5000 --seed 7
"""
import argparse
import sys

import numpy as np

from hamchain import gates, walk
from hamchain.circuit import Circuit, simulate_circuit
from hamchain.gates import QubitState
from hamchain.runner import RunPlan, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shots", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--q", type=int, default=6)
    ap.add_argument("--initial", default="10")
    args = ap.parse_args(argv)

    circuit = Circuit(2, 1, {(1, 1): gates.W})
    # both runs finish before anything is printed, and RunPlan checks the
    # arguments first, so bad input ends in one error line and an empty stdout
    try:
        plans = [RunPlan(circuit, scheme, q=args.q, shots=args.shots,
                         seed=args.seed, initial=args.initial) for scheme in ("ham5", "ham8")]
        reports = [run(plan) for plan in plans]
    except (ValueError, walk.PaddingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ideal = np.abs(simulate_circuit(circuit, QubitState.basis(args.initial)).amps) ** 2

    for plan, report in zip(plans, reports):
        predicted = walk.tail_prob(report.T, plan.q, report.tau0)
        hist = report.histogram()
        total = sum(hist.values())
        emp = np.zeros(4)
        for key, cnt in hist.items():
            emp[int(key, 2)] = cnt / total
        tv = 0.5 * float(np.sum(np.abs(emp - ideal)))
        print(f"{plan.scheme}: T={report.T} rounds_total={report.rounds_total} "
              f"threshold={report.threshold}")
        print(f"  acceptance {report.acceptance_rate:.4f} "
              f"(predicted {predicted:.4f})")
        print(f"  readout histogram {dict(sorted(hist.items()))}  "
              f"TV distance to direct simulation {tv:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
