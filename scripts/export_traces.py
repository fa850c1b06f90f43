#!/usr/bin/env python3
"""Export the full rewrite histories of a small {W,S} circuit on both
machines, plus the per-step gate events, to a directory of text files.

Example:
    python3 scripts/export_traces.py --out /tmp/traces
"""
import argparse
import sys
from pathlib import Path

from hamchain import eight_state as e8
from hamchain import five_state as f5
from hamchain import gates, walk
from hamchain.circuit import Circuit


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=2)
    args = ap.parse_args(argv)

    # the circuit and both histories' sizes are checked before any file is
    # written, so bad input ends at once in one error line and an empty stdout
    out = Path(args.out)
    try:
        circuit = Circuit(args.n, args.rounds, {
            (1, 1): gates.W, (1, 2): gates.SWAP,
            (2, 1): gates.SWAP, (2, 2): gates.W,
        } if (args.n, args.rounds) == (3, 2) else {})
        for scheme in ("ham5", "ham8"):
            walk.history_length(scheme, circuit)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tr5 = f5.enumerate_history5(args.n, args.rounds)
    with open(out / "ham5_trace.txt", "w") as fh:
        fh.writelines(tr5.dump())
    # m: the rank of a gate event in the history, counted from 1
    ev5 = "\n".join(f"t={t} gate=({e.round},{e.position}) m={m}"
                    for m, (t, e) in enumerate(sorted(tr5.events.items()), 1))
    (out / "ham5_events.txt").write_text(ev5 + "\n")

    tr8 = e8.enumerate_history8(circuit)
    with open(out / "ham8_trace.txt", "w") as fh:
        fh.writelines(tr8.dump())
    # m: the rank of a slot firing in the history, counted from 1
    ev8 = "\n".join(f"t={t} letter={e.letter} qubits=({e.qubits[0]},{e.qubits[1]}) "
                     f"round={e.round} m={m}"
                     for m, (t, e) in enumerate(sorted(tr8.events.items()), 1))
    (out / "ham8_events.txt").write_text(ev8 + "\n")

    print(f"ham5: T={tr5.T}; ham8: T={tr8.T}; files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
