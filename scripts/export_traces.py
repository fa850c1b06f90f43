#!/usr/bin/env python3
"""Export the full rewrite histories of a small {W,S} circuit on both
machines, plus the per-step gate events, to a directory of text files.

Example:
    python3 scripts/export_traces.py --out /tmp/traces
"""
import sys
from pathlib import Path

from hamchain import cli, gates, walk
from hamchain.circuit import Circuit


def export(args) -> int:
    # the circuit and both histories' sizes are checked before any step, and
    # every target before any write, so bad input ends in one error line, an
    # empty stdout and no file
    out = Path(args.out)
    circuit = Circuit(args.n, args.rounds, {
        (1, 1): gates.W, (1, 2): gates.SWAP,
        (2, 1): gates.SWAP, (2, 2): gates.W,
    } if (args.n, args.rounds) == (3, 2) else {})
    for scheme in ("ham5", "ham8"):
        walk.history_length(scheme, circuit)

    tr5 = walk.enumerate_history("ham5", circuit)
    # m: the rank of a gate event in the history, counted from 1
    ev5 = "\n".join(f"t={t} gate=({e.round},{e.position}) m={m}"
                    for m, (t, e) in enumerate(sorted(tr5.events.items()), 1))
    tr8 = walk.enumerate_history("ham8", circuit)
    # m: the rank of a slot firing in the history, counted from 1
    ev8 = "\n".join(f"t={t} letter={e.letter} qubits=({e.qubits[0]},{e.qubits[1]}) "
                     f"round={e.round} m={m}"
                     for m, (t, e) in enumerate(sorted(tr8.events.items()), 1))
    files = {"ham5_trace.txt": tr5.dump(), "ham5_events.txt": [ev5 + "\n"],
             "ham8_trace.txt": tr8.dump(), "ham8_events.txt": [ev8 + "\n"]}
    for name in files:
        if (out / name).exists() and not (out / name).is_file():
            raise ValueError(f"{out / name} exists and is not a regular file")
    out.mkdir(parents=True, exist_ok=True)
    for name, chunks in files.items():
        cli.write(out / name, chunks)

    cli.write(None, [f"ham5: T={tr5.T}; ham8: T={tr8.T}; files in {out}\n"])
    return 0


def main(argv=None) -> int:
    ap = cli.Parser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=2)
    return cli.exit_code(export, ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
