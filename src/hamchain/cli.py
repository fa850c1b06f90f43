"""Command-line front end: trace histories, tabulate walk probabilities,
sample the measurement protocol, verify invariants, and rewrite gate sets.

A command loads only the modules it runs: walk imports a scheme's machine
when first given that scheme (walk.scheme_module), and `verify` imports
subspace itself, so `evolve --T` loads no machine and `sample` no subspace.

Exit codes: 0 success, 1 verification failure, 2 usage or input error
(a file that cannot be read or written included), or a run the engines or
the padding plan refuse (RuleEngineError, PaddingError).  Errors end in one
`error: ...` line on stderr, not a traceback.  A reader that closes stdout
early (`... | head`) ends the output quietly; the command keeps its code.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import walk
from .circuit import Circuit, parse_circuit, rewrite_to_ws, serialize_circuit
from .machine import RuleEngineError
from .runner import RunPlan, run


def _read_circuit(path: str) -> Circuit:
    with open(path) as fh:
        return parse_circuit(fh.read())


def _write(out_path: str | None, chunks) -> None:
    """Write the strings of `chunks` as they come, to stdout or a file."""
    if out_path is None or out_path == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone, so the rest has nowhere to go; pointing
            # stdout at devnull keeps the flush at exit from failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)


def cmd_trace(args) -> int:
    circuit = _read_circuit(args.circuit)
    boundary = walk.PERIODIC_X if args.periodic_x else walk.OPEN
    _write(args.out, walk.enumerate_history(args.scheme, circuit, boundary).dump())
    return 0


def cmd_evolve(args) -> int:
    if args.T is not None:
        T = args.T
        if args.circuit is not None:
            raise SystemExit("evolve takes a circuit or --T, not both")
        if not 1 <= T <= walk.MAX_T:
            raise SystemExit(f"--T must lie in 1..{walk.MAX_T}, got {T}")
    elif args.scheme is None:
        raise SystemExit("evolve of a circuit needs --scheme ham5 or ham8")
    else:
        T = walk.history_length(args.scheme, _read_circuit(args.circuit))
    entries = args.taus.split(",")
    if any(x.strip() == "" for x in entries):
        raise SystemExit(f"bad tau grid: empty entry in {args.taus!r}")
    try:
        taus = [float(x) for x in entries]
    except ValueError as exc:
        raise SystemExit(f"bad tau grid: {exc}")
    if not all(math.isfinite(tau) for tau in taus):
        raise SystemExit("bad tau grid: times must be finite")
    _write(args.out, [walk.probability_table_csv(T, taus)])
    return 0


def cmd_sample(args) -> int:
    circuit = _read_circuit(args.circuit)
    if args.rewrite:
        circuit = rewrite_to_ws(circuit)
    plan = RunPlan(
        circuit=circuit, scheme=args.scheme, q=args.q, tau0=args.tau0,
        shots=args.shots, seed=args.seed, initial=args.initial,
    )
    report = run(plan)
    _write(args.out, [report.serialize()])
    return 0


def cmd_rewrite(args) -> int:
    circuit = _read_circuit(args.circuit)
    _write(args.out, [serialize_circuit(rewrite_to_ws(circuit))])
    return 0


def _verify_identities(lines: list[str]) -> bool:
    from . import gates

    ok = True
    for name, (seq, target) in gates.IDENTITIES.items():
        dev = gates.check_identity(seq, target)
        good = dev <= gates.IDENTITY_TOL
        ok &= good
        lines.append(f"identity {name}: dev={dev:.3e} {'PASS' if good else 'FAIL'}")
    w8 = np.linalg.matrix_power(gates.W.matrix, 8)
    dev = float(np.max(np.abs(w8 - np.eye(4))))
    good = dev <= gates.IDENTITY_TOL
    ok &= good
    lines.append(f"identity W^8: dev={dev:.3e} {'PASS' if good else 'FAIL'}")
    return ok


def _padded(scheme: str, circuit: Circuit) -> Circuit:
    """The circuit with the identity rounds `sample` pads it with at q=6."""
    R = walk.padding_plan(circuit.n, circuit.rounds, 6, scheme)
    return Circuit(circuit.n, R, dict(circuit.gates))


def _verify_subspace(lines: list[str]) -> bool:
    from . import gates, subspace

    ok = True
    ws2 = Circuit(2, 2, {(1, 1): gates.W, (2, 1): gates.SWAP})
    ws3 = Circuit(3, 2, {(1, 1): gates.W, (1, 2): gates.SWAP,
                         (2, 1): gates.SWAP, (2, 2): gates.W})
    cases = [
        ("ham5", Circuit(3, 2, {(1, 1): gates.W, (1, 2): gates.SWAP,
                                (2, 1): gates.CX, (2, 2): gates.W})),
        ("ham8", Circuit(2, 1, {(1, 1): gates.W})),
        ("ham8", _padded("ham8", ws2)),
        ("ham5", _padded("ham5", ws3)),
    ]
    for scheme, circ in cases:
        rep = subspace.certify_subspace(scheme, circ)
        ok &= rep.passed
        lines.append(f"subspace {scheme} n={circ.n} R={circ.rounds}: "
                     f"{'PASS' if rep.passed else 'FAIL'}")
        if not rep.passed:
            lines.extend("  " + ln for ln in rep.lines if "FAIL" in ln)
    return ok


# (scheme, qubit counts, round counts) swept by `verify --scope formulas`
FORMULA_SWEEPS = (
    ("ham5", range(2, 6), range(1, 5)),
    ("ham8", range(2, 5), range(1, 4)),
)


def _verify_formulas(lines: list[str]) -> bool:
    """Engine against closed forms: T per (n, R), and the step of the last
    gate of rounds 1..r for every r <= R, which padding relies on."""
    ok = True
    for scheme, ns, rounds in FORMULA_SWEEPS:
        for n in ns:
            for R in rounds:
                history = walk.enumerate_history(scheme, Circuit(n, R))
                rows = [(f"formula {scheme} n={n} R={R}", history.T,
                         walk.closed_form_steps(n, R, R, scheme)[0])]
                rows += [(f"last-gate {scheme} n={n} R={R} r={r}", history.last_real_step(r),
                          walk.closed_form_steps(n, R, r, scheme)[1])
                         for r in range(1, R + 1)]
                for label, engine, closed in rows:
                    good = engine == closed
                    ok &= good
                    lines.append(f"{label}: engine={engine} closed-form={closed} "
                                 f"{'PASS' if good else 'FAIL'}")
    return ok


def cmd_verify(args) -> int:
    lines: list[str] = []
    ok = True
    if args.scope in ("identities", "all"):
        ok &= _verify_identities(lines)
    if args.scope in ("subspace", "all"):
        ok &= _verify_subspace(lines)
    if args.scope in ("formulas", "all"):
        ok &= _verify_formulas(lines)
    lines.append(f"verify {args.scope}: {'PASS' if ok else 'FAIL'}")
    _write(args.out, ["\n".join(lines) + "\n"])
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors end in one `error: ...` line and exit code 2, without
    the usage block that `--help` prints; subcommand parsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hamchain")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("trace", help="dump the full rewrite history of a circuit")
    t.add_argument("circuit")
    t.add_argument("--scheme", choices=["ham5", "ham8"], required=True)
    t.add_argument("--periodic-x", action="store_true",
                   help="ham8 only: ring geometry with an immovable stopper cell")
    t.add_argument("--out")
    t.set_defaults(fn=cmd_trace)

    ev = sub.add_parser("evolve", help="CSV of history-line probabilities p(m|tau)")
    ev.add_argument("circuit", nargs="?")
    ev.add_argument("--T", type=int, help="history length directly (skip the circuit)")
    ev.add_argument("--scheme", choices=["ham5", "ham8"], help="needed with a circuit")
    ev.add_argument("--taus", required=True, help="comma-separated times")
    ev.add_argument("--out")
    ev.set_defaults(fn=cmd_evolve)

    sa = sub.add_parser("sample", help="run the measurement protocol")
    sa.add_argument("circuit")
    sa.add_argument("--scheme", choices=["ham5", "ham8"], required=True)
    sa.add_argument("--q", type=int, default=6)
    sa.add_argument("--tau0", type=float)
    sa.add_argument("--shots", type=int, default=1000)
    sa.add_argument("--seed", type=int, required=True)
    sa.add_argument("--initial", help="initial register bit string")
    sa.add_argument("--rewrite", action="store_true",
                    help="rewrite Z/CX gates into {W,S} words first")
    sa.add_argument("--out")
    sa.set_defaults(fn=cmd_sample)

    rw = sub.add_parser("rewrite", help="rewrite a circuit into the {W,S,I} gate set")
    rw.add_argument("circuit")
    rw.add_argument("--out")
    rw.set_defaults(fn=cmd_rewrite)

    ve = sub.add_parser("verify", help="run built-in consistency checks")
    ve.add_argument("--scope", choices=["identities", "subspace", "formulas", "all"],
                    default="all")
    ve.add_argument("--out")
    ve.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evolve" and args.T is None and args.circuit is None:
        parser.error("evolve needs either a circuit file or --T")
    try:
        return args.fn(args)
    except (OSError, ValueError, walk.PaddingError, RuleEngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
