"""Command-line front end: trace histories, tabulate walk probabilities,
sample the measurement protocol, verify invariants, and rewrite gate sets.

A command loads only the modules it runs: walk imports a scheme's machine
when first given that scheme (walk.scheme_module), and `verify` imports
subspace itself, so `evolve --T` loads no machine and `sample` no subspace.

`verify` runs the rows of one table, VERIFY_SCOPES; only cmd_verify writes
a row's PASS or FAIL and sets the exit code.

Exit codes: 0 success, 1 verification failure, 2 usage or input error (a
ValueError, or a file that cannot be read or written), a run the engines
or the padding plan refuse (RuleEngineError, PaddingError), or a run out
of memory: one `error: ...` line on stderr, not a traceback.  A reader that
closes stdout early (`... | head`) ends the output quietly, with the code
kept.  Like the scripts' `main`s, `main` only parses (Parser, which refuses
`evolve` with both or neither of a circuit and --T) and calls exit_code.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import walk
from .circuit import Circuit, parse_circuit, rewrite_to_ws, serialize_circuit
from .machine import RuleEngineError
from .runner import DEFAULT_Q, RunPlan, padded_circuit, run


def _read_circuit(path: str) -> Circuit:
    with open(path) as fh:
        return parse_circuit(fh.read())


def write(out_path: str | os.PathLike | None, chunks) -> None:
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
    write(args.out, walk.enumerate_history(args.scheme, circuit, args.periodic_x).dump())
    return 0


def cmd_evolve(args) -> int:
    if args.T is not None:
        T = args.T
        if args.scheme is not None:
            raise ValueError("evolve --T takes no --scheme, which only a circuit needs")
        if not 1 <= T <= walk.MAX_T:
            raise ValueError(f"--T must lie in 1..{walk.MAX_T}, got {T}")
    elif args.scheme is None:
        raise ValueError("evolve of a circuit needs --scheme ham5 or ham8")
    else:
        T = walk.history_length(args.scheme, _read_circuit(args.circuit))
    entries = args.taus.split(",")
    if any(x.strip() == "" for x in entries):
        raise ValueError(f"bad tau grid: empty entry in {args.taus!r}")
    try:
        taus = [float(x) for x in entries]
    except ValueError as exc:
        raise ValueError(f"bad tau grid: {exc}")
    if not all(math.isfinite(tau) for tau in taus):
        raise ValueError("bad tau grid: times must be finite")
    write(args.out, [walk.probability_table_csv(T, taus)])
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
    write(args.out, [report.serialize()])
    return 0


def cmd_rewrite(args) -> int:
    circuit = _read_circuit(args.circuit)
    write(args.out, [serialize_circuit(rewrite_to_ws(circuit))])
    return 0


def _verify_identities():
    from . import gates

    for name, (seq, target) in gates.IDENTITIES.items():
        dev = gates.check_identity(seq, target)
        yield f"identity {name}: dev={dev:.3e}", dev <= gates.IDENTITY_TOL, []


def _verify_subspace():
    from . import gates, subspace

    ws2 = Circuit(2, 2, {(1, 1): gates.W, (2, 1): gates.SWAP})
    ws3 = Circuit(3, 2, {(1, 1): gates.W, (1, 2): gates.SWAP,
                         (2, 1): gates.SWAP, (2, 2): gates.W})
    cases = [
        ("ham5", Circuit(3, 2, {(1, 1): gates.W, (1, 2): gates.SWAP,
                                (2, 1): gates.CX, (2, 2): gates.W})),
        ("ham8", Circuit(2, 1, {(1, 1): gates.W})),
        ("ham8", padded_circuit(ws2, DEFAULT_Q, "ham8")),
        ("ham5", padded_circuit(ws3, DEFAULT_Q, "ham5")),
    ]
    for scheme, circ in cases:
        rep = subspace.certify_subspace(scheme, circ)
        yield (f"subspace {scheme} n={circ.n} R={circ.rounds}:", rep.passed,
               [ln for ln in rep.lines if "FAIL" in ln])


# (scheme, qubit counts, round counts) swept by `verify --scope formulas`
FORMULA_SWEEPS = (
    ("ham5", range(2, 6), range(1, 5)),
    ("ham8", range(2, 5), range(1, 4)),
)


def _verify_formulas():
    """Engine against closed forms: T per (n, R), and the step of the last
    gate of rounds 1..r for every r <= R, which padding relies on."""
    for scheme, ns, rounds in FORMULA_SWEEPS:
        closed_forms = walk.scheme_module(scheme).closed_forms
        for n in ns:
            for R in rounds:
                history = walk.enumerate_history(scheme, Circuit(n, R))
                rows = [(f"formula {scheme} n={n} R={R}", history.T, closed_forms(n, R, R)[0])]
                rows += [(f"last-gate {scheme} n={n} R={R} r={r}", history.last_real_step(r),
                          closed_forms(n, R, r)[1])
                         for r in range(1, R + 1)]
                for label, engine, closed in rows:
                    yield f"{label}: engine={engine} closed-form={closed}", engine == closed, []


# scope -> its rows in order, each (line, passed, detail lines printed under
# the row when it fails); `verify --scope all` runs every scope
VERIFY_SCOPES = {
    "identities": _verify_identities,
    "subspace": _verify_subspace,
    "formulas": _verify_formulas,
}


def cmd_verify(args) -> int:
    lines: list[str] = []
    ok = True
    for scope in VERIFY_SCOPES if args.scope == "all" else [args.scope]:
        for line, passed, details in VERIFY_SCOPES[scope]():
            ok &= passed
            lines.append(f"{line} {'PASS' if passed else 'FAIL'}")
            if not passed:
                lines.extend("  " + d for d in details)
    lines.append(f"verify {args.scope}: {'PASS' if ok else 'FAIL'}")
    write(args.out, ["\n".join(lines) + "\n"])
    return 0 if ok else 1


class Parser(argparse.ArgumentParser):
    """Usage errors end in one `error: ...` line and exit code 2, without
    the usage block that `--help` prints; subcommand parsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def exit_code(fn, args) -> int:
    """Return fn(args), or 2 after one `error: ...` line for an input or
    file error, a refused run, or a run out of memory."""
    try:
        return fn(args)
    except (OSError, ValueError, walk.PaddingError, RuleEngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    p = Parser(prog="hamchain")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("trace", help="dump the full rewrite history of a circuit")
    t.add_argument("circuit")
    t.add_argument("--scheme", choices=walk.SCHEME_MODULES, required=True)
    t.add_argument("--periodic-x", action="store_true",
                   help="ham8 only: ring geometry with an immovable stopper cell")
    t.add_argument("--out")
    t.set_defaults(fn=cmd_trace)

    ev = sub.add_parser("evolve", help="CSV of history-line probabilities p(m|tau)")
    source = ev.add_mutually_exclusive_group(required=True)
    source.add_argument("circuit", nargs="?")
    source.add_argument("--T", type=int, help="history length directly (skip the circuit)")
    ev.add_argument("--scheme", choices=walk.SCHEME_MODULES,
                    help="needed with a circuit, refused with --T")
    ev.add_argument("--taus", required=True, help="comma-separated times")
    ev.add_argument("--out")
    ev.set_defaults(fn=cmd_evolve)

    sa = sub.add_parser("sample", help="run the measurement protocol")
    sa.add_argument("circuit")
    sa.add_argument("--scheme", choices=walk.SCHEME_MODULES, required=True)
    sa.add_argument("--q", type=int, default=DEFAULT_Q)
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
    ve.add_argument("--scope", choices=[*VERIFY_SCOPES, "all"], default="all")
    ve.add_argument("--out")
    ve.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
