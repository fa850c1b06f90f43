"""Run one benchmark job in a fresh interpreter.

    python3 hcbench/job.py SPEC.json RESULT.json [--trace]

SPEC.json says what to run (see workloads.build_jobs).  RESULT.json gets the
monotonic time of the job's first call into hamchain, and with --trace the
spans of every wrapped layer function.  The exit code is the job's own.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _cli(spec):
    from hamchain import cli

    return lambda: cli.main(spec["argv"])


def _certify(spec):
    from hamchain import subspace
    from hamchain.circuit import Circuit, parse_circuit
    from hamchain.gates import QubitState

    real = parse_circuit(Path(spec["circuit"]).read_text())
    padded = Circuit(real.n, spec["rounds_total"], dict(real.gates))
    initial = QubitState.basis(spec["initial"])

    def entry():
        rep = subspace.certify_subspace(spec["scheme"], padded, initial)
        Path(spec["out"]).write_text(json.dumps(
            {"passed": rep.passed, "failures": rep.failures, "lines": rep.lines}))
        return 0

    return entry


def _tail(spec):
    from hamchain import walk

    def entry():
        T, q = spec["T"], spec["q"]
        values = [walk.tail_prob(T, q, h * T) for h in spec["horizons"]]
        values.append(walk.tail_prob_limit(T, q))
        Path(spec["out"]).write_text(json.dumps(values))
        return 0

    return entry


KINDS = {"cli": _cli, "certify": _certify, "tail": _tail}


def main(argv: list[str]) -> int:
    spec_path, result_path = argv[0], argv[1]
    spec = json.loads(Path(spec_path).read_text())
    entry = KINDS[spec["kind"]](spec)
    tracer = None
    if "--trace" in argv[2:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_first = time.monotonic()
    code = entry()
    result = {"t_first": t_first, "code": code}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["installed"] = sorted(tracer.installed)
        result["missing"] = tracer.missing
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
