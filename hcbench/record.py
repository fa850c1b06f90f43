"""Record the reference values the checks compare against: per shape the
padded round count, T, threshold and predicted acceptance; the tail sweep's
values; and the sha256 of every default-seed sample report.

    python3 hcbench/record.py      # from the root of a checkout

Before a digest is written, the default-seed reports must pass every check,
including goodness of fit against circuit.simulate_circuit and the
acceptance rate against the walk's tail prediction, so that a recorded
digest cannot lock in a wrong report.  Keys already in reference.json that
this script does not compute (the baseline and notes) are kept.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import run
import workloads

EXACT_TAIL_MAX_T = 2000  # walk.tail_prob builds dense (T+1)^2 matrices


def tail_limit(T: int, q: int, block: int = 256) -> float:
    """tau0 -> infinity tail probability, sum_k v_k(0)^2 sum_{m>T/q} v_k(m)^2,
    in blocks of k so that no (T+1)^2 matrix is built."""
    m = np.arange(T // q + 1, T + 1)
    total = 0.0
    for k0 in range(1, T + 2, block):
        k = np.arange(k0, min(k0 + block, T + 2))
        v0 = np.sin(k * np.pi / (T + 2)) ** 2
        vm = (np.sin(np.outer(m + 1, k) * np.pi / (T + 2)) ** 2).sum(axis=0)
        total += float(v0 @ vm)
    return total * (2.0 / (T + 2)) ** 2


def shape_values(scheme: str, n: int, rounds: int) -> dict:
    from hamchain import eight_state, five_state, walk
    from hamchain.circuit import Circuit

    r_total = walk.padding_plan(n, rounds, workloads.Q, scheme)
    if scheme == "ham5":
        T = five_state.enumerate_history5(n, r_total).T
    else:
        T = eight_state.enumerate_history8(Circuit(n, r_total)).T
        if T != eight_state.step_count_formula8(n, r_total):
            raise SystemExit(f"{scheme} n={n} R={r_total}: T={T} off the exact formula")
    tau0 = walk.default_tau0(T)
    if T <= EXACT_TAIL_MAX_T:
        pred = walk.tail_prob(T, workloads.Q, tau0)
        if abs(pred - tail_limit(T, workloads.Q)) > 1e-4:
            raise SystemExit(f"T={T}: finite-tau0 tail far from its limit")
    else:
        pred = tail_limit(T, workloads.Q)
    return {"rounds_total": r_total, "T": T, "threshold": walk.tail_threshold(T, workloads.Q),
            "accept_pred": pred}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from hamchain import walk

    old = workloads.load_reference() if workloads.REFERENCE.is_file() else {}
    ref = {k: v for k, v in old.items() if k not in ("shapes", "tail", "digests")}
    ref["default_seed"] = workloads.DEFAULT_SEED
    ref["shapes"] = {}
    for entries in workloads.WORKLOADS.values():
        for e in entries:
            if e[0] in ("sample", "certify"):
                key = workloads.shape_key(*e[1:4])
                if key not in ref["shapes"]:
                    ref["shapes"][key] = shape_values(*e[1:4])
                    print(key, ref["shapes"][key], flush=True)
    T, q = workloads.TAIL_T, workloads.Q
    values = [walk.tail_prob(T, q, h * T) for h in workloads.TAIL_HORIZONS]
    values.append(walk.tail_prob_limit(T, q))
    if abs(values[-1] - tail_limit(T, q)) > 1e-12:
        raise SystemExit("walk.tail_prob_limit disagrees with the blocked closed form")
    ref["tail"] = {"T": T, "q": q, "horizons": list(workloads.TAIL_HORIZONS),
                   "values": values}

    env = run.child_env(root)
    workdir = root / ".hcbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    ref["digests"] = {}
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.build_jobs(workload, workloads.DEFAULT_SEED, workdir, ref)
            for job in jobs:
                out = run.execute(job, workdir, env, run.JOB_TIMEOUT_S)
                if out.error:
                    raise SystemExit(f"{workload}/{job.name}: {out.error}")
                if job.kind == "sample":
                    ref["digests"][job.name] = checks.digest(Path(job.expect["out"]).read_text())
                print(f"{workload}/{job.name}: checked in {out.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
