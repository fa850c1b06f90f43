"""hamchain benchmark: run one workload for a fixed time and report its metrics.

    python3 hcbench/run.py --workload pad --seed 3 --seconds 25 --trace 0

Run from the root of a hamchain checkout; the program is imported from its
`src/`.  A run repeats passes over the workload's jobs (workloads.py) until
`--seconds` would be exceeded.  Each job runs alone in a fresh child
interpreter, and every job's output is checked (checks.py).  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
the lines before it say the same for a reader, with the machine stamp.

End-to-end metrics (--trace 0), each the median over the run's passes:
  wall_s       wall time of one pass: spawn to reaping, summed over its jobs
  setup_s      summed over the pass's jobs: spawn to the job's first call
               into hamchain (interpreter start, import, reading inputs)
  peak_rss_mb  largest peak RSS (os.wait4) of any job in the pass
Failed jobs over jobs attempted (`failed_frac`) is `failed`/`attempted`: a
job fails on a nonzero exit, on a timeout (DNF) or on a failed output check.

--trace 1 alternates untraced and traced passes.  The traced ones wrap each
layer function from outside (tracer.py) and give the per-layer metrics
(layers.py); trace.overhead_frac is traced over untraced median wall, minus
one.  All spans are written to .hcbench_out/ when the run ends.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
JOB_PY = HERE / "job.py"
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 160.0  # no job may run past this point of a run
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    """What one job did; `error` is None when it ran and its output checked."""

    job: str
    wall_s: float
    setup_s: float
    rss_mb: float
    error: str | None = None
    spans: list = field(default_factory=list, repr=False)
    installed: list = field(default_factory=list, repr=False)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn_and_reap(argv: list[str], env: dict, log: Path, timeout: float):
    """(start time, exit status or None on timeout, rusage, end time)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    done = False
    try:
        fd = os.pidfd_open(pid)
        try:
            done = bool(select.select([fd], [], [], max(timeout, 0.0))[0])
        finally:
            os.close(fd)
    finally:
        if not done:  # timed out, or this process is being interrupted
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    return start, (status if done else None), usage, time.monotonic()


def execute(job: workloads.Job, workdir: Path, env: dict, timeout: float,
            trace: bool = False) -> Outcome:
    """Run one job in a fresh interpreter and check its output."""
    spec = workdir / f"{job.name}.spec.json"
    result = workdir / f"{job.name}.result.json"
    log = workdir / f"{job.name}.log"
    spec.write_text(json.dumps(job.spec))
    result.unlink(missing_ok=True)
    Path(job.expect["out"]).unlink(missing_ok=True)
    argv = [sys.executable, str(JOB_PY), str(spec), str(result)] + (["--trace"] if trace else [])
    start, status, usage, end = spawn_and_reap(argv, env, log, timeout)
    out = Outcome(job.name, end - start, end - start, usage.ru_maxrss / 1024)
    if status is None:
        out.error = f"DNF: killed after {timeout:.1f} s"
        return out
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not result.is_file():
        tail = log.read_text(errors="replace").strip().splitlines()[-1:] if log.is_file() else []
        out.error = f"exit code {code}" + (f": {tail[0]}" if tail else "")
        return out
    try:
        res = json.loads(result.read_text())
        out.setup_s = res["t_first"] - start
        out.spans = res.get("spans", [])
        out.installed = res.get("installed", [])
        errs = checks.check(job.kind, job.expect)
    except Exception as exc:  # output the checks cannot read is a failed job
        errs = [f"unreadable output: {exc!r}"]
    if errs:
        out.error = f"{len(errs)} check(s) failed: " + "; ".join(errs[:3])
    return out


def summarize(plain: list[list[Outcome]], traced: list[list[Outcome]] = ()) -> dict:
    """End-to-end metrics (medians over the untraced passes) and the failed
    and attempted job counts over every pass.  Failed and timed-out jobs
    stay in: their time counts in their pass and they count as failed."""
    per_pass = [{
        "wall_s": sum(o.wall_s for o in p),
        "setup_s": sum(o.setup_s for o in p),
        "peak_rss_mb": max(o.rss_mb for o in p),
    } for p in plain]
    passes = list(plain) + list(traced)
    return {
        "metrics": {k: statistics.median(pp[k] for pp in per_pass) for k in E2E_UNITS},
        "per_pass": per_pass,
        "attempted": sum(len(p) for p in passes),
        "failed": sum(o.error is not None for p in passes for o in p),
    }


def machine_stamp(root: Path, seed: int, env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: env.get(v, "unset") for v in BLAS_VARS},
        "seed": seed,
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    reference = workloads.load_reference()
    env = child_env(root)
    t0 = time.monotonic()
    workdir = root / ".hcbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.build_jobs(workload, seed, workdir, reference)
        # Fill the bytecode and file caches before timing anything.
        spawn_and_reap([sys.executable, "-c", "import hamchain.cli, hamchain.subspace"],
                       env, workdir / "warmup.log", JOB_TIMEOUT_S)
        start = time.monotonic()
        plain: list[list[Outcome]] = []
        traced: list[list[Outcome]] = []
        while True:
            tracing = trace and len(plain) > len(traced)
            p0 = time.monotonic()
            outcomes = []
            for job in jobs:
                left = t0 + RUN_LIMIT_S - time.monotonic()
                outcomes.append(execute(job, workdir, env, min(JOB_TIMEOUT_S, left), tracing))
            (traced if tracing else plain).append(outcomes)
            took = time.monotonic() - p0
            enough = len(traced) >= 1 if trace else True
            if enough and time.monotonic() - start + took > seconds:
                break
            if time.monotonic() + took > t0 + RUN_LIMIT_S:
                break
        return {"plain": plain, "traced": traced,
                "stamp": machine_stamp(root, seed, env)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def per_layer(plain: list[list[Outcome]], traced: list[list[Outcome]]) -> tuple[dict, list]:
    """Median per-layer metrics over traced passes, and the absent ones."""
    if not traced or not plain:  # the run limit came first
        return {m: 0.0 for m in layers.METRICS}, list(layers.METRICS)
    installed = set().union(*(o.installed for p in traced for o in p if o.installed))
    absent = [m for m, (_, needs) in layers.METRICS.items()
              if needs and not set(needs) <= installed]
    values = [layers.pass_metrics([o.spans for o in p]) for p in traced]
    out = {m: statistics.median(v[m] for v in values) for m in values[0]}
    for m in absent:
        out[m] = 0.0
    wall = lambda ps: statistics.median(sum(o.wall_s for o in p) for p in ps)
    out["trace.overhead_frac"] = wall(traced) / wall(plain) - 1.0
    return out, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hamchain" / "__init__.py").is_file():
        print(f"error: no hamchain sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # checks.py simulates circuits with hamchain
    # On SIGTERM, unwind so that the running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    res = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    passes = res["plain"] + res["traced"]
    summary = summarize(res["plain"], res["traced"])
    attempted, failed = summary["attempted"], summary["failed"]
    stamp = res["stamp"]
    print(f"hcbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(res['plain'])} plain + {len(res['traced'])} traced passes")
    print("machine: " + json.dumps(stamp, sort_keys=True))
    for p in passes:
        for o in p:
            if o.error:
                print(f"FAILED {o.job}: {o.error}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    if args.trace:
        values, absent = per_layer(res["plain"], res["traced"])
        units = {m: u for m, (u, _) in layers.METRICS.items()}
        for m, v in values.items():
            print(f"{m} {'absent' if m in absent else f'{v:.6g}'} {units[m]}")
        by_span, by_layer = layers.self_tables([[o.spans for o in p] for p in res["traced"]])
        for label, table in (("span", by_span), ("layer", by_layer)):
            top = sorted(table.items(), key=lambda kv: -kv[1])[:4]
            print(f"largest self time by {label}: "
                  + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    else:
        values = summary["metrics"]
        units = E2E_UNITS
        for m, v in values.items():
            spread = [pp[m] for pp in summary["per_pass"]]
            print(f"{m} {v:.6g} {units[m]} (passes: {', '.join(f'{x:.4g}' for x in spread)})")

    out_dir = root / ".hcbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "stamp": stamp, "summary": summary,
        "passes": {k: [[asdict(o) for o in p] for p in res[k]] for k in ("plain", "traced")},
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
