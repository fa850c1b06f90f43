"""Run the benchmark on several seeds per workload and report, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
next to the metric's bound in BENCHMARK.json.

    python3 hcbench/spread.py --seeds 10 [--workloads pad,shots] [--out FILE]

Run from the root of a checkout.  With --out, the medians and spreads are
written as JSON (hcbench/baseline.json holds the recorded baseline).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    report = {}
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            stdout = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            lines = stdout.strip().splitlines()
            res = json.loads(lines[-1])
            stamp = next(json.loads(ln[9:]) for ln in lines if ln.startswith("machine: "))
            failed += res["failed"]
            attempted += res["attempted"]
            for m in values:
                values[m].append(res["metrics"][m]["value"])
        rows = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                               "bound": m["bound"], "unit": m["unit"], "values": v}
            print(f"{name:9s} {m['name']:12s} median {med:9.4f} {m['unit']:3s} "
                  f"spread {(q3 - q1) / med:6.3f} (bound {m['bound']}, "
                  f"a third {m['bound'] / 3:.3f})", flush=True)
        print(f"{name:9s} failed_frac  {failed / attempted:.4g} ({failed} of {attempted} jobs)",
              flush=True)
        report[name] = {"metrics": rows, "failed": failed, "attempted": attempted,
                        "stamp": {k: v for k, v in stamp.items() if k != "seed"}}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
