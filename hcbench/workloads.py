"""The benchmark's workloads: which jobs each one runs, built from the seed.

The seed picks each circuit's {W,S} gate pattern, the initial bit strings and
each `sample --seed`.  Shapes are fixed, so the history length T and the work
per job do not depend on the seed.  The `spectral` jobs take no circuit; their
inputs are fixed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

Q = 6  # tail parameter of every sample job (the CLI default)
DEFAULT_SEED = 0  # the seed whose sample reports have recorded digests
TAIL_T, TAIL_HORIZONS = 800, (1, 10, 100)  # tail sweep: tau0 = h * T
EVOLVE_T, EVOLVE_TAUS = 2962, (3.0, 30.0, 300.0, 3000.0, 30000.0)

# name: list of (kind, scheme, qubits, real {W,S} rounds, shots, rewrite)
# A certify job takes the padded round count the runner uses for its shape.
# Shapes keep one pass near 5 s, so that a run holds several passes.  Not a
# job: ham8 `sample --rewrite` of one Z gate does not finish within 180 s,
# and a job that always times out gives no steady number; `pad` runs the
# same padding search on ham5.
WORKLOADS: dict[str, list[tuple]] = {
    # Long padded histories, few shots: the padding search re-enumerates the
    # whole history for every candidate round count (37 and 12 enumerations).
    "pad": [
        ("sample", "ham5", 2, 8, 200, True),
        ("sample", "ham8", 2, 3, 200, False),
    ],
    # Short histories, many shots: one DST-I per shot; T+2 = 1721 is prime,
    # which sends the FFT down its slow path, while 2964 and 222 are not.
    "shots": [
        ("sample", "ham8", 3, 2, 3000, False),
        ("sample", "ham8", 2, 2, 3000, False),
        ("sample", "ham5", 3, 2, 5000, False),
    ],
    # The padded instances the runner samples above, certified by local-term
    # matching; never touches walk or the sampler.
    "certify": [
        ("certify", "ham8", 2, 2, 0, False),
        ("certify", "ham5", 2, 8, 0, False),
        ("certify", "ham5", 3, 2, 0, False),
    ],
    # The closed-form half of walk: O(T^3) averaged tails and dense
    # (T+1)^2 eigenvectors.
    "spectral": [("tail",), ("evolve",)],
}


@dataclass
class Job:
    """One child process: `spec` tells job.py what to run, `expect` holds
    what checks.py compares its output against."""

    name: str
    kind: str  # sample | certify | tail | evolve
    spec: dict
    expect: dict = field(default_factory=dict)


def shape_key(scheme: str, n: int, rounds: int) -> str:
    return f"{scheme}-n{n}-r{rounds}-q{Q}"


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def circuit_text(rng: random.Random, n: int, rounds: int) -> str:
    lines = [f"QUBITS {n}", f"ROUNDS {rounds}"]
    for r in range(1, rounds + 1):
        for i in range(1, n):
            lines.append(f"GATE {rng.choice('WS')} {r} {i}")
    return "\n".join(lines) + "\n"


def build_jobs(workload: str, seed: int, workdir: Path, reference: dict) -> list[Job]:
    """The workload's jobs for this seed; inputs are written under `workdir`."""
    shapes = reference.get("shapes", {})
    digests = reference.get("digests", {}) if seed == DEFAULT_SEED else {}
    jobs = []
    for entry in WORKLOADS[workload]:
        kind = entry[0]
        if kind == "tail":
            out = workdir / "tail.json"
            jobs.append(Job(
                "tail", kind,
                {"kind": "tail", "T": TAIL_T, "q": Q, "horizons": list(TAIL_HORIZONS),
                 "out": str(out)},
                {"values": reference.get("tail", {}).get("values"), "out": out},
            ))
            continue
        if kind == "evolve":
            out = workdir / "evolve.csv"
            taus = ",".join(f"{t:g}" for t in EVOLVE_TAUS)
            jobs.append(Job(
                "evolve", kind,
                {"kind": "cli", "argv": ["evolve", "--T", str(EVOLVE_T), "--taus", taus,
                                         "--out", str(out)]},
                {"T": EVOLVE_T, "taus": list(EVOLVE_TAUS), "out": out},
            ))
            continue
        _, scheme, n, rounds, shots, rewrite = entry
        name = f"{kind}-{shape_key(scheme, n, rounds)}"
        rng = random.Random(f"{workload}/{name}/{seed}")
        text = circuit_text(rng, n, rounds)
        initial = "".join(rng.choice("01") for _ in range(n))
        circ = workdir / f"{name}.txt"
        circ.write_text(text)
        shape = shapes.get(shape_key(scheme, n, rounds), {})
        if kind == "sample":
            out = workdir / f"{name}.report"
            sample_seed = rng.randrange(2**31)
            argv = ["sample", str(circ), "--scheme", scheme, "--q", str(Q),
                    "--shots", str(shots), "--seed", str(sample_seed),
                    "--initial", initial, "--out", str(out)]
            if rewrite:
                argv.insert(2, "--rewrite")
            jobs.append(Job(name, kind, {"kind": "cli", "argv": argv}, {
                **shape, "circuit": text, "initial": initial, "shots": shots,
                "seed": sample_seed, "digest": digests.get(name), "out": out,
            }))
        else:
            out = workdir / f"{name}.json"
            jobs.append(Job(name, kind, {
                "kind": "certify", "scheme": scheme, "circuit": str(circ),
                "rounds_total": shape.get("rounds_total"), "initial": initial,
                "out": str(out),
            }, {**shape, "out": out}))
    return jobs
