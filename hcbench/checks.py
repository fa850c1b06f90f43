"""Output checks: each returns a list of error strings, empty when the job's
output is correct."""
from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.fft import dst
from scipy.stats import chi2

GOF_ALPHA = 1e-6  # goodness-of-fit significance for the readout histogram
ACCEPT_Z = 5.0  # acceptance count vs the walk prediction, in binomial sigmas
SUPPORT_TOL = 1e-12  # a readout the circuit gives less probability is impossible
VALUE_TOL = 1e-9  # spectral values vs their references


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=64)
def ideal_probs(circuit: str, initial: str) -> np.ndarray:
    """Readout distribution of the circuit by direct simulation."""
    from hamchain.circuit import parse_circuit, simulate_circuit
    from hamchain.gates import QubitState

    state = simulate_circuit(parse_circuit(circuit), QubitState.basis(initial))
    return np.abs(state.amps) ** 2


def parse_report(text: str) -> tuple[dict, list[tuple], dict, float]:
    """(header, shots as (t, accepted, readout), histogram, acceptance rate)."""
    header: dict = {}
    shots: list = []
    hist: dict = {}
    rate = math.nan
    section = "header"
    for line in text.splitlines():
        parts = line.split()
        if line.startswith("shot_records"):
            section = "shots"
        elif line == "histogram":
            section = "histogram"
        elif parts[0] == "acceptance_rate":
            rate = float(parts[1])
        elif section == "header":
            header[parts[0]] = parts[1]
        elif section == "shots":
            readout = None if parts[3] == "-" else parts[3]
            shots.append((int(parts[1]), parts[2] == "1", readout))
        else:
            hist[parts[0]] = int(parts[1])
    return header, shots, hist, rate


def gof_pvalue(counts: dict[str, int], probs: np.ndarray) -> float:
    """Pearson chi-square p-value, pooling outcomes expected fewer than 5 times."""
    total = sum(counts.values())
    observed = np.zeros(len(probs))
    for key, c in counts.items():
        observed[int(key, 2)] = c
    expected = probs * total
    big = expected >= 5
    obs = list(observed[big]) + [observed[~big].sum()]
    exp = list(expected[big]) + [expected[~big].sum()]
    pairs = [(o, e) for o, e in zip(obs, exp) if e > 0]
    if len(pairs) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for o, e in pairs)
    return float(chi2.sf(stat, len(pairs) - 1))


def check_sample(expect: dict, text: str) -> list[str]:
    try:
        header, shots, hist, rate = parse_report(text)
    except (IndexError, ValueError) as exc:
        return [f"unparsable report: {exc}"]
    errs = []
    for key in ("T", "rounds_total", "threshold"):
        if expect.get(key) is not None and header.get(key) != str(expect[key]):
            errs.append(f"{key} {header.get(key)} != recorded {expect[key]}")
    for key in ("shots", "seed", "initial"):
        if header.get(key) != str(expect[key]):
            errs.append(f"{key} {header.get(key)} != requested {expect[key]}")
    if errs:
        return errs
    T, threshold = int(header["T"]), int(header["threshold"])
    if len(shots) != expect["shots"]:
        errs.append(f"{len(shots)} shot records for {expect['shots']} shots")
    counts: dict[str, int] = {}
    for i, (t, acc, readout) in enumerate(shots):
        if not 0 <= t <= T:
            errs.append(f"shot {i}: t={t} outside 0..{T}")
        if acc and t < threshold:
            errs.append(f"shot {i}: accepted t={t} below threshold {threshold}")
        if acc != (readout is not None):
            errs.append(f"shot {i}: readout present iff accepted violated")
        if readout is not None:
            counts[readout] = counts.get(readout, 0) + 1
    if counts != hist:
        errs.append("histogram disagrees with the shot records")
    accepted = sum(counts.values())
    if shots and abs(rate - accepted / len(shots)) > 1e-9:
        errs.append(f"acceptance_rate {rate} != {accepted}/{len(shots)}")
    probs = ideal_probs(expect["circuit"], expect["initial"])
    for key in counts:
        if len(key) != len(expect["initial"]) or probs[int(key, 2)] < SUPPORT_TOL:
            errs.append(f"readout {key} is impossible for this circuit")
    if not errs and accepted:
        p = gof_pvalue(counts, probs)
        if p < GOF_ALPHA:
            errs.append(f"readout histogram fails goodness of fit (p={p:.3g})")
    pred = expect.get("accept_pred")
    if pred is not None and shots:
        n = len(shots)
        z = abs(accepted - n * pred) / math.sqrt(n * pred * (1 - pred))
        if z > ACCEPT_Z:
            errs.append(f"acceptance {accepted}/{n} is {z:.1f} sigma from {pred:.6f}")
    if expect.get("digest") and digest(text) != expect["digest"]:
        errs.append("report differs from the recorded default-seed digest")
    return errs


def check_certify(expect: dict, text: str) -> list[str]:
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return [f"unparsable certificate: {exc}"]
    errs = []
    if rep.get("passed") is not True:
        errs.append("certificate did not pass")
    if rep.get("failures") != 0:
        errs.append(f"failures = {rep.get('failures')}")
    lines = rep.get("lines", [])
    if len(lines) != expect["T"] + 1:
        errs.append(f"{len(lines)} certificate lines for {expect['T'] + 1} history states")
    bad = [ln for i, ln in enumerate(lines) if ln != f"t={i} PASS"]
    if bad:
        errs.append(f"{len(bad)} lines not PASS, first: {bad[0]!r}")
    return errs


def check_tail(expect: dict, text: str) -> list[str]:
    try:
        values = json.loads(text)
    except ValueError as exc:
        return [f"unparsable tail values: {exc}"]
    want = expect.get("values")
    if want is None:
        return []
    if len(values) != len(want):
        return [f"{len(values)} tail values for {len(want)} recorded"]
    return [f"tail value {i}: {v!r} != recorded {w!r}"
            for i, (v, w) in enumerate(zip(values, want)) if abs(v - w) > VALUE_TOL]


def walk_probs(T: int, tau: float) -> np.ndarray:
    """|c_m(tau)|^2 on the path of T+1 states, by a type-I DST of the spectrum."""
    k = np.arange(1, T + 2)
    amps = dst(np.exp(2j * np.cos(k * np.pi / (T + 2)) * tau) * np.sin(k * np.pi / (T + 2)),
               type=1) / (T + 2)
    return np.abs(amps) ** 2


def check_evolve(expect: dict, text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "tau,m,p":
        return ["missing tau,m,p header"]
    T, taus = expect["T"], expect["taus"]
    try:
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        return [f"unparsable CSV: {exc}"]
    if rows.shape != (len(taus) * (T + 1), 3):
        return [f"CSV has shape {rows.shape}, want {(len(taus) * (T + 1), 3)}"]
    errs = []
    for i, tau in enumerate(taus):
        block = rows[i * (T + 1):(i + 1) * (T + 1)]
        if np.any(block[:, 0] != tau) or np.any(block[:, 1] != np.arange(T + 1)):
            errs.append(f"tau={tau:g}: rows are not m=0..{T}")
            continue
        if abs(block[:, 2].sum() - 1.0) > VALUE_TOL:
            errs.append(f"tau={tau:g}: probabilities sum to {block[:, 2].sum()!r}")
        dev = float(np.max(np.abs(block[:, 2] - walk_probs(T, tau))))
        if dev > VALUE_TOL:
            errs.append(f"tau={tau:g}: off the closed form by {dev:.3g}")
    return errs


CHECKS = {"sample": check_sample, "certify": check_certify, "tail": check_tail,
          "evolve": check_evolve}


def check(kind: str, expect: dict) -> list[str]:
    out = Path(expect["out"])
    if not out.is_file():
        return [f"no output at {out.name}"]
    return CHECKS[kind](expect, out.read_text())
