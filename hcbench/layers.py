"""Per-layer metrics from the spans of one pass over a workload's jobs.

A span is [name, start, end, parent index, attrs] (see tracer.py); each
job's spans are kept under that job's name.  Self time is a span's duration
minus the part of that interval its child spans cover.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# metric: (unit, span names it needs; absent when none of them was wrapped)
METRICS = {
    "walk.padding_plan.s": ("s", ["walk.padding_plan"]),
    "walk.padding_plan.self_s": ("s", ["walk.padding_plan"]),
    "walk.padding_plan.enumerations": ("count", ["walk.padding_plan"]),
    "walk.padding_plan.rounds_added": ("count", ["walk.padding_plan"]),
    "five_state.enumerate_history5.calls": ("count", ["five_state.enumerate_history5"]),
    "five_state.enumerate_history5.steps": ("count", ["five_state.enumerate_history5"]),
    "five_state.enumerate_history5.us_per_step": ("us", ["five_state.enumerate_history5"]),
    "eight_state.enumerate_history8.calls": ("count", ["eight_state.enumerate_history8"]),
    "eight_state.enumerate_history8.steps": ("count", ["eight_state.enumerate_history8"]),
    "eight_state.enumerate_history8.us_per_step": ("us", ["eight_state.enumerate_history8"]),
    "runner.padded_history.self_s": ("s", ["runner.padded_history"]),
    "runner.prefix_mb": ("MB", ["runner.padded_history"]),
    "runner.sampler.self_s": ("s", ["runner.run", "runner.padded_history"]),
    "runner.sampler.us_per_shot": ("us", ["runner.run", "runner.padded_history"]),
    "runner.dst.calls": ("count", ["runner.dst"]),
    "runner.dst.s": ("s", ["runner.dst"]),
    "runner.dst.n": ("count", ["runner.dst"]),
    "runner.accept_ratio": ("frac", ["runner.run"]),
    "gates.apply_unitary.calls": ("count", ["gates.apply_unitary"]),
    "gates.apply_unitary.s": ("s", ["gates.apply_unitary"]),
    "subspace.certify_subspace.self_s": ("s", ["subspace.certify_subspace"]),
    "subspace.states": ("count", ["subspace.certify_subspace"]),
    "subspace.apply_H.calls": ("count", ["subspace.apply_H"]),
    "subspace.apply_H.s": ("s", ["subspace.apply_H"]),
    "subspace.us_per_state": ("us", ["subspace.certify_subspace"]),
    "walk.avg_prob_all.s": ("s", ["walk.avg_prob_all"]),
    "walk.eigensystem.calls": ("count", ["walk.eigensystem"]),
    "walk.eigensystem.mb": ("MB", ["walk.eigensystem"]),
    "walk.probability_table_csv.s": ("s", ["walk.probability_table_csv"]),
    "circuit.rewrite_to_ws.s": ("s", ["circuit.rewrite_to_ws"]),
    "cli.main.s": ("s", ["cli.main"]),
    "trace.overhead_frac": ("frac", []),
}


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> list[float]:
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - covered(children[i], s[1], s[2]) for i, s in enumerate(spans)]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def pass_metrics(jobs: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one pass; `jobs` holds each job's span list."""
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)
    peak: dict[str, float] = defaultdict(float)
    enumerations = 0
    sampler = 0.0
    for spans in jobs:
        selfs = self_times(spans)
        for s, st in zip(spans, selfs):
            name, d, info = s[0], s[2] - s[1], s[4] or {}
            dur[name] += d
            own[name] += st
            calls[name] += 1
            for key, v in info.items():
                attr[f"{name}.{key}"] += v
                peak[f"{name}.{key}"] = max(peak[f"{name}.{key}"], v)
            if name.startswith("eight_state.") or name.startswith("five_state."):
                enumerations += s[3] is not None and spans[s[3]][0] == "walk.padding_plan"
            if name == "runner.run":
                sampler += d
            elif name == "runner.padded_history" and s[3] is not None \
                    and spans[s[3]][0] == "runner.run":
                sampler -= d
    e5, e8 = "five_state.enumerate_history5", "eight_state.enumerate_history8"
    shots = attr["runner.run.shots"]
    states = attr["subspace.certify_subspace.states"]
    return {
        "walk.padding_plan.s": dur["walk.padding_plan"],
        "walk.padding_plan.self_s": own["walk.padding_plan"],
        "walk.padding_plan.enumerations": enumerations,
        "walk.padding_plan.rounds_added": attr["walk.padding_plan.rounds_added"],
        f"{e5}.calls": calls[e5],
        f"{e5}.steps": attr[f"{e5}.steps"],
        f"{e5}.us_per_step": _ratio(own[e5], attr[f"{e5}.steps"], 1e6),
        f"{e8}.calls": calls[e8],
        f"{e8}.steps": attr[f"{e8}.steps"],
        f"{e8}.us_per_step": _ratio(own[e8], attr[f"{e8}.steps"], 1e6),
        "runner.padded_history.self_s": own["runner.padded_history"],
        "runner.prefix_mb": peak["runner.padded_history.prefix_mb"],
        "runner.sampler.self_s": sampler,
        "runner.sampler.us_per_shot": _ratio(sampler, shots, 1e6),
        "runner.dst.calls": calls["runner.dst"],
        "runner.dst.s": dur["runner.dst"],
        "runner.dst.n": _ratio(attr["runner.dst.n"], calls["runner.dst"]),
        "runner.accept_ratio": _ratio(attr["runner.run.accepted"], shots),
        "gates.apply_unitary.calls": calls["gates.apply_unitary"],
        "gates.apply_unitary.s": dur["gates.apply_unitary"],
        "subspace.certify_subspace.self_s": own["subspace.certify_subspace"],
        "subspace.states": states,
        "subspace.apply_H.calls": calls["subspace.apply_H"],
        "subspace.apply_H.s": dur["subspace.apply_H"],
        "subspace.us_per_state": _ratio(dur["subspace.certify_subspace"], states, 1e6),
        "walk.avg_prob_all.s": dur["walk.avg_prob_all"],
        "walk.eigensystem.calls": calls["walk.eigensystem"],
        "walk.eigensystem.mb": peak["walk.eigensystem.mb"],
        "walk.probability_table_csv.s": dur["walk.probability_table_csv"],
        "circuit.rewrite_to_ws.s": dur["circuit.rewrite_to_ws"],
        "cli.main.s": dur["cli.main"],
    }


def self_by_span(jobs: list[list[list]]) -> dict[str, float]:
    """Self time per span name, with runner.run replaced by runner.sampler
    (run minus padded_history, so the DST calls count as sampler time)."""
    out: dict[str, float] = defaultdict(float)
    for spans in jobs:
        for s, st in zip(spans, self_times(spans)):
            out[s[0]] += st
    m = pass_metrics(jobs)
    if "runner.run" in out:
        out.pop("runner.run")
        out.pop("runner.dst", None)
        out["runner.sampler"] = m["runner.sampler.self_s"]
    return dict(out)


def self_tables(passes: list[list[list[list]]]) -> tuple[dict, dict]:
    """Median over passes of the self time per span name, and its sums per
    layer (the module a span name starts with)."""
    per_pass = [self_by_span(jobs) for jobs in passes]
    names = set().union(*per_pass)
    by_span = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in names}
    by_layer: dict[str, float] = defaultdict(float)
    for k, v in by_span.items():
        by_layer[k.split(".")[0]] += v
    return by_span, dict(by_layer)
