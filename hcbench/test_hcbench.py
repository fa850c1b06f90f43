"""Tests of the benchmark itself: bad outputs and timeouts count as failed
jobs, self time is computed right, and tracing survives renamed functions.

    python3 -m pytest hcbench/test_hcbench.py      # from the checkout root
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import Job  # noqa: E402

CIRCUIT = "QUBITS 2\nROUNDS 1\nGATE W 1 1\n"


def _shape(scheme: str, n: int, rounds: int) -> dict:
    from hamchain import five_state, walk

    r_total = walk.padding_plan(n, rounds, 6, scheme)
    T = five_state.enumerate_history5(n, r_total).T
    return {"rounds_total": r_total, "T": T, "threshold": walk.tail_threshold(T, 6)}


@pytest.fixture(scope="module")
def env():
    return run.child_env(ROOT)


@pytest.fixture(scope="module")
def sample(tmp_path_factory, env):
    """A real ham5 sample job that passes its checks, and its outcome."""
    work = tmp_path_factory.mktemp("sample")
    circ = work / "w.txt"
    circ.write_text(CIRCUIT)
    out = work / "w.report"
    argv = ["sample", str(circ), "--scheme", "ham5", "--shots", "400", "--seed", "5",
            "--initial", "10", "--out", str(out)]
    job = Job("w", "sample", {"kind": "cli", "argv": argv}, {
        **_shape("ham5", 2, 1), "circuit": CIRCUIT, "initial": "10", "shots": 400,
        "seed": 5, "out": out,
    })
    outcome = run.execute(job, work, env, 60.0)
    assert outcome.error is None, outcome.error
    job.expect["digest"] = checks.digest(out.read_text())
    return job, outcome, work


@pytest.fixture(scope="module")
def certify(tmp_path_factory, env):
    work = tmp_path_factory.mktemp("certify")
    circ = work / "w.txt"
    circ.write_text(CIRCUIT)
    shape = _shape("ham5", 2, 1)
    out = work / "w.json"
    job = Job("c", "certify", {
        "kind": "certify", "scheme": "ham5", "circuit": str(circ),
        "rounds_total": shape["rounds_total"], "initial": "01", "out": str(out),
    }, {**shape, "out": out})
    outcome = run.execute(job, work, env, 60.0)
    assert outcome.error is None, outcome.error
    return job, outcome


def _recheck(job: Job, outcome: run.Outcome, text: str, tmp_path: Path) -> run.Outcome:
    """The outcome `execute` gives when the job writes `text` instead."""
    bad = tmp_path / f"{job.name}.bad"
    bad.write_text(text)
    errs = checks.check(job.kind, {**job.expect, "out": bad})
    return run.Outcome(outcome.job, outcome.wall_s, outcome.setup_s, outcome.rss_mb,
                       "; ".join(errs) if errs else None)


def _flip_readout(text: str) -> str:
    """Flip the last bit of the first accepted readout, histogram included."""
    _, shots, _, _ = checks.parse_report(text)
    lines = text.splitlines(keepends=True)
    first = next(i for i, ln in enumerate(lines) if ln.startswith("shot_records")) + 1
    i = next(k for k, (_, acc, _) in enumerate(shots) if acc)
    tau, t, acc, bits = lines[first + i].split()
    flipped = bits[:-1] + ("1" if bits[-1] == "0" else "0")
    lines[first + i] = f"{tau} {t} {acc} {flipped}\n"
    hist: dict[str, int] = {}
    for _, _, r in shots[:i] + [(0, True, flipped)] + shots[i + 1:]:
        if r is not None:
            hist[r] = hist.get(r, 0) + 1
    end = first + len(shots) + 1
    tail = [f"{k} {hist[k]}\n" for k in sorted(hist)] + [lines[-1]]
    return "".join(lines[:end] + tail)


def test_bad_outputs_and_timeouts_count_as_failed(sample, certify, env, tmp_path):
    job, good, work = sample
    text = Path(job.expect["out"]).read_text()
    flipped = _recheck(job, good, _flip_readout(text), tmp_path)
    T = job.expect["T"]
    wrong_t = _recheck(job, good, text.replace(f"\nT {T}\n", f"\nT {T + 1}\n"), tmp_path)
    cjob, cgood = certify
    rep = json.loads(Path(cjob.expect["out"]).read_text())
    rep["lines"][3] = "t=3 FAIL: register mismatch vs t'=4"
    rep["failures"], rep["passed"] = 1, False
    failing_cert = _recheck(cjob, cgood, json.dumps(rep), tmp_path)
    slow = Job(job.name, job.kind, job.spec, {**job.expect, "out": tmp_path / "slow.report"})
    dnf = run.execute(slow, tmp_path, env, timeout=0.05)

    assert flipped.error == "report differs from the recorded default-seed digest"
    assert f"T {T + 1} != recorded {T}" in wrong_t.error
    assert "certificate did not pass" in failing_cert.error
    assert dnf.error.startswith("DNF") and dnf.wall_s >= 0.05

    passes = [[good, flipped, cgood], [wrong_t, failing_cert, dnf]]
    summary = run.summarize(passes)
    assert (summary["attempted"], summary["failed"]) == (6, 4)
    assert summary["per_pass"][1]["wall_s"] == pytest.approx(
        wrong_t.wall_s + failing_cert.wall_s + dnf.wall_s)


def test_checks_accept_the_untouched_outputs(sample, certify):
    job, _, _ = sample
    assert checks.check(job.kind, job.expect) == []
    cjob, _ = certify
    assert checks.check(cjob.kind, cjob.expect) == []


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["a", 0.0, 10.0, None, None],
        ["b", 1.0, 4.0, 0, None],
        ["d", 2.0, 3.0, 1, None],
        ["c", 6.0, 9.0, 0, None],
    ]
    assert layers.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0])
    assert layers.covered([(1, 3), (2, 5)], 0, 10) == pytest.approx(4.0)
    assert layers.covered([(-1, 2), (8, 12)], 0, 10) == pytest.approx(4.0)


def test_layer_metrics_on_a_synthetic_sample_job():
    e8 = "eight_state.enumerate_history8"
    spans = [
        ["cli.main", 0.0, 10.0, None, None],
        ["runner.run", 0.5, 9.5, 0, {"shots": 4, "accepted": 3}],
        ["runner.padded_history", 0.5, 6.5, 1, {"prefix_mb": 1.5}],
        ["walk.padding_plan", 0.5, 3.5, 2, {"rounds_added": 1}],
        [e8, 0.5, 1.5, 3, {"steps": 100}],
        [e8, 1.5, 3.5, 3, {"steps": 200}],
        [e8, 3.5, 5.5, 2, {"steps": 200}],
        ["runner.dst", 7.0, 8.0, 1, {"n": 201}],
        ["runner.dst", 8.0, 9.0, 1, {"n": 201}],
    ]
    m = layers.pass_metrics([spans])
    assert m["walk.padding_plan.s"] == pytest.approx(3.0)
    assert m["walk.padding_plan.self_s"] == pytest.approx(0.0)
    assert m["walk.padding_plan.enumerations"] == 2
    assert m[f"{e8}.calls"] == 3 and m[f"{e8}.steps"] == 500
    assert m[f"{e8}.us_per_step"] == pytest.approx(5.0 / 500 * 1e6)
    assert m["runner.padded_history.self_s"] == pytest.approx(1.0)
    assert m["runner.sampler.self_s"] == pytest.approx(3.0)
    assert m["runner.sampler.us_per_shot"] == pytest.approx(3.0 / 4 * 1e6)
    assert m["runner.dst.calls"] == 2 and m["runner.dst.n"] == pytest.approx(201)
    assert m["runner.accept_ratio"] == pytest.approx(0.75)
    assert m["runner.prefix_mb"] == pytest.approx(1.5)
    selfs = layers.self_by_span([spans])
    assert selfs["runner.sampler"] == pytest.approx(3.0)
    assert "runner.run" not in selfs and "runner.dst" not in selfs


def test_missing_functions_are_reported_not_fatal():
    t = tracer.Tracer()
    t.install([
        ("hamchain.runner", "padded_history_renamed", "runner.padded_history", None),
        ("hamchain.no_such_module", "fn", "x.fn", None),
    ])
    assert t.installed == set()
    assert t.missing == ["hamchain.runner.padded_history_renamed", "hamchain.no_such_module.fn"]

    def broken_info(args, kwargs, result):
        raise AttributeError("signature changed")

    outer = t.wrap(lambda x: inner(x) + 1, "outer")
    inner = t.wrap(lambda x: x * 2, "inner", broken_info)
    assert outer(3) == 7
    assert [(s[0], s[3], s[4]) for s in t.spans] == [("outer", None, None), ("inner", 0, None)]


def test_absent_metrics_are_flagged_in_the_traced_output():
    outcome = run.Outcome("j", 1.0, 0.1, 50.0, spans=[["cli.main", 0.0, 1.0, None, None]],
                          installed=["cli.main", "runner.run"])
    values, absent = run.per_layer([[outcome]], [[outcome]])
    assert "walk.padding_plan.self_s" in absent and "cli.main.s" not in absent
    assert "runner.sampler.self_s" in absent  # needs runner.padded_history too
    assert values["cli.main.s"] == pytest.approx(1.0)
    assert set(values) == set(layers.METRICS)


def test_machine_stamp_names_the_run(env):
    stamp = run.machine_stamp(ROOT, 7, env)
    assert stamp["seed"] == 7 and stamp["nproc"] >= 1
    assert set(stamp) >= {"python", "numpy", "scipy", "blas_threads", "commit"}


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        m: unit for m, (unit, _) in layers.METRICS.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS


def test_execute_marks_a_wrong_output_failed(sample, tmp_path, env):
    job, _, _ = sample
    circ = tmp_path / "w.txt"
    circ.write_text(CIRCUIT)
    out = tmp_path / "rewritten.txt"
    # `hamchain rewrite` writes a circuit, which is not a sample report.
    bad = Job("r", "sample", {"kind": "cli", "argv": ["rewrite", str(circ), "--out", str(out)]},
              {**job.expect, "out": out})
    outcome = run.execute(bad, tmp_path, env, 60.0)
    assert "T None != recorded" in outcome.error
    assert run.summarize([[outcome]])["failed"] == 1
