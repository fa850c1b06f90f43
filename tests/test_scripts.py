"""Smoke tests of the example scripts."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_export_traces_writes_the_reference_ham5_trace(tmp_path, fixtures_dir):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "export_traces.py"),
         "--n", "3", "--rounds", "2", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    golden = (fixtures_dir / "ham5_n3r2.txt").read_bytes()
    assert (tmp_path / "ham5_trace.txt").read_bytes() == golden
    for name in ("ham5_events.txt", "ham8_trace.txt"):
        assert (tmp_path / name).stat().st_size > 0
    # one line per recorded event: ham8 records only its slot firings
    assert (tmp_path / "ham8_events.txt").read_text() == (
        "t=14 letter=W qubits=(1,2) round=1 m=1\n"
        "t=16 letter=S qubits=(2,3) round=1 m=2\n"
        "t=138 letter=S qubits=(1,2) round=2 m=3\n"
        "t=140 letter=W qubits=(2,3) round=2 m=4\n")


@pytest.mark.parametrize("script,args,first", [
    ("protocol_demo.py", ["--shots", "200"], "ham5: T="),
    ("tail_probability_sweep.py", ["--T", "34", "--factors", "1", "10"], "# T=34 q=6"),
])
def test_script_runs(script, args, first):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(first)


@pytest.mark.parametrize("args", [
    ["--factors", "0"],
    ["--T", "0"],
    ["--q", "1"],
    ["--factors", "inf"],
    ["--factors", "1", "nan"],
    ["--factors", "1", "1e308"],
    ["--T", "16777217"],
    ["--T", "x"],
], ids=["factor-0", "T-0", "q-1", "factor-inf", "factor-nan", "horizon-overflows",
        "T-over-MAX_T", "T-not-an-int"])
def test_tail_sweep_refuses_bad_input_with_one_line(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tail_probability_sweep.py"), *args],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("script,args,blocked", [
    ("protocol_demo.py", ["--initial", "1"], None),
    ("protocol_demo.py", ["--initial", "2x"], None),
    ("protocol_demo.py", ["--shots", "0"], None),
    ("protocol_demo.py", ["--q", "1"], None),
    ("export_traces.py", ["--n", "1", "--out", "OUT"], None),
    ("export_traces.py", ["--rounds", "0", "--out", "OUT"], None),
    ("protocol_demo.py", ["--shots", "abc"], None),
    ("export_traces.py", [], None),
    ("export_traces.py", ["--out", "OUT"], "ham5_trace.txt"),
    ("export_traces.py", ["--out", "OUT"], "ham8_events.txt"),
], ids=["demo-initial-short", "demo-initial-not-bits", "demo-shots-0", "demo-q-1",
        "export-n-1", "export-rounds-0", "demo-shots-not-an-int", "export-without-out",
        "export-ham5-trace-is-a-directory", "export-ham8-events-is-a-directory"])
def test_example_scripts_refuse_bad_input_with_one_line(script, args, blocked, tmp_path):
    # `blocked`: a directory made where the script would write that file
    out = tmp_path / "out"
    if blocked is not None:
        (out / blocked).mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [str(out) if a == "OUT" else a for a in args]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    if blocked is None:
        assert not out.exists()
    else:  # every target is refused before the first write
        assert [p.name for p in out.rglob("*")] == [blocked]


@pytest.mark.parametrize("argv", [
    ["-m", "hamchain.cli"],
    [str(ROOT / "scripts" / "protocol_demo.py")],
    [str(ROOT / "scripts" / "export_traces.py")],
    [str(ROOT / "scripts" / "tail_probability_sweep.py")],
], ids=["hamchain", "protocol_demo", "export_traces", "tail_sweep"])
def test_help_exits_0_with_the_usage_on_stdout(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *argv, "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: ")
    assert done.stderr == ""


def test_tail_sweep_checks_every_factor_before_the_first_tail(monkeypatch, capsys):
    # a bad last factor is refused at once, not after the tails of the
    # factors before it
    spec = importlib.util.spec_from_file_location(
        "tail_probability_sweep", ROOT / "scripts" / "tail_probability_sweep.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script.walk, "tail_prob", lambda *a: pytest.fail("a tail was computed"))
    assert script.main(["--T", "2000", "--factors", "1", "3", "nan"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
