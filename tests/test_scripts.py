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
], ids=["factor-0", "T-0", "q-1", "factor-inf", "factor-nan", "horizon-overflows"])
def test_tail_sweep_refuses_bad_input_with_one_line(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tail_probability_sweep.py"), *args],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("script,args", [
    ("protocol_demo.py", ["--initial", "1"]),
    ("protocol_demo.py", ["--initial", "2x"]),
    ("protocol_demo.py", ["--shots", "0"]),
    ("protocol_demo.py", ["--q", "1"]),
    ("export_traces.py", ["--n", "1"]),
    ("export_traces.py", ["--rounds", "0"]),
], ids=["demo-initial-short", "demo-initial-not-bits", "demo-shots-0", "demo-q-1",
        "export-n-1", "export-rounds-0"])
def test_example_scripts_refuse_bad_input_with_one_line(script, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = ["--out", str(tmp_path / "out")] if script == "export_traces.py" else []
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args, *out],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_tail_sweep_checks_every_factor_before_the_first_tail(monkeypatch, capsys):
    # a bad last factor is refused at once, not after the O(T^2) tails of the
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
