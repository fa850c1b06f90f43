"""Smoke tests of the example scripts."""
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
    for name in ("ham5_events.txt", "ham8_trace.txt", "ham8_events.txt"):
        assert (tmp_path / name).stat().st_size > 0


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
], ids=["factor-0", "T-0", "q-1", "factor-inf", "factor-nan"])
def test_tail_sweep_refuses_bad_input_with_one_line(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tail_probability_sweep.py"), *args],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
