"""Command-line front end: subcommands, exit codes, byte-stable outputs."""
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hamchain import cli
from hamchain import eight_state as e8
from hamchain import five_state as f5
from hamchain import walk

WS_CIRCUIT = """QUBITS 3
ROUNDS 2
GATE W 1 1
GATE S 1 2
GATE S 2 1
GATE W 2 2
"""

W_CIRCUIT = """QUBITS 2
ROUNDS 1
GATE W 1 1
"""


@pytest.fixture
def ws_file(tmp_path):
    p = tmp_path / "ws.txt"
    p.write_text(WS_CIRCUIT)
    return str(p)


@pytest.fixture
def w_file(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text(W_CIRCUIT)
    return str(p)


def test_trace_ham5_matches_golden(ws_file, tmp_path, fixtures_dir):
    out = tmp_path / "trace.txt"
    assert cli.main(["trace", ws_file, "--scheme", "ham5", "--out", str(out)]) == 0
    assert out.read_text() == (fixtures_dir / "ham5_n3r2.txt").read_text()


def test_trace_ham8_length(ws_file, tmp_path):
    out = tmp_path / "trace8.txt"
    assert cli.main(["trace", ws_file, "--scheme", "ham8", "--out", str(out)]) == 0
    assert out.read_text().count("[") == 155


def test_trace_identity_circuit_has_formula_length(tmp_path):
    p = tmp_path / "id.txt"
    p.write_text("QUBITS 3\nROUNDS 2\n")
    out = tmp_path / "t.txt"
    assert cli.main(["trace", str(p), "--scheme", "ham5", "--out", str(out)]) == 0
    T = f5.enumerate_history5(3, 2).T
    assert len(out.read_text().splitlines()) == T + 1


def test_trace_ham5_rejects_periodic_x(ws_file, capsys):
    # ham5 has no ring variant: the flag is refused, not ignored
    assert cli.main(["trace", ws_file, "--scheme", "ham5", "--periodic-x"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_sample_refuses_a_register_over_budget(scheme, tmp_path):
    # 2^40 amplitudes would take 16 TiB; the run must end before allocating
    circuit = tmp_path / "big.txt"
    circuit.write_text("QUBITS 40\nROUNDS 1\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "hamchain.cli", "sample", str(circuit),
         "--scheme", scheme, "--seed", "0"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def _limit_address_space():
    # a refusal that regresses into an allocation fails with MemoryError
    # instead of taking the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


@pytest.mark.parametrize("argv", [
    ["sample", "W", "--scheme", "ham5", "--seed", "0", "--tau0", "inf"],
    ["evolve", "--T", "3", "--taus", "nan,inf"],
    ["sample", "BIG", "--scheme", "ham8", "--seed", "0"],
    ["trace", "BIG", "--scheme", "ham5"],
    ["evolve", "--T", "1000000000", "--taus", "1"],
    ["evolve", "--T", "-1", "--taus", "1"],
    ["sample", "W", "--scheme", "ham5", "--seed", "0", "--shots", "100000000000"],
    ["evolve", "BIG", "--scheme", "ham8", "--taus", "1"],
    ["sample", "W", "--scheme", "ham5", "--seed", "0", "--q", "1000000"],
    ["evolve", "W", "--taus", "1"],
], ids=["tau0-inf", "taus-non-finite", "rounds-past-max-T", "trace-past-max-T",
        "T-past-max-T", "T-negative", "shots-past-max", "evolve-past-max-T",
        "sample-past-max-cell-steps", "evolve-circuit-without-scheme"])
def test_refused_input_exits_2_with_one_line(argv, tmp_path):
    files = {"W": W_CIRCUIT, "BIG": "QUBITS 2\nROUNDS 1000000000\nGATE W 1 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "hamchain.cli", *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_evolve_tau_zero_row(tmp_path):
    out = tmp_path / "e.csv"
    assert cli.main(["evolve", "--T", "3", "--taus", "0,1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,m,p"
    assert lines[1].startswith("0,0,1")
    for tau in ("0", "1"):
        total = sum(float(l.split(",")[2]) for l in lines[1:] if l.startswith(tau + ","))
        assert abs(total - 1.0) <= 1e-9


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_evolve_of_a_circuit_equals_evolve_of_its_length(scheme, ws_file, tmp_path):
    T = walk.enumerate_history(scheme, cli._read_circuit(ws_file)).T
    by_circuit, by_length = tmp_path / "c.csv", tmp_path / "t.csv"
    taus = ["--taus", "0,2.5,40"]
    assert cli.main(["evolve", ws_file, "--scheme", scheme, *taus,
                     "--out", str(by_circuit)]) == 0
    assert cli.main(["evolve", "--T", str(T), *taus, "--out", str(by_length)]) == 0
    assert by_circuit.read_bytes() == by_length.read_bytes()


def test_evolve_of_a_circuit_steps_no_machine(ws_file, monkeypatch):
    def no_step(c):
        raise AssertionError("stepped")

    monkeypatch.setattr(f5, "forward_step5", no_step)
    monkeypatch.setattr(e8, "forward_step8", no_step)
    for scheme in ("ham5", "ham8"):
        assert cli.main(["evolve", ws_file, "--scheme", scheme, "--taus", "1",
                         "--out", os.devnull]) == 0


def test_evolve_ham8_refuses_a_letter_outside_wsi(tmp_path, capsys):
    p = tmp_path / "z.txt"
    p.write_text("QUBITS 2\nROUNDS 1\nGATE Z 1 1\n")
    assert cli.main(["evolve", str(p), "--scheme", "ham8", "--taus", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: gate Z at (1,1) is outside {W,S,I}; rewrite the circuit first\n"


def test_evolve_of_a_circuit_needs_a_scheme(w_file, capsys):
    assert cli.main(["evolve", w_file, "--taus", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: evolve of a circuit needs --scheme ham5 or ham8\n"


def test_evolve_requires_circuit_or_T(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", "--taus", "1"])
    assert exc.value.code == 2


def test_evolve_bad_grid_exits_2(tmp_path):
    assert cli.main(["evolve", "--T", "3", "--taus", "abc"]) == 2


def test_sample_deterministic(w_file, tmp_path):
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        assert cli.main(["sample", w_file, "--scheme", "ham5", "--seed", "7",
                         "--shots", "200", "--initial", "10",
                         "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_sample_rewrites_on_request(tmp_path):
    p = tmp_path / "zc.txt"
    p.write_text("QUBITS 2\nROUNDS 1\nGATE Z 1 1\n")
    out = tmp_path / "s.txt"
    # ham8 rejects Z directly ...
    assert cli.main(["sample", str(p), "--scheme", "ham8", "--seed", "1",
                     "--shots", "20", "--out", str(out)]) == 2
    # ... but accepts it after the rewrite pre-pass (q=2 keeps the padded
    # history short enough for the dense spectral sampler)
    assert cli.main(["sample", str(p), "--scheme", "ham8", "--seed", "1",
                     "--shots", "20", "--q", "2", "--rewrite",
                     "--out", str(out)]) == 0
    assert "histogram" in out.read_text()


def test_rewrite_subcommand(tmp_path):
    p = tmp_path / "zc.txt"
    p.write_text("QUBITS 3\nROUNDS 1\nGATE Z 1 1\nGATE CX 1 2\n")
    out = tmp_path / "rw.txt"
    assert cli.main(["rewrite", str(p), "--out", str(out)]) == 0
    text = out.read_text()
    assert "GATE Z" not in text and "GATE CX" not in text
    assert text.count("GATE") == 16 + 19


def test_rewrite_unsupported_gate_exits_2(tmp_path):
    p = tmp_path / "h.txt"
    p.write_text("QUBITS 2\nROUNDS 1\nGATE H 1 1\n")
    assert cli.main(["rewrite", str(p)]) == 2


def test_parse_error_exits_2(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("QUBITS 2\nROUNDS 1\nGATE QQ 1 1\n")
    assert cli.main(["trace", str(p), "--scheme", "ham5"]) == 2


def test_missing_file_exits_2(tmp_path):
    assert cli.main(["trace", str(tmp_path / "nope.txt"), "--scheme", "ham5"]) == 2


def test_verify_subspace_scope_passes(tmp_path):
    out = tmp_path / "v.txt"
    assert cli.main(["verify", "--scope", "subspace", "--out", str(out)]) == 0
    assert out.read_text().rstrip().endswith("verify subspace: PASS")


def test_verify_formulas_reports_known_discrepancy(tmp_path, monkeypatch):
    # the exact closed forms pass on every row of the sweep
    out = tmp_path / "v.txt"
    assert cli.main(["verify", "--scope", "formulas", "--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines()
            if line.startswith("formula ")]
    assert rows and all(line.endswith("PASS") for line in rows)
    # so do the last-gate steps that padding relies on
    last_gate = [line for line in out.read_text().splitlines()
                 if line.startswith("last-gate ")]
    assert {line.split()[1] for line in last_gate} == {"ham5", "ham8"}
    assert all(line.endswith("PASS") for line in last_gate)
    # the quoted 5-state closed form falls short of the engine count by R-2,
    # so with it injected the sweep fails on exactly the ham5 rows with R != 2
    monkeypatch.setattr(cli.f5, "step_count_formula5",
                        lambda n, R: (R - 1) * (3 * n * n + n) + n + 1)
    assert cli.main(["verify", "--scope", "formulas", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[-1] == "verify formulas: FAIL"
    for line in lines:
        if line.startswith(("formula ham8", "last-gate ")):
            assert line.endswith("PASS")
        elif line.startswith("formula ham5"):
            r = int(line.split("R=")[1].split(":")[0])
            assert line.endswith("PASS" if r == 2 else "FAIL")


def test_verify_fails_on_fault_injection(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.gates, "check_identity", lambda seq, target: 1.0)
    out = tmp_path / "v.txt"
    assert cli.main(["verify", "--scope", "identities", "--out", str(out)]) == 1
    assert "FAIL" in out.read_text()


def test_verify_identities_scope(tmp_path):
    out = tmp_path / "vi.txt"
    assert cli.main(["verify", "--scope", "identities", "--out", str(out)]) == 0
    text = out.read_text()
    assert "identity W^8" in text and "FAIL" not in text


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc("refused")
    return fn


@pytest.mark.parametrize("module,name,exc,argv", [
    (cli, "run", walk.PaddingError, ["sample", "--scheme", "ham5", "--seed", "1"]),
    (f5, "enumerate_history5", f5.RuleEngineError, ["trace", "--scheme", "ham5"]),
    (e8, "enumerate_history8", e8.RuleEngineError, ["trace", "--scheme", "ham8"]),
], ids=["padding", "ham5-engine", "ham8-engine"])
def test_engine_and_padding_errors_exit_2(module, name, exc, argv, w_file,
                                          monkeypatch, capsys):
    monkeypatch.setattr(module, name, _raise(exc))
    assert cli.main([argv[0], w_file, *argv[1:]]) == 2
    assert capsys.readouterr().err == "error: refused\n"
