"""Command-line front end: subcommands, exit codes, byte-stable outputs."""
import argparse
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hamchain import cli
from hamchain import eight_state as e8
from hamchain import five_state as f5
from hamchain import gates, machine, subspace, walk

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

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

BIG_CIRCUIT = "QUBITS 2\nROUNDS 1000000000\nGATE W 1 1\n"

# a Toffoli slot, which no ham5 gate term carries
TOFFOLI_CIRCUIT = "QUBITS 3\nROUNDS 1\nGATE T 1 1\n"


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
    assert err == "error: ham5 has only the open chain, not boundary 'periodic-x'\n"


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
    ["sample", "W", "--scheme", "ham8", "--seed", "1", "--tau0", "1e308"],
    ["evolve", "--T", "5", "--taus", "1e308"],
    ["sample", "W", "--scheme", "ham5", "--seed", "0", "--out", "."],
    ["trace", ".", "--scheme", "ham8"],
    ["evolve", "--T", "0", "--taus", "1"],
    ["evolve", "--T", "3", "--taus", "1,,2"],
    ["evolve", "W", "--scheme", "ham8", "--T", "3", "--taus", "1"],
    ["sample", "W", "--scheme", "ham5"],
    ["evolve", "--taus", "1"],
    ["trace", "TWICE", "--scheme", "ham5"],
    ["trace", "RANGE", "--scheme", "ham8"],
    ["sample", "TOFFOLI", "--scheme", "ham5", "--seed", "0"],
    ["trace", "TOFFOLI", "--scheme", "ham5"],
    ["evolve", "TOFFOLI", "--scheme", "ham5", "--taus", "1"],
    ["evolve", "--T", "5", "--taus", "1", "--scheme", "ham5"],
], ids=["tau0-inf", "taus-non-finite", "rounds-past-max-T", "trace-past-max-T",
        "T-past-max-T", "T-negative", "shots-past-max", "evolve-past-max-T",
        "sample-past-max-cell-steps", "evolve-circuit-without-scheme",
        "tau0-overflows", "taus-overflow", "out-is-a-directory", "circuit-is-a-directory",
        "T-zero", "taus-empty-entry", "evolve-circuit-and-T", "missing-seed",
        "evolve-without-circuit-or-T", "repeated-header", "slot-out-of-range",
        "ham5-toffoli-sample", "ham5-toffoli-trace", "ham5-toffoli-evolve",
        "evolve-T-and-scheme"])
def test_refused_input_exits_2_with_one_line(argv, tmp_path):
    files = {"W": W_CIRCUIT, "BIG": BIG_CIRCUIT,
             "TWICE": "QUBITS 2\nROUNDS 1\nQUBITS 3\n",
             "RANGE": "QUBITS 2\nROUNDS 1\nGATE W 2 1\n",
             "TOFFOLI": TOFFOLI_CIRCUIT}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    done = _run_under_memory_limit(argv, tmp_path)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    # a refusal that allocated past the limit would also exit 2, with this line
    assert "out of memory" not in done.stderr


@pytest.mark.parametrize("argv", [
    ["sample", "--scheme", "ham5", "--seed", "0"],
    ["trace", "--scheme", "ham5"],
    ["evolve", "--scheme", "ham5", "--taus", "1"],
], ids=["sample", "trace", "evolve"])
def test_ham5_refuses_a_toffoli_before_any_step(argv, tmp_path, monkeypatch, capsys):
    def no_step(self, reverse=False):
        raise AssertionError("stepped")

    monkeypatch.setattr(machine.Stepper, "step", no_step)
    why = "gate T at (1,1) acts on 3 qubits; a ham5 slot gate acts on at most two"
    path = tmp_path / "t.txt"
    path.write_text(TOFFOLI_CIRCUIT)
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {why}\n")


def test_sample_refuses_a_negative_seed_by_name(ws_file, capsys):
    # the refusal names the seed, not the generator's own complaint
    assert cli.main(["sample", ws_file, "--scheme", "ham5", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: seed must be a non-negative integer, got -1\n")


# one stored gate in 10^9 declared slots: rewriting it costs what the file
# stores, not 10^9 slot visits
Z_WORD = "SWWWWSWWWWSWWWWS"


@pytest.mark.parametrize("argv,text,want", [
    (["rewrite"], BIG_CIRCUIT, "QUBITS 2\nROUNDS 1\nGATE W 1 1\n"),
    (["rewrite"], "QUBITS 1000000000\nROUNDS 1\nGATE Z 1 1\n",
     "QUBITS 1000000000\nROUNDS 16\n"
     + "".join(f"GATE {g} {r} 1\n" for r, g in enumerate(Z_WORD, 1))),
    (["sample", "--scheme", "ham5", "--seed", "0", "--rewrite"], BIG_CIRCUIT, None),
], ids=["rewrite-many-rounds", "rewrite-many-qubits", "sample-rewrite-many-rounds"])
def test_rewrite_costs_the_stored_gates_not_the_declared_slots(argv, text, want, tmp_path):
    (tmp_path / "C").write_text(text)
    if want is None:  # the report of the one-round circuit that C rewrites to
        (tmp_path / "W").write_text(W_CIRCUIT)
        out = tmp_path / "want"
        assert cli.main([argv[0], str(tmp_path / "W"), *argv[1:], "--out", str(out)]) == 0
        want = out.read_text()
    done = _run_under_memory_limit([argv[0], "C", *argv[1:]], tmp_path, timeout=20)
    assert done.returncode == 0, done.stderr
    assert (done.stdout, done.stderr) == (want, "")


def test_out_of_memory_exits_2_with_one_line(tmp_path):
    # not a refusal: T = MAX_T is accepted, but its FFT (T+2 = 2*3*2796203,
    # numpy's Bluestein path) needs more than the limit
    done = _run_under_memory_limit(["evolve", "--T", "16777216", "--taus", "1"], tmp_path)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == "error: out of memory\n"


def _run_under_memory_limit(argv, cwd, timeout=60):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "hamchain.cli", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=timeout, preexec_fn=_limit_address_space)


def test_tail_sweep_out_of_memory_exits_2_with_one_line(tmp_path):
    # the sweep maps MemoryError through the handler `cli.main` uses:
    # `tail_prob` needs about 590 bytes per T, past the limit at MAX_T
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "tail_probability_sweep.py"), "--T", "16777216"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == "error: out of memory\n"


@pytest.mark.parametrize("argv,first", [
    (["-m", "hamchain.cli", "trace", "C", "--scheme", "ham8"], b"[0]\n"),
    ([str(SCRIPTS / "protocol_demo.py"), "--shots", "200"], None),
    ([str(SCRIPTS / "export_traces.py"), "--out", "traces"], None),
    ([str(SCRIPTS / "tail_probability_sweep.py")], None),
], ids=["trace", "protocol_demo", "export_traces", "tail_sweep"])
def test_closed_stdout_pipe_ends_quietly(argv, first, tmp_path):
    # `trace ... | head -1`: the dump is far larger than a pipe's buffer, so
    # the trace is still writing when the reader closes its end.  A script's
    # output fits the buffer, so the reader closes before the script writes
    (tmp_path / "C").write_text("QUBITS 3\nROUNDS 8\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen([sys.executable, *argv], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if first is not None:
        assert proc.stdout.readline() == first
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


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
    def no_stepper(self, m, c):
        raise AssertionError("stepped")

    monkeypatch.setattr(machine.Stepper, "__init__", no_stepper)
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


def test_evolve_requires_circuit_or_T(w_file, capsys):
    # one argparse group takes exactly one of them: neither, then both
    for argv in (["--taus", "1"], [w_file, "--scheme", "ham5", "--T", "3", "--taus", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", *argv])
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and "--T" in err, err


def test_evolve_bad_grid_exits_2(w_file, capsys):
    cases = [
        (["--T", "0", "--taus", "1"], f"--T must lie in 1..{walk.MAX_T}, got 0"),
        (["W", "--taus", "1"], "evolve of a circuit needs --scheme ham5 or ham8"),
        (["--T", "3", "--taus", "1,,2"], "bad tau grid: empty entry in '1,,2'"),
        (["--T", "3", "--taus", "abc"],
         "bad tau grid: could not convert string to float: 'abc'"),
        (["--T", "3", "--taus", "inf"], "bad tau grid: times must be finite"),
    ]
    for argv, err in cases:
        argv = [w_file if arg == "W" else arg for arg in argv]
        assert cli.main(["evolve", *argv]) == 2, argv
        assert capsys.readouterr() == ("", f"error: {err}\n"), argv


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


def test_verify_subspace_prints_a_failing_rows_certificate_lines_under_it(tmp_path, monkeypatch):
    # without ham8's rule 1b both ham8 certificates miss a neighbour; each
    # failing row carries its certificate's failing lines, the ham5 rows pass
    monkeypatch.setattr(subspace, "local_terms", lambda m, c0: [
        t for t in machine.local_terms(m, c0) if (m, t.rule.name) != (e8.MACHINE, "1b")])
    out = tmp_path / "v.txt"
    assert cli.main(["verify", "--scope", "subspace", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[-1] == "verify subspace: FAIL"
    rows = [i for i, line in enumerate(lines) if line.startswith("subspace ")]
    assert [lines[i].split()[1] + " " + lines[i].split()[-1] for i in rows] == [
        "ham5 PASS", "ham8 FAIL", "ham8 FAIL", "ham5 PASS"]
    for i, end in zip(rows, rows[1:] + [len(lines) - 1]):
        details = lines[i + 1:end]
        if lines[i].endswith("FAIL"):
            assert details
            assert all(d.startswith("  t=") and " FAIL: " in d for d in details)
        else:
            assert details == []


def test_verify_all_runs_every_scope_of_the_table_in_order(tmp_path):
    outputs = []
    for scope in cli.VERIFY_SCOPES:
        out = tmp_path / f"{scope}.txt"
        assert cli.main(["verify", "--scope", scope, "--out", str(out)]) == 0
        outputs += out.read_text().splitlines()[:-1]
    out = tmp_path / "all.txt"
    assert cli.main(["verify", "--scope", "all", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == outputs + ["verify all: PASS"]
    verify = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices["verify"]
    scope = next(a for a in verify._actions if a.dest == "scope")
    assert list(scope.choices) == [*cli.VERIFY_SCOPES, "all"]


@pytest.mark.parametrize("scheme,text", [
    ("ham8", "QUBITS 2\nROUNDS 2\nGATE W 1 1\nGATE S 2 1\n"),
    ("ham5", WS_CIRCUIT),
], ids=["ham8", "ham5"])
def test_verify_subspace_certifies_the_padded_instance_sample_runs(scheme, text, tmp_path):
    # verify's padded cases are the instances `sample` runs at its default q
    circuit, report, out = tmp_path / "c.txt", tmp_path / "r.txt", tmp_path / "v.txt"
    circuit.write_text(text)
    assert cli.main(["sample", str(circuit), "--scheme", scheme, "--seed", "0",
                     "--shots", "1", "--out", str(report)]) == 0
    fields = dict(line.split(" ", 1) for line in report.read_text().splitlines()[:12])
    assert int(fields["rounds_total"]) > int(fields["rounds_real"])
    assert cli.main(["verify", "--scope", "subspace", "--out", str(out)]) == 0
    assert (f"subspace {scheme} n={fields['qubits']} R={fields['rounds_total']}: PASS"
            in out.read_text().splitlines())


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
    monkeypatch.setattr(f5, "step_count_formula5",
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
    monkeypatch.setattr(gates, "check_identity", lambda seq, target: 1.0)
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
