"""Measurement protocol: padding, sampling, acceptance, determinism."""
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from scipy.stats import chisquare

from hamchain import five_state as f5
from hamchain import gates, runner, walk
from hamchain.circuit import Circuit, simulate_circuit
from hamchain.gates import QubitState
from hamchain.runner import RunPlan, run


def test_plan_validation(w_circuit_2q):
    with pytest.raises(ValueError):
        RunPlan(w_circuit_2q, "ham9")
    with pytest.raises(ValueError):
        RunPlan(w_circuit_2q, "ham5", shots=0)
    with pytest.raises(ValueError):
        RunPlan(w_circuit_2q, "ham5", q=1)
    with pytest.raises(ValueError):
        RunPlan(w_circuit_2q, "ham5", tau0=0.0)
    with pytest.raises(ValueError):
        RunPlan(w_circuit_2q, "ham5", initial="012")
    with pytest.raises(ValueError):  # a 2^40 register, refused before padding
        RunPlan(Circuit(40, 1), "ham8")


@pytest.mark.parametrize("field,value", [
    ("tau0", float("inf")), ("tau0", float("nan")), ("shots", runner.MAX_SHOTS + 1),
])
def test_plan_refuses_non_finite_times_and_shots_past_the_limit(w_circuit_2q, field, value):
    with pytest.raises(ValueError):
        RunPlan(w_circuit_2q, "ham5", **{field: value})
    RunPlan(w_circuit_2q, "ham5", shots=runner.MAX_SHOTS)


def test_identity_circuit_readouts_echo_initial():
    plan = RunPlan(Circuit(2, 1), "ham5", shots=300, seed=5, initial="10")
    report = run(plan)
    assert report.acceptance_rate > 0.5
    assert set(report.histogram()) == {"10"}


def test_identity_circuit_ham8_readouts_echo_initial():
    plan = RunPlan(Circuit(2, 1), "ham8", shots=200, seed=5, initial="01")
    report = run(plan)
    assert set(report.histogram()) == {"01"}


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_w_circuit_readout_distribution(scheme, w_circuit_2q):
    plan = RunPlan(w_circuit_2q, scheme, shots=4000, seed=11, initial="10")
    report = run(plan)
    hist = report.histogram()
    total = sum(hist.values())
    assert set(hist) == {"10", "11"}
    for key in hist:
        assert abs(hist[key] / total - 0.5) < 0.05


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_acceptance_rate_matches_tail_prediction(scheme, w_circuit_2q):
    plan = RunPlan(w_circuit_2q, scheme, shots=5000, seed=3, initial="10")
    report = run(plan)
    predicted = walk.tail_prob(report.T, plan.q, report.tau0)
    se = np.sqrt(predicted * (1 - predicted) / plan.shots)
    assert abs(report.acceptance_rate - predicted) <= 3 * se


def test_reports_are_byte_deterministic(w_circuit_2q):
    a = run(RunPlan(w_circuit_2q, "ham5", shots=400, seed=42, initial="10"))
    b = run(RunPlan(w_circuit_2q, "ham5", shots=400, seed=42, initial="10"))
    assert a.serialize() == b.serialize()
    c = run(RunPlan(w_circuit_2q, "ham5", shots=400, seed=43, initial="10"))
    assert a.serialize() != c.serialize()


def test_serialized_report_structure(w_circuit_2q):
    plan = RunPlan(w_circuit_2q, "ham5", shots=10, seed=1)
    text = run(plan).serialize()
    lines = text.splitlines()
    assert lines[0] == "scheme ham5"
    for key in ("qubits", "rounds_real", "rounds_total", "q", "tau0",
                "shots", "seed", "generator", "initial", "T", "threshold"):
        assert any(line.startswith(key + " ") for line in lines)
    start = lines.index("shot_records tau t accepted readout") + 1
    stop = lines.index("histogram")
    assert stop - start == 10


def test_sampled_step_distribution_chi_square():
    """Empirical t-samples at a fixed tau follow |c_t(tau)|^2 (p > 0.001)."""
    T, tau, draws = 34, 12.5, 100_000
    probs = walk.evolve(T, tau).probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(2024)
    u = rng.random(draws)
    samples = np.searchsorted(np.cumsum(probs), u, side="right")
    counts = np.bincount(np.minimum(samples, T), minlength=T + 1)
    expected = probs * draws
    # merge bins with tiny expectation so the chi-square approximation holds
    keep = expected >= 5
    obs = np.append(counts[keep], counts[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    _, p_value = chisquare(obs, exp * obs.sum() / exp.sum())
    assert p_value > 0.001


def test_every_accepted_shot_has_all_real_gates_fired(w_circuit_2q):
    plan = RunPlan(w_circuit_2q, "ham5", shots=500, seed=9, initial="10")
    trace, _, _, last_real = runner.padded_history(plan)
    assert last_real == max(ev.step for ev in trace.events.values() if ev.round == 1)
    report = run(plan)
    for t, acc in zip(report.steps, report.accepted):
        if acc:
            assert t > last_real
            assert t >= report.threshold


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_unpadded_plan_raises_padding_error(scheme, w_circuit_2q, monkeypatch):
    # without padding the single round's last gate lies past T/6
    monkeypatch.setattr(walk, "padding_plan", lambda n, r_real, q, s: r_real)
    with pytest.raises(walk.PaddingError):
        run(RunPlan(w_circuit_2q, scheme, q=6, shots=10, seed=1))


def test_engine_disagreeing_with_closed_form_raises_padding_error(w_circuit_2q, monkeypatch):
    monkeypatch.setattr(f5, "last_gate_step5", lambda n, r: 0)
    with pytest.raises(walk.PaddingError, match="closed forms"):
        runner.padded_history(RunPlan(w_circuit_2q, "ham5", shots=10, seed=1))


def _random_circuits(count: int, seed: int):
    rng = random.Random(seed)
    letters = {"W": gates.W, "S": gates.SWAP, "I": None}
    for _ in range(count):
        n, R = rng.randint(2, 4), rng.randint(1, 3)
        slots = {(r, i): letters[rng.choice("WSI")]
                 for r in range(1, R + 1) for i in range(1, n)}
        initial = "".join(rng.choice("01") for _ in range(n))
        yield Circuit(n, R, {k: g for k, g in slots.items() if g is not None}), initial


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_register_after_last_real_gate_is_the_circuit_output(scheme):
    # the one register the runner reads out is the circuit's output state
    for circuit, initial in _random_circuits(8, seed=5):
        plan = RunPlan(circuit, scheme, shots=1, seed=0, initial=initial)
        history, _, register, last_real = runner.padded_history(plan)
        assert 0 <= last_real < history.T
        want = simulate_circuit(circuit, QubitState.basis(initial))
        assert np.max(np.abs(register.amps - want.amps)) <= 1e-12


def test_importing_the_package_does_not_import_scipy():
    # the package needs no scipy at run time (tests and the benchmark use it
    # as an oracle), so no process should pay for importing it
    src = str(Path(runner.__file__).resolve().parents[1])
    code = ("import sys, hamchain, hamchain.cli, hamchain.subspace; "
            "sys.exit('scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def test_sample_and_evolve_do_not_import_scipy(tmp_path):
    circuit = tmp_path / "w.txt"
    circuit.write_text("QUBITS 2\nROUNDS 1\nGATE W 1 1\n")
    src = str(Path(runner.__file__).resolve().parents[1])
    code = ("import sys; from hamchain import cli; "
            "a = cli.main(['sample', sys.argv[1], '--scheme', 'ham8', '--shots', '50', "
            "'--seed', '0', '--out', sys.argv[2] + '/r.txt']); "
            "b = cli.main(['evolve', '--T', '50', '--taus', '0,1', '--out', sys.argv[2] + '/e.csv']); "
            "print(a, b, 'scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, str(circuit), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout == "0 0 False\n", done.stderr


@pytest.mark.parametrize("T", [220, 1719, 2962])
def test_step_cdfs_bit_identical_to_per_row_cumsum(T):
    # one full batch and a partial one
    taus = np.random.default_rng(T).uniform(
        0.0, walk.default_tau0(T), walk.PROPAGATE_BYTES // (16 * (T + 2)) + 5)
    cdfs = list(walk.propagate(T, taus, runner.step_cdfs))
    assert len(cdfs) == len(taus)
    for amps, cdf in zip(walk.propagate(T, taus), cdfs):
        probs = np.abs(amps) ** 2
        assert np.array_equal(cdf, np.cumsum(probs / probs.sum()))


def test_sampled_steps_match_the_complex_dst_oracle():
    # the `shots` workload's ham8 n=2 shape (T=1719, T+2 prime): every shot
    # draws the step that its uniform picks from the complex oracle's CDF
    plan = RunPlan(Circuit(2, 2), "ham8", shots=3000, seed=0)
    report = run(plan)
    rng = np.random.default_rng(plan.seed)
    taus = rng.uniform(0.0, report.tau0, plan.shots)
    u_step = rng.random(plan.shots)
    assert np.array_equal(taus, report.taus)
    T = report.T
    k = np.arange(1, T + 2)
    lam = -2.0 * np.cos(k * np.pi / (T + 2))
    sin0 = np.sin(k * np.pi / (T + 2))
    for tau, u, t in zip(taus, u_step, report.steps):
        probs = np.abs(scipy.fft.dst(np.exp(-1j * lam * tau) * sin0, type=1)) ** 2
        want = np.searchsorted(np.cumsum(probs / probs.sum()), u, side="right")
        assert t == min(want, T)
