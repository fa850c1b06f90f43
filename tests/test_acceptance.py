"""Acceptance gate: nine criteria, one PASS/FAIL line each (run with -s to
see lines for passing criteria; pytest prints them automatically on failure).

Criterion 1 checks the engines against closed forms derived independently
of them.  For the 5-state machine that is T = (R-1)(3n^2+n+1) + n, from a
per-round tally of rule firings (see five_state.step_count_formula5).  The
quoted form (R-1)(3n^2+n)+n+1 is an erratum: it falls short of the
enumerated count by R-2, while the engine reproduces the reference worked
trace bit-exactly.  The engine counts and the rule tally are locked down in
test_ham5.py.
"""
import numpy as np
from scipy.integrate import solve_ivp

from hamchain import cli
from hamchain import eight_state as e8
from hamchain import five_state as f5
from hamchain import gates, subspace, walk
from hamchain.circuit import Circuit, simulate_circuit
from hamchain.gates import QubitState
from hamchain.machine import Stepper
from hamchain.runner import RunPlan, run

import oracles
from oracles import matches

WS_3Q2R = Circuit(3, 2, {(1, 1): gates.W, (1, 2): gates.SWAP,
                         (2, 1): gates.SWAP, (2, 2): gates.W})
W_2Q = Circuit(2, 1, {(1, 1): gates.W})


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    suffix = f" ({detail})" if detail else ""
    print(f"{criterion}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def test_criterion_1_step_count_formulas():
    bad = []
    for n in range(2, 6):
        for R in range(1, 5):
            T = f5.enumerate_history5(n, R).T
            if T != f5.step_count_formula5(n, R):
                bad.append(f"ham5 n={n} R={R}: engine {T} != formula "
                           f"{f5.step_count_formula5(n, R)}")
    for n in range(2, 5):
        for R in range(1, 4):
            T = e8.enumerate_history8(Circuit(n, R)).T
            if T != e8.step_count_formula8(n, R):
                bad.append(f"ham8 n={n} R={R}: engine {T} != formula "
                           f"{e8.step_count_formula8(n, R)}")
    ok = _report("criterion 1 (step-count formulas)", not bad,
                 f"{len(bad)} mismatching rows" if bad else "all rows exact")
    assert ok, "\n".join(bad)


def test_criterion_2_golden_traces(fixtures_dir):
    tr5 = f5.enumerate_history5(3, 2)
    configs5 = list(tr5.configs())
    ok5 = "".join(tr5.dump()) == (fixtures_dir / "ham5_n3r2.txt").read_text()
    ok5 = ok5 and len(configs5) == 35
    tr8 = e8.enumerate_history8(WS_3Q2R)
    configs8 = list(tr8.configs())
    steps = ([0, 1, 2] + list(range(9, 14)) + list(range(26, 31))
             + list(range(38, 43)) + list(range(55, 60)) + [154])
    got = "".join(configs8[t].dump_block(t) for t in steps)
    ok8 = (got == (fixtures_dir / "ham8_n3r2_reference.txt").read_text()
           and len(configs8) == 155)
    ok = _report("criterion 2 (golden traces)", ok5 and ok8)
    assert ok


def test_criterion_3_rule_sanity():
    ok = True
    for scheme, tr in (("ham5", f5.enumerate_history5(3, 2)),
                       ("ham5", f5.enumerate_history5(2, 3)),
                       ("ham8", e8.enumerate_history8(WS_3Q2R)),
                       ("ham8", e8.enumerate_history8(W_2Q))):
        mod = f5 if scheme == "ham5" else e8
        configs = list(tr.configs())
        keys = [c.symbols if scheme == "ham5" else (c.cursors, c.progs)
                for c in configs]
        ok &= len(set(keys)) == len(keys)
        for t, c in enumerate(configs):
            fwd = Stepper(mod.MACHINE, c).step() if scheme == "ham8" else None
            if scheme == "ham5":
                ok &= len(matches(Stepper(f5.MACHINE, c), False)) == (0 if t == tr.T else 1)
                ok &= len(matches(Stepper(f5.MACHINE, c), True)) == (0 if t == 0 else 1)
            else:
                ok &= (fwd is None) == (t == tr.T)
                ok &= (Stepper(mod.MACHINE, c).step(reverse=True) is None) == (t == 0)
    ok = _report("criterion 3 (rule sanity)", ok)
    assert ok


def test_criterion_4_gate_identities():
    ok = True
    for seq, target in gates.IDENTITIES.values():
        ok &= gates.check_identity(seq, target) <= 1e-12
    ok &= np.max(np.abs(np.linalg.matrix_power(gates.W.matrix, 8) - np.eye(4))) <= 1e-12
    ok = _report("criterion 4 (gate identities)", ok)
    assert ok


def test_criterion_5_subspace_certification():
    rep5 = subspace.certify_subspace("ham5", WS_3Q2R)
    rep8 = subspace.certify_subspace("ham8", W_2Q)
    ok = (rep5.passed and len(rep5.lines) == 35
          and rep8.passed and len(rep8.lines) == 19)
    ok = _report("criterion 5 (subspace certification)", ok)
    assert ok


def test_criterion_6_walk_vs_ode_oracle():
    ok = True
    for T in (1, 18, 34, 154):
        h = oracles.hopping_matrix(T)
        c0 = np.eye(T + 1, dtype=complex)[0]
        sol = solve_ivp(lambda _, c: -1j * (h @ c), (0.0, 100.0), c0,
                        method="DOP853", rtol=1e-12, atol=1e-12,
                        t_eval=[1.0, 10.0, 100.0])
        for i, tau in enumerate((1.0, 10.0, 100.0)):
            amps = oracles.amplitudes(T, tau)
            ok &= float(np.max(np.abs(amps - sol.y[:, i]))) <= 1e-8
            ok &= abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-9
        ok &= abs(np.sum(oracles.avg_prob_all(T, 10.0 * T)) - 1.0) <= 1e-9
    ok = _report("criterion 6 (walk vs ODE oracle)", ok)
    assert ok


def test_criterion_7_tail_probability_bound():
    """Tail bound at q=6, T=154 with constants frozen before the test run.

    The residual tail(tau0) - tail(inf) is oscillatory inside its O(1/tau0)
    envelope, so a two-point doubling ratio is meaningless (it can land on a
    zero crossing); the O(1/tau0) scaling is measured on the mean |residual|
    over a +-10% window of tau0 values, which averages out the oscillation.
    """
    T, q = 154, 6
    limit = walk.tail_prob_limit(T, q)
    ok = abs(limit - 0.8301282051282051) <= 1e-12
    ok &= limit >= 5.0 / 6.0 - 0.004  # frozen delta; measured deficit 0.0032051
    resid = [abs(walk.tail_prob(T, q, f * T) - limit) for f in (10.0, 100.0, 1000.0)]
    ok &= resid[0] > resid[1] > resid[2]  # nondecreasingly close to the limit

    def windowed_mean_residual(tau0: float, samples: int = 400) -> float:
        grid = np.linspace(0.9 * tau0, 1.1 * tau0, samples)
        return float(np.mean([abs(walk.tail_prob(T, q, t) - limit) for t in grid]))

    ratio = windowed_mean_residual(100.0 * T) / windowed_mean_residual(200.0 * T)
    ok &= 1.5 <= ratio <= 2.5
    ok = _report("criterion 7 (tail probability bound)", ok,
                 f"limit={limit:.10f}, doubling ratio={ratio:.2f}")
    assert ok


def test_criterion_8_end_to_end():
    ok = True
    details = []
    ideal = simulate_circuit(W_2Q, QubitState.basis("10"))
    ideal_p = np.abs(ideal.amps) ** 2
    for scheme in ("ham5", "ham8"):
        plan = RunPlan(W_2Q, scheme, q=6, shots=10_000, seed=17, initial="10")
        report = run(plan)
        hist = report.histogram()
        total = sum(hist.values())
        emp = np.zeros(4)
        for key, cnt in hist.items():
            emp[int(key, 2)] = cnt / total
        tv = 0.5 * float(np.sum(np.abs(emp - ideal_p)))
        predicted = walk.tail_prob(report.T, plan.q, report.tau0)
        se = np.sqrt(predicted * (1 - predicted) / plan.shots)
        dev = abs(report.acceptance_rate - predicted)
        ok &= tv <= 0.05 and dev <= 3 * se
        details.append(f"{scheme}: TV={tv:.4f}, |acc-pred|/se={dev / se:.2f}")
    ok = _report("criterion 8 (end-to-end protocol)", ok, "; ".join(details))
    assert ok


def test_criterion_9_determinism(tmp_path):
    circ = tmp_path / "w.txt"
    circ.write_text("QUBITS 2\nROUNDS 1\nGATE W 1 1\n")
    texts = []
    for name in ("r1.txt", "r2.txt"):
        out = tmp_path / name
        code = cli.main(["sample", str(circ), "--scheme", "ham5", "--seed", "123",
                         "--shots", "500", "--initial", "10", "--out", str(out)])
        assert code == 0
        texts.append(out.read_text())
    ok = _report("criterion 9 (determinism)", texts[0] == texts[1])
    assert ok
