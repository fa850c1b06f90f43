"""Certification that local terms act as the hopping matrix on dressed states."""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamchain import eight_state as e8
from hamchain import five_state as f5
from hamchain import gates, subspace, walk
from hamchain.circuit import Circuit
from hamchain.gates import QubitState


def test_certify_ham5_reference_instance(ws_circuit_3q2r):
    rep = subspace.certify_subspace("ham5", ws_circuit_3q2r)
    assert rep.passed
    assert len(rep.lines) == 35


def test_certify_ham8_minimal_instance(w_circuit_2q):
    rep = subspace.certify_subspace("ham8", w_circuit_2q)
    assert rep.passed
    assert len(rep.lines) == 19


def test_certify_with_superposed_register(w_circuit_2q):
    init = QubitState(2, np.ones(4, dtype=complex) / 2.0)
    assert subspace.certify_subspace("ham5", w_circuit_2q, init).passed
    assert subspace.certify_subspace("ham8", w_circuit_2q, init).passed


def test_apply_h5_at_endpoints(w_circuit_2q):
    trace = f5.enumerate_history5(2, 1)
    configs = list(trace.configs())
    terms = f5.local_terms5(2, 1, w_circuit_2q)
    s0 = subspace.DressedState(configs[0], QubitState.basis("00"))
    images = subspace.apply_H5(terms, s0)
    assert len(images) == 1
    weight, ds = images[0]
    assert weight == -1.0 and ds.pattern == configs[1]


def test_apply_h5_interior_has_two_neighbors(w_circuit_2q):
    trace = f5.enumerate_history5(2, 1)
    configs = list(trace.configs())
    terms = f5.local_terms5(2, 1, w_circuit_2q)
    s = subspace.DressedState(configs[1], QubitState.basis("00"))
    patterns = {ds.pattern for _, ds in subspace.apply_H5(terms, s)}
    assert patterns == {configs[0], configs[2]}


def test_apply_h8_annihilates_cursorless_pattern(w_circuit_2q):
    c0 = e8.initial_config8(w_circuit_2q)
    dead = e8.Config8(c0.layout, c0.boundary, (e8.STAR,) * c0.ncells,
                      c0.progs, c0.datas)
    terms = e8.local_terms8(w_circuit_2q)
    s = subspace.DressedState(dead, QubitState.basis("00"))
    assert subspace.apply_H8(terms, s) == []


def test_fault_injected_term_table_fails(w_circuit_2q, monkeypatch):
    # corrupt one ham5 gate term: wrong unitary on the gate slot
    good_terms = f5.local_terms5(2, 1, w_circuit_2q)
    bad_terms = [
        dataclasses.replace(t, unitary=np.kron(gates.Z.matrix, np.eye(2)))
        if t.rule == "1" else t
        for t in good_terms
    ]
    monkeypatch.setattr(f5, "local_terms5", lambda *a, **k: bad_terms)
    # start from |10> so the control qubit is live and W and the corrupted
    # unitary actually disagree
    rep = subspace.certify_subspace("ham5", w_circuit_2q, QubitState.basis("10"))
    assert not rep.passed
    assert any("FAIL" in line for line in rep.lines)


def test_dropped_rule_fails_with_missing_neighbor(w_circuit_2q, monkeypatch):
    good_terms = [t for t in e8.local_terms8(w_circuit_2q) if t.rule != "1b"]
    monkeypatch.setattr(e8, "local_terms8", lambda *a, **k: good_terms)
    rep = subspace.certify_subspace("ham8", w_circuit_2q)
    assert not rep.passed
    assert any("missing neighbor" in line for line in rep.lines)


@pytest.mark.parametrize("scheme,module,step", [
    ("ham5", f5, "forward_step5"), ("ham8", e8, "forward_step8")])
def test_certify_steps_the_machine_once(scheme, module, step, ws_circuit_3q2r, monkeypatch):
    calls = []
    forward = getattr(module, step)
    monkeypatch.setattr(module, step, lambda c: calls.append(c) or forward(c))
    rep = subspace.certify_subspace(scheme, ws_circuit_3q2r)
    T = walk.history_length(scheme, ws_circuit_3q2r)
    assert rep.passed and len(rep.lines) == T + 1
    assert len(calls) == T + 1  # each configuration once, the last finding no successor


@pytest.mark.parametrize("scheme", ["ham5", "ham8"])
def test_certify_refuses_a_history_past_max_T_before_any_step(scheme, monkeypatch):
    def no_step(c):
        raise AssertionError("stepped")

    monkeypatch.setattr(f5, "forward_step5", no_step)
    monkeypatch.setattr(e8, "forward_step8", no_step)
    with pytest.raises(ValueError, match="over the limit"):
        subspace.certify_subspace(scheme, Circuit(2, 10**9))


def test_certify_rejects_unknown_scheme(w_circuit_2q):
    with pytest.raises(ValueError):
        subspace.certify_subspace("ham9", w_circuit_2q)


def _images(apply_H, terms, state):
    return [(w, ds.pattern, ds.qubits.amps) for w, ds in apply_H(terms, state)]


@pytest.mark.parametrize("scheme,circuit", [
    ("ham5", Circuit(3, 2, {(1, 1): gates.W, (1, 2): gates.SWAP,
                            (2, 1): gates.CX, (2, 2): gates.W})),
    ("ham5", Circuit(2, 4, {(1, 1): gates.W, (3, 1): gates.SWAP})),
    ("ham8", Circuit(2, 3, {(1, 1): gates.W, (2, 1): gates.SWAP})),
    ("ham8", Circuit(3, 2, {(1, 1): gates.W, (1, 2): gates.SWAP,
                            (2, 1): gates.SWAP, (2, 2): gates.W})),
])
def test_picked_terms_give_the_images_of_all_terms(scheme, circuit):
    amps = np.arange(1, 2**circuit.n + 1, dtype=complex)
    init = QubitState(circuit.n, amps / np.linalg.norm(amps))
    history = walk.enumerate_history(scheme, circuit)
    states = list(map(subspace.DressedState, history.configs(), history.registers(circuit, init)))
    terms, pick, apply_H = subspace._local_hamiltonian(scheme, circuit, history.first)
    for s in states:
        picked = pick(s.pattern)
        assert len(picked) < len(terms)
        want = _images(apply_H, terms, s)
        got = _images(apply_H, picked, s)
        assert [(w, p) for w, p, _ in got] == [(w, p) for w, p, _ in want]
        assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(got, want))


def test_rogue_ham5_term_without_live_anchor_is_still_applied(w_circuit_2q, monkeypatch):
    # (q + q) <-> (q . q) holds no live symbol, so it cannot be filed under a
    # live site; it must still be tried on every state
    rogue = f5.LocalTerm5(site=2, lhs=(f5.Q, f5.PLUS, f5.Q), rhs=(f5.Q, f5.BUL, f5.Q),
                          rule="rogue")
    assert subspace._anchors5(rogue, 5) == (None, None)
    terms = f5.local_terms5(2, 1, w_circuit_2q) + [rogue]
    monkeypatch.setattr(f5, "local_terms5", lambda *a, **k: terms)
    rep = subspace.certify_subspace("ham5", w_circuit_2q)
    trace = f5.enumerate_history5(2, 1)
    configs = list(trace.configs())
    hit = {t for t, c in enumerate(configs)
           if c.symbols[1:4] in (rogue.lhs, rogue.rhs)}
    assert hit
    assert {t for t, line in enumerate(rep.lines) if "FAIL" in line} == hit
    assert all("unexpected output pattern" in rep.lines[t] for t in hit)


def test_rogue_ham8_term_without_live_anchor_is_still_applied(w_circuit_2q, monkeypatch):
    # a template that rewrites the program symbol under an idle cursor holds
    # no live cursor; it acts on every state whose cell 1 is idle, and none
    # of those has the rewritten pattern as a neighbour
    rogue = e8.LocalTerm8(cell=1, rule="rogue", pre={"s": e8.STAR, "p": "."},
                          post={"s": e8.STAR, "p": "I"})
    c0 = e8.initial_config8(w_circuit_2q)
    assert subspace._anchors8(rogue, c0) == (None, None)
    terms = e8.local_terms8(w_circuit_2q) + [rogue]
    monkeypatch.setattr(e8, "local_terms8", lambda *a, **k: terms)
    rep = subspace.certify_subspace("ham8", w_circuit_2q)
    trace = e8.enumerate_history8(w_circuit_2q)
    configs = list(trace.configs())
    hit = {t for t, c in enumerate(configs)
           if c.cursors[0] == e8.STAR and c.progs[0] in (".", "I")}
    assert 0 < len(hit) < len(rep.lines)
    assert {t for t, line in enumerate(rep.lines) if "FAIL" in line} == hit


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_certify_random_wsi_circuits(data):
    n = data.draw(st.integers(2, 4), label="n")
    R = data.draw(st.integers(1, 3), label="R")
    letters = st.sampled_from([gates.W, gates.SWAP, gates.I1])
    circuit = Circuit(n, R, {(r, i): data.draw(letters)
                             for r in range(1, R + 1) for i in range(1, n)})
    parts = data.draw(st.lists(st.floats(-1, 1), min_size=2 ** (n + 1),
                               max_size=2 ** (n + 1)), label="amps")
    amps = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    init = QubitState(n, amps / norm)
    for scheme in ("ham5", "ham8"):
        rep = subspace.certify_subspace(scheme, circuit, init)
        assert rep.passed, (scheme, [line for line in rep.lines if "FAIL" in line][:3])


def test_certificate_without_the_last_gate_term_fails_at_the_end(ws_circuit_3q2r, monkeypatch):
    # the last gate's rule-1 term is the only one joining t=T-1 and t=T, the
    # last state of the certificate's window, which has no successor
    n, R = ws_circuit_3q2r.n, ws_circuit_3q2r.rounds
    terms = f5.local_terms5(n, R, ws_circuit_3q2r)
    kept = [term for term in terms if term.slot != (R, n - 1)]
    assert len(kept) == len(terms) - 1
    monkeypatch.setattr(f5, "local_terms5", lambda *a, **k: kept)
    rep = subspace.certify_subspace("ham5", ws_circuit_3q2r)
    T = f5.step_count_formula5(n, R)
    assert len(rep.lines) == T + 1
    assert [t for t, line in enumerate(rep.lines) if "FAIL" in line] == [T - 1, T]
    assert rep.lines[T] == f"t={T} FAIL: missing neighbor pattern"
