"""Eight-state translation-invariant machine: layout, rules, histories."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from hamchain import eight_state as e8
from hamchain import gates
from hamchain.circuit import Circuit, UnsupportedGateError

from oracles import circuit_matrix


def test_program_layout_reference_example(ws_circuit_3q2r):
    lay = e8.program_layout(ws_circuit_3q2r)
    assert lay.program == ("I", "W", "S", "I", "I", "S", "W", "I")
    assert lay.data == ("0", "1", "0", "0", "0", "1", "w1", "w2", "w3",
                        "1", "0", "0", "0", "1", "0")
    assert lay.L == 15


def test_program_layout_minimal(w_circuit_2q):
    lay = e8.program_layout(w_circuit_2q)
    assert lay.program == ("I", "W", "I")
    assert lay.data == ("0", "1", "w1", "w2", "1", "0")


def test_program_layout_spacer_width():
    lay = e8.program_layout(Circuit(3, 3))
    assert lay.program == tuple("I I I I I I I I I I I I".split())
    # spacer blocks 1 0 0 0 on each side of the qubit block, width n+1
    assert lay.data[1:5] == ("1", "0", "0", "0")
    assert lay.data[5:10] == ("1", "0", "0", "0", "1")


def test_layout_rejects_foreign_gates():
    with pytest.raises(UnsupportedGateError):
        e8.program_layout(Circuit(2, 1, {(1, 1): gates.CX}))


def test_initial_config_has_single_left_cursor(ws_circuit_3q2r):
    c = e8.initial_config8(ws_circuit_3q2r)
    assert c.cursors[-1] == e8.MOVL
    assert all(s == e8.STAR for s in c.cursors[:-1])


def test_reference_steps_bit_exact(fixtures_dir, ws_circuit_3q2r):
    golden = (fixtures_dir / "ham8_n3r2_reference.txt").read_text()
    tr = e8.enumerate_history8(ws_circuit_3q2r)
    configs = list(tr.configs())
    assert tr.T == 154 and len(configs) == 155
    got = "".join(
        configs[t].dump_block(t)
        for t in [0, 1, 2] + list(range(9, 14)) + list(range(26, 31))
        + list(range(38, 43)) + list(range(55, 60)) + [154]
    )
    assert got == golden


def test_final_configuration_shape(ws_circuit_3q2r):
    tr = e8.enumerate_history8(ws_circuit_3q2r)
    configs = list(tr.configs())
    last = configs[-1]
    assert last.cursors[0] == e8.MOVLE
    assert all(s == e8.STAR for s in last.cursors[1:])
    # program word shifted fully left, data pattern unchanged
    assert last.progs[:9] == (".",) + configs[0].layout.program
    assert last.datas == configs[0].datas
    assert e8.forward_step8(last) is None


@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("R", range(1, 4))
def test_step_count_formula_exact(n, R):
    assert e8.enumerate_history8(Circuit(n, R)).T == e8.step_count_formula8(n, R)


@pytest.mark.parametrize("n,R", [(2, 1), (3, 2)])
def test_uniqueness_reversibility_distinctness(n, R, ws_circuit_3q2r, w_circuit_2q):
    circ = w_circuit_2q if (n, R) == (2, 1) else ws_circuit_3q2r
    tr = e8.enumerate_history8(circ)
    configs = list(tr.configs())
    keys = [(c.cursors, c.progs) for c in configs]
    assert len(set(keys)) == len(keys)
    for t, c in enumerate(configs):
        if t < tr.T:
            nxt, _ = e8.forward_step8(c)
            back, _ = e8.backward_step8(nxt)
            assert back == c
        else:
            assert e8.forward_step8(c) is None
    assert e8.backward_step8(configs[0]) is None


def test_logical_gate_events_match_direct_simulation(ws_circuit_3q2r):
    tr = e8.enumerate_history8(ws_circuit_3q2r)
    logical = [ev for _, ev in sorted(tr.events.items()) if ev.m > 0]
    assert [(ev.step, ev.m, ev.letter) for ev in logical] == [
        (14, 1, "W"), (16, 2, "S"), (138, 3, "S"), (140, 4, "W"),
    ]
    u = np.eye(8, dtype=complex)
    for ev in logical:
        from hamchain.gates import full_matrix
        u = full_matrix(ev.unitary(), ev.logical_qubits(), 3) @ u
    assert np.max(np.abs(u - circuit_matrix(ws_circuit_3q2r))) <= 1e-9


# SHA-256 of the full `trace --scheme ham8` text of ws_circuit_3q2r
DUMP_SHA256 = {
    e8.OPEN: "4240b0414d8dc83e1da5323ca023fc90566b8db5407d45a4ca4734ad929768f5",
    e8.PERIODIC_X: "4bdd8b3736db89d925b362f7b88aa3af3007d8955b0ffc84fd66da65dca9e558",
}


@pytest.mark.parametrize("boundary", [e8.OPEN, e8.PERIODIC_X])
def test_full_dump_digest(ws_circuit_3q2r, boundary):
    text = "".join(e8.enumerate_history8(ws_circuit_3q2r, boundary).dump())
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_SHA256[boundary]


def test_events_carry_their_round(ws_circuit_3q2r):
    tr = e8.enumerate_history8(ws_circuit_3q2r)
    events = [ev for _, ev in sorted(tr.events.items())]
    assert [(ev.m, ev.round) for ev in events if ev.m > 0] == [(1, 1), (2, 1), (3, 2), (4, 2)]
    assert all(ev.round == 0 for ev in events if ev.m == 0)
    assert tr.last_real_step(1) == 16 and tr.last_real_step(2) == 140


def test_scaffold_firings_are_silent(ws_circuit_3q2r):
    tr = e8.enumerate_history8(ws_circuit_3q2r)
    for ev in tr.events.values():
        if ev.m == 0:
            assert ev.unitary() is None


def test_gate_on_scaffold_detection():
    ev = e8.GateEvent8(step=0, m=0, round=0, cell=1, letter="W", pair=("0", "w1"),
                       forward=True)
    with pytest.raises(e8.GateOnScaffoldError):
        ev.unitary()
    ev = e8.GateEvent8(step=0, m=0, round=0, cell=1, letter="W", pair=("1", "0"),
                       forward=True)
    with pytest.raises(e8.GateOnScaffoldError):
        ev.unitary()  # W maps |10> off itself
    ev = e8.GateEvent8(step=0, m=0, round=0, cell=1, letter="S", pair=("0", "0"),
                       forward=True)
    assert ev.unitary() is None  # swap fixes |00>


def test_rule_conditions_never_read_qubit_placeholders(w_circuit_2q):
    # sweep the whole history; _match_at raises if a data condition lands on w_i
    tr = e8.enumerate_history8(w_circuit_2q)
    assert tr.T == 18


def test_periodic_variant_same_length_and_fixed_stopper(ws_circuit_3q2r):
    tro = e8.enumerate_history8(ws_circuit_3q2r)
    open_configs = list(tro.configs())
    trp = e8.enumerate_history8(ws_circuit_3q2r, e8.PERIODIC_X)
    ring_configs = list(trp.configs())
    assert trp.T == tro.T
    for c in ring_configs:
        assert c.cursors[-1] == e8.XSTOP
        assert c.progs[-1] == "."
    # open-chain content identical cell for cell
    for co, cp in zip(open_configs, ring_configs):
        assert cp.cursors[:-1] == co.cursors
        assert cp.progs[:-1] == co.progs


def test_periodic_variant_reversible_after_first_step(w_circuit_2q):
    # The ring admits one extra reverse match at the initial configuration
    # (a left-cursor step wrapping through the stopper cell), so the history
    # is only forward-terminated; every later configuration reverses cleanly.
    trp = e8.enumerate_history8(w_circuit_2q, e8.PERIODIC_X)
    ring_configs = list(trp.configs())
    assert e8.backward_step8(ring_configs[0]) is not None
    for t in range(1, trp.T):
        nxt, _ = e8.forward_step8(ring_configs[t])
        back, _ = e8.backward_step8(nxt)
        assert back == ring_configs[t]


def test_rule_engine_flags_ambiguity(w_circuit_2q):
    c0 = e8.initial_config8(w_circuit_2q)
    cursors = list(c0.cursors)
    cursors[1] = e8.MOVL  # second cursor alongside the real one
    with pytest.raises(e8.RuleEngineError):
        e8.forward_step8(e8.Config8(c0.layout, c0.boundary, tuple(cursors),
                                    c0.progs, c0.datas))


def test_local_terms_tile_every_cell(w_circuit_2q):
    terms = e8.local_terms8(w_circuit_2q)
    rules = {t.rule for t in terms}
    assert rules == {name for name, _, _ in e8._RULES8}
    # interior cells carry all 11 templates
    assert sum(1 for t in terms if t.cell == 3) == 11


def test_enumeration_keeps_no_configurations():
    # n=2, R=14 (T=5283, the `pad` shape): its 5284 configurations take
    # about 8 MB, its first configuration and 588 events about 0.14 MB
    e8.enumerate_history8(Circuit(2, 2))  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        tr = e8.enumerate_history8(Circuit(2, 14))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.T == 5283
    assert kept < 1e6
