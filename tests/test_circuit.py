"""Round-circuit model: text format, simulation, gate-set rewriting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamchain import gates
from hamchain.circuit import (
    GATE_NAMES,
    Circuit,
    CircuitParseError,
    UnsupportedGateError,
    parse_circuit,
    rewrite_to_ws,
    serialize_circuit,
    simulate_circuit,
)
from hamchain.gates import IDENTITY_TOL, QubitState

from oracles import circuit_matrix

SQ2 = 1.0 / np.sqrt(2.0)


def test_all_identity_circuit_is_a_no_op():
    c = Circuit(3, 2)
    s = QubitState.basis("101")
    assert np.allclose(simulate_circuit(c, s).amps, s.amps)


def test_single_w_round_on_10():
    c = Circuit(2, 1, {(1, 1): gates.W})
    out = simulate_circuit(c, QubitState.basis("10"))
    want = np.zeros(4, dtype=complex)
    want[0b10] = want[0b11] = SQ2
    assert np.max(np.abs(out.amps - want)) <= IDENTITY_TOL


def test_w_then_swap_on_100():
    c = Circuit(3, 1, {(1, 1): gates.W, (1, 2): gates.SWAP})
    out = simulate_circuit(c, QubitState.basis("100"))
    want = np.zeros(8, dtype=complex)
    want[0b100] = SQ2  # W leaves |100>; the swap on (2,3) fixes it
    want[0b101] = SQ2  # W sends |10x> to (|10x>+|11x>)/sqrt2; swap moves the 1
    # independent oracle: dense matrix product
    want2 = circuit_matrix(c) @ QubitState.basis("100").amps
    assert np.max(np.abs(out.amps - want2)) <= IDENTITY_TOL
    assert np.max(np.abs(out.amps - want)) <= IDENTITY_TOL


def test_round_concatenation(ws_circuit_3q2r):
    c = ws_circuit_3q2r
    first = Circuit(c.n, 1, {k: g for k, g in c.gates.items() if k[0] == 1})
    rest = Circuit(c.n, 1, {(1, i): g for (r, i), g in c.gates.items() if r == 2})
    s = QubitState.basis("110")
    whole = simulate_circuit(c, s)
    split = simulate_circuit(rest, simulate_circuit(first, s))
    assert np.max(np.abs(whole.amps - split.amps)) <= IDENTITY_TOL


def test_parse_and_serialize_basic():
    # lines out of slot order: the gates are serialized and applied by
    # round, then by position, whatever the order of the file
    text = "QUBITS 3\nROUNDS 2\n# comment\nGATE CX 2 2\nGATE W 1 1\nGATE S 2 1\nGATE I 1 2\n"
    c = parse_circuit(text)
    assert c.n == 3 and c.rounds == 2
    assert c.gate_at(1, 1).label == "W"
    assert c.gate_at(2, 2).label == "CX"
    assert c.gate_at(1, 2).label == "I"
    assert parse_circuit(serialize_circuit(c)).gates.keys() == c.gates.keys()
    assert serialize_circuit(c) == "QUBITS 3\nROUNDS 2\nGATE W 1 1\nGATE S 2 1\nGATE CX 2 2\n"
    assert [(g.label, targets) for g, targets in c.applications()] == [
        ("W", (1, 2)), ("S", (1, 2)), ("CX", (2, 3))]


# (circuit text, the line its refusal names, or None when it names none)
PARSE_ERRORS = [
    ("GATE W 1 1\n", None),                       # missing headers
    ("QUBITS 3\nROUNDS 1\nGATE Q 1 1\n", 3),   # unknown gate
    ("QUBITS 3\nROUNDS 1\nGATE W 2 1\n", 3),   # round out of range
    ("QUBITS 3\nROUNDS 1\nGATE W 1 3\n", 3),   # position out of range
    ("QUBITS 3\nROUNDS 1\nGATE T 1 2\n", 3),   # a Toffoli that runs past the last qubit
    ("QUBITS 3\nGATE W 2 1\nROUNDS 1\n", 2),   # a slot read before the header it breaks
    ("QUBITS 3\nROUNDS 2\nGATE W 2 1\nGATE W 3 1\n", 4),  # the line of the bad slot
    ("QUBITS 3\nROUNDS 1\nGATE W 1 1\nGATE S 1 1\n", 4),  # duplicate slot
    ("QUBITS x\nROUNDS 1\n", 1),               # bad integer
    ("QUBITS 3\nROUNDS 1\nstuff\n", 3),        # junk line
    ("QUBITS 2\nQUBITS 3\nROUNDS 1\n", 2),     # repeated header
    ("QUBITS 2\nROUNDS 1\nROUNDS 2\n", 3),
    ("QUBITS 2\nROUNDS 1\nGATE I 1 5\n", 3),   # an identity slot is range-checked too
    ("QUBITS 2\nROUNDS 1\nGATE I 0 -3\n", 3),
    ("QUBITS 2\nROUNDS 1\nGATE I 1 1\nGATE I 1 1\n", 4),  # and fills its slot
    ("QUBITS 2\nROUNDS 1\nGATE I 1 1\nGATE W 1 1\n", 4),
    ("QUBITS 1\nROUNDS 1\n", None),             # a header out of range
]


@pytest.mark.parametrize("bad", [text for text, _ in PARSE_ERRORS])
def test_parse_errors(bad):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(bad)
    line = dict(PARSE_ERRORS)[bad]
    if line is None:
        assert not str(err.value).startswith("line ")
    else:
        assert str(err.value).startswith(f"line {line}: ")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3),
                       st.sampled_from(sorted(set(GATE_NAMES) - {"T"}))), max_size=6),
)
def test_parse_serialize_round_trip(n, rounds, entries):
    gmap = {}
    for r, i, name in entries:
        if r <= rounds and i <= n - 1 and name != "I":
            gmap[(r, i)] = GATE_NAMES[name]
    c = Circuit(n, rounds, gmap)
    c2 = parse_circuit(serialize_circuit(c))
    assert c2.n == c.n and c2.rounds == c.rounds
    assert {k: g.label for k, g in c2.gates.items()} == {k: g.label for k, g in c.gates.items()}


def test_rewrite_preserves_unitary_for_z_and_cx():
    c = Circuit(3, 1, {(1, 1): gates.Z, (1, 2): gates.CX})
    rw = rewrite_to_ws(c)
    assert all(g.label in ("W", "S") for g in rw.gates.values())
    dev = np.max(np.abs(circuit_matrix(rw) - circuit_matrix(c)))
    assert dev <= 1e-9


def test_rewrite_passes_native_gates_through(ws_circuit_3q2r):
    rw = rewrite_to_ws(ws_circuit_3q2r)
    dev = np.max(np.abs(circuit_matrix(rw) - circuit_matrix(ws_circuit_3q2r)))
    assert dev <= IDENTITY_TOL
    assert len(rw.gates) == len(ws_circuit_3q2r.gates)


@pytest.mark.parametrize("g", [gates.H, gates.X, gates.Y])
def test_rewrite_rejects_gates_without_exact_expansion(g):
    c = Circuit(2, 1, {(1, 1): g})
    with pytest.raises(UnsupportedGateError):
        rewrite_to_ws(c)


def test_rewrite_emits_one_gate_per_round():
    c = Circuit(2, 1, {(1, 1): gates.Z})
    rw = rewrite_to_ws(c)
    assert rw.rounds == 16  # swap + 14-application word + swap
    assert all(i == 1 for (_, i) in rw.gates)
