"""Gate constants, state-vector application, and the identity table."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamchain import gates
from hamchain.gates import (
    IDENTITIES,
    IDENTITY_TOL,
    Gate,
    InvalidTargetError,
    QubitState,
    apply_gate,
    apply_unitary,
    check_identity,
    controlled,
    sequence_matrix,
)

SQ2 = 1.0 / np.sqrt(2.0)


def test_all_named_constants_are_unitary():
    for g in (gates.I1, gates.Z, gates.X, gates.H, gates.HY, gates.Y,
              gates.SWAP, gates.W, gates.CX, gates.TOFFOLI, gates.CCY):
        dev = np.max(np.abs(g.matrix.conj().T @ g.matrix - np.eye(2**g.arity)))
        assert dev <= IDENTITY_TOL, g.label


def test_nonunitary_matrix_rejected():
    with pytest.raises(ValueError):
        Gate("bad", 1, np.array([[1, 0], [0, 2]]))


def test_non_finite_state_is_not_normalised():
    with pytest.raises(ValueError):
        QubitState(1, np.array([np.nan, 0.0]))


def test_apply_identity_leaves_state_unchanged():
    s = QubitState.basis("01")
    out = apply_gate(s, gates.I1, (2,))
    assert np.allclose(out.amps, s.amps)


def test_swap_maps_01_to_10():
    out = apply_gate(QubitState.basis("01"), gates.SWAP, (1, 2))
    assert np.allclose(out.amps, QubitState.basis("10").amps)


def test_w_maps_10_to_equal_superposition():
    out = apply_gate(QubitState.basis("10"), gates.W, (1, 2))
    want = np.zeros(4, dtype=complex)
    want[0b10] = SQ2
    want[0b11] = SQ2
    assert np.max(np.abs(out.amps - want)) <= IDENTITY_TOL


def test_apply_gate_rejects_bad_targets():
    s = QubitState.basis("00")
    with pytest.raises(InvalidTargetError):
        apply_gate(s, gates.SWAP, (1,))  # arity mismatch
    with pytest.raises(InvalidTargetError):
        apply_gate(s, gates.SWAP, (1, 1))  # repeated
    with pytest.raises(InvalidTargetError):
        apply_gate(s, gates.X, (3,))  # out of range


@pytest.mark.parametrize("gate,targets,n", [
    (gates.H, (1,), 1), (gates.X, (2,), 2), (gates.Y, (3,), 4),
    (gates.W, (1, 2), 2), (gates.W, (2, 3), 4), (gates.CX, (1, 3), 3),
    (gates.W, (4, 1), 4), (gates.SWAP, (2, 1), 2),
    (gates.TOFFOLI, (1, 2, 3), 3), (gates.CCY, (2, 3, 4), 4),
    (gates.TOFFOLI, (1, 3, 4), 4), (gates.CCY, (3, 1, 2), 3),
], ids=["1q-alone", "1q-right", "1q-inner", "2q-adjacent", "2q-inner",
        "2q-apart", "2q-reversed-apart", "2q-reversed", "3q-adjacent", "3q-inner",
        "3q-apart", "3q-reversed"])
def test_apply_unitary_on_the_identity_places_gate_on_targets(gate, targets, n):
    # each column of the identity is a basis state, placed as apply_unitary
    # places a vector
    cols = [apply_unitary(np.eye(2**n, dtype=complex)[:, j].copy(), gate.matrix, targets, n)
            for j in range(2**n)]
    m = apply_unitary(np.eye(2**n), gate.matrix, targets, n)
    assert m.shape == (2**n, 2**n)
    assert np.array_equal(m, np.array(cols).T)


def test_apply_unitary_on_the_identity_is_the_kronecker_product():
    # X on qubit 2 of 2: I (x) X
    m = apply_unitary(np.eye(4), gates.X.matrix, (2,), 2)
    assert np.array_equal(m, np.kron(np.eye(2), gates.X.matrix))
    # SWAP on (2, 1) equals SWAP on (1, 2)
    assert np.array_equal(apply_unitary(np.eye(4), gates.SWAP.matrix, (2, 1), 2),
                          gates.SWAP.matrix)


def test_controlled_puts_gate_in_lower_block():
    cx = controlled(gates.X)
    assert np.allclose(cx.matrix, gates.CX.matrix)
    assert np.allclose(controlled(gates.HY).matrix, gates.W.matrix)


@st.composite
def random_states(draw, n=3):
    dim = 2**n
    re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
    im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
    v = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        norm = 1.0
    return QubitState(n, v / norm)


@settings(max_examples=120, deadline=None)
@given(random_states(), st.sampled_from(["W", "S", "CX"]), st.integers(1, 2))
def test_apply_gate_preserves_norm(state, name, i):
    g = {"W": gates.W, "S": gates.SWAP, "CX": gates.CX}[name]
    out = apply_gate(state, g, (i, i + 1))
    assert abs(np.sum(np.abs(out.amps) ** 2) - 1.0) <= 1e-9


def test_every_registered_identity_holds():
    for name, (seq, target) in IDENTITIES.items():
        dev = check_identity(seq, target)
        assert dev <= IDENTITY_TOL, f"{name}: dev={dev:.3e}"


def test_w_to_the_eighth_is_identity():
    w8 = np.linalg.matrix_power(gates.W.matrix, 8)
    assert np.max(np.abs(w8 - np.eye(4))) <= IDENTITY_TOL


def test_z_word_application_count():
    assert len(IDENTITIES["Z"][0]) == 14  # 4+1+4+1+4 two-qubit applications


def test_cx_word_application_count():
    assert len(IDENTITIES["CX"][0]) == 19  # 2+1+6+1+2+1+6


def test_both_ccy_realizations_agree():
    assert np.allclose(IDENTITIES["L2Y_TH"][1].matrix, IDENTITIES["L2Y_W"][1].matrix)


def test_empty_sequence_is_exact_identity():
    assert check_identity([], gates.I1) == 0.0


def test_check_identity_rejects_dimension_mismatch():
    with pytest.raises(InvalidTargetError, match=r"^bad targets \(1, 2\) for n=1$"):
        check_identity([(gates.SWAP, (1, 2))], gates.Z)


def test_identity_sequences_are_tuples():
    # no reader of the table can change a sequence in place
    assert all(isinstance(seq, tuple) for seq, _ in IDENTITIES.values())


def test_sequence_matrix_is_matrix_product_order():
    # [X(1), Z(1)] as a sequence means X @ Z (Z applied to the state first)
    m = sequence_matrix([(gates.X, (1,)), (gates.Z, (1,))], 1)
    assert np.allclose(m, gates.X.matrix @ gates.Z.matrix)


def test_register_budget_refuses_the_first_register_that_does_not_fit():
    def fits(n):
        try:
            gates.check_register_size(n)
        except ValueError:
            return False
        return True

    largest = max(n for n in range(64) if fits(n))
    assert all(fits(n) for n in range(largest + 1))
    assert 16 * 2**largest <= gates.REGISTER_BYTES < 16 * 2 ** (largest + 1)
    with pytest.raises(ValueError):
        gates.QubitState.basis("0" * (largest + 1))
