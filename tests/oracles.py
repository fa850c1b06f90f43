"""Dense reference implementations that the tests compare the package against.

None of these runs in a command: `walk.propagate` and the closed-form tails
replace the dense eigensystem, and `circuit.simulate_circuit` replaces the
circuit's dense unitary.  They build O(T^2) or 4^n matrices on purpose,
except `odd_extension_rows`, the propagator kernel `walk.propagate` used
before its half-length transform, and `step_config`, which steps an
immutable configuration with a Stepper and its snapshot.
"""
import numpy as np

from hamchain import gates
from hamchain.circuit import Circuit
from hamchain.gates import GateSequence
from hamchain.machine import Stepper
from hamchain.walk import _angles


def hopping_matrix(T: int) -> np.ndarray:
    """(T+1) x (T+1) path-graph matrix with -1 on the two off-diagonals."""
    h = np.zeros((T + 1, T + 1))
    idx = np.arange(T)
    h[idx, idx + 1] = -1.0
    h[idx + 1, idx] = -1.0
    return h


def eigensystem(T: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (eigenvalues, eigenvectors[t, k]) of hopping_matrix(T)."""
    k = np.arange(1, T + 2)
    lam = -2.0 * np.cos(_angles(T))
    t = np.arange(T + 1)
    vecs = np.sqrt(2.0 / (T + 2)) * np.sin(np.outer(t + 1, k) * np.pi / (T + 2))
    return lam, vecs


def avg_prob_all(T: int, tau0: float) -> np.ndarray:
    """Time average of |c_m(tau)|^2 over tau uniform on [0, tau0], exactly,
    for every m = 0..T.

    |c_m|^2 = sum_{k,l} e^{-i(lam_k - lam_l) tau} v_k(m) v_k(0) v_l(m) v_l(0);
    averaging each cross term gives sin(d tau0)/(d tau0) with d = lam_k - lam_l.
    """
    lam, v = eigensystem(T)
    d = lam[:, None] - lam[None, :]
    avg = np.sinc(d * tau0 / np.pi)  # np.sinc(x) = sin(pi x)/(pi x); 1 at d=0
    w = v * v[0, :]  # w[m, k] = v_k(m) v_k(0)
    return ((w @ avg) * w).sum(1)


def odd_extension_rows(T: int, taus) -> np.ndarray:
    """Real propagator rows D(tau), c_t = i^(t mod 2) D_t, one per tau, as
    minus the imaginary part of bins 1..T+1 of the real FFT of the odd
    extension [0, x, 0, -reversed x] of length 2(T+2), with
    x_k = sqrt(2) sin theta_k cos(lambda_k tau + pi/4)."""
    theta = _angles(T)
    x = np.sqrt(2.0) * np.sin(theta) * np.cos(
        np.asarray(taus, dtype=float)[:, None] * (-2.0 * np.cos(theta)) + np.pi / 4)
    ext = np.zeros((len(x), 2 * (T + 2)))
    ext[:, 1:T + 2] = x
    ext[:, T + 3:] = -x[:, ::-1]
    return np.fft.rfft(ext, axis=-1).imag[:, 1:T + 2] / -(T + 2)


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Dense 2^n unitary of the whole circuit (test/oracle helper)."""
    seq: GateSequence = list(reversed(circuit.applications()))
    return gates.sequence_matrix(seq, circuit.n)


def step_config(machine, c, reverse: bool = False):
    """(successor of configuration c, event on the edge), or the predecessor
    if `reverse`; None when no rule matches, RuleEngineError when several do."""
    state = Stepper(machine, c)
    hit = state.step(reverse)
    return None if hit is None else (state.snapshot(), hit[2])
