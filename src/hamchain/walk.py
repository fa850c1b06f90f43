"""Continuous-time dynamics on the history line.

The effective Hamiltonian on the T+1 history states is the path-graph
hopping matrix with -1 couplings.  Its eigensystem is closed-form:

    lambda_k = -2 cos(k pi / (T+2)),
    v_k(t)   = sqrt(2/(T+2)) sin(k pi (t+1) / (T+2)),   k = 1..T+1,

so both the propagator and the time-averaged tail over [0, tau0] are
evaluated exactly (the spectrum is nondegenerate, so only the k = l diagonal
needs no oscillatory factor).  Couplings have unit magnitude; tau is
dimensionless.

The module has one spectral path, and it never builds the eigenvectors.
The eigenbasis is a discrete sine basis, so `propagate` evaluates the
propagator for a batch of times as type-I DSTs, through numpy's real FFT
and on every core: one real DST per time, since the line is bipartite and
c_t = i^(t mod 2) D_t with D real.  The sampler (`runner.run`) and `evolve`
read D.  It needs numpy alone.  `tail_prob` sums the time-averaged tail in
closed form from one O(T) table, in O(T^2) time and O(T) memory, and
`tail_prob_limit` is its tau0 -> infinity limit.  The dense hopping matrix,
eigenvectors and time average that the tests check these against live in
tests/oracles.py.
"""
from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from io import StringIO
from itertools import chain, islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import eight_state, five_state


@dataclass(frozen=True)
class WalkSpec:
    T: int
    q: int
    tau0: float

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("need T >= 1")
        if self.q < 2:
            raise ValueError("need q >= 2")
        if not (self.tau0 > 0 and math.isfinite(self.tau0)):
            raise ValueError(f"need a finite tau0 > 0, got {self.tau0}")


@dataclass(frozen=True)
class WalkAmplitudes:
    tau: float
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", a)
        norm = float(np.sum(np.abs(a) ** 2))
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"walk amplitudes not normalized: {norm}")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def _angles(T: int) -> np.ndarray:
    """theta_k = k pi / (T+2) for k = 1..T+1: lambda_k = -2 cos theta_k."""
    return np.arange(1, T + 2) * np.pi / (T + 2)


PROPAGATE_BYTES = 2 * 2**20  # bytes of odd-extension rows `propagate` transforms at once
MAX_T = 2**24  # longest history line: one row's odd extension is then 256 MiB
MAX_CELL_STEPS = 2**32  # most T x cells of a history: each step copies every cell


def propagate(T: int, taus, finish=None):
    """Real rows D(tau) of the propagator from history index 0, with
    c_t(tau) = i^(t mod 2) D_t(tau): one row of length T+1 per tau, in the
    order of `taus`.  With `finish`, the rows of finish(batch) instead,
    where batch holds consecutive rows.

    c_t(tau) = sum_k v_k(t) e^{-i lambda_k tau} v_k(0) is, up to 1/(T+2), a
    type-I DST of e^{-i lambda_k tau} sin theta_k.  The line is bipartite:
    pairing k with T+2-k negates lambda_k, keeps sin theta_k and multiplies
    v_k(t) by (-1)^t, so the sin(lambda tau) half cancels at even t and the
    cos half at odd t.  As cos x - sin x = sqrt(2) cos(x + pi/4),
    D = DST-I[sqrt(2) sin theta_k cos(lambda_k tau + pi/4)] / (T+2): one
    real DST and one cosine per k, O(T log T) time and O(T) memory per row.
    Rounding lambda_k tau + pi/4 leaves D about 1e-12 from the complex DST
    at tau = default_tau0(T).  The DST is minus the imaginary part of bins
    1..T+1 of the real FFT of the odd extension [0, x, 0, -reversed x] of
    length 2(T+2), as in pocketfft; each row is bit-identical to a batch of
    that row alone.  When T+2 is prime the FFT takes its Bluestein path;
    padding to a fast length would change the bits, so it is not done.

    A batch holds PROPAGATE_BYTES // (16 (T+2)) odd extensions (at least
    one); the FFT's output and the rows add about 1.5 times that.  Batches
    are computed, `finish` included, on os.cpu_count() threads, at most that
    many in flight besides the one being read, so memory stays
    O(workers * batch) however many taus are given.
    """
    # imported here: concurrent.futures imports logging, about 8 ms that
    # commands which never propagate should not pay
    from concurrent.futures import ThreadPoolExecutor

    theta = _angles(T)
    lam = -2.0 * np.cos(theta)
    weight = np.sqrt(2.0) * np.sin(theta)
    taus = np.asarray(taus, dtype=float)
    rows = max(1, PROPAGATE_BYTES // (16 * (T + 2)))

    def batch(start):
        tau = taus[start:start + rows, None]
        ext = np.zeros((len(tau), 2 * (T + 2)))
        x = ext[:, 1:T + 2]
        np.multiply(tau, lam, out=x)
        x += np.pi / 4
        np.cos(x, out=x)
        x *= weight
        np.negative(x[:, ::-1], out=ext[:, T + 3:])
        d = np.fft.rfft(ext, axis=-1).imag[:, 1:T + 2] / -(T + 2)
        return d if finish is None else finish(d)

    workers = os.cpu_count() or 1
    starts = iter(range(0, len(taus), rows))
    with ThreadPoolExecutor(workers) as pool:
        pending = deque(pool.submit(batch, s) for s in islice(starts, workers))
        while pending:
            done = pending.popleft().result()
            start = next(starts, None)
            if start is not None:
                pending.append(pool.submit(batch, start))
            yield from done


def evolve(T: int, tau: float) -> WalkAmplitudes:
    """Amplitudes c_t(tau) = i^(t mod 2) D_t(tau) starting from history index 0."""
    row = next(propagate(T, [tau]))
    return WalkAmplitudes(tau, np.where(np.arange(T + 1) % 2, 1j, 1.0) * row)


def tail_threshold(T: int, q: int) -> int:
    """Smallest accepted index: m > T/q means m >= floor(T/q) + 1."""
    return T // q + 1


TAIL_BLOCK_BYTES = 2**19  # bytes of each row block of the tail's pair matrix


def tail_prob(T: int, q: int, tau0: float) -> float:
    """Time-averaged probability of landing at m > T/q, in O(T^2) time and
    O(T) memory, without the eigenvectors.

    Summing the dense time average of |c_m|^2 (tests/oracles.py
    avg_prob_all) over the tail m >= m0 gives

      sum_{k,l} v_k(0) v_l(0) S_kl sinc((lam_k - lam_l) tau0),
      S_kl = sum_{m >= m0} v_k(m) v_l(m).

    With phi = pi/(T+2), j = m+1 over [a, b] = [m0+1, T+1] and
    2 sin x sin y = cos(x-y) - cos(x+y),

      S_kl = [C(|k-l|) - C(k+l)] / (T+2),   C(s) = sum_{j=a}^{b} cos(j s phi),

    where C(0) = b - a + 1 and otherwise, telescoping,

      C(s) = [sin((b+1/2) s phi) - sin((a-1/2) s phi)] / (2 sin(s phi/2)),

    with sin(s phi/2) > 0 for s = 1..2T+2.  So one table of C over
    s = 0..2T+2 gives every S_kl.  The k = l terms sum to tail_prob_limit.
    For k != l, sin(d tau0) with d = lam_k - lam_l is s_k c_l - c_k s_l,
    where s_k = sin(lam_k tau0) and c_k = cos(lam_k tau0); as M_kl =
    S_kl / (lam_k - lam_l) is antisymmetric, both halves add up to

      tail = tail_prob_limit + (2/tau0) (s o v0)^T M (c o v0),

    with M_kl = 0 on the diagonal.  Taking sqrt(2/(T+2)) out of each v0 and
    1/(T+2) out of S leaves the factor 4 / (tau0 (T+2)^2).  No transcendental
    is evaluated per pair.  M is built in blocks of rows of at most
    TAIL_BLOCK_BYTES (one row at least): its Toeplitz part C(|k-l|) and
    Hankel part C(k+l) are windows onto the table.
    """
    WalkSpec(T, q, tau0)
    a, b = tail_threshold(T, q) + 1, T + 1
    n = T + 1
    phi = np.pi / (T + 2)
    angle = np.arange(1, 2 * n + 1) * phi  # s phi for s = 1..2T+2
    dirichlet = np.empty(2 * n + 1)  # C(s) for s = 0..2T+2
    dirichlet[0] = b - a + 1
    dirichlet[1:] = ((np.sin((b + 0.5) * angle) - np.sin((a - 0.5) * angle))
                     / (2 * np.sin(angle / 2)))
    # toeplitz[T - i, j] = C(|i - j|) and hankel[i, j] = C(i + j + 2), for
    # rows i = k-1 and columns j = l-1
    toeplitz = sliding_window_view(np.concatenate([dirichlet[n - 1:0:-1], dirichlet[:n]]), n)
    hankel = sliding_window_view(dirichlet[2:], n)
    theta = _angles(T)
    lam = -2.0 * np.cos(theta)
    x = np.sin(theta) * np.sin(lam * tau0)  # (s o v0) and (c o v0), each
    y = np.sin(theta) * np.cos(lam * tau0)  # without its factor sqrt(2/(T+2))
    rows = max(1, TAIL_BLOCK_BYTES // (8 * n))
    total = 0.0
    for k0 in range(0, n, rows):
        k1 = min(k0 + rows, n)
        block = toeplitz[T + 1 - k1:T + 1 - k0][::-1] - hankel[k0:k1]
        d = lam[k0:k1, None] - lam
        np.fill_diagonal(d[:, k0:], np.inf)  # M_kk = 0
        block /= d
        total += float(x[k0:k1] @ (block @ y))
    return tail_prob_limit(T, q) + 4.0 * total / (tau0 * (T + 2) ** 2)


def tail_prob_limit(T: int, q: int) -> float:
    """tau0 -> infinity limit of tail_prob: sum_k v_k(0)^2 sum_{m >= m0}
    v_k(m)^2, in O(T) time and memory.  With j = m+1 over [a, b] = [m0+1, T+1]
    and N = b - a + 1,

      sum_{j=a}^{b} sin^2(j theta)
          = N/2 - [sin((2b+1) theta) - sin((2a-1) theta)] / (4 sin theta),

    from sin^2 = (1 - cos 2j theta)/2 and a telescoping sum of cosines;
    sin theta_k > 0 for every k."""
    theta = _angles(T)
    a, b = tail_threshold(T, q) + 1, T + 1
    sin_theta = np.sin(theta)
    tail = (b - a + 1) / 2 - (np.sin((2 * b + 1) * theta)
                              - np.sin((2 * a - 1) * theta)) / (4 * sin_theta)
    return float((2.0 / (T + 2)) ** 2 * np.sum(sin_theta**2 * tail))


def default_tau0(T: int) -> float:
    """Averaging horizon growing as T log T."""
    return 10.0 * T * np.log(T + 2)


class PaddingError(RuntimeError):
    """Padding leaves the acceptance threshold at or before the last real
    gate, the padded history would be longer than MAX_T, or the closed
    forms it relied on disagree with the engine."""


def closed_form_steps(n: int, R: int, r: int, scheme: str) -> tuple[int, int]:
    """(T, step of the last gate of rounds 1..r) of the R-round history."""
    if scheme == "ham5":
        return five_state.step_count_formula5(n, R), five_state.last_gate_step5(n, r)
    if scheme == "ham8":
        return eight_state.step_count_formula8(n, R), eight_state.last_gate_step8(n, R, r)
    raise ValueError(f"unknown scheme {scheme!r}")


def history_length(scheme: str, circuit, boundary: str = eight_state.OPEN) -> int:
    """T of the scheme's history of `circuit`, in closed form, without a
    step.  What enumerate_history refuses before stepping is refused here:
    a T over MAX_T, a T x cells over MAX_CELL_STEPS (each step copies the
    configuration), a ham5 boundary other than the open chain, and a ham8
    gate letter outside {W,S,I}."""
    T = closed_form_steps(circuit.n, circuit.rounds, circuit.rounds, scheme)[0]
    if T > MAX_T:
        raise ValueError(f"{scheme} history of {circuit.rounds} rounds has T={T}, "
                         f"over the limit of {MAX_T}")
    if scheme == "ham5":
        if boundary != eight_state.OPEN:
            raise ValueError(f"ham5 has only the open chain, not boundary {boundary!r}")
        cells = five_state.Lattice5(circuit.n, circuit.rounds).L
    else:
        # program_layout raises on a letter outside {W,S,I}
        cells = eight_state.program_layout(circuit).L + (boundary == eight_state.PERIODIC_X)
    if T * cells > MAX_CELL_STEPS:
        raise ValueError(f"{scheme} history of {circuit.rounds} rounds has T={T} steps "
                         f"on {cells} cells, over the limit of {MAX_CELL_STEPS} cell steps")
    return T


def enumerate_history(scheme: str, circuit, boundary: str = eight_state.OPEN):
    """The scheme's history of `circuit`.  ham5 reads only n and the round
    count from it and has only the open chain; `boundary` is ham8's.  What
    history_length refuses is refused before any step."""
    history_length(scheme, circuit, boundary)
    if scheme == "ham5":
        return five_state.enumerate_history5(circuit.n, circuit.rounds)
    return eight_state.enumerate_history8(circuit, boundary)


def padding_plan(n: int, r_real: int, q: int, scheme: str) -> int:
    """Smallest round count R >= r_real such that the last gate of the first
    r_real rounds fires no later than step floor(T/q) of the padded history.

    Pure arithmetic on the closed forms for T and for the last real gate's
    step, both checked against the engine in the tests and by `verify`.
    The search stops at the first R whose T exceeds MAX_T, since T grows
    with R, and otherwise by R = q r_real.  There, with r = r_real and s the
    last real gate's step, floor(T/q) >= s holds iff T >= q s, and

      ham5:  T - q s = (q-1)(3n^2+n+1) - (q-1)n + q > 0;
      ham8:  T - q s = 6 + (n+1)[q r (3(n+1)(q-1) - q + 2) + 5(q-1)] > 0,
             since 3(n+1)(q-1) - q + 2 >= 8q - 7 > 0 for n >= 2, q >= 2.
    """
    if n < 2 or r_real < 1 or q < 2:
        raise ValueError(f"need n >= 2, r_real >= 1 and q >= 2; got {n}, {r_real}, {q}")
    for r_total in range(r_real, q * r_real + 1):
        T, last_real = closed_form_steps(n, r_total, r_real, scheme)
        if T > MAX_T:
            raise PaddingError(f"{scheme} n={n} padded to {r_total} rounds has T={T}, "
                               f"over the limit of {MAX_T}")
        if last_real <= T // q:
            return r_total
    raise PaddingError(f"no round count up to {q * r_real} pads {scheme} n={n} r={r_real} q={q}")


# --- CSV emitters -------------------------------------------------------------


def probability_table_csv(T: int, taus) -> str:
    out = StringIO()
    out.write("tau,m,p\n")
    for tau, row in zip(taus, propagate(T, taus)):
        probs = WalkAmplitudes(tau, row).probabilities()  # D^2, norm checked
        cells = chain.from_iterable(zip(range(T + 1), probs.tolist()))
        out.write(f"{tau:.12g},%d,%.12g\n" * (T + 1) % tuple(cells))
    return out.getvalue()
