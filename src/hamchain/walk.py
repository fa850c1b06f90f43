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
propagator for batches of times as type-I DSTs, its batches split over the
cores: one real DST per time, since the line is bipartite and
c_t = i^(t mod 2) D_t with D real, each taken from one numpy real FFT of
length T+2 into buffers each worker reuses.  Each batch goes to a `finish`
on its worker, which draws the sampler's steps or formats the `evolve`
table, and `propagate` returns what they give.  It needs numpy alone.
`tail_prob` sums the time-averaged tail in closed form from one O(T)
table and one batch of real FFTs, in O(T log T) time and O(T) memory, and
`tail_prob_limit` is its tau0 -> infinity limit.  The dense hopping
matrix, eigenvectors and time average that the tests check these against
live in tests/oracles.py.  T, its limits and the padding come from each
machine's own closed forms, which scheme_module alone reaches.
"""
from __future__ import annotations

import importlib
import math
import os
from io import StringIO
from itertools import chain

import numpy as np


NORM_TOL = 1e-9  # most |sum_t |c_t|^2 - 1| of a propagator row that is used


def probabilities(rows: np.ndarray) -> np.ndarray:
    """Square `propagate`'s rows D in place into |c_t|^2 and return each row's
    sum; a row off 1 by more than NORM_TOL, or NaN, raises ValueError."""
    probs = np.square(rows, out=rows)
    norms = probs.sum(axis=1)
    bad = ~(np.abs(norms - 1.0) <= NORM_TOL)  # NaN is bad too
    if bad.any():
        raise ValueError(f"walk amplitudes not normalized: {norms[bad][0]}")
    return norms


def _angles(T: int) -> np.ndarray:
    """theta_k = k pi / (T+2) for k = 1..T+1: lambda_k = -2 cos theta_k."""
    return np.arange(1, T + 2) * np.pi / (T + 2)


PROPAGATE_BYTES = 2 * 2**20  # bytes of input and spectrum rows in one `propagate` batch
PROPAGATE_MIN_ROWS = 4  # fewest rows of a `propagate` batch, whatever PROPAGATE_BYTES allows
MAX_T = 2**24  # longest history line: near it one row's FFT or table needs over 3 GiB
MAX_CELL_STEPS = 2**32  # most T x cells of a history: trace and configs() snapshot every cell


def propagate(T: int, taus, finish) -> list:
    """Real rows D(tau) of the propagator from history index 0, with
    c_t(tau) = i^(t mod 2) D_t(tau), one row of length T+1 per tau: returns
    the list of finish(rows, start), one per batch in the order of `taus`,
    where rows holds the batch's rows and start the index of its first tau.
    The rows sit in the worker's buffer, which its next batch overwrites, so
    finish may change them, as `probabilities` does, but must not keep them.

    c_t(tau) = sum_k v_k(t) e^{-i lambda_k tau} v_k(0) is, up to 1/(T+2), a
    type-I DST of e^{-i lambda_k tau} sin theta_k.  The line is bipartite:
    pairing k with T+2-k negates lambda_k, keeps sin theta_k and multiplies
    v_k(t) by (-1)^t, so the sin(lambda tau) half cancels at even t and the
    cos half at odd t.  As cos x - sin x = sqrt(2) cos(x + pi/4),
    D = DST-I[sqrt(2) sin theta_k cos(lambda_k tau + pi/4)] / (T+2).

    The DST-I of length M-1, M = T+2, is taken from one real FFT of length
    M, half the length of the odd extension's.  With s_k = sin theta_k,
    folding x_k and x_{M-k} into y_k = 2/M [s_k (x_k + x_{M-k}) +
    (x_k - x_{M-k})/2] and the pairing above give one cosine per k again:

      y_k = 4/M s_k sqrt(s_k^2 + 1/4) cos(lambda_k tau + phi_k),
      phi_k = atan2(1/2, s_k),   y_0 = 0.

    For Y = rfft(y), D_{2k-1} = -Im Y_k and
    D_{2k} = Re Y_0 / 2 + sum_{i=1..k} Re Y_i.  O(T log T) time and O(T)
    memory per row.  Rounding lambda_k tau + phi_k to a double leaves D
    about 1e-12 from the complex DST at tau = default_tau0(T); each row is
    bit-identical to a batch of that row alone.  When T+2 is prime the FFT
    takes its Bluestein path; padding to a fast length would change the
    bits, so it is not done.

    A batch holds PROPAGATE_BYTES // (16 (T+2)) rows of y and of its
    spectrum, at least PROPAGATE_MIN_ROWS, as numpy's FFT plans each call
    anew; D is written over y.  The batches are dealt round-robin to
    w = min(os.cpu_count(), batches) worker threads.  Each worker allocates
    these two buffers once and runs its share in order, `finish` included,
    so a batch touches no fresh memory and w workers' buffers are all the
    memory the rows take: max(PROPAGATE_BYTES, 64 (T+2)) bytes each, 1 GiB
    at MAX_T, and no more rows than taus.  With one worker the batches run
    on the calling thread and no thread is started.
    """
    M = T + 2
    theta = _angles(T)
    # -2 cos theta_k, made exactly odd under k -> M-k as the fold assumes:
    # rounded, -2 cos theta_{M-k} misses 2 cos theta_k by about
    # 2e-16 sin theta_k (theta_k + theta_{M-k} rounds pi), which the fold
    # turns into a norm loss of about 1e-16 tau
    cos_theta = np.cos(theta)
    lam = cos_theta[::-1] - cos_theta
    sin_theta = np.sin(theta)
    amp = (4.0 / M) * sin_theta * np.sqrt(sin_theta**2 + 0.25)
    phase = np.arctan2(0.5, sin_theta)
    taus = np.asarray(taus, dtype=float)
    rows = max(PROPAGATE_MIN_ROWS, PROPAGATE_BYTES // (16 * M))
    odd, even = (T + 1) // 2, (T + 2) // 2  # how many t in 0..T are odd, even
    starts = range(0, len(taus), rows)

    def share(mine):
        size = min(rows, len(taus))
        ys, spectra = np.empty((size, M)), np.empty((size, M // 2 + 1), dtype=complex)
        out = []
        for start in mine:
            tau = taus[start:start + rows, None]
            y, spectrum = ys[:len(tau)], spectra[:len(tau)]
            y[:, 0] = 0.0
            x = y[:, 1:]
            # a huge tau overflows to NaN rows, which `probabilities` refuses;
            # numpy's error state is per thread, so it is set here
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(tau, lam, out=x)
                x += phase
                np.cos(x, out=x)
            x *= amp
            np.fft.rfft(y, axis=-1, out=spectrum)
            d = y[:, :T + 1]
            np.negative(spectrum.imag[:, 1:odd + 1], out=d[:, 1::2])
            re = spectrum.real[:, :even]
            re[:, 0] *= 0.5
            np.cumsum(re, axis=1, out=d[:, 0::2])
            out.append(finish(d, start))
        return out

    workers = min(os.cpu_count() or 1, len(starts))
    if workers <= 1:  # a pool would only wait for the one worker
        return share(starts)
    # imported here: concurrent.futures imports logging, about 8 ms that
    # commands which never propagate more than one batch should not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        shares = list(pool.map(share, (starts[i::workers] for i in range(workers))))
    return [shares[b % workers][b // workers] for b in range(len(starts))]


def tail_threshold(T: int, q: int) -> int:
    """Smallest accepted index: m > T/q means m >= floor(T/q) + 1."""
    return T // q + 1


def _dirichlet(T: int, q: int) -> np.ndarray:
    """The tail's table C(s) = sum_{j=a}^{b} cos(j s pi/(T+2)) for
    s = 0..2T+2, over j = m+1 in [a, b] = [m0+1, T+1] (see tail_prob)."""
    a, b = tail_threshold(T, q) + 1, T + 1
    angle = np.arange(1, 2 * T + 3) * np.pi / (T + 2)  # s phi for s = 1..2T+2
    table = np.empty(2 * T + 3)
    table[0] = b - a + 1
    table[1:] = (np.sin((b + 0.5) * angle) - np.sin((a - 0.5) * angle)) / (2 * np.sin(angle / 2))
    return table


def tail_prob(T: int, q: int, tau0: float) -> float:
    """Time-averaged probability of landing at m > T/q, in O(T log T) time
    and O(T) memory, without the eigenvectors.

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
    s = 0..2T+2, _dirichlet's, gives every S_kl.  The k = l terms sum to
    tail_prob_limit.
    For k != l, sin(d tau0) with d = lam_k - lam_l is s_k c_l - c_k s_l,
    where s_k = sin(lam_k tau0) and c_k = cos(lam_k tau0), and S_kl / d is
    antisymmetric.  With A = (k-l) phi/2 and B = (k+l) phi/2, d = 4 sin A
    sin B and 1/d = (cot A - cot B) / (4 sin(l phi)), whose 1/sin(l phi)
    cancels the sin(l phi) in v_l(0).  So both halves add up to

      tail = tail_prob_limit + sum_{k != l} x_k c_l K_kl / (tau0 (T+2)^2),
      K_kl = C(k-l) cot A + C(k+l) cot B - [C(k-l) cot B + C(k+l) cot A],

    with x_k = sin(k phi) s_k and C(-s) = C(s).  The first two terms are a
    Toeplitz kernel in k-l and a Hankel kernel in k+l.  With C's closed
    form, the bracket expands to (cot A - cot B) / (2 sin(l phi)) times
    four rank-1 rows sin(k g phi) cos(l g' phi): (g, g') = (b+1, b) and
    (b, b+1) added, (a, a-1) and (a-1, a) subtracted, that is g phi and
    g' phi = gamma +- phi/2 for gamma = (b+1/2) phi and (a-1/2) phi.  So
    the sum is five bilinear forms u^T K v, each a correlation (Toeplitz)
    or a convolution (Hankel) of its rows u and v from one batched real FFT
    of a power-of-two length over 2T+1.  As cot B = -tan((k+l-T-2) phi/2),
    both kernels live on one grid -T..T.  The Toeplitz kernels are 0 at
    k = l, and the Hankel convolutions lose their k = l terms u_k v_k in
    O(T).  No transcendental is evaluated per pair.
    """
    if not (1 <= T <= MAX_T and q >= 2 and 0 < tau0 < math.inf):  # a NaN tau0 fails too
        raise ValueError(f"need 1 <= T <= {MAX_T}, q >= 2, finite tau0 > 0; got {T}, {q}, {tau0}")
    size, a, b = 1 << (2 * T + 1).bit_length(), tail_threshold(T, q) + 1, T + 1
    theta = _angles(T)
    lam = -2.0 * np.cos(theta)
    x, w = np.sin(theta) * np.sin(lam * tau0), np.cos(lam * tau0)
    # row 0 takes the C cot kernels; the rank-1 rows [g, g', sign] take cot
    # alone and carry the bracket's minus sign
    g = np.array([[b + 1, b, -1], [b, b + 1, -1], [a, a - 1, 1], [a - 1, a, 1]])[:, :, None]
    u = np.vstack([x, g[:, 2] * x * np.sin(g[:, 0] * theta)])
    v = np.vstack([w, w * np.cos(g[:, 1] * theta) / (2 * np.sin(theta))])
    U, V = np.fft.rfft(u, size), np.fft.rfft(v, size)
    # row 0's and the rank-1 rows' summed forms over k-l = -T..T and k+l = 2..2T+2
    corr, conv = (np.fft.irfft(np.stack([f[0], f[1:].sum(0)]), size) for f in (U * V.conj(), U * V))
    corr, conv = np.roll(corr, T, axis=1)[:, :2 * T + 1], conv[:, :2 * T + 1]
    conv[:, ::2] -= np.stack([u[0] * v[0], (u[1:] * v[1:]).sum(0)])  # the Hankel k = l terms
    offset = np.arange(-T, T + 1)  # k-l, and k+l-T-2 in the Hankel forms
    tan = np.tan(offset * (np.pi / (2 * T + 4)))
    cot = np.divide(1.0, tan, out=np.zeros(2 * T + 1), where=offset != 0)
    dirichlet = _dirichlet(T, q)
    total = (corr[0] @ (dirichlet[abs(offset)] * cot) + corr[1] @ cot
             + (conv[1] - conv[0] * dirichlet[2:]) @ tan)
    return float(tail_prob_limit(T, q) + total / (tau0 * (T + 2) ** 2))


def tail_prob_limit(T: int, q: int) -> float:
    """tau0 -> infinity limit of tail_prob: sum_k v_k(0)^2 sum_{m >= m0}
    v_k(m)^2, in O(T) time and memory.  As sin^2 x = (1 - cos 2x)/2, the
    inner sum over j = m+1 is sum_j sin^2(j theta_k) = (C(0) - C(2k))/2,
    read from tail_prob's table of C."""
    dirichlet = _dirichlet(T, q)
    sin_theta = np.sin(_angles(T))
    tail = (dirichlet[0] - dirichlet[2::2]) / 2
    return float((2.0 / (T + 2)) ** 2 * np.sum(sin_theta**2 * tail))


def default_tau0(T: int) -> float:
    """Averaging horizon growing as T log T."""
    return 10.0 * T * np.log(T + 2)


class PaddingError(RuntimeError):
    """Padding leaves the acceptance threshold at or before the last real
    gate, the padded history would be refused for its size (_oversize), or
    the closed forms it relied on disagree with the engine; the padded
    instance is checked once, in runner.padded_history."""


SCHEME_MODULES = {"ham5": f"{__package__}.five_state", "ham8": f"{__package__}.eight_state"}


def scheme_module(scheme: str):
    """The rewrite machine of `scheme`: five_state for ham5, eight_state for
    ham8.  It is imported here, on first use, so that a command loads only
    the machine it runs, and `evolve --T` none.  A machine module answers
    for its scheme with first_config(circuit, ring), closed_forms(n, R, r),
    cells(n, R, ring) and history(circuit, ring), and each refuses a chain
    or a circuit the scheme cannot build: first_config refuses the slot
    gates that the scheme's gate terms cannot carry."""
    if scheme not in SCHEME_MODULES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return importlib.import_module(SCHEME_MODULES[scheme])


def _oversize(scheme: str, n: int, R: int, T: int, ring: bool = False) -> str | None:
    """Why the n-qubit, R-round history of T steps is refused, or None: a T
    over MAX_T, or a T x cells over MAX_CELL_STEPS (a step touches only its
    window, but trace and History.configs() snapshot every cell at every
    index), with the cells taken from the closed forms; cells refuses a
    chain the scheme does not have."""
    cells = scheme_module(scheme).cells(n, R, ring)
    if T > MAX_T:
        return f"T={T}, over the limit of {MAX_T}"
    if T * cells > MAX_CELL_STEPS:
        return f"T={T} steps on {cells} cells, over the limit of {MAX_CELL_STEPS} cell steps"
    return None


def history_length(scheme: str, circuit, ring: bool = False) -> int:
    """T of the scheme's history of `circuit`, on the ring if `ring`, in
    closed form, without a step.  What enumerate_history refuses before
    stepping is refused here, in this order: a chain the scheme does not
    have, a history that _oversize refuses, and a first configuration the
    scheme cannot build."""
    T = scheme_module(scheme).closed_forms(circuit.n, circuit.rounds, circuit.rounds)[0]
    why = _oversize(scheme, circuit.n, circuit.rounds, T, ring)
    if why is not None:
        raise ValueError(f"{scheme} history of {circuit.rounds} rounds has {why}")
    scheme_module(scheme).first_config(circuit, ring)
    return T


def enumerate_history(scheme: str, circuit, ring: bool = False):
    """The scheme's history of `circuit`, after history_length's refusals."""
    history_length(scheme, circuit, ring)
    return scheme_module(scheme).history(circuit, ring)


def padding_plan(n: int, r_real: int, q: int, scheme: str) -> int:
    """Smallest round count R >= r_real such that the last gate of the first
    r_real rounds fires before step tail_threshold(T, q) of the padded history.

    Pure arithmetic on the closed forms for T and for the last real gate's
    step, both checked against the engine in the tests and by `verify`.
    The search stops at the first R whose history _oversize refuses (T and
    the cell count grow with R), and otherwise by R = q r_real.  There, with
    r = r_real and s the last real gate's step, floor(T/q) >= s iff T >= q s:

      ham5:  T - q s = (q-1)(3n^2+n+1) - (q-1)n + q > 0;
      ham8:  T - q s = 6 + (n+1)[q r (3(n+1)(q-1) - q + 2) + 5(q-1)] > 0,
             since 3(n+1)(q-1) - q + 2 >= 8q - 7 > 0 for n >= 2, q >= 2.
    """
    if n < 2 or r_real < 1 or q < 2:
        raise ValueError(f"need n >= 2, r_real >= 1 and q >= 2; got {n}, {r_real}, {q}")
    closed_forms = scheme_module(scheme).closed_forms
    for r_total in range(r_real, q * r_real + 1):
        T, last_real = closed_forms(n, r_total, r_real)
        why = _oversize(scheme, n, r_total, T)
        if why is not None:
            raise PaddingError(f"{scheme} n={n} padded to {r_total} rounds has {why}")
        if last_real < tail_threshold(T, q):
            return r_total
    raise PaddingError(f"no round count up to {q * r_real} pads {scheme} n={n} r={r_real} q={q}")


# --- CSV emitters -------------------------------------------------------------


def probability_table_csv(T: int, taus) -> str:
    """The `evolve` table: `tau,m,p` lines of p(m | tau) = D_m(tau)^2.  Each
    batch of rows is squared, norm checked and formatted in its own `finish`."""
    def finish(rows, start):
        probabilities(rows)
        out = StringIO()
        for tau, probs in zip(taus[start:start + len(rows)], rows.tolist()):
            cells = chain.from_iterable(zip(range(T + 1), probs))
            out.write(f"{tau:.12g},%d,%.12g\n" * (T + 1) % tuple(cells))
        return out.getvalue()

    return "tau,m,p\n" + "".join(propagate(T, taus, finish))
