"""Post-selected weak and strong values for a qubit QND observable.

The measured observable is the logical population n = diag(0, 1). A
variable-strength QND readout (strength gamma as in ``cnot_qnd``)
followed by post-selection on a final measurement yields conditional
means that can leave the eigenvalue range [0, 1] entirely, e.g. -9/7 for
psi = 0.8|0> - 0.6|1>, gamma = 0.8, post-selected on |+>. Closed forms,
the POVM of the readout, the negativity bound on gamma, and a seeded
shot-level Monte-Carlo estimator are provided.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import cnot_qnd, hilbert as hs
from .hilbert import NORM_ATOL, PureState

N_HAT = np.diag([0.0, 1.0]).astype(complex)
CHUNK_SHOTS = 1 << 16  # shots drawn per step by ``estimate_sampled``; no result depends on it
ORTHOGONAL_ATOL = 1e-12  # |<phi|psi>| at or below which the weak value is undefined
ZERO_POSTSELECTION = 1e-12  # post-selection probability that counts as zero
SINGULAR_SCALE = 1e-12  # |2 gamma^2 - 1| below which the meter says nothing about n
HERMITIAN_ATOL = 1e-12  # largest entry of |X - X^dag| accepted for a projectively measured X


class WeakValueError(ValueError):
    """Undefined or singular post-selected quantity."""


class EmptyPostSelectionError(WeakValueError):
    """No shots survived post-selection."""


@dataclass(frozen=True)
class WeakValueResult:
    """A sampled |+>-post-selected mean photon number with its provenance;
    ``gamma`` is the strength as given."""

    value: float
    gamma: float
    stderr: float
    shots: int
    seed: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "post_state": "+",
            "gamma": self.gamma,
            "mode": "sampled",
            "stderr": self.stderr,
            "shots": self.shots,
            "seed": self.seed,
        }


def _observable(x, psi: PureState, phi: PureState) -> tuple[np.ndarray, int]:
    """(``x`` * 2**-e, e), the power of two e bringing x's largest real or imaginary part into
    [1/2, 1) as in ``PureState.from_amplitudes``: exact, and no product then overflows;
    WeakValueError unless ``x`` is finite and (d, d), d the dimension of ``psi`` and ``phi``."""
    x = np.array(x, dtype=complex)  # a copy, scaled in place
    if x.shape != (psi.dim, psi.dim) or phi.dim != psi.dim:
        raise WeakValueError(f"observable of shape {x.shape} for states of dimensions {psi.dim} and {phi.dim}")
    parts = x.view(float)
    if not np.isfinite(parts).all():
        raise WeakValueError("observable has a non-finite entry")
    e = math.frexp(np.abs(parts).max())[1]
    np.ldexp(parts, -e, out=parts)
    return x, e


def _unscaled(v, e: int) -> float:
    """``v`` * 2**e; WeakValueError if that is out of float range."""
    try:
        return math.ldexp(float(v), e)
    except OverflowError:
        raise WeakValueError(f"value {float(v)} * 2**{e} is out of float range") from None


def weak_value(x: np.ndarray, psi: PureState, phi: PureState) -> float:
    """Re <phi|X|psi> / <phi|psi>; may lie outside the spectrum of X."""
    x, e = _observable(x, psi, phi)
    denom = complex(np.vdot(phi.amps, psi.amps))
    if abs(denom) <= ORTHOGONAL_ATOL:
        raise WeakValueError("undefined weak value: orthogonal pre/post selection")
    num = complex(phi.amps.conj() @ x @ psi.amps)
    return _unscaled((num / denom).real, e)


def strong_value_postselected(x: np.ndarray, psi: PureState, phi: PureState) -> float:
    """Eigenvalue-weighted conditional mean of a projective intermediate
    measurement of X, post-selected on the final result phi. Always lies
    within the eigenvalue range of X, which must be Hermitian within HERMITIAN_ATOL."""
    x, e = _observable(x, psi, phi)
    if not (np.abs(x - x.conj().T) <= math.ldexp(HERMITIAN_ATOL, -e)).all():
        raise WeakValueError("observable is not Hermitian")
    evals, evecs = np.linalg.eigh(x)
    w = (np.abs(evecs.conj().T @ phi.amps) ** 2) * (np.abs(evecs.conj().T @ psi.amps) ** 2)
    total = float(w.sum())
    if total <= ZERO_POSTSELECTION:
        raise WeakValueError("zero post-selection probability")
    return _unscaled(np.dot(w, evals.real) / total, e)


def povm(gamma: float) -> np.ndarray:
    """Effect stack E[k] = M_k^dag M_k, shape (2, 2, 2), of the strength-gamma
    readout, with M_k the Kraus operators of ``cnot_qnd.kraus``; in closed
    form, 2 E_k = 1 - (-1)^k (2g^2-1)(2n-1)."""
    m = cnot_qnd.kraus(cnot_qnd.MeterPrep(gamma))
    return m.conj().transpose(0, 2, 1) @ m


def postselected_mean_n(
    alpha: complex, beta: complex, gamma: float
) -> tuple[float, float, float]:
    """Conditional mean photon number after a strength-gamma QND readout,
    post-selected on finding the signal in |+> (and in |->), plus P(+).

    With r = Re[alpha beta*] and gg = gamma gamma_bar,
    P(+/-) = (1 +/- 4 gg r)/2 and <+/-><n> = (|beta|^2 +/- 2 gg r)/(2 P(+/-)).
    The printed form has Re[alpha beta] in P(+/-); the two coincide for
    real amplitudes, but only Re[alpha beta*] is invariant under a global
    phase. Satisfies P(+) <+><n> + P(-) <-><n> = |beta|^2. At gamma = 1/sqrt(2),
    where the meter says nothing, they are the weak values of n for |+> and |->.
    """
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= NORM_ATOL:  # NaN fails too
        raise WeakValueError("input amplitudes must be normalized")
    prep = cnot_qnd.MeterPrep(gamma)
    gg = prep.gamma * prep.gamma_bar
    r = (alpha * np.conj(beta)).real
    p_plus = (1.0 + 4.0 * gg * r) / 2.0
    p_minus = (1.0 - 4.0 * gg * r) / 2.0
    if p_plus < ZERO_POSTSELECTION or p_minus < ZERO_POSTSELECTION:
        raise WeakValueError("vanishing post-selection probability")
    b2 = abs(beta) ** 2
    plus_value = (b2 + 2.0 * gg * r) / (2.0 * p_plus)
    minus_value = (b2 - 2.0 * gg * r) / (2.0 * p_minus)
    return plus_value, minus_value, p_plus


def negativity_gamma_bound(alpha: float) -> float:
    """Largest gamma for which the |+>-post-selected mean stays negative.

    Applies to real inputs with beta = -sqrt(1 - alpha^2) and
    1/sqrt(2) < alpha < 1: gamma_max = sqrt((1 + sqrt(2 alpha^2 - 1)/alpha)/2).
    """
    if not (1.0 / math.sqrt(2.0) < alpha < 1.0):
        raise WeakValueError(f"alpha must lie in (1/sqrt(2), 1), got {alpha}")
    return math.sqrt((1.0 + math.sqrt(2.0 * alpha**2 - 1.0) / alpha) / 2.0)


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _word_bound(p: float) -> int:
    """Bound B on 64-bit words x with (x >> 11) * 2**-53 < p exactly when x < B."""
    return min(math.ceil(p * 2.0**53), 1 << 53) << 11 if p > 0 else 0


def _below(words: np.ndarray, bound: int, out: np.ndarray) -> np.ndarray:
    """``words < bound`` into ``out``; bounds 0 and 2**64 fill it without a compare."""
    if 0 < bound < 1 << 64:
        return np.less(words, np.uint64(bound), out=out)
    out.fill(bound > 0)
    return out


def _count_span(seed: int, start: int, stop: int, p_k1: float, p0: float, p1: float) -> tuple[int, int]:
    """(retained, retained with meter reading k = 1) among shots [start, stop), ``start`` even;
    shot i's draws are Philox words 2i and 2i + 1, and each u < p is counted as x < ``_word_bound(p)``."""
    bits = np.random.Philox(seed).advance(start // 2)  # 2 words a shot, 4 a block
    b_k1, b0, b1 = map(_word_bound, (p_k1, p0, p1))
    ks, hits = np.empty((2, min(CHUNK_SHOTS, stop - start)), bool)
    n0 = n1 = 0
    for lo in range(start, stop, CHUNK_SHOTS):
        k, hit = ks[: stop - lo], hits[: stop - lo]
        x = bits.random_raw(2 * len(k)).reshape(-1, 2)
        _below(x[:, 0], b_k1, k)  # meter reading k; kept if x[:, 1] is below P(+|k)'s bound
        n1 += np.count_nonzero(np.logical_and(_below(x[:, 1], b1, hit), k, out=hit))
        np.logical_not(k, out=k)
        n0 += np.count_nonzero(np.logical_and(_below(x[:, 1], b0, hit), k, out=hit))
        del x  # one chunk of words alive at a time
    return n0 + n1, n1


def estimate_sampled(
    alpha: complex, beta: complex, gamma: float, shots: int, seed: int
) -> WeakValueResult:
    """Monte-Carlo estimate of the |+>-post-selected mean photon number.

    Each shot runs the strength-gamma QND gate, samples the meter outcome,
    then samples a final +/- measurement on the exact conditional signal
    state; shots with final result '-' are discarded. The retained
    (+/-1)-valued meter record m gives the estimate via
    <n> = (1 + mean(m)/(2 gamma^2 - 1))/2. ``shots`` >= 1 and ``seed`` >= 0
    are integers. The shots are counted on the raw 64-bit words of a
    counter-based Philox generator keyed by ``seed``, against exact integer
    bounds that stand for ``Generator.random``'s doubles, so ``(shots, seed)``
    fixes the value bit for bit on any number of CPUs. Spans of whole
    CHUNK_SHOTS chunks are counted in parallel on the CPUs available to the
    process, and memory does not grow with ``shots``.
    """
    for name, value, least in (("shots", shots, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise WeakValueError(f"{name} must be an integer >= {least}, got {value!r}")
    shots, seed = int(shots), int(seed)
    prep = cnot_qnd.MeterPrep(gamma)
    scale = 2.0 * prep.gamma**2 - 1.0
    if scale < SINGULAR_SCALE:
        raise WeakValueError("estimator singular: gamma = 1/sqrt(2) exactly")
    psi = PureState.from_amplitudes([alpha, beta])
    branches = cnot_qnd.kraus(prep) @ psi.amps
    p_m = (np.abs(branches) ** 2).sum(axis=1)
    # probability of the final '+' result on each conditional signal state
    plus = np.abs(branches @ hs.PLUS.amps.conj()) ** 2
    p_plus_given_k = np.divide(plus, p_m, out=np.zeros(2), where=p_m >= hs.ZERO_BRANCH)

    chunks = -(-shots // CHUNK_SHOTS)
    workers = min(chunks, _available_cpus())
    edges = [min(shots, CHUNK_SHOTS * (chunks * i // workers)) for i in range(workers + 1)]
    counts = [None] * workers  # (n, n1) of each span, or the exception it raised

    def count(i):
        try:
            counts[i] = _count_span(seed, edges[i], edges[i + 1], p_m[1], *p_plus_given_k)
        except BaseException as exc:  # raised below, once every span is done
            counts[i] = exc
    threads = [threading.Thread(target=count, args=(i,)) for i in range(1, workers)]
    for t in threads:
        t.start()
    count(0)
    for t in threads:
        t.join()
    errors = [c for c in counts if isinstance(c, BaseException)]
    if errors:
        raise errors[0]
    n, n1 = map(sum, zip(*counts))  # retained shots, and those with meter reading k = 1
    if n == 0:
        raise EmptyPostSelectionError("empty post-selected ensemble")
    mean = (2 * n1 - n) / n
    value = (1.0 + mean / scale) / 2.0
    if n >= 2:
        # sample standard deviation of a +/-1 record with this mean
        stderr = math.sqrt(n * (1.0 - mean * mean) / (n - 1)) / (2.0 * scale * math.sqrt(n))
    else:
        stderr = 0.0
    return WeakValueResult(value=value, gamma=gamma, stderr=stderr, shots=shots, seed=seed)
