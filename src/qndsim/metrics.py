"""Figures of merit for QND measurement devices.

Classical fidelity, the measurement, QND and QSP fidelities and the
distinguishability pair with the Englert trade-off, each checked in the tests
against an independent computation. The qubit observables that
``kraus_figures`` reads have eigenvalues +-1, so for its joint table q
<O_A O_B> = 2 tr q - 1 = K and <O^2> = 1: the paper's signal-meter
correlation C^2 is K^2, and its shortcut 2 F_QSP - 1 is K, identities for
any qubit stack and basis (not for other eigenvalues, nor for qudits). Outside
input is checked where it enters and not again: ``kraus_figures`` is the
public, checked reader of a Kraus stack, and the scorers read the plain arrays
of the internal ``_read``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hilbert import BasisSpec, ProbDist, _as_readonly

RANGE_ATOL = 1e-12  # a figure of merit accepted this far outside its range, e.g. [0, 1]
READ_CACHE_SIZE = 64  # (basis, probe states) pairs whose read matrices ``_read`` keeps


class MetricsError(ValueError):
    """Invalid input to a figure-of-merit computation."""


def _check_range(name: str, v, lo: float) -> None:
    """MetricsError unless every value of ``v`` lies in [lo, 1] within RANGE_ATOL (NaN fails)."""
    v = np.asarray(v)[()]  # a numpy scalar, or an array
    ok = (lo - RANGE_ATOL <= v) & (v <= 1 + RANGE_ATOL)
    if not (ok if ok.ndim == 0 else ok.all()):  # .all() would cost a scalar more than its compares
        raise MetricsError(f"{name} = {v[~ok][0]} outside [{lo:g}, 1]")


def _as_dist(p) -> np.ndarray:
    if isinstance(p, ProbDist):
        return p.p
    return ProbDist.from_weights(p).p


def classical_fidelity(p, q) -> float:
    """F(p, q) = (sum_i sqrt(p_i q_i))^2.

    Accepts ProbDist objects or raw nonnegative weights/counts, which are
    normalized internally; zero-weight outcomes contribute nothing.
    Equals 1 iff the distributions coincide, 1/d for an eigenstate
    against the uniform distribution, and 0 when the supports are
    disjoint.
    """
    pa, qa = _as_dist(p), _as_dist(q)
    if pa.size != qa.size:
        raise MetricsError(f"distribution length mismatch: {pa.size} vs {qa.size}")
    return float(np.sqrt(pa * qa).sum() ** 2)


def measurement_fidelity(p_in, p_m) -> float:
    """Correlation of input populations with the meter record: F(p_in, p_m)."""
    return classical_fidelity(p_in, p_m)


def qnd_fidelity(p_in, p_out) -> float:
    """Preservation of the measured populations: F(p_in, p_out)."""
    return classical_fidelity(p_in, p_out)


def qsp_fidelity(p_m, conditional) -> float:
    """Outcome-averaged probability that the output matches the readout.

    ``conditional[i]`` is the probability of finding the output in
    eigenstate i given meter result i. For qubits this is the likelihood L.
    """
    pm = _as_dist(p_m)
    cond = np.asarray(conditional, dtype=float).ravel()
    if cond.size != pm.size:
        raise MetricsError("one conditional probability required per outcome")
    _check_range("conditional probability", cond, 0.0)
    return float(np.dot(pm, np.clip(cond, 0.0, 1.0)))


@dataclass(frozen=True, eq=False)
class DistinguishabilityPair:
    """Distinguishability of the QND observable (k) and its conjugate (k_bar);
    numbers, or arrays of one shape for a batch of devices, so compared by identity."""

    k: float
    k_bar: float

    def __post_init__(self):
        _check_range("k", self.k, -1.0)
        _check_range("k_bar", self.k_bar, -1.0)

    @property
    def englert_lhs(self) -> float:
        return self.k**2 + self.k_bar**2


def distinguishability(likelihood: float, p_c: float) -> DistinguishabilityPair:
    """Build (K, K_bar) from the likelihood L and the conjugate hit rate P_c.

    K = 2L - 1 measures how well the meter identifies eigenstates of the
    QND observable; K_bar = 2*P_c - 1 how well the signal output preserves
    eigenstates of the conjugate observable. A coherent generalized
    measurement saturates K^2 + K_bar^2 = 1. Arrays give a batched pair;
    its check K, K_bar in [-1, 1] is the check L, P_c in [0, 1].
    """
    return DistinguishabilityPair(k=2 * likelihood - 1, k_bar=2 * p_c - 1)


def _qubit_basis(basis, error: type[ValueError]) -> BasisSpec:
    """``basis``; ``error`` naming it unless it is a qubit BasisSpec."""
    if not isinstance(basis, BasisSpec):
        raise error(f"basis must be a BasisSpec, got {type(basis).__name__}")
    if basis.dim != 2:
        raise error(f"basis must be a qubit basis, got dimension {basis.dim}")
    return basis


def kraus_figures(m: np.ndarray, basis: BasisSpec) -> tuple[np.ndarray, DistinguishabilityPair]:
    """Joint (signal output, meter) distribution q and (K, K_bar) of a Kraus stack.

    ``m[..., k, :, :]`` is the signal operator for meter reading k; leading
    axes are a batch of devices, kept in the results. Each input psi is
    conditioned on its success probability sum_k |M_k psi|^2 (1 unless the
    stack is heralded). The joint distribution, a read-only array q[..., j, k], is that
    of the maximally mixed input read in ``basis``; its trace is F_QSP = L, and C^2 = K^2.
    K_bar uses the conjugate eigenstates, the columns of ``basis.vectors @ X_BASIS.vectors``.
    MetricsError if ``basis`` is not a qubit BasisSpec, if ``m`` is not of shape (..., 2, 2, 2),
    is not finite or heralds one of these inputs with probability 0.
    """
    m = np.asarray(m)
    _qubit_basis(basis, MetricsError)
    if m.shape[-3:] != (2, 2, 2):
        raise MetricsError(f"Kraus stack must have shape (..., 2, 2, 2), got {m.shape}")
    if not np.isfinite(m).all():
        raise MetricsError("Kraus stack has a non-finite entry")
    if not ((np.abs(m @ basis.outputs) ** 2).sum(axis=(-3, -2)) > 0).all():
        raise MetricsError("Kraus stack heralds a basis or conjugate input with probability 0")
    q, likelihood, p_c, _ = _read(m, basis)
    q.setflags(write=False)
    return q, distinguishability(likelihood, p_c)


# the rows (k, block, j, i) of the Born table's basis and conjugate inputs i, with input i
# in block i // 2: _SUCCESS sums each input's success over its own block, and _FIGURES
# reads (q00, q01, q10, q11, P_c) off the conditioned table
_K, _BLOCK, _J, _I = np.indices((2, 2, 2, 4)).reshape(4, -1, 1)
_SUCCESS = ((_I == np.arange(4)) & (_BLOCK == _I // 2)).astype(float)
_FIGURES = 0.5 * np.hstack(((_BLOCK == 0) & (_I < 2) & (2 * _J + _K == np.arange(4)),
                            (_BLOCK == 1) & (_J == _I - 2)))


@functools.lru_cache(maxsize=READ_CACHE_SIZE)
def _probe_read(basis: BasisSpec, probes: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_read``'s read-only matrices for a tuple of PureStates ``probes``, kept per basis
    and tuple (both compare by identity, and neither can change): the read matrix [S | S_P],
    with S = ``basis.born_products`` and S_P[(o, n), (j, p)] = conj(V[o, j]) a_p[n]; R, the 0/1
    matrix that sums u[(k, j, p)] = |v_j^dag M_k a_p|^2 over j into p_m and over k into p_out,
    as rows (p, fidelity, outcome); and W, which weighs those rows by sqrt(p_in[p, outcome])
    into rows (p, fidelity), so that the unconditioned fidelities are (W @ sqrt(R @ u))^2."""
    a, v = np.array([state.amps for state in probes]), basis.vectors
    s_p = (v.conj()[:, None, :, None] * a.T[:, None, :]).reshape(4, -1)
    p, fid, o = np.indices((len(a), 2, 2)).reshape(3, -1, 1)  # rows of R, columns of W
    k, j, p_u = np.indices((2, 2, len(a))).reshape(3, 1, -1)  # columns of R: u's rows
    r = (p == p_u) & (o == np.where(fid, j, k))
    w = (np.abs(a @ v.conj())[p, o] * (2 * p + fid == np.arange(2 * len(a)))).T
    return _as_readonly(np.hstack((basis.born_products, s_p))), _as_readonly(r, float), _as_readonly(w, float)


def _read(m: np.ndarray, basis: BasisSpec, probes: tuple | None = None):
    """``kraus_figures`` of ``m`` unchecked, as the plain arrays (q, L, P_c), and the
    unconditioned (F_M, F_QND) of each PureState of the tuple ``probes`` as
    (n, 2, ...m's batch), or None.

    The figures come from one Born table t[..., k, block, j, i] = |b_j^dag M_k b_i|^2 over
    the outputs B = [V | V X] as both outputs and inputs: one product of the flattened M_k
    with ``basis.born_products``, read through the constant matrices _SUCCESS and _FIGURES.
    The probes join that product as the columns S_P of ``_probe_read``, then R and W.
    """
    read, r, w = (basis.born_products, None, None) if probes is None else _probe_read(basis, probes)
    x = np.abs(m.reshape(-1, 4) @ read) ** 2
    t = x[:, :16].reshape(-1, 8, 4)  # [..., k, block, j, i]
    c = (t / (t.reshape(-1, 32) @ _SUCCESS)[:, None]).reshape(-1, 32)  # conditioned on success
    f = (c @ _FIGURES).reshape(m.shape[:-3] + (5,))
    q = f[..., :4].reshape(f.shape[:-1] + (2, 2))  # q[..., j, k]: the maximally mixed input over V
    likelihood, p_c = q[..., 0, 0] + q[..., 1, 1], f[..., 4]
    if probes is None:
        return q, likelihood, p_c, None
    u = x[:, 16:].reshape(-1, r.shape[1]).T  # [(k, j, probe), ...]
    return q, likelihood, p_c, ((w @ np.sqrt(r @ u)) ** 2).reshape((len(probes), 2) + m.shape[:-3])
