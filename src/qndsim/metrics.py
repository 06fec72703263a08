"""Figures of merit for QND measurement devices.

Classical fidelity, the measurement, QND and QSP fidelities and the
distinguishability pair with the Englert trade-off, each checked in the tests
against an independent computation. The qubit observables that
``kraus_figures`` reads have eigenvalues +-1, so for its joint table q
<O_A O_B> = 2 tr q - 1 = K and <O^2> = 1: the paper's signal-meter
correlation C^2 is K^2, and its shortcut 2 F_QSP - 1 is K, identities for
any qubit stack and basis (not for other eigenvalues, nor for qudits). Outside
input is checked where it enters and not again: ``kraus_figures`` is the
public, checked reader of a Kraus stack; the gates' own scorers read their
figures in closed form off their branch tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import HERALD_MIN, X_BASIS, BasisSpec, ProbDist

RANGE_ATOL = 1e-12  # a figure of merit accepted this far outside its range, e.g. [0, 1]


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
    is not finite, has squared amplitudes beyond the largest float, or heralds one of these
    inputs with a probability below the smallest normal float, where the squared amplitudes
    lose their relative precision.
    """
    m = np.asarray(m)
    v = _qubit_basis(basis, MetricsError).vectors
    if m.shape[-3:] != (2, 2, 2):
        raise MetricsError(f"Kraus stack must have shape (..., 2, 2, 2), got {m.shape}")
    if not np.isfinite(m).all():
        raise MetricsError("Kraus stack has a non-finite entry")
    b = np.array((v, v @ X_BASIS.vectors))  # B = [V | V X], the basis and its conjugate, as blocks
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        t = np.abs(np.einsum("bsj,...kst,bti->...bkji", b.conj(), m, b)) ** 2  # |b_j^dag M_k b_i|^2
        success = t.sum(axis=(-3, -2))  # [..., block, i]: sum_k |M_k b_i|^2
    if not np.isfinite(success).all():
        raise MetricsError("Kraus stack's squared amplitudes overflow the largest float")
    if not (success >= HERALD_MIN).all():
        raise MetricsError(f"Kraus stack heralds a basis or conjugate input with probability {success.min():g}")
    t = t / success[..., None, None, :]
    q = 0.5 * np.einsum("...kji->...jk", t[..., 0, :, :, :])
    q.setflags(write=False)
    p_c = 0.5 * np.einsum("...kii->...", t[..., 1, :, :, :])
    return q, distinguishability(np.einsum("...ii->...", q), p_c)
