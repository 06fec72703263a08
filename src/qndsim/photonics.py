"""Two-photon simulation of the non-deterministic optical QND gate.

A signal photon and a meter photon, each a polarization qubit, are split
into spatial rails (s_H, s_V, m_H, m_V); the horizontal rails interfere
non-classically on a beamsplitter of reflectivity eta. Detecting exactly
one photon at the meter output (and none at any dump port) heralds a QND
measurement of the signal polarization. Loss is modeled unitarily by a
beamsplitter into an explicit dump mode, so the full mode transformation
stays unitary and "no photon in the dump" is a literal pattern constraint.

``run_gate`` and ``heralded_kraus`` read the gate off one cached pair map
per (eta, loss), the 2x2 permanents of its mode unitary. The unitary is
U_0 + sqrt(eta) U_r + sqrt(1 - eta) U_t, so each pair map is built as one
product of the six monomials in sqrt(eta) and sqrt(1 - eta) with six terms
computed at import, where the unitarity of every U(eta) is checked once.
The a-scan reads a cached (3, 8) quadratic form per eta off the pair map's heralded
rows, its stack being linear in the meter amplitudes (a, sqrt(1 - a^2)).
The polarization qubits index H as 0 and V as 1.

Sign conventions: the eta-beamsplitter follows the Heisenberg relations
s_Ho = sqrt(eta) s_H + sqrt(1-eta) m_H, m_Ho = sqrt(1-eta) s_H -
sqrt(eta) m_H; the output half-wave plate at 22.5 degrees acts on the
meter polarization as the Hadamard rotation, which with these relations
maps the heralded meter onto the same polarization as the signal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .hilbert import ZERO_BRANCH, Z_BASIS, PureState

A_MAX = math.sqrt(3.0) / 2.0
A_MAX_ATOL = 1e-12  # strength a accepted up to A_MAX + A_MAX_ATOL, then clipped to A_MAX
UNITARY_ATOL = 1e-12  # largest entry of |U^dag U - 1| accepted as unitary
CIRCUIT_CACHE_SIZE = 8  # pair maps kept, one per (eta, include_signal_loss)
_SIG, _MET = slice(0, 2), slice(2, 4)  # the gate's signal and meter modes
_NOT_QUBITS = "signal and meter must be single-photon polarization qubits"


class PhotonicsError(ValueError):
    """Invalid circuit parameter or photon configuration."""


def bs_matrix(eta: float) -> np.ndarray:
    """Beamsplitter of reflectivity eta with the pi phase on one reflection."""
    if not (0.0 <= eta <= 1.0):
        raise PhotonicsError(f"eta must lie in [0, 1], got {eta}")
    r, t = math.sqrt(eta), math.sqrt(1.0 - eta)
    return np.array([[r, t], [t, -r]])


def hom_reduction(eta: float) -> float:
    """Two-photon coincidence suppression factor (1-2eta)^2 / ((1-eta)^2 + eta^2).

    The single-photon-per-port probability after the beamsplitter equals
    this factor times the classical value (1-eta)^2 + eta^2; it vanishes
    at the balanced point eta = 1/2.
    """
    if not (0.0 <= eta <= 1.0):
        raise PhotonicsError(f"eta must lie in [0, 1], got {eta}")
    return (1.0 - 2.0 * eta) ** 2 / ((1.0 - eta) ** 2 + eta**2)


def meter_prep(eta: float) -> PureState:
    """Meter input |D(eta)> = sqrt(1/(1+eta))|H> + sqrt(eta/(1+eta))|V>.

    Pre-compensates the beamsplitter loss on the meter H component so the
    heralded meter outputs for the two signal eigenstates are orthogonal.
    """
    if not (0.0 < eta <= 1.0):
        raise PhotonicsError(f"eta must lie in (0, 1], got {eta}")
    return PureState(np.array([math.sqrt(1.0 / (1.0 + eta)), math.sqrt(eta / (1.0 + eta))]))


def meter_prep_strength(a: float) -> PureState:
    """Variable-strength meter a|H> + sqrt(1-a^2)|V>, a in [0, sqrt(3)/2].

    a = 0 leaves the signal unmeasured; a = sqrt(3)/2 reproduces |D(1/3)>,
    the projective limit of the eta = 1/3 gate.
    """
    return PureState(_strength_amps(a))


def _strength_amps(a: float) -> tuple[float, float]:
    """The amplitudes (a, sqrt(1 - a^2)) of ``meter_prep_strength``, a checked and clipped."""
    if not (0.0 <= a <= A_MAX + A_MAX_ATOL):
        raise PhotonicsError(f"strength a must lie in [0, {A_MAX:.6f}], got {a}")
    a = min(a, A_MAX)
    return a, math.sqrt(1.0 - a * a)


# HWP at 22.5 degrees on the meter polarization pair (H, V)
HWP = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)


def _check_eta(eta) -> float:
    if not (0.0 < eta < 1.0):
        raise PhotonicsError(f"eta must lie in (0, 1), got {eta}")
    return float(eta)


def _check_unitary(u: np.ndarray) -> None:
    if not (np.abs(u.conj().T @ u - np.eye(len(u))) <= UNITARY_ATOL).all():  # NaN fails too
        raise PhotonicsError("mode matrix is not unitary")


def _gate_constants(loss: bool) -> tuple[np.ndarray, np.ndarray]:
    """The parts (U_0, U_r, U_t) of the gate's U(eta) = U_0 + sqrt(eta) U_r + sqrt(1 - eta) U_t
    on the modes s_H 0, s_V 1, m_H 2, m_V 3 (dump_s 4), and the (4, n^2) weights that sum
    |Phi[y, z]|^2 into success, both_in_signal, both_in_meter and dump; each pattern appears
    as (y, z) and (z, y)."""
    n = 4 + loss
    parts = np.zeros((3, n, n), complex)
    parts[0] = np.diag([0.0, 1.0, 0.0, 1.0, 1.0][:n])
    if loss:
        parts[0, 1:5:3, 1:5:3] = bs_matrix(1.0 / 3.0)
    parts[1, 0, 0] = parts[2, 0, 2] = parts[2, 2, 0] = 1.0  # the eta-BS rows (r, t) of s_H
    parts[1, 2, 2] = -1.0  # and (t, -r) of m_H, which the HWP then splits
    parts[:, _MET] = HWP @ parts[:, _MET]
    c = [0, 0, 1, 1, 3][:n]  # mode class: signal 0, meter 1, dump 3
    pair = [cy + cz for cy in c for cz in c]  # 1 success, 0 and 2 both in one arm, >= 3 dump
    return parts, 0.5 * np.array([[p == 1, p == 0, p == 2, p >= 3] for p in pair], dtype=float).T


def _mode_unitary(eta: float, parts: np.ndarray) -> np.ndarray:
    return parts[0] + math.sqrt(eta) * parts[1] + math.sqrt(1.0 - eta) * parts[2]


def _pair_terms(parts: np.ndarray) -> np.ndarray:
    """The (6, 4 n^2 + 16) terms T_m of ``_pair_map``'s A and heralded rows, flattened side
    by side: both are sum_m c_m T_m over c = (1, r, t, r^2, r t, t^2), r = sqrt(eta) and
    t = sqrt(1 - eta), being bilinear in U = U_0 + r U_r + t U_t. PhotonicsError unless
    U(eta) is unitary at five eta: in theta = arccos r, each entry of U^dag U - 1 is a
    trigonometric polynomial of degree <= 2, a space of dimension 5, so one that vanishes
    at five distinct theta vanishes at every eta."""
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
        _check_unitary(_mode_unitary(eta, parts))
    t = parts[:, None, :, None, _SIG, None] * parts[None, :, None, :, None, _MET]
    t = t + t.transpose(0, 1, 3, 2, 4, 5)  # [a, b, y, z, i, j] = P_a[y, i] P_b[z, 2+j] + (y <-> z)
    a, b = np.triu_indices(3)  # the monomials 1, r, t, r^2, r t, t^2 as part pairs
    t = (t + t.swapaxes(0, 1))[a, b] * np.where(a == b, 0.5, 1.0)[:, None, None, None, None]
    herald = t[:, _SIG, _MET].transpose(0, 2, 1, 3, 4)
    return np.concatenate((t.reshape(6, -1), herald.reshape(6, -1)), axis=1)


_GATE = {loss: _gate_constants(loss) for loss in (False, True)}
_TERMS = {loss: _pair_terms(_GATE[loss][0]) for loss in (False, True)}


@functools.lru_cache(maxsize=CIRCUIT_CACHE_SIZE)
def _pair_map(eta: float, loss: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, its heralded rows as [meter k, signal i', signal i, meter j], class
    weights) of one gate. A[y n + z, 2 i + j] = U[y, i] U[z, 2 + j] + U[z, i] U[y, 2 + j]
    sends the input amplitudes s_i m_j to Phi[y, z], the amplitude of one photon in each
    of the modes y != z, sqrt(2) times that of two in y = z."""
    r, t = math.sqrt(eta), math.sqrt(1.0 - eta)
    maps = np.array([1.0, r, t, r * r, r * t, t * t]) @ _TERMS[loss]
    maps.setflags(write=False)
    return maps[:-16].reshape(-1, 4), maps[-16:].reshape(2, 2, 2, 2), _GATE[loss][1]


@functools.lru_cache(maxsize=CIRCUIT_CACHE_SIZE)
def _strength_forms(eta: float) -> np.ndarray:
    """The a-scan's ``metrics._strength_forms`` of the lossy gate at eta, meter |H> and |V>."""
    return metrics._strength_forms(_pair_map(eta, True)[1], Z_BASIS)


@dataclass(frozen=True, eq=False)
class CoincidenceResult:
    """Post-selected outcome of one gate run.

    ``conditional_joint`` is the heralded state as a read-only complex (2, 2) array
    J[i', k], signal polarization i' before meter polarization k, normalized on success
    (None without); the failure probability is broken down by pattern class.
    """

    success_prob: float
    conditional_joint: np.ndarray | None
    failure_breakdown: dict

    def to_json(self) -> dict:
        j = None if self.conditional_joint is None else self.conditional_joint.ravel()  # signal-major
        joint = None if j is None else {"dims": [2, 2], "re": j.real.tolist(), "im": j.imag.tolist()}
        return {
            "success_prob": self.success_prob,
            "conditional_joint": joint,
            "failure_breakdown": dict(self.failure_breakdown),
        }


def heralded_kraus(
    meter: PureState, eta: float = 1.0 / 3.0, include_signal_loss: bool = False
) -> np.ndarray:
    """Kraus operators of the heralded gate on the signal, shape (2, 2, 2).

    ``heralded_kraus(...)[k][i', i]`` is the amplitude that signal
    polarization i leaves as i' with the meter read as k after the HWP,
    sum_j meter_j perm U[(s_i', m_k), (s_i, m_j)]. The stack is trace-
    decreasing: sum_k |M_k psi|^2 is the heralding probability.
    """
    _, herald, _ = _pair_map(_check_eta(eta), bool(include_signal_loss))
    if meter.dim != 2:
        raise PhotonicsError(_NOT_QUBITS)
    return herald @ meter.amps


def run_gate(
    signal_pol: PureState,
    meter_pol: PureState,
    eta: float = 1.0 / 3.0,
    include_signal_loss: bool = False,
) -> CoincidenceResult:
    """Simulate the full gate and apply coincidence post-selection.

    Success: exactly one photon among the signal outputs, exactly one
    among the meter outputs, and none in any dump mode.
    """
    loss = bool(include_signal_loss)
    a, _, weights = _pair_map(_check_eta(eta), loss)
    if signal_pol.dim != 2 or meter_pol.dim != 2:
        raise PhotonicsError(_NOT_QUBITS)
    phi = a @ (signal_pol.amps[:, None] * meter_pol.amps).ravel()
    success, both_in_signal, both_in_meter, dump = (weights @ np.abs(phi) ** 2).tolist()
    failures = {"both_in_signal": both_in_signal, "both_in_meter": both_in_meter, "dump": dump}
    conditional = None
    if success > ZERO_BRANCH:
        conditional = phi.reshape(4 + loss, -1)[_SIG, _MET] / math.sqrt(success)
        conditional.setflags(write=False)
    return CoincidenceResult(success, conditional, failures)


def strength_distinguishability(a: float, eta: float = 1.0 / 3.0):
    """(K, K_bar) of the post-selected variable-strength gate.

    K from the heralded likelihood L that the meter readout matches the signal output, K_bar
    from diagonal/antidiagonal signals read out in the H/V basis, each input conditioned on
    its own heralding, as ``metrics._read`` reads ``heralded_kraus`` of the checked a and eta
    with the balancing loss: L, P_c and the heralding are quadratic forms in the meter
    amplitudes (a, abar), kept per eta by ``_strength_forms``. The pair is range-checked as
    it leaves. Also returns the equivalent CNOT strength sqrt(L).
    """
    forms = _strength_forms(_check_eta(eta))
    a, a_bar = _strength_amps(a)
    n = (np.array([a * a, a * a_bar, a_bar * a_bar]) @ forms).tolist()
    try:
        likelihood, p_c = n[0] / n[4] + n[1] / n[5], n[2] / n[6] + n[3] / n[7]
    except ZeroDivisionError:  # a heralding probability underflows, e.g. at eta = 5e-324
        raise PhotonicsError(f"the gate heralds an input with probability 0 at a = {a}, eta = {eta}") from None
    pair = metrics.distinguishability(likelihood, p_c)
    return pair, math.sqrt((pair.k + 1.0) / 2.0)
