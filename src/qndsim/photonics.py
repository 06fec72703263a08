"""Two-photon model of the non-deterministic optical QND gate.

A signal and a meter photon, each a polarization qubit (H = 0, V = 1), are
split into rails s_H, s_V, m_H, m_V. The H rails meet on a beamsplitter of
reflectivity eta: s_Ho = r s_H + t m_H, m_Ho = t s_H - r m_H, r = sqrt(eta),
t = sqrt(1 - eta). An optional balancing loss passes s_V with amplitude
l = 1/sqrt(3) and sends the rest to a dump port (l = 1 without it). One
photon among the signal outputs, one among the meter outputs and none in the
dump herald a QND measurement of the signal polarization; the output
half-wave plate at 22.5 degrees (the Hadamard on the meter polarization)
maps the heralded meter onto the signal's polarization.

Heralded, the gate keeps both polarizations and, before the HWP, scales
each input product s_i m_j by D = [[1 - 2 eta, r], [-r l, l]]. D[H][H] =
t^2 - r^2 is the Hong-Ou-Mandel amplitude of the two H photons: both
transmitted (they swap arms, t^2) or both reflected (each stays in its arm,
-r^2, the pi phase on the meter's reflection). H with V is heralded when the
signal reflects (r), V with H when the meter reflects and the signal passes
the loss (-r l). The HOM pair bunches into either arm with probability
2 eta (1 - eta), so the failures are linear in the populations |s_i m_j|^2:

    both_in_signal = 2 eta (1 - eta) |s_H m_H|^2 + l^2 (1 - eta) |s_V m_H|^2
    both_in_meter  = 2 eta (1 - eta) |s_H m_H|^2 + (1 - eta) |s_H m_V|^2
    dump           = (1 - l^2) |s_V|^2,

and success is sum_ij D[i][j]^2 |s_i m_j|^2; the four sum to 1. ``run_gate``
and ``heralded_kraus`` read the gate off D in scalar arithmetic; the mode
unitary, its permanents and the Fock expansion check it in
``tests/oracles.py``. The a-scan reads the same table at the meter
(a, sqrt(1 - a^2)) with the balancing loss, and caches nothing per eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .hilbert import ZERO_BRANCH, PureState

A_MAX = math.sqrt(3.0) / 2.0
A_MAX_ATOL = 1e-12  # strength a accepted up to A_MAX + A_MAX_ATOL, then clipped to A_MAX
_HWP = 1.0 / math.sqrt(2.0)  # the output HWP on the meter's (H, V) is [[h, h], [h, -h]]
_NOT_QUBITS = "signal and meter must be single-photon polarization qubits"


class PhotonicsError(ValueError):
    """Invalid circuit parameter or photon configuration."""


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
    a = min(float(a), A_MAX)
    return a, math.sqrt(1.0 - a * a)


def _check_eta(eta) -> float:
    if not (0.0 < eta < 1.0):
        raise PhotonicsError(f"eta must lie in (0, 1), got {eta}")
    return float(eta)


def _herald_table(eta: float, loss: bool) -> tuple[tuple, float]:
    """(D, l^2) of the gate at eta, with or without the balancing loss: heralding scales
    the input product s_i m_j by D[i][j] before the HWP (see the module docstring)."""
    r, ell2 = math.sqrt(eta), 1.0 / 3.0 if loss else 1.0
    ell = math.sqrt(ell2)
    return ((1.0 - 2.0 * eta, r), (-r * ell, ell)), ell2


def _branches(d: tuple, m_h: complex, m_v: complex) -> tuple:
    """(G[H][H], G[H][V], G[V][H], G[V][V]), G[i][k] = sum_j HWP[k, j] D[i][j] m_j: the heralded
    amplitude, per unit signal amplitude, that signal polarization i keeps with the meter read as k."""
    (d_hh, d_hv), (d_vh, d_vv) = d
    x, y, u, v = d_hh * m_h, d_hv * m_v, d_vh * m_h, d_vv * m_v
    return _HWP * (x + y), _HWP * (x - y), _HWP * (u + v), _HWP * (u - v)


def _kraus(d: tuple, m_h: complex, m_v: complex) -> np.ndarray:
    """The diagonal stack M_k = diag_i(G[i][k]) at meter amplitudes (m_h, m_v), shape (2, 2, 2)."""
    g_hh, g_hv, g_vh, g_vv = _branches(d, m_h, m_v)
    return np.array((g_hh, 0.0, 0.0, g_vh, g_hv, 0.0, 0.0, g_vv), complex).reshape(2, 2, 2)


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
    polarization i leaves as i' with the meter read as k after the HWP:
    sum_j HWP[k, j] D[i][j] meter_j if i' = i, else 0. The stack is trace-
    decreasing: sum_k |M_k psi|^2 is the heralding probability.
    """
    d, _ = _herald_table(_check_eta(eta), bool(include_signal_loss))
    if meter.dim != 2:
        raise PhotonicsError(_NOT_QUBITS)
    return _kraus(d, *meter.amps.tolist())


def run_gate(
    signal_pol: PureState,
    meter_pol: PureState,
    eta: float = 1.0 / 3.0,
    include_signal_loss: bool = False,
) -> CoincidenceResult:
    """Run the gate and apply coincidence post-selection.

    Success: exactly one photon among the signal outputs, exactly one
    among the meter outputs, and none in any dump mode. The heralded joint
    is J[i', k] = s_i' G[i'][k] / sqrt(success); success and the failure
    classes are read off the populations.
    """
    eta = _check_eta(eta)
    d, ell2 = _herald_table(eta, bool(include_signal_loss))
    if signal_pol.dim != 2 or meter_pol.dim != 2:
        raise PhotonicsError(_NOT_QUBITS)
    s_h, s_v = signal_pol.amps.tolist()
    m_h, m_v = meter_pol.amps.tolist()
    p_h, p_v, q_h, q_v = abs(s_h) ** 2, abs(s_v) ** 2, abs(m_h) ** 2, abs(m_v) ** 2
    (d_hh, d_hv), (d_vh, d_vv) = d
    success = (d_hh**2 * q_h + d_hv**2 * q_v) * p_h + (d_vh**2 * q_h + d_vv**2 * q_v) * p_v
    bunched = 2.0 * eta * (1.0 - eta) * p_h * q_h  # the HOM pair, in either arm
    failures = {
        "both_in_signal": bunched + ell2 * (1.0 - eta) * p_v * q_h,
        "both_in_meter": bunched + (1.0 - eta) * p_h * q_v,
        "dump": (1.0 - ell2) * p_v,
    }
    conditional = None
    if success > ZERO_BRANCH:
        root = math.sqrt(success)
        g_hh, g_hv, g_vh, g_vv = _branches(d, m_h, m_v)
        conditional = np.array((s_h * g_hh / root, s_h * g_hv / root, s_v * g_vh / root, s_v * g_vv / root),
                               complex).reshape(2, 2)
        conditional.setflags(write=False)
    return CoincidenceResult(success, conditional, failures)


def strength_distinguishability(a: float, eta: float = 1.0 / 3.0):
    """(K, K_bar) of the post-selected variable-strength gate.

    K from the heralded likelihood L that the meter readout matches the signal output, K_bar
    from diagonal/antidiagonal signals read out in the H/V basis, each input conditioned on
    its own heralding, as ``metrics._read`` reads ``heralded_kraus`` of the checked a and eta
    with the balancing loss. That stack is M_k = diag_i G[i][k] at the meter (a, abar), so
    with s_i = G[i][H]^2 + G[i][V]^2, the heralding of |i>,

        L = (G[H][H]^2 / s_H + G[V][V]^2 / s_V) / 2,
        P_c = sum_k (G[H][k] + G[V][k])^2 / (2 (s_H + s_V)),

    |+> and |-> being heralded with (s_H + s_V) / 2. The pair is range-checked as it leaves.
    Also returns the equivalent CNOT strength sqrt(L).
    """
    d, _ = _herald_table(_check_eta(eta), True)
    a, a_bar = _strength_amps(a)
    g_hh, g_hv, g_vh, g_vv = _branches(d, a, a_bar)
    s_h, s_v = g_hh * g_hh + g_hv * g_hv, g_vh * g_vh + g_vv * g_vv
    try:
        likelihood = 0.5 * (g_hh * g_hh / s_h + g_vv * g_vv / s_v)
        p_c = ((g_hh + g_vh) ** 2 + (g_hv + g_vv) ** 2) / (2.0 * (s_h + s_v))
    except ZeroDivisionError:  # a heralding probability underflows, e.g. at eta = 5e-324
        raise PhotonicsError(f"the gate heralds an input with probability 0 at a = {a}, eta = {eta}") from None
    pair = metrics.distinguishability(likelihood, p_c)
    return pair, math.sqrt((pair.k + 1.0) / 2.0)
