"""Two-photon simulation of the non-deterministic optical QND gate.

A signal photon and a meter photon, each a polarization qubit, are split
into spatial rails (s_H, s_V, m_H, m_V); the horizontal rails interfere
non-classically on a beamsplitter of reflectivity eta. Detecting exactly
one photon at the meter output (and none at any dump port) heralds a QND
measurement of the signal polarization. Loss is modeled unitarily by a
beamsplitter into an explicit dump mode, so the full mode transformation
stays unitary and "no photon in the dump" is a literal pattern constraint.

``run_gate`` and ``heralded_kraus`` read the gate off the 2x2 permanents
of the mode unitary; the Fock-space expansion (``FockState``,
``two_photon_input``, ``lift_two_photon``) is kept as their reference.

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
from .cnot_qnd import ZERO_BRANCH
from .hilbert import NORM_ATOL, Z_BASIS, PureState

A_MAX = math.sqrt(3.0) / 2.0
A_MAX_ATOL = 1e-12  # strength a accepted up to A_MAX + A_MAX_ATOL, then clipped to A_MAX
UNITARY_ATOL = 1e-12  # largest entry of |U^dag U - 1| accepted as unitary
CIRCUIT_CACHE_SIZE = 8  # validated gates kept, one per (eta, include_signal_loss)
_SIG, _MET, _DUMP = slice(0, 2), slice(2, 4), slice(4, None)  # the gate's signal, meter, dump modes

# polarization qubit convention: index 0 = H, 1 = V
POL_LABELS = ("H", "V")


class PhotonicsError(ValueError):
    """Invalid circuit parameter or photon configuration."""


@dataclass(frozen=True)
class ModeLayout:
    """Named optical modes with contiguous indices."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise PhotonicsError("mode names must be unique")

    def index(self, name: str) -> int:
        return self.names.index(name)

    @property
    def n_modes(self) -> int:
        return len(self.names)

    @property
    def signal_modes(self) -> tuple[int, int]:
        return (self.index("s_H"), self.index("s_V"))

    @property
    def meter_modes(self) -> tuple[int, int]:
        return (self.index("m_H"), self.index("m_V"))

    @property
    def dump_modes(self) -> tuple[int, ...]:
        return tuple(i for i, n in enumerate(self.names) if n.startswith("dump"))


@dataclass(frozen=True)
class LinearCircuit:
    """Unitary mode transformation with a record of its optical elements."""

    layout: ModeLayout
    u: np.ndarray
    elements: tuple = ()

    def __post_init__(self):
        u = np.array(self.u, dtype=complex)
        m = self.layout.n_modes
        if u.shape != (m, m):
            raise PhotonicsError(f"mode matrix shape {u.shape}, expected ({m},{m})")
        if not (np.abs(u.conj().T @ u - np.eye(m)) <= UNITARY_ATOL).all():  # NaN fails too
            raise PhotonicsError("mode matrix is not unitary")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    def to_json(self) -> dict:
        return {
            "modes": list(self.layout.names),
            "elements": [dict(e) for e in self.elements],
            "u_re": self.u.real.tolist(),
            "u_im": self.u.imag.tolist(),
        }


class FockState:
    """Two-photon state: map from mode occupation pattern to amplitude."""

    def __init__(self, n_modes: int, amps: dict):
        self.n_modes = n_modes
        clean = {}
        for pattern, amp in amps.items():
            pattern = tuple(int(x) for x in pattern)
            if len(pattern) != n_modes:
                raise PhotonicsError(f"pattern {pattern} has wrong mode count")
            if sum(pattern) != 2 or min(pattern) < 0:
                raise PhotonicsError(f"pattern {pattern} is not a two-photon pattern")
            if amp != 0:
                clean[pattern] = complex(amp)
        norm = math.sqrt(sum(abs(a) ** 2 for a in clean.values()))
        if abs(norm - 1.0) > NORM_ATOL:
            raise PhotonicsError(f"two-photon state not normalized: |amp|^2 = {norm**2}")
        self.amps = clean

    def amplitude(self, pattern) -> complex:
        return self.amps.get(tuple(pattern), 0.0j)

    def probability(self, pattern) -> float:
        return abs(self.amplitude(pattern)) ** 2

    def items(self):
        return self.amps.items()


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
    return PureState(
        (2,),
        np.array([math.sqrt(1.0 / (1.0 + eta)), math.sqrt(eta / (1.0 + eta))]),
    )


def meter_prep_strength(a: float) -> PureState:
    """Variable-strength meter a|H> + sqrt(1-a^2)|V>, a in [0, sqrt(3)/2].

    a = 0 leaves the signal unmeasured; a = sqrt(3)/2 reproduces |D(1/3)>,
    the projective limit of the eta = 1/3 gate.
    """
    if not (0.0 <= a <= A_MAX + A_MAX_ATOL):
        raise PhotonicsError(f"strength a must lie in [0, {A_MAX:.6f}], got {a}")
    a = min(a, A_MAX)
    return PureState((2,), np.array([a, math.sqrt(1.0 - a * a)]))


# HWP at 22.5 degrees on the meter polarization pair (H, V)
HWP = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)


def build_qnd_circuit(
    eta: float, include_signal_loss: bool = False
) -> tuple[ModeLayout, LinearCircuit]:
    """Assemble the gate: eta-BS on the horizontal rails, optional 1/3-
    transmittance balancing loss on s_V, and the output HWP on the meter.
    Built and validated once per (eta, include_signal_loss), then reused."""
    if not (0.0 < eta < 1.0):
        raise PhotonicsError(f"eta must lie in (0, 1), got {eta}")
    return _qnd_circuit(float(eta), bool(include_signal_loss))


@functools.lru_cache(maxsize=CIRCUIT_CACHE_SIZE)
def _qnd_circuit(eta: float, include_signal_loss: bool) -> tuple[ModeLayout, LinearCircuit]:
    # U is written block by block on the modes s_H 0, s_V 1, m_H 2, m_V 3, dump_s 4
    names = ("s_H", "s_V", "m_H", "m_V") + (("dump_s",) if include_signal_loss else ())
    elements = [{"kind": "beamsplitter", "modes": ("s_H", "m_H"), "eta": eta}]
    u = np.eye(len(names), dtype=complex)
    u[0:3:2, 0:3:2] = bs_matrix(eta)
    if include_signal_loss:
        elements.append(
            {"kind": "loss_beamsplitter", "modes": ("s_V", "dump_s"), "transmittance": 1.0 / 3.0}
        )
        u[1:5:3, 1:5:3] = bs_matrix(1.0 / 3.0)
    elements.append({"kind": "half_wave_plate", "modes": ("m_H", "m_V"), "angle_deg": 22.5})
    u[_MET] = HWP @ u[_MET]
    layout = ModeLayout(names)
    return layout, LinearCircuit(layout, u, tuple(tuple(e.items()) for e in elements))


def lift_two_photon(circuit: LinearCircuit, state: FockState) -> FockState:
    """Propagate a two-photon state through the mode unitary.

    Input creation operators transform as a_j^dag -> sum_i U_ij a_i^dag;
    the two-photon polynomial is expanded directly, with the sqrt(n!)
    bosonic normalization handled per pattern.
    """
    m = circuit.layout.n_modes
    if state.n_modes != m:
        raise PhotonicsError("state and circuit mode counts differ")
    u = circuit.u
    out: dict = {}
    for pattern, amp in state.items():
        occupied = [i for i, n in enumerate(pattern) for _ in range(n)]
        j1, j2 = occupied
        pre = amp / (math.sqrt(2.0) if j1 == j2 else 1.0)
        c1, c2 = u[:, j1], u[:, j2]
        for i in range(m):
            # diagonal monomial (a_i^dag)^2 |0> = sqrt(2) |2_i>
            coeff = pre * c1[i] * c2[i] * math.sqrt(2.0)
            if coeff != 0:
                key = tuple(2 if k == i else 0 for k in range(m))
                out[key] = out.get(key, 0.0j) + coeff
            for k in range(i + 1, m):
                coeff = pre * (c1[i] * c2[k] + c1[k] * c2[i])
                if coeff != 0:
                    key = tuple(1 if x in (i, k) else 0 for x in range(m))
                    out[key] = out.get(key, 0.0j) + coeff
    return FockState(m, out)


def two_photon_input(signal_pol: PureState, meter_pol: PureState, layout: ModeLayout) -> FockState:
    """One photon in the signal rails and one in the meter rails."""
    if signal_pol.dim != 2 or meter_pol.dim != 2:
        raise PhotonicsError("signal and meter must be single-photon polarization qubits")
    m = layout.n_modes
    s_idx, m_idx = layout.signal_modes, layout.meter_modes
    amps = {}
    for i in range(2):
        for j in range(2):
            amp = signal_pol.amps[i] * meter_pol.amps[j]
            if amp != 0:
                pattern = [0] * m
                pattern[s_idx[i]] += 1
                pattern[m_idx[j]] += 1
                amps[tuple(pattern)] = amp
    return FockState(m, amps)


@dataclass(frozen=True)
class CoincidenceResult:
    """Post-selected outcome of one gate run.

    ``conditional_joint`` is the heralded (signal polarization, meter
    polarization) two-qubit state, renormalized on success; the failure
    probability is broken down by pattern class.
    """

    success_prob: float
    conditional_joint: PureState | None
    failure_breakdown: dict

    def to_json(self) -> dict:
        return {
            "success_prob": self.success_prob,
            "conditional_joint": None
            if self.conditional_joint is None
            else self.conditional_joint.to_json(),
            "failure_breakdown": dict(self.failure_breakdown),
        }


def _output_amplitudes(circuit: LinearCircuit, signal: np.ndarray, meter: PureState) -> np.ndarray:
    """Phi = U_s (signal meter^T) U_m^T + transpose, batched over ``signal[..., :]``.

    Phi[y, z] is the amplitude of one photon in each of the output modes
    y != z, and sqrt(2) times that of two photons in y = z.
    """
    if signal.shape[-1] != 2 or meter.dim != 2:
        raise PhotonicsError("signal and meter must be single-photon polarization qubits")
    u = circuit.u
    t = (signal @ u[:, _SIG].T)[..., :, None] * (u[:, _MET] @ meter.amps)
    return t + np.swapaxes(t, -1, -2)


def heralded_kraus(
    meter: PureState, eta: float = 1.0 / 3.0, include_signal_loss: bool = False
) -> np.ndarray:
    """Kraus operators of the heralded gate on the signal, shape (2, 2, 2).

    ``heralded_kraus(...)[k][i', i]`` is the amplitude that signal
    polarization i leaves as i' with the meter read as k after the HWP,
    sum_j meter_j perm U[(s_i', m_k), (s_i, m_j)]. The stack is trace-
    decreasing: sum_k |M_k psi|^2 is the heralding probability.
    """
    _, circuit = build_qnd_circuit(eta, include_signal_loss)
    phi = _output_amplitudes(circuit, np.eye(2), meter)
    return phi[:, _SIG, _MET].transpose(2, 1, 0)


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
    _, circuit = build_qnd_circuit(eta, include_signal_loss)
    phi = _output_amplitudes(circuit, signal_pol.amps, meter_pol)
    # summed over ordered mode pairs, p counts each two-photon pattern once
    p = np.abs(phi) ** 2 / 2.0
    joint = phi[_SIG, _MET]
    success = float(2.0 * p[_SIG, _MET].sum())
    failures = {
        "both_in_signal": float(p[_SIG, _SIG].sum()),
        "both_in_meter": float(p[_MET, _MET].sum()),
        "dump": float(2.0 * p[_DUMP].sum() - p[_DUMP, _DUMP].sum()),
    }
    conditional = None
    if success > ZERO_BRANCH:
        conditional = PureState((2, 2), joint.ravel() / math.sqrt(success))
    return CoincidenceResult(success, conditional, failures)


def analytic_success(alpha: complex, beta: complex, include_signal_loss: bool = False) -> float:
    """Closed-form success probability at eta = 1/3 with meter |D(1/3)>.

    (|alpha|^2 + 3 |beta|^2)/6 without the balancing loss; 1/6 for every
    input once the 2/3 loss on s_V is included.
    """
    n = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(n - 1.0) > NORM_ATOL:
        raise PhotonicsError("input amplitudes must be normalized")
    if include_signal_loss:
        return 1.0 / 6.0
    return (abs(alpha) ** 2 + 3.0 * abs(beta) ** 2) / 6.0


def strength_distinguishability(a: float, eta: float = 1.0 / 3.0):
    """(K, K_bar) of the post-selected variable-strength gate.

    Read off the heralded Kraus stack by ``metrics.kraus_figures`` in the
    H/V basis: K from the heralded likelihood L that the meter readout
    matches the signal output, K_bar from diagonal/antidiagonal signals
    read out in that basis. The balancing loss is always included in this
    regime. Also returns the equivalent CNOT strength gamma_eff = sqrt(L).
    """
    m = heralded_kraus(meter_prep_strength(a), eta, include_signal_loss=True)
    joint, pair = metrics.kraus_figures(m, Z_BASIS)
    return pair, math.sqrt(float(np.trace(joint.q)))
