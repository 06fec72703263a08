"""Variable-strength QND measurement of a qubit via a CNOT gate.

The signal qubit controls a CNOT whose target (the meter) is prepared in
gamma|0> + gamma_bar|1>, gamma in [1/sqrt(2), 1]. gamma = 1 gives a
projective QND measurement of the chosen observable; gamma = 1/sqrt(2)
turns the measurement off. Measurement in an arbitrary basis is obtained
by conjugating the CNOT with the rotation taking that basis to the
computational one.

Every statistic here is read from the gate's Kraus operators on the
signal, a (2, 2, 2) stack indexed by meter outcome (``kraus``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert as hs
from . import metrics
from .hilbert import BasisSpec, DensityMatrix, ProbDist, PureState

GAMMA_MIN = 1.0 / math.sqrt(2.0)
GAMMA_ATOL = 1e-12
# branch probability below which a meter outcome has no post-measurement state
ZERO_BRANCH = 1e-14


class StrengthError(ValueError):
    """Meter amplitude outside the admissible range [1/sqrt(2), 1]."""


@dataclass(frozen=True)
class MeterPrep:
    """Measurement strength: meter prepared in gamma|0> + gamma_bar|1>."""

    gamma: float

    def __post_init__(self):
        if not (GAMMA_MIN - GAMMA_ATOL <= self.gamma <= 1.0 + GAMMA_ATOL):
            raise StrengthError(
                f"gamma out of range [{GAMMA_MIN:.4f}, 1]: {self.gamma}"
            )

    @property
    def gamma_bar(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.gamma**2))


def meter_state(prep: MeterPrep) -> PureState:
    """The meter input state gamma|0> + gamma_bar|1>."""
    return PureState((2,), np.array([prep.gamma, prep.gamma_bar], dtype=complex))


@dataclass(frozen=True)
class QNDOutcome:
    """Full record of one gate run: joint state, reductions and statistics.

    ``conditional[i]`` holds, for meter outcome i: its probability, the
    post-measurement signal state, and the probability p_{|i>|i} that the
    signal output is then found in basis eigenstate i.
    """

    joint: PureState
    rho_s: DensityMatrix
    rho_m: DensityMatrix
    p_in: ProbDist
    p_out: ProbDist
    p_m: ProbDist
    conditional: tuple


def kraus(prep: MeterPrep, basis: BasisSpec = hs.Z_BASIS) -> np.ndarray:
    """Kraus operators of the gate on the signal, shape (2, 2, 2).

    ``kraus(prep, basis)[k]`` is M_k = R^dag diag(c_k, c_{1-k}) R with
    c = (gamma, gamma_bar) and R the rotation taking ``basis`` to the
    computational basis: M_k |psi> is the signal branch that goes with
    meter reading k.
    """
    if basis.dim != 2:
        raise hs.HilbertError("observable basis must be a qubit basis")
    c = np.array([[prep.gamma, prep.gamma_bar], [prep.gamma_bar, prep.gamma]])
    v = basis.vectors
    return (v * c[:, None, :]) @ v.conj().T


def _statistics(m: np.ndarray, basis: BasisSpec, amps: np.ndarray):
    """Signal branches and (p_in, p_m, p_out) of inputs ``amps`` (last axis)."""
    branches = np.einsum("ksi,...i->...ks", m, amps)
    to_basis = basis.vectors.conj()
    p_in = np.abs(amps @ to_basis) ** 2
    p_m = (np.abs(branches) ** 2).sum(axis=-1)
    p_out = (np.abs(branches @ to_basis) ** 2).sum(axis=-2)
    return branches, p_in, p_m, p_out


def run(signal: PureState, prep: MeterPrep, basis: BasisSpec = hs.Z_BASIS) -> QNDOutcome:
    """Run the QND gate on a 1-qubit signal and collect all statistics.

    The joint output is R^dag (CNOT) (R x I) |signal>|meter> with R the
    rotation taking ``basis`` to the computational basis; the meter is
    always read out in the computational basis. Its meter-k column is
    M_k |signal>, with M_k from ``kraus``.
    """
    if signal.dim != 2:
        raise hs.HilbertError("signal must be a single qubit")
    branches, p_in, p_m, p_out = _statistics(kraus(prep, basis), basis, signal.amps)
    conditional = []
    for k in range(2):
        if p_m[k] < ZERO_BRANCH:
            conditional.append((0.0, None, 0.0))
            continue
        post = PureState.from_amplitudes(branches[k], dims=(2,))
        p_match = abs(np.vdot(basis.vectors[:, k], post.amps)) ** 2
        conditional.append((float(p_m[k]), post, p_match))
    joint = branches.T
    rho_s = DensityMatrix((2,), joint @ joint.conj().T)
    rho_m = DensityMatrix((2,), branches @ branches.conj().T)
    return QNDOutcome(
        PureState((2, 2), joint), rho_s, rho_m, ProbDist(p_in), ProbDist(p_out), ProbDist(p_m),
        tuple(conditional),
    )


def pauli_ensemble() -> list[tuple[str, PureState]]:
    """The six Pauli eigenstates; default probe set spanning the qubit space."""
    s = 1 / math.sqrt(2)
    return [
        ("|0>", hs.qubit(1, 0)),
        ("|1>", hs.qubit(0, 1)),
        ("|+>", hs.qubit(s, s)),
        ("|->", hs.qubit(s, -s)),
        ("|+i>", hs.qubit(s, 1j * s)),
        ("|-i>", hs.qubit(s, -1j * s)),
    ]


def characterize(
    prep: MeterPrep,
    basis: BasisSpec = hs.Z_BASIS,
    ensemble=None,
) -> tuple[metrics.FidelityReport, metrics.DistinguishabilityPair, dict]:
    """Evaluate the device against all quality measures.

    F_M and F_QND are computed per ensemble input; the headline values
    are worst case over the ensemble. F_QSP (= likelihood L), K and K_bar
    are read off the Kraus stack by ``metrics.kraus_figures``: the
    maximally mixed input for F_QSP, the conjugate eigenstates for K_bar.
    Both C^2 conventions are returned: ``c2_raw`` evaluates the
    correlation function on the joint outcome statistics, ``c2_shortcut``
    is the qubit identity 2 F_QSP - 1; they differ for intermediate
    strengths (the raw form equals the square of the shortcut here).
    """
    if ensemble is None:
        ensemble = pauli_ensemble()
    if len(ensemble) == 0:
        raise ValueError("ensemble must be nonempty")
    m = kraus(prep, basis)
    amps = np.array([state.amps for _, state in ensemble])
    _, p_in, p_m, p_out = _statistics(m, basis, amps)
    per_input = [
        (label, metrics.measurement_fidelity(pi, pm), metrics.qnd_fidelity(pi, po))
        for (label, _), pi, pm, po in zip(ensemble, p_in, p_m, p_out)
    ]

    joint, pair = metrics.kraus_figures(m, basis)
    f_qsp = float(np.trace(joint.q))

    fms = [fm for (_, fm, _) in per_input]
    fqnds = [fq for (_, _, fq) in per_input]
    report = metrics.FidelityReport(
        f_m=min(fms),
        f_qnd=min(fqnds),
        f_qsp=f_qsp,
        per_input=tuple(per_input),
        f_m_mean=float(np.mean(fms)),
        f_qnd_mean=float(np.mean(fqnds)),
    )
    c2 = {
        "c2_raw": metrics.correlation_c2(joint),
        "c2_shortcut": metrics.c2_from_fqsp(f_qsp),
    }
    return report, pair, c2


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    f_m: float
    f_qnd: float
    f_qsp: float
    k: float
    k_bar: float
    englert: float
    c2_raw: float
    c2_shortcut: float

    def to_json(self) -> dict:
        return {f: getattr(self, f) for f in SWEEP_FIELDS}


SWEEP_FIELDS = (
    "gamma",
    "f_m",
    "f_qnd",
    "f_qsp",
    "k",
    "k_bar",
    "englert",
    "c2_raw",
    "c2_shortcut",
)

CSV_HEADER = ",".join(SWEEP_FIELDS)


def strength_sweep(gammas, basis: BasisSpec = hs.Z_BASIS, ensemble=None) -> list[SweepRow]:
    """Characterize the device on a grid of strengths, in the given order."""
    rows = []
    for g in gammas:
        report, pair, c2 = characterize(MeterPrep(float(g)), basis, ensemble)
        rows.append(
            SweepRow(
                gamma=float(g),
                f_m=report.f_m,
                f_qnd=report.f_qnd,
                f_qsp=report.f_qsp,
                k=pair.k,
                k_bar=pair.k_bar,
                englert=pair.englert_lhs,
                c2_raw=c2["c2_raw"],
                c2_shortcut=c2["c2_shortcut"],
            )
        )
    return rows


def sweep_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(f"{getattr(r, f):.12g}" for f in SWEEP_FIELDS))
    return "\n".join(lines) + "\n"


def sweep_to_json(rows) -> list[dict]:
    return [r.to_json() for r in rows]
