"""Variable-strength QND measurement of a qubit via a CNOT gate.

The signal qubit controls a CNOT whose target (the meter) is prepared in
gamma|0> + gamma_bar|1>, gamma in [1/sqrt(2), 1]. gamma = 1 gives a
projective QND measurement of the chosen observable; gamma = 1/sqrt(2)
turns the measurement off. Measurement in an arbitrary basis is obtained
by conjugating the CNOT with the rotation taking that basis to the
computational one.

In its measured basis V the gate is diagonal: M_k = V diag(G[:, k]) V^dag, with
the branch table G = [[gamma, gamma_bar], [gamma_bar, gamma]] whatever V is.
``kraus`` builds that stack, which the sampler, the POVM and the CLI read;
``strength_sweep`` scores a grid of strengths in closed form on G and on the
populations of its probe states, and checks its inputs where they enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import hilbert as hs
from . import metrics
from .hilbert import BasisSpec, PureState

GAMMA_MIN = 1.0 / math.sqrt(2.0)
GAMMA_ATOL = 1e-12


class StrengthError(ValueError):
    """Meter amplitude outside the admissible range [1/sqrt(2), 1]."""


def _checked_gammas(gammas) -> np.ndarray:
    """``gammas`` as an array clipped to [1/sqrt(2), 1]; StrengthError naming
    the first value outside that range by more than GAMMA_ATOL, NaN included."""
    g = np.asarray(gammas)
    ok = (GAMMA_MIN - GAMMA_ATOL <= g) & (g <= 1.0 + GAMMA_ATOL)
    if not ok.all():
        raise StrengthError(f"gamma out of range [{GAMMA_MIN:.4f}, 1]: {g[~ok][0]}")
    return np.minimum(np.maximum(g, GAMMA_MIN), 1.0)


@dataclass(frozen=True)
class MeterPrep:
    """Measurement strength: meter prepared in gamma|0> + gamma_bar|1>.
    ``gamma`` holds the checked strength, clipped to [1/sqrt(2), 1]."""

    gamma: float

    def __post_init__(self):
        g = np.asarray(self.gamma)
        if g.ndim or g.dtype == bool:
            raise TypeError(f"gamma must be a number, got {self.gamma!r}")
        object.__setattr__(self, "gamma", float(_checked_gammas(g)))

    @property
    def gamma_bar(self) -> float:
        return math.sqrt(1.0 - self.gamma**2)


def kraus(prep: MeterPrep, basis: BasisSpec = hs.Z_BASIS) -> np.ndarray:
    """Kraus operators of the gate on the signal, shape (2, 2, 2).

    ``kraus(prep, basis)[k]`` is M_k = c_0 P_k + c_1 P_{1-k}, with c = (gamma, gamma_bar) and
    P_j the projector on the j-th vector of ``basis``, so the stack is linear in the meter
    amplitudes: M_k |psi> is the signal branch that goes with meter reading k.
    HilbertError if ``basis`` is not a qubit BasisSpec."""
    v = metrics._qubit_basis(basis, hs.HilbertError).vectors
    p = v.T[:, :, None] * v.conj().T[:, None, :]  # p[j] = v_j v_j^dag
    stacks = np.array([p, p[::-1]]).reshape(2, -1).view(float)  # the stacks at c = (1, 0) and (0, 1)
    return (np.array([prep.gamma, prep.gamma_bar]) @ stacks).view(complex).reshape(2, 2, 2)


_S = 1 / math.sqrt(2)
_PAULI_ENSEMBLE = (hs.KET0, hs.KET1, hs.PLUS, hs.MINUS, hs.qubit(_S, 1j * _S), hs.qubit(_S, -1j * _S))


def pauli_ensemble() -> list[PureState]:
    """The six Pauli eigenstates |0>, |1>, |+>, |->, |+i>, |-i>; default probe
    set spanning the qubit space."""
    return list(_PAULI_ENSEMBLE)


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


SWEEP_FIELDS = tuple(f.name for f in fields(SweepRow))  # the CSV and JSON columns, in order

CSV_HEADER = ",".join(SWEEP_FIELDS)


def strength_sweep(gammas, basis: BasisSpec = hs.Z_BASIS, ensemble=None) -> list[SweepRow]:
    """Characterize the device on a grid of strengths, in the given order; one point is the
    single-device result. ``ensemble`` is a list of qubit PureStates (default ``pauli_ensemble()``).

    Each figure is a closed form of the branch table G and of the probes' populations
    w[p, i] = |v_i^dag a_p|^2 in ``basis``. With s_i = sum_k |G[i][k]|^2,
    L = (1/2) sum_i |G[i][i]|^2 / s_i and P_c = sum_k |G[0][k] + G[1][k]|^2 / (2 (s_0 + s_1));
    a probe reads p_m = w |G|^2 on the meter and keeps p_out = w s, unconditioned, so
    F_M = F(w, p_m) and F_QND = F(w, p_out) = s (sum_i w_i)^2. For the CNOT's
    G = [[gamma, gamma_bar], [gamma_bar, gamma]], s = gamma^2 + gamma_bar^2, L = gamma^2 / s
    and P_c = (gamma + gamma_bar)^2 / (2 s), so K_bar = 2 P_c - 1 = 2 gamma gamma_bar / s.
    F_M and F_QND are the worst case over the given probes only, not over every input
    (ROADMAP.md, item 12). The observables have eigenvalues +-1, so the C^2 of the joint
    outcome statistics is K^2 (``c2_raw``) and its shortcut 2 F_QSP - 1 is K
    (``c2_shortcut``), identities of the qubit joint table, not approximations."""
    g = np.fromiter(gammas, dtype=float)
    metrics._qubit_basis(basis, hs.HilbertError)
    if g.size == 0:
        return []
    probes = tuple(pauli_ensemble() if ensemble is None else ensemble)
    if len(probes) == 0:
        raise hs.HilbertError("ensemble must be nonempty")
    for i, state in enumerate(probes):
        if not (isinstance(state, PureState) and state.dim == 2):
            raise hs.HilbertError(f"ensemble entry {i} must be a signal-qubit PureState, got {state!r}")
    c = np.empty((g.size, 2))  # the meter amplitudes (gamma, gamma_bar), the entries of G
    c[:, 0] = _checked_gammas(g)
    c[:, 1] = np.sqrt(1.0 - c[:, 0] ** 2)
    g2 = c * c  # (|G[i][i]|^2, |G[i][1-i]|^2), alike in both rows i
    s = g2[:, 0] + g2[:, 1]
    r = np.abs(np.array([state.amps for state in probes]) @ basis.vectors.conj())  # sqrt(w)
    w = r * r
    # sqrt(w p_m) at columns (p, k), with p_m[p, k] = w[p, k] gamma^2 + w[p, 1 - k] gamma_bar^2
    x = np.sqrt(g2 @ np.array((w.ravel(), w[:, ::-1].ravel()))) * r.ravel()
    table = np.empty((len(SWEEP_FIELDS), g.size))  # the SWEEP_FIELDS columns, each written once
    np.minimum.reduce((x[:, ::2] + x[:, 1::2]) ** 2, axis=1, out=table[1])  # F_M of the worst probe
    table[2] = s * (w.sum(axis=1) ** 2).min()  # F_QND of the worst probe
    table[0], table[3] = g, g2[:, 0] / s  # gamma, F_QSP = L
    table[4] = table[8] = 2 * table[3] - 1  # K, and c2_shortcut K
    table[5] = 2 * c[:, 0] * c[:, 1] / s  # K_bar, without the cancellation of 2 P_c - 1
    table[7] = table[4] ** 2  # c2_raw K^2
    table[6] = table[7] + table[5] ** 2  # englert K^2 + K_bar^2
    # SweepRow(*values) without the frozen __init__, which sets each field through
    # object.__setattr__; filled column by column, each row's dict in SWEEP_FIELDS order
    rows = [object.__new__(SweepRow) for _ in range(g.size)]
    dicts = [row.__dict__ for row in rows]
    for name, column in zip(SWEEP_FIELDS, table.tolist()):
        for d, value in zip(dicts, column):
            d[name] = value
    return rows


def sweep_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(f"{getattr(r, f):.12g}" for f in SWEEP_FIELDS))
    return "\n".join(lines) + "\n"


def sweep_to_json(rows) -> list[dict]:
    return [r.to_json() for r in rows]
