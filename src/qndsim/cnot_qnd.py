"""Variable-strength QND measurement of a qubit via a CNOT gate.

The signal qubit controls a CNOT whose target (the meter) is prepared in
gamma|0> + gamma_bar|1>, gamma in [1/sqrt(2), 1]. gamma = 1 gives a
projective QND measurement of the chosen observable; gamma = 1/sqrt(2)
turns the measurement off. Measurement in an arbitrary basis is obtained
by conjugating the CNOT with the rotation taking that basis to the
computational one.

Every statistic is read off the gate's Kraus stack on the signal (``kraus``), a
grid of strengths being one more axis (``strength_sweep``). The stack is linear
in the meter amplitudes c = (gamma, gamma_bar): it is c @ G(basis), with G built
once per basis. Inputs are checked where they enter; the scorer reads
``metrics._read``'s plain arrays unchecked.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=metrics.READ_CACHE_SIZE)
def _meter_stacks(basis: BasisSpec) -> np.ndarray:
    """G(basis), the stacks [P_k, P_{1-k}] at c = (1, 0) and (0, 1), flattened to a read-only
    real (2, 16) array: c @ G, viewed as complex, is the stack at meter amplitudes c."""
    v = basis.vectors
    p = v.T[:, :, None] * v.conj().T[:, None, :]  # p[j] = v_j v_j^dag
    return hs._as_readonly(np.array([p, p[::-1]]).reshape(2, -1).view(float), float)


def kraus(prep: MeterPrep, basis: BasisSpec = hs.Z_BASIS) -> np.ndarray:
    """Kraus operators of the gate on the signal, shape (2, 2, 2).

    ``kraus(prep, basis)[k]`` is M_k = c_0 P_k + c_1 P_{1-k}, with c = (gamma, gamma_bar) and
    P_j the projector on the j-th vector of ``basis``, so the stack c @ G(basis) is linear in
    the meter amplitudes: M_k |psi> is the signal branch that goes with meter reading k.
    HilbertError if ``basis`` is not a qubit BasisSpec."""
    g = _meter_stacks(metrics._qubit_basis(basis, hs.HilbertError))
    return (np.array([prep.gamma, prep.gamma_bar]) @ g).view(complex).reshape(2, 2, 2)


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
    single-device result. ``ensemble`` is a list of qubit PureStates (default ``pauli_ensemble()``),
    F_M and F_QND the worst case over it. The observables have eigenvalues +-1, so the C^2 of
    the joint outcome statistics is K^2 (``c2_raw``) and its shortcut 2 F_QSP - 1 is K
    (``c2_shortcut``), identities of the qubit joint table, not approximations."""
    g = np.fromiter(gammas, dtype=float)
    metrics._qubit_basis(basis, hs.HilbertError)
    if g.size == 0:
        return []
    probes = tuple(pauli_ensemble() if ensemble is None else ensemble)  # the read cache's key
    if len(probes) == 0:
        raise hs.HilbertError("ensemble must be nonempty")
    for i, state in enumerate(probes):
        if not (isinstance(state, PureState) and state.dim == 2):
            raise hs.HilbertError(f"ensemble entry {i} must be a signal-qubit PureState, got {state!r}")
    c = np.empty((g.size, 2))  # the meter amplitudes (gamma, gamma_bar) of each point
    c[:, 0] = _checked_gammas(g)
    c[:, 1] = np.sqrt(1.0 - c[:, 0] ** 2)
    m = (c @ _meter_stacks(basis)).view(complex).reshape(-1, 2, 2, 2)
    _, likelihood, p_c, f = metrics._read(m, basis, probes)
    table = np.empty((g.size, len(SWEEP_FIELDS)))  # the SWEEP_FIELDS columns, each written once
    np.minimum.reduce(f, axis=0, out=table[:, 1:3].T)  # F_M and F_QND of the worst probe
    table[:, 0], table[:, 3], table[:, 5] = g, likelihood, 2 * p_c - 1  # gamma, F_QSP, K_bar
    table[:, 4] = table[:, 8] = 2 * likelihood - 1  # K, and c2_shortcut K
    table[:, 7] = table[:, 4] ** 2  # c2_raw K^2
    table[:, 6] = table[:, 7] + table[:, 5] ** 2  # englert K^2 + K_bar^2
    # SweepRow(*values) without the frozen __init__, which sets each field
    # through object.__setattr__: the same rows in about half the time
    rows = [object.__new__(SweepRow) for _ in range(g.size)]
    for row, values in zip(rows, table.tolist()):
        row.__dict__.update(zip(SWEEP_FIELDS, values))
    return rows


def sweep_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(f"{getattr(r, f):.12g}" for f in SWEEP_FIELDS))
    return "\n".join(lines) + "\n"


def sweep_to_json(rows) -> list[dict]:
    return [r.to_json() for r in rows]
