"""Variable-strength QND measurement of a qubit via a CNOT gate.

The signal qubit controls a CNOT whose target (the meter) is prepared in
gamma|0> + gamma_bar|1>, gamma in [1/sqrt(2), 1]. gamma = 1 gives a
projective QND measurement of the chosen observable; gamma = 1/sqrt(2)
turns the measurement off. Measurement in an arbitrary basis is obtained
by conjugating the CNOT with the rotation taking that basis to the
computational one.

Every statistic is read off the gate's Kraus stack on the signal (``kraus``), a
grid of strengths being one more axis (``strength_sweep``). Inputs are checked
where they enter; the scorer reads ``metrics._read``'s plain arrays unchecked.
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
    return np.clip(g, GAMMA_MIN, 1.0)


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

    ``kraus(prep, basis)[k]`` is M_k = R^dag diag(c_k, c_{1-k}) R with
    c = (gamma, gamma_bar) and R the rotation taking ``basis`` to the
    computational basis: M_k |psi> is the signal branch that goes with
    meter reading k.
    """
    return _kraus_stacks(prep.gamma, basis)


def _kraus_stacks(gammas, basis: BasisSpec) -> np.ndarray:
    """``kraus`` at every strength in ``gammas``, each already checked
    and clipped: gammas.shape + (2, 2, 2)."""
    if basis.dim != 2:
        raise hs.HilbertError("observable basis must be a qubit basis")
    g = np.asarray(gammas)
    c = np.empty(g.shape + (4,))  # c[..., k, :] = (c_k, c_{1-k}), flattened
    c[..., ::3] = g[..., None]
    c[..., 1:3] = np.sqrt(1.0 - g**2)[..., None]
    v = basis.vectors
    x = v * c.reshape(g.shape + (2, 1, 2))
    return (x.reshape(-1, 2) @ v.conj().T).reshape(x.shape)


_S = 1 / math.sqrt(2)
_PAULI_ENSEMBLE = (hs.KET0, hs.KET1, hs.PLUS, hs.MINUS, hs.qubit(_S, 1j * _S), hs.qubit(_S, -1j * _S))


def pauli_ensemble() -> list[PureState]:
    """The six Pauli eigenstates |0>, |1>, |+>, |->, |+i>, |-i>; default probe
    set spanning the qubit space."""
    return list(_PAULI_ENSEMBLE)


def _score(gammas, basis: BasisSpec, ensemble):
    """Per-input (F_M, F_QND) of the ``ensemble`` states, stacked as (2,) + gammas.shape
    + (n_inputs,), then F_QSP, K and K_bar (gammas.shape), all read from one Born table;
    only the basis and ensemble are checked here."""
    if len(ensemble) == 0:
        raise hs.HilbertError("ensemble must be nonempty")
    for i, state in enumerate(ensemble):
        if not (isinstance(state, PureState) and state.dim == 2):
            raise hs.HilbertError(f"ensemble entry {i} must be a signal-qubit PureState, got {state!r}")
    m = _kraus_stacks(gammas, basis)
    amps = np.array([state.amps for state in ensemble])
    _, likelihood, p_c, probed = metrics._read(m, basis, amps)
    p_in = np.abs(amps @ basis.vectors.conj()) ** 2
    return metrics._fidelities(p_in, probed), likelihood, 2 * likelihood - 1, 2 * p_c - 1


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
    if g.size == 0:
        return []
    ensemble = pauli_ensemble() if ensemble is None else ensemble
    f, f_qsp, k, k_bar = _score(_checked_gammas(g), basis, ensemble)
    f_m, f_qnd = f.min(axis=-1)
    c2 = k**2
    # SWEEP_FIELDS order: englert K^2 + K_bar^2, c2_raw K^2, c2_shortcut K
    table = np.stack((g, f_m, f_qnd, f_qsp, k, k_bar, c2 + k_bar**2, c2, k), axis=-1).tolist()
    # SweepRow(*values) without the frozen __init__, which sets each field
    # through object.__setattr__: the same rows in about half the time
    rows = [object.__new__(SweepRow) for _ in table]
    for row, values in zip(rows, table):
        row.__dict__.update(zip(SWEEP_FIELDS, values))
    return rows


def sweep_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(f"{getattr(r, f):.12g}" for f in SWEEP_FIELDS))
    return "\n".join(lines) + "\n"


def sweep_to_json(rows) -> list[dict]:
    return [r.to_json() for r in rows]
