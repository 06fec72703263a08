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
``strength_sweep`` scores a grid of strengths in closed form on G, and checks
its inputs where they enter. Its F_M and F_QND are the worst case over every
input: for a diagonal trace-preserving instrument p_in, p_m and p_out are linear
in the input's populations w in the measured basis, and sqrt(F) is jointly
concave, so the minimum lies at a vertex of w's simplex, a basis eigenstate.
This does not cover a heralded instrument, conditioned on a success that is not
linear in the input (ROADMAP.md, item 16).
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, fields

import numpy as np

from . import hilbert as hs
from . import metrics
from .hilbert import BasisSpec

GAMMA_MIN = 1.0 / math.sqrt(2.0)
GAMMA_ATOL = 1e-12


class StrengthError(ValueError):
    """Meter amplitude outside the admissible range [1/sqrt(2), 1]."""


def _checked_gammas(gammas, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """``gammas`` as the array numpy reads, and as floats clipped to [1/sqrt(2), 1].
    TypeError unless it is an array of ``ndim`` dimensions of real numbers (a bool, a
    complex number or a string is not one); StrengthError naming the first value outside
    that range by more than GAMMA_ATOL, NaN included."""
    g = np.asarray(gammas)
    # numpy reads a bool among numbers as a number, so a sequence's entries are typed one by one
    if g.ndim != ndim or g.dtype.kind not in "iuf" or (
            ndim and not isinstance(gammas, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, gammas))):
        raise TypeError(f"gamma must be {('a real number', 'a 1-D sequence of real numbers')[ndim]}, "
                        f"got {reprlib.repr(gammas)}")
    ok = (GAMMA_MIN - GAMMA_ATOL <= g) & (g <= 1.0 + GAMMA_ATOL)
    if not ok.all():
        raise StrengthError(f"gamma out of range [{GAMMA_MIN:.4f}, 1]: {g[~ok][0]}")
    return g, np.minimum(np.maximum(g, GAMMA_MIN), 1.0)


@dataclass(frozen=True)
class MeterPrep:
    """Measurement strength: meter prepared in gamma|0> + gamma_bar|1>.
    ``gamma`` holds the checked strength, clipped to [1/sqrt(2), 1]; TypeError
    unless it is a real number, StrengthError outside that range."""

    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(_checked_gammas(self.gamma, 0)[1]))

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


def strength_sweep(gammas, basis: BasisSpec = hs.Z_BASIS) -> list[SweepRow]:
    """Characterize the device on a grid of strengths, in the given order; one point is the
    single-device result. ``gammas`` is a 1-D sequence of real numbers (TypeError otherwise,
    StrengthError out of range) and ``basis`` a qubit BasisSpec (HilbertError otherwise).

    Each figure is a closed form of the branch table G = [[gamma, gamma_bar], [gamma_bar,
    gamma]]. G is the same in every basis, and so is each column. With
    s = gamma^2 + gamma_bar^2, L = gamma^2 / s and K_bar = 2 P_c - 1 = 2 gamma gamma_bar / s.
    F_M and F_QND are the worst case over every input, at a basis eigenstate (module
    docstring): F_M = gamma^2 and F_QND = s. gamma_bar^2 = (1 - gamma)(1 + gamma), without
    the cancellation of 1 - gamma^2 near gamma = 1. With eigenvalues +-1, the C^2 of the joint
    statistics is K^2 (``c2_raw``) and its shortcut 2 F_QSP - 1 is K (``c2_shortcut``)."""
    given, gamma = _checked_gammas(gammas, 1)
    metrics._qubit_basis(basis, hs.HilbertError)
    g2, gb2 = gamma * gamma, (1.0 - gamma) * (1.0 + gamma)  # |G[i][i]|^2 and |G[i][1-i]|^2
    s = g2 + gb2
    table = np.empty((len(SWEEP_FIELDS), gamma.size))  # the SWEEP_FIELDS columns, each written once
    table[0], table[1], table[2], table[3] = given, g2, s, g2 / s  # gamma, F_M, F_QND, F_QSP = L
    table[4] = table[8] = 2 * table[3] - 1  # K, and c2_shortcut K
    table[5] = 2 * gamma * np.sqrt(gb2) / s  # K_bar, without the cancellation of 2 P_c - 1
    table[7] = table[4] ** 2  # c2_raw K^2
    table[6] = table[7] + table[5] ** 2  # englert K^2 + K_bar^2
    # SweepRow(*values) without the frozen __init__, which sets each field through
    # object.__setattr__; filled column by column, each row's dict in SWEEP_FIELDS order
    rows = [object.__new__(SweepRow) for _ in range(gamma.size)]
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
