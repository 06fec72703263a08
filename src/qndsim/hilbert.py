"""Validated values of the state core.

Pure states of one system, orthonormal measurement bases and probability
vectors, each an immutable value checked when it is built and compared by
identity (a qubit basis also caches the read matrices of ``metrics._read``),
plus the probability-table check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10  # a state's normalization accepted within this of 1
PROB_ATOL = 1e-10
PROB_CLAMP = 1e-12
ZERO_NORM = 1e-14  # amplitudes of a smaller norm are the zero vector, which has no state
ZERO_BRANCH = 1e-14  # branch probability below which a measurement outcome has no post-measurement state
ORTHONORMAL_ATOL = 1e-10  # largest entry of |V^dag V - 1| accepted for a basis


class HilbertError(ValueError):
    """Invalid state, basis or operation in the state core."""


def _as_readonly(a: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector of one system."""

    amps: np.ndarray

    def __post_init__(self):
        amps = _as_readonly(self.amps)
        object.__setattr__(self, "amps", amps)
        if amps.ndim != 1:
            raise HilbertError(f"amplitudes must form a 1-D array, got shape {amps.shape}")
        norm = float(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORM_ATOL:  # a NaN or infinite amplitude fails too
            if not np.isfinite(amps.view(float)).all():
                raise HilbertError("non-finite amplitude")
            raise HilbertError(f"state not normalized: |psi|^2 = {norm}")

    @property
    def dim(self) -> int:
        return self.amps.size

    @classmethod
    def from_amplitudes(cls, amps) -> "PureState":
        """Build a state from (possibly unnormalized) amplitudes. They are first scaled
        by the power of two that brings their largest real or imaginary part into
        [1/2, 1), which is exact and keeps the norm from overflowing."""
        parts = np.asarray(amps, dtype=complex).ravel().view(float)
        if not np.isfinite(parts).all():
            raise HilbertError("non-finite amplitude")
        e = math.frexp(np.abs(parts).max(initial=0.0))[1]
        a = np.ldexp(parts, -e).view(complex)
        n = np.linalg.norm(a)
        if math.ldexp(n, min(e, 0)) < ZERO_NORM:
            raise HilbertError("cannot normalize the zero vector")
        return cls((a / n).reshape(np.shape(amps)))  # PureState rejects all but 1-D


def qubit(alpha: complex, beta: complex) -> PureState:
    """Single-qubit state alpha|0> + beta|1> (normalized on input)."""
    return PureState.from_amplitudes([alpha, beta])


KET0 = qubit(1, 0)
KET1 = qubit(0, 1)
PLUS = qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
MINUS = qubit(1 / math.sqrt(2), -1 / math.sqrt(2))


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """Orthonormal measurement basis: columns of ``vectors`` are the outcomes."""

    vectors: np.ndarray

    def __post_init__(self):
        v = _as_readonly(np.asarray(self.vectors))
        object.__setattr__(self, "vectors", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise HilbertError("basis must be a square matrix of column vectors")
        if not (np.abs(v.conj().T @ v - np.eye(v.shape[0])) <= ORTHONORMAL_ATOL).all():
            raise HilbertError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @functools.cached_property
    def outputs(self) -> np.ndarray:
        """B = [V | V X]: the eigenstates of this qubit basis and of its conjugate, as columns."""
        return _as_readonly(np.concatenate((self.vectors, self.vectors @ X_BASIS.vectors), axis=1))

    @functools.cached_property
    def born_products(self) -> np.ndarray:
        """S[(o, n), (j, i)] = conj(B[o, j]) B[n, i] over ``outputs`` B: a flattened Kraus
        operator M times S gives the amplitudes b_j^dag M b_i."""
        b = self.outputs
        return _as_readonly((b.conj()[:, None, :, None] * b[:, None, :]).reshape(4, 16))


Z_BASIS = BasisSpec(np.eye(2))
X_BASIS = BasisSpec(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
Y_BASIS = BasisSpec(np.array([[1, 1], [1j, -1j]]) / math.sqrt(2))


def checked_probabilities(p) -> np.ndarray:
    """``p``, a stack of probability vectors along its last axis, clipped at 0;
    HilbertError for an entry below -PROB_CLAMP or a sum not 1 within
    PROB_ATOL (a NaN or infinite entry fails too)."""
    p = np.asarray(p, dtype=float)
    if p.min(initial=0.0) < -PROB_CLAMP:  # an empty p falls through to the sum check
        raise HilbertError(f"negative probability {p.min()}")
    p = np.maximum(p, 0.0)
    s = p.sum(axis=-1)
    ok = abs(s - 1.0) <= PROB_ATOL
    if not ok.all():
        raise HilbertError(f"probabilities sum to {s[~ok][0]}, not 1")
    return p


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Probability vector over measurement outcomes."""

    p: np.ndarray

    def __post_init__(self):
        p = checked_probabilities(np.ravel(self.p))
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @classmethod
    def from_weights(cls, weights) -> "ProbDist":
        """Normalize nonnegative weights (e.g. raw counts) into a distribution. As in
        ``PureState.from_amplitudes``, they are first scaled by the power of two that
        brings the largest into [1/2, 1), which is exact and keeps the sum from overflowing."""
        w = np.asarray(weights, dtype=float).ravel()
        if w.min(initial=0.0) < 0:  # empty weights fail the sum check
            raise HilbertError("weights must be nonnegative")
        w = np.ldexp(w, -math.frexp(w.max(initial=0.0))[1])  # a NaN or inf max leaves w as it is
        total = w.sum()
        if not 0 < total < math.inf:
            raise HilbertError(f"weights must have a finite, positive sum, got {total}")
        return cls(w / total)
