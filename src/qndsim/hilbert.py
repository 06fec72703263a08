"""Dense finite-dimensional quantum state core.

Pure states and density matrices over a list of subsystem dimensions,
with tensor composition, partial trace, Born-rule statistics and
projective collapse. Everything is an immutable value; all operations
are pure functions. Subsystem indexing is big-endian: the leftmost
tensor factor is subsystem 0 (signal before meter, throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10  # a state's normalization accepted within this of 1
PROB_ATOL = 1e-10
PROB_CLAMP = 1e-12
ZERO_NORM = 1e-14  # amplitudes of a smaller norm are the zero vector, which has no state
ORTHONORMAL_ATOL = 1e-10  # largest entry of |V^dag V - 1| accepted for a basis
PHASE_ATOL = 1e-10  # states whose |overlap| lies within this of 1 are equal up to phase
SHORT_AXIS = 8  # longest last axis that _sum_last adds slice by slice; longer ones use pairwise sums


class HilbertError(ValueError):
    """Invalid state, basis or operation in the state core."""


class ZeroProbabilityError(HilbertError):
    """Conditioning on an outcome whose probability is numerically zero."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over subsystems of dimensions ``dims``."""

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(map(int, self.dims))
        amps = _as_readonly(np.asarray(self.amps).ravel())
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)
        if dims and min(dims) < 1:
            raise HilbertError("subsystem dimensions must be >= 1")
        if amps.size != math.prod(dims):
            raise HilbertError(
                f"amplitude vector has length {amps.size}, expected {math.prod(dims)}"
            )
        norm = float(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORM_ATOL:  # a NaN or infinite amplitude fails too
            if not np.isfinite(amps.view(float)).all():
                raise HilbertError("non-finite amplitude")
            raise HilbertError(f"state not normalized: |psi|^2 = {norm}")

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @classmethod
    def from_amplitudes(cls, amps, dims=None) -> "PureState":
        """Build a state from (possibly unnormalized) amplitudes."""
        a = np.asarray(amps, dtype=complex).ravel()
        n = np.linalg.norm(a)
        if n < ZERO_NORM:
            raise HilbertError("cannot normalize the zero vector")
        if dims is None:
            dims = (a.size,)
        return cls(tuple(dims), a / n)

    @classmethod
    def basis_state(cls, dims, index: int) -> "PureState":
        dims = tuple(dims)
        a = np.zeros(math.prod(dims), dtype=complex)
        a[index] = 1.0
        return cls(dims, a)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.dims, np.outer(self.amps, self.amps.conj()))

    def overlap(self, other: "PureState") -> complex:
        if self.dim != other.dim:
            raise HilbertError("dimension mismatch in overlap")
        return complex(np.vdot(self.amps, other.amps))

    def equal_up_to_phase(self, other: "PureState", atol: float = PHASE_ATOL) -> bool:
        return abs(abs(self.overlap(other)) - 1.0) <= atol

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "re": self.amps.real.tolist(),
            "im": self.amps.imag.tolist(),
        }


def qubit(alpha: complex, beta: complex) -> PureState:
    """Single-qubit state alpha|0> + beta|1> (normalized on input)."""
    return PureState.from_amplitudes([alpha, beta], dims=(2,))


KET0 = qubit(1, 0)
KET1 = qubit(0, 1)
PLUS = qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
MINUS = qubit(1 / math.sqrt(2), -1 / math.sqrt(2))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator over ``dims``."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        m = _as_readonly(np.asarray(self.entries))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", m)
        d = math.prod(dims)
        if m.shape != (d, d):
            raise HilbertError(f"density matrix shape {m.shape}, expected ({d},{d})")
        if not np.all(np.isfinite(m.view(float))):
            raise HilbertError("non-finite matrix entry")
        if not (np.abs(m - m.conj().T) <= 1e-10).all():
            raise HilbertError("density matrix not Hermitian")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-10:
            raise HilbertError(f"density matrix trace {tr} != 1")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -1e-10:
            raise HilbertError(f"density matrix not PSD (min eigenvalue {evals.min()})")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }


@dataclass(frozen=True)
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

    def state(self, i: int) -> PureState:
        return PureState((self.dim,), self.vectors[:, i])

    @classmethod
    def computational(cls, d: int) -> "BasisSpec":
        return cls(np.eye(d))

    @classmethod
    def from_states(cls, states) -> "BasisSpec":
        return cls(np.column_stack([np.asarray(s.amps if isinstance(s, PureState) else s) for s in states]))


Z_BASIS = BasisSpec.computational(2)
X_BASIS = BasisSpec(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
Y_BASIS = BasisSpec(np.array([[1, 1], [1j, -1j]]) / math.sqrt(2))


def _sum_last(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)``, as in-order slice adds if that axis is short: on small
    arrays each add costs a fraction of one numpy reduction."""
    if not 0 < x.shape[-1] <= SHORT_AXIS:
        return x.sum(axis=-1)
    s = x[..., 0]
    for i in range(1, x.shape[-1]):
        s = s + x[..., i]
    return s


def checked_probabilities(p) -> np.ndarray:
    """``p``, a stack of probability vectors along its last axis, clipped at 0;
    HilbertError for an entry below -PROB_CLAMP or a sum not 1 within
    PROB_ATOL (a NaN or infinite entry fails too)."""
    p = np.asarray(p, dtype=float)
    if p.min() < -PROB_CLAMP:
        raise HilbertError(f"negative probability {p.min()}")
    p = np.maximum(p, 0.0)
    s = _sum_last(p)
    ok = abs(s - 1.0) <= PROB_ATOL
    if not ok.all():
        raise HilbertError(f"probabilities sum to {s[~ok][0]}, not 1")
    return p


@dataclass(frozen=True)
class ProbDist:
    """Probability vector over measurement outcomes."""

    p: np.ndarray

    def __post_init__(self):
        p = checked_probabilities(np.ravel(self.p))
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return self.p.size

    def __getitem__(self, i: int) -> float:
        return float(self.p[i])

    @classmethod
    def from_weights(cls, weights) -> "ProbDist":
        """Normalize nonnegative weights (e.g. raw counts) into a distribution."""
        w = np.asarray(weights, dtype=float).ravel()
        if w.min() < 0:
            raise HilbertError("weights must be nonnegative")
        total = w.sum()
        if not 0 < total < math.inf:
            raise HilbertError(f"weights must have a finite, positive sum, got {total}")
        return cls(w / total)

    def to_json(self) -> list:
        return self.p.tolist()


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Kronecker composition; subsystem lists concatenate (a first)."""
    return PureState(a.dims + b.dims, np.kron(a.amps, b.amps))


def _check_subsystems(dims, subs) -> tuple[int, ...]:
    subs = tuple(int(s) for s in subs)
    for s in subs:
        if s < 0 or s >= len(dims):
            raise HilbertError(f"invalid subsystem index {s} for dims {dims}")
    if len(set(subs)) != len(subs):
        raise HilbertError("repeated subsystem index")
    return subs


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not in ``keep`` (kept order follows ``keep``)."""
    keep = _check_subsystems(rho.dims, keep if hasattr(keep, "__iter__") else [keep])
    n = len(rho.dims)
    t = rho.entries.reshape(rho.dims + rho.dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out_idx = [i for i in keep] + [n + i for i in keep]
    t = np.einsum(t, row + col, out_idx)
    kept_dims = tuple(rho.dims[i] for i in keep)
    d = math.prod(kept_dims)
    return DensityMatrix(kept_dims, t.reshape(d, d))


def _reduced_density(state, subsystem: int) -> tuple[np.ndarray, int]:
    """Single-subsystem reduced density matrix as a raw array."""
    if isinstance(state, PureState):
        rho = state.density_matrix()
    else:
        rho = state
    sub = _check_subsystems(rho.dims, [subsystem])[0]
    red = partial_trace(rho, [sub])
    return red.entries, rho.dims[sub]


def born_distribution(state, basis: BasisSpec, subsystem: int = 0) -> ProbDist:
    """Born-rule outcome distribution of ``basis`` on one subsystem.

    The remaining subsystems are marginalized: p_i = <b_i| rho_sub |b_i>.
    """
    red, d = _reduced_density(state, subsystem)
    if basis.dim != d:
        raise HilbertError(f"basis dimension {basis.dim} != subsystem dimension {d}")
    p = np.einsum("ij,ji->i", basis.vectors.conj().T, red @ basis.vectors).real
    if p.min() < -PROB_CLAMP:
        raise HilbertError(f"Born probability below clamp: {p.min()}")
    return ProbDist(np.clip(p, 0.0, None))


def conditional_collapse(
    state: PureState, basis: BasisSpec, subsystem: int, outcome: int
) -> tuple[float, PureState]:
    """Project one subsystem onto a basis outcome and renormalize.

    Returns (outcome probability, post-measurement global state). The
    measured subsystem is left in the outcome eigenstate.
    """
    sub = _check_subsystems(state.dims, [subsystem])[0]
    d = state.dims[sub]
    if basis.dim != d:
        raise HilbertError("basis dimension does not match subsystem")
    if outcome < 0 or outcome >= d:
        raise HilbertError(f"outcome {outcome} out of range for dimension {d}")
    vec = basis.vectors[:, outcome]
    proj = np.outer(vec, vec.conj())
    t = state.amps.reshape(state.dims)
    t = np.moveaxis(t, sub, 0)
    shape = t.shape
    projected = (proj @ t.reshape(d, -1)).reshape(shape)
    projected = np.moveaxis(projected, 0, sub).ravel()
    prob = float(np.vdot(projected, projected).real)
    if prob < 1e-14:
        raise ZeroProbabilityError(
            f"zero-probability branch: outcome {outcome} has probability {prob}"
        )
    return prob, PureState(state.dims, projected / math.sqrt(prob))


def apply_unitary(u: np.ndarray, state: PureState, subsystems=None) -> PureState:
    """Apply a unitary acting on the given subsystems (default: all)."""
    u = np.asarray(u, dtype=complex)
    if not (np.abs(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-10).all():
        raise HilbertError("operator is not unitary")
    if subsystems is None:
        subsystems = tuple(range(state.n_subsystems))
    subs = _check_subsystems(state.dims, subsystems)
    d_act = math.prod(state.dims[s] for s in subs)
    if u.shape != (d_act, d_act):
        raise HilbertError(
            f"unitary shape {u.shape} does not match subsystem dimension {d_act}"
        )
    t = state.amps.reshape(state.dims)
    t = np.moveaxis(t, subs, range(len(subs)))
    moved_shape = t.shape
    t = u @ t.reshape(d_act, -1)
    t = np.moveaxis(t.reshape(moved_shape), range(len(subs)), subs)
    return PureState(state.dims, t.ravel())
