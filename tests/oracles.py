"""Reference paths the tests check the library against.

``run`` reads the CNOT gate's joint (signal, meter) state, reduced states,
outcome statistics and post-measurement branches off its Kraus stack
(``cnot_qnd.kraus``), in plain numpy.

The library reads the heralded optical gate off its 2x2 heralding table
(``photonics._herald_table``) and no longer reads the permanents. The mode
unitary of the whole circuit lives here: ``mode_unitary`` builds it from
three parts, U(eta) = U_0 + sqrt(eta) U_r + sqrt(1 - eta) U_t, and checks
that it is unitary; ``pair_map`` takes its 2x2 permanents, the amplitude of
every output pair for each input product s_i m_j, and ``class_weights``
sums their |amplitude|^2 into the success and failure classes. The rest of
this module expands the same gate the long way: two photons as a map from
mode occupation pattern to amplitude, pushed through the mode unitary
monomial by monomial. The tests compare the library's gate against both,
and the expansion against an explicit permanent sum. ``analytic_success``
is the gate's closed-form heralding probability at eta = 1/3.

``correlation_c2`` is the paper's signal-meter correlation C^2 of two
observables with any real eigenvalues. The library reads C^2 as K^2, an
identity only for the +-1 eigenvalues of its qubit observables; the tests
check that identity against this general form.

``born_read`` is the general Born-table reader of any qubit Kraus stack: the
joint table, L and P_c, and the unconditioned F_M and F_QND of probe states,
from one matrix product and constant 0/1 matrices. The library scores both
gates in closed form on their branch tables G, and the tests hold those
forms to this reader. ``scan_figures_decimal`` evaluates the optical a-scan's
L and P_c, and ``sweep_row_decimal`` a CNOT sweep row, from the formulas of
their docstrings in 50-digit decimal arithmetic.

``KET0``, ``KET1`` and ``MINUS`` are named qubit states that only the tests use.
"""

from __future__ import annotations

import collections
import decimal
import math
from dataclasses import dataclass

import numpy as np

from qndsim import cnot_qnd as cq
from qndsim import hilbert as hs
from qndsim.hilbert import NORM_ATOL, PureState
from qndsim.metrics import MetricsError
from qndsim.photonics import PhotonicsError, _check_eta

PHASE_ATOL = 1e-10  # states whose |overlap| lies within this of 1 are equal up to phase
DEGENERATE_MOMENT = 1e-24  # <O_A^2><O_B^2> below this: an observable is zero, C^2 undefined
UNITARY_ATOL = 1e-12  # largest entry of |U^dag U - 1| accepted as unitary
SIG, MET = slice(0, 2), slice(2, 4)  # the gate's signal and meter modes
HWP = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)  # at 22.5 degrees, on the meter's (H, V)
KET0, KET1 = hs.qubit(1, 0), hs.qubit(0, 1)  # named qubits the package itself does not use
MINUS = hs.qubit(1 / math.sqrt(2), -1 / math.sqrt(2))


def correlation_c2(q, eigvals_a, eigvals_b):
    """C^2 = |<O_A O_B>|^2 / (<O_A^2><O_B^2>) of the joint outcome table q[..., a, b] of two
    observables with the real eigenvalues ``eigvals_a`` and ``eigvals_b``, by explicit sums
    over the outcomes; one value per table of a batch. MetricsError if the table's shape does
    not match the eigenvalues, an eigenvalue is not finite or an observable has zero second
    moment."""
    q = np.asarray(q, dtype=float)
    ea, eb = (np.asarray(e, dtype=float).ravel() for e in (eigvals_a, eigvals_b))
    if q.shape[-2:] != (ea.size, eb.size):
        raise MetricsError("joint matrix shape must match eigenvalue lists")
    for name, e in (("eigvals_a", ea), ("eigvals_b", eb)):
        if not np.isfinite(e).all():
            raise MetricsError(f"{name} must be finite, got {e.tolist()}")
    corr = np.einsum("...ab,a,b->...", q, ea, eb)
    denom = np.einsum("...ab,a->...", q, ea**2) * np.einsum("...ab,b->...", q, eb**2)
    if np.any(denom < DEGENERATE_MOMENT):
        raise MetricsError("degenerate observable: zero second moment")
    return corr**2 / denom


def bs_matrix(eta: float) -> np.ndarray:
    """Beamsplitter of reflectivity eta with the pi phase on one reflection."""
    if not (0.0 <= eta <= 1.0):
        raise PhotonicsError(f"eta must lie in [0, 1], got {eta}")
    r, t = math.sqrt(eta), math.sqrt(1.0 - eta)
    return np.array([[r, t], [t, -r]])


def check_unitary(u: np.ndarray) -> None:
    if not (np.abs(u.conj().T @ u - np.eye(len(u))) <= UNITARY_ATOL).all():  # NaN fails too
        raise PhotonicsError("mode matrix is not unitary")


def gate_parts(loss):
    """The parts (U_0, U_r, U_t) of the gate's U(eta) = U_0 + sqrt(eta) U_r + sqrt(1 - eta) U_t
    on the modes s_H 0, s_V 1, m_H 2, m_V 3 (dump_s 4)."""
    n = 4 + loss
    parts = np.zeros((3, n, n), complex)
    parts[0] = np.diag([0.0, 1.0, 0.0, 1.0, 1.0][:n])
    if loss:
        parts[0, 1:5:3, 1:5:3] = bs_matrix(1.0 / 3.0)
    parts[1, 0, 0] = parts[2, 0, 2] = parts[2, 2, 0] = 1.0  # the eta-BS rows (r, t) of s_H
    parts[1, 2, 2] = -1.0  # and (t, -r) of m_H, which the HWP then splits
    parts[:, MET] = HWP @ parts[:, MET]
    return parts


def class_weights(loss):
    """The (4, n^2) weights that sum |Phi[y, z]|^2 of ``pair_map``'s output pairs into
    success, both_in_signal, both_in_meter and dump; each pattern appears as (y, z) and (z, y)."""
    c = [0, 0, 1, 1, 3][:4 + loss]  # mode class: signal 0, meter 1, dump 3
    pair = [cy + cz for cy in c for cz in c]  # 1 success, 0 and 2 both in one arm, >= 3 dump
    return 0.5 * np.array([[p == 1, p == 0, p == 2, p >= 3] for p in pair], dtype=float).T


def mode_unitary(eta, loss, parts=None):
    """The gate's mode unitary at reflectivity ``eta``, with or without the balancing loss,
    from ``gate_parts(loss)`` or the given ``parts``; PhotonicsError unless it is unitary."""
    parts = gate_parts(loss) if parts is None else parts
    u = parts[0] + math.sqrt(eta) * parts[1] + math.sqrt(1.0 - eta) * parts[2]
    check_unitary(u)
    return u


def pair_map(eta, loss):
    """(A, heralded rows) of the gate at ``eta``, the 2x2 permanents of U(eta):
    A[y n + z, 2 i + j] = t[y, z, i, j] = U[y, i] U[z, 2 + j] + U[z, i] U[y, 2 + j] sends
    the input amplitudes s_i m_j to Phi[y, z], the amplitude of one photon in each of
    the modes y != z, sqrt(2) times that of two in y = z; the heralded rows are
    t[s_i', m_k, i, j] as [meter k, signal i', signal i, meter j]."""
    u = mode_unitary(eta, loss)
    t = u[:, None, SIG, None] * u[None, :, None, MET]
    t = t + t.transpose(1, 0, 2, 3)
    return t.reshape(-1, 4), t[SIG, MET].transpose(1, 0, 2, 3)


def analytic_success(alpha: complex, beta: complex, include_signal_loss: bool = False) -> float:
    """Closed-form success probability at eta = 1/3 with meter |D(1/3)>.

    (|alpha|^2 + 3 |beta|^2)/6 without the balancing loss; 1/6 for every
    input once the 2/3 loss on s_V is included.
    """
    n = abs(alpha) ** 2 + abs(beta) ** 2
    if not abs(n - 1.0) <= NORM_ATOL:  # a NaN amplitude fails too
        raise PhotonicsError("input amplitudes must be normalized")
    if include_signal_loss:
        return 1.0 / 6.0
    return (abs(alpha) ** 2 + 3.0 * abs(beta) ** 2) / 6.0


Run = collections.namedtuple("Run", "joint rho_s rho_m p_in p_out p_m conditional")


def run(signal, prep, basis=hs.Z_BASIS):
    """The gate on ``signal`` read off its Kraus stack. branches[k] = M_k |signal>
    is the signal branch of meter reading k, so the joint (signal, meter)
    amplitudes are branches^T. ``conditional[k]`` holds the probability of
    reading k, the post-measurement signal and the probability p_{|k>|k} that
    it is then found in basis eigenstate k."""
    branches = cq.kraus(prep, basis) @ signal.amps
    joint = branches.T
    p_m = (np.abs(branches) ** 2).sum(axis=1)
    p_out = (np.abs(basis.vectors.conj().T @ joint) ** 2).sum(axis=1)
    p_in = np.abs(basis.vectors.conj().T @ signal.amps) ** 2
    conditional = []
    for k in range(2):
        if p_m[k] < hs.ZERO_BRANCH:
            conditional.append((0.0, None, 0.0))
            continue
        post = PureState.from_amplitudes(branches[k])
        conditional.append((p_m[k], post, abs(np.vdot(basis.vectors[:, k], post.amps)) ** 2))
    return Run(joint.ravel(), joint @ joint.conj().T, branches @ branches.conj().T, p_in, p_out, p_m,
               conditional)


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
        check_unitary(u)
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
        if not abs(norm - 1.0) <= NORM_ATOL:  # a NaN amplitude fails too
            raise PhotonicsError(f"two-photon state not normalized: |amp|^2 = {norm**2}")
        self.amps = clean

    def amplitude(self, pattern) -> complex:
        return self.amps.get(tuple(pattern), 0.0j)

    def probability(self, pattern) -> float:
        return abs(self.amplitude(pattern)) ** 2

    def items(self):
        return self.amps.items()


def build_qnd_circuit(
    eta: float, include_signal_loss: bool = False
) -> tuple[ModeLayout, LinearCircuit]:
    """Assemble the gate: eta-BS on the horizontal rails, optional 1/3-
    transmittance balancing loss on s_V, and the output HWP on the meter."""
    eta, loss = _check_eta(eta), bool(include_signal_loss)
    names = ("s_H", "s_V", "m_H", "m_V") + (("dump_s",) if loss else ())
    elements = [{"kind": "beamsplitter", "modes": ("s_H", "m_H"), "eta": eta}]
    if loss:
        elements.append(
            {"kind": "loss_beamsplitter", "modes": ("s_V", "dump_s"), "transmittance": 1.0 / 3.0}
        )
    elements.append({"kind": "half_wave_plate", "modes": ("m_H", "m_V"), "angle_deg": 22.5})
    layout = ModeLayout(names)
    elements = tuple(tuple(e.items()) for e in elements)
    return layout, LinearCircuit(layout, mode_unitary(eta, loss), elements)


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


# ------------------------------------------------------ the general Born-table reader


def outputs(basis):
    """B = [V | V X]: the eigenstates of a qubit basis and of its conjugate, as columns."""
    return np.concatenate((basis.vectors, basis.vectors @ hs.X_BASIS.vectors), axis=1)


def born_products(basis):
    """S[(o, n), (j, i)] = conj(B[o, j]) B[n, i] over ``outputs`` B: a flattened Kraus
    operator M times S gives the amplitudes b_j^dag M b_i."""
    b = outputs(basis)
    return (b.conj()[:, None, :, None] * b[:, None, :]).reshape(4, 16)


# the rows (k, block, j, i) of the Born table's basis and conjugate inputs i, with input i
# in block i // 2: SUCCESS sums each input's success over its own block, and FIGURES
# reads (q00, q01, q10, q11, P_c) off the conditioned table
_K, _BLOCK, _J, _I = np.indices((2, 2, 2, 4)).reshape(4, -1, 1)
SUCCESS = ((_I == np.arange(4)) & (_BLOCK == _I // 2)).astype(float)
FIGURES = 0.5 * np.hstack(((_BLOCK == 0) & (_I < 2) & (2 * _J + _K == np.arange(4)),
                           (_BLOCK == 1) & (_J == _I - 2)))


def probe_read(basis, probes):
    """The read matrices of the PureStates ``probes``: [S | S_P], with S = ``born_products``
    and S_P[(o, n), (j, p)] = conj(V[o, j]) a_p[n]; R, the 0/1 matrix that sums
    u[(k, j, p)] = |v_j^dag M_k a_p|^2 over j into p_m and over k into p_out, as rows
    (p, fidelity, outcome); and W, which weighs those rows by sqrt(p_in[p, outcome]) into
    rows (p, fidelity), so that the unconditioned fidelities are (W @ sqrt(R @ u))^2."""
    a, v = np.array([state.amps for state in probes]), basis.vectors
    s_p = (v.conj()[:, None, :, None] * a.T[:, None, :]).reshape(4, -1)
    p, fid, o = np.indices((len(a), 2, 2)).reshape(3, -1, 1)  # rows of R, columns of W
    k, j, p_u = np.indices((2, 2, len(a))).reshape(3, 1, -1)  # columns of R: u's rows
    r = (p == p_u) & (o == np.where(fid, j, k))
    w = (np.abs(a @ v.conj())[p, o] * (2 * p + fid == np.arange(2 * len(a)))).T
    return np.hstack((born_products(basis), s_p)), r.astype(float), w


def born_read(m, basis, probes=None):
    """The figures of the Kraus stacks ``m`` (..., 2, 2, 2) read in ``basis``, unchecked: the
    joint table q, L and P_c as plain arrays, and the unconditioned (F_M, F_QND) of each
    PureState of ``probes`` as (n, 2, ...m's batch), or None.

    The figures come from one Born table t[..., k, block, j, i] = |b_j^dag M_k b_i|^2 over
    the outputs B = [V | V X] as both outputs and inputs: one product of the flattened M_k
    with ``born_products``, read through the constant matrices SUCCESS and FIGURES. The
    probes join that product as the columns S_P of ``probe_read``, then R and W.
    """
    read, r, w = (born_products(basis), None, None) if probes is None else probe_read(basis, probes)
    x = np.abs(m.reshape(-1, 4) @ read) ** 2
    t = x[:, :16].reshape(-1, 8, 4)  # [..., k, block, j, i]
    c = (t / (t.reshape(-1, 32) @ SUCCESS)[:, None]).reshape(-1, 32)  # conditioned on success
    f = (c @ FIGURES).reshape(m.shape[:-3] + (5,))
    q = f[..., :4].reshape(f.shape[:-1] + (2, 2))  # q[..., j, k]: the maximally mixed input over V
    likelihood, p_c = q[..., 0, 0] + q[..., 1, 1], f[..., 4]
    if probes is None:
        return q, likelihood, p_c, None
    u = x[:, 16:].reshape(-1, r.shape[1]).T  # [(k, j, probe), ...]
    return q, likelihood, p_c, ((w @ np.sqrt(r @ u)) ** 2).reshape((len(probes), 2) + m.shape[:-3])


# ------------------------------------------------- the a-scan in 50-digit decimals


def scan_figures_decimal(a: float, eta: float):
    """(L, P_c, min(s_H, s_V)) of ``photonics.strength_distinguishability(a, eta)`` as Decimals,
    in 50-digit arithmetic from the exact values of the floats a and eta: the heralding table
    D = [[1 - 2 eta, r], [-r l, l]], r = sqrt(eta), l^2 = 1/3, read at the meter (a, sqrt(1 - a^2))
    through the output HWP, G[i][k] = sum_j HWP[k][j] D[i][j] m_j, and with
    s_i = G[i][H]^2 + G[i][V]^2, L = (G[H][H]^2 / s_H + G[V][V]^2 / s_V) / 2 and
    P_c = sum_k (G[H][k] + G[V][k])^2 / (2 (s_H + s_V))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, eta, one = decimal.Decimal(a), decimal.Decimal(eta), decimal.Decimal(1)
        r, ell, h = eta.sqrt(), (one / 3).sqrt(), (one / 2).sqrt()
        d = ((1 - 2 * eta, r), (-r * ell, ell))
        meter = (a, (1 - a * a).sqrt())
        hwp = ((h, h), (h, -h))
        g = [[sum(hwp[k][j] * d[i][j] * meter[j] for j in range(2)) for k in range(2)] for i in range(2)]
        s = [g[i][0] ** 2 + g[i][1] ** 2 for i in range(2)]
        likelihood = (g[0][0] ** 2 / s[0] + g[1][1] ** 2 / s[1]) / 2
        p_c = sum((g[0][k] + g[1][k]) ** 2 for k in range(2)) / (2 * (s[0] + s[1]))
        return likelihood, p_c, min(s)


# ---------------------------------------------- the CNOT sweep in 50-digit decimals


def sweep_row_decimal(gamma: float) -> dict:
    """The ``cnot_qnd.strength_sweep`` row at ``gamma`` in [1/sqrt(2), 1], field by field, as
    Decimals in 50-digit arithmetic from the exact value of the float gamma, by the formulas
    of its docstring on the branch table G = [[gamma, gamma_bar], [gamma_bar, gamma]],
    gamma_bar = sqrt(1 - gamma^2): with s_i = sum_k G[i][k]^2, L = (1/2) sum_i G[i][i]^2 / s_i,
    P_c = sum_k (G[0][k] + G[1][k])^2 / (2 (s_0 + s_1)), K = 2 L - 1 and K_bar = 2 P_c - 1.
    The worst case is over the basis eigenstates |i>, which the meter reads as i with weight
    G[i][i]^2 and the signal keeps with weight s_i: F_M = min_i G[i][i]^2, F_QND = min_i s_i."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        g = decimal.Decimal(gamma)
        g_bar = (1 - g * g).sqrt()
        table = ((g, g_bar), (g_bar, g))
        s = [table[i][0] ** 2 + table[i][1] ** 2 for i in range(2)]
        likelihood = sum(table[i][i] ** 2 / s[i] for i in range(2)) / 2
        p_c = sum((table[0][k] + table[1][k]) ** 2 for k in range(2)) / (2 * (s[0] + s[1]))
        k, k_bar = 2 * likelihood - 1, 2 * p_c - 1
        return {"gamma": g, "f_m": min(table[i][i] ** 2 for i in range(2)), "f_qnd": min(s),
                "f_qsp": likelihood, "k": k, "k_bar": k_bar, "englert": k * k + k_bar * k_bar,
                "c2_raw": k * k, "c2_shortcut": k}
