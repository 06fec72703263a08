import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import hilbert as hs
from qndsim import photonics as ph
from qndsim import weakval as wv
from qndsim.hilbert import (
    BasisSpec,
    DensityMatrix,
    HilbertError,
    ProbDist,
    PureState,
    ZeroProbabilityError,
    apply_unitary,
    born_distribution,
    conditional_collapse,
    partial_trace,
    tensor_product,
)

S = 1 / math.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def random_state(rng, dims):
    d = math.prod(dims)
    a = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState.from_amplitudes(a, dims=dims)


def random_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- construction


def test_purestate_rejects_unnormalized():
    with pytest.raises(HilbertError):
        PureState((2,), np.array([1.0, 1.0]))


def test_purestate_rejects_nan():
    with pytest.raises(HilbertError):
        PureState((2,), np.array([np.nan, 0.0]))


@pytest.mark.parametrize(
    "amps, match",
    [
        ([np.nan, 0.0], "non-finite"),
        ([np.inf, 0.0], "non-finite"),
        ([-np.inf, 0.0], "non-finite"),
        ([0.6, complex(0.0, np.inf)], "non-finite"),
        ([np.inf, np.nan], "non-finite"),
        (1.01 * np.array([0.6, 0.8j]), "not normalized"),
        ([1e200, 0.0], "not normalized"),
    ],
)
def test_purestate_names_why_it_rejects(amps, match):
    with pytest.raises(HilbertError, match=match):
        PureState((2,), np.array(amps))


def test_probdist_clamps_tiny_negative():
    p = ProbDist(np.array([1.0 + 5e-13, -5e-13]))
    assert p[1] == 0.0


def test_probdist_rejects_bad_sum():
    with pytest.raises(HilbertError):
        ProbDist(np.array([0.6, 0.6]))


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [np.nan, np.nan]])
def test_probdist_rejects_non_finite(weights):
    with pytest.raises(HilbertError):
        ProbDist.from_weights(weights)
    with pytest.raises(HilbertError):
        ProbDist(np.array(weights))


def test_basis_rejects_non_orthonormal():
    with pytest.raises(HilbertError):
        BasisSpec(np.array([[1.0, 1.0], [0.0, 0.0]]))


# ------------------------------------------------------------- tensor_product


def test_tensor_basis_states():
    out = tensor_product(hs.KET0, hs.KET0)
    assert out.dims == (2, 2)
    np.testing.assert_allclose(out.amps, [1, 0, 0, 0])


def test_tensor_linearity():
    out = tensor_product(hs.qubit(0.6, 0.8), hs.KET0)
    np.testing.assert_allclose(out.amps, [0.6, 0, 0.8, 0], atol=1e-15)


def test_tensor_uniform():
    out = tensor_product(hs.PLUS, hs.PLUS)
    np.testing.assert_allclose(out.amps, [0.5] * 4, atol=1e-15)


# -------------------------------------------------------------- partial_trace


def test_partial_trace_bell():
    bell = PureState((2, 2), np.array([S, 0, 0, S]))
    red = partial_trace(bell.density_matrix(), [0])
    np.testing.assert_allclose(red.entries, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_weighted_entangled():
    # tracing the meter from alpha|00> + beta|11> leaves diag(|a|^2, |b|^2)
    psi = PureState((2, 2), np.array([0.6, 0, 0, 0.8]))
    red = partial_trace(psi.density_matrix(), [0])
    np.testing.assert_allclose(red.entries, np.diag([0.36, 0.64]), atol=1e-12)


def test_partial_trace_product_state():
    sig = hs.qubit(0.6, 0.8j)
    joint = tensor_product(sig, hs.KET0)
    red = partial_trace(joint.density_matrix(), [0])
    np.testing.assert_allclose(red.entries, sig.density_matrix().entries, atol=1e-12)


def test_partial_trace_invalid_subsystem():
    rho = hs.KET0.density_matrix()
    with pytest.raises(HilbertError):
        partial_trace(rho, [1])


# ---------------------------------------------------------- born_distribution


def test_born_qubit_z():
    p = born_distribution(hs.qubit(0.6, 0.8), hs.Z_BASIS)
    np.testing.assert_allclose(p.p, [0.36, 0.64], atol=1e-12)


def test_born_conjugate_uniform():
    p = born_distribution(hs.KET0, hs.X_BASIS)
    np.testing.assert_allclose(p.p, [0.5, 0.5], atol=1e-12)


def test_born_meter_marginal_of_gate_state():
    a, b, g = 0.6, 0.8, 0.9
    gb = math.sqrt(1 - g * g)
    state = PureState((2, 2), np.array([a * g, a * gb, b * gb, b * g]))
    p = born_distribution(state, hs.Z_BASIS, subsystem=1)
    expected = [a * a * g * g + b * b * gb * gb, b * b * g * g + a * a * gb * gb]
    np.testing.assert_allclose(p.p, expected, atol=1e-12)


def test_born_dimension_mismatch():
    with pytest.raises(HilbertError):
        born_distribution(hs.KET0, BasisSpec(np.eye(3)))


# ------------------------------------------------------- conditional_collapse


def test_collapse_entangled_meter():
    psi = PureState((2, 2), np.array([0.6, 0, 0, 0.8]))
    prob, post = conditional_collapse(psi, hs.Z_BASIS, 1, 0)
    assert prob == pytest.approx(0.36, abs=1e-12)
    np.testing.assert_allclose(post.amps, [1, 0, 0, 0], atol=1e-12)


def test_collapse_eigenstate_is_identity():
    joint = tensor_product(hs.PLUS, hs.KET0)
    prob, post = conditional_collapse(joint, hs.X_BASIS, 0, 0)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert post.equal_up_to_phase(joint)


def test_collapse_gate2_state_matches_matrix_oracle():
    # independent oracle: explicit 4x4 projector onto meter |0>
    a, b, g = 0.8, -0.6, 0.85
    gb = math.sqrt(1 - g * g)
    amps = np.array([a * g, a * gb, b * gb, b * g], dtype=complex)
    proj = np.kron(np.eye(2), np.diag([1.0, 0.0]))
    projected = proj @ amps
    prob_oracle = float(np.vdot(projected, projected).real)
    post_oracle = projected / math.sqrt(prob_oracle)

    state = PureState((2, 2), amps)
    prob, post = conditional_collapse(state, hs.Z_BASIS, 1, 0)
    assert prob == pytest.approx(prob_oracle, abs=1e-12)
    np.testing.assert_allclose(post.amps, post_oracle, atol=1e-12)
    # frozen expectation from the oracle
    assert prob == pytest.approx(a * a * g * g + b * b * gb * gb, abs=1e-12)


def test_collapse_zero_probability_branch():
    joint = tensor_product(hs.KET0, hs.KET0)
    with pytest.raises(ZeroProbabilityError):
        conditional_collapse(joint, hs.Z_BASIS, 1, 1)


# --------------------------------------------------------------- apply_unitary


def test_cnot_entangles():
    joint = tensor_product(hs.qubit(0.6, 0.8), hs.KET0)
    out = apply_unitary(CNOT, joint, [0, 1])
    np.testing.assert_allclose(out.amps, [0.6, 0, 0, 0.8], atol=1e-12)


def test_identity_noop():
    psi = hs.qubit(0.6, 0.8j)
    out = apply_unitary(np.eye(2), psi, [0])
    np.testing.assert_allclose(out.amps, psi.amps)


def test_hadamard_involution():
    out = apply_unitary(HADAMARD, apply_unitary(HADAMARD, hs.KET0, [0]), [0])
    assert out.equal_up_to_phase(hs.KET0)


def test_non_unitary_rejected():
    with pytest.raises(HilbertError):
        apply_unitary(np.array([[1, 0], [0, 2]]), hs.KET0, [0])


# off-Hermitian by 4e-6, and an identity whose first entry is 4e-6 too long
SKEWED = np.array([[0.5, 0.45 + 4e-6], [0.45, 0.5]])
STRETCHED = np.diag([1.0 + 4e-6, 1.0])


@pytest.mark.parametrize(
    "build, error, match",
    [
        pytest.param(lambda: DensityMatrix((2,), SKEWED), HilbertError, "Hermitian", id="density"),
        pytest.param(lambda: BasisSpec(STRETCHED), HilbertError, "orthonormal", id="basis"),
        pytest.param(lambda: apply_unitary(STRETCHED, hs.KET0), HilbertError, "unitary", id="apply"),
        pytest.param(
            lambda: ph.LinearCircuit(ph.ModeLayout(("a", "b")), STRETCHED),
            ph.PhotonicsError,
            "unitary",
            id="circuit",
        ),
        pytest.param(
            lambda: wv.PovmPair(SKEWED, np.eye(2) - SKEWED), wv.WeakValueError, "e0", id="povm_effect"
        ),
        pytest.param(
            lambda: wv.PovmPair(np.diag([0.5 + 8e-6, 0.5]), np.diag([0.5, 0.5])),
            wv.WeakValueError,
            "identity",
            id="povm_sum",
        ),
    ],
)
def test_identity_checks_hold_their_absolute_tolerance(build, error, match):
    # a relative tolerance against the identity would let a 1e-5 defect through
    with pytest.raises(error, match=match):
        build()


# ------------------------------------------------------------------ properties


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_norm_preserved_under_unitary(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, (2, 2))
    u = random_unitary(rng, 4)
    out = apply_unitary(u, psi, [0, 1])
    assert abs(np.vdot(out.amps, out.amps).real - 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partial_trace_preserves_trace_and_purity_bound(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, (2, 2, 2))
    red = partial_trace(psi.density_matrix(), [0, 2])
    assert abs(np.trace(red.entries).real - 1.0) < 1e-10
    pur = red.purity()
    assert 1 / red.dim - 1e-10 <= pur <= 1 + 1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_marginal_consistency(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, (2, 2))
    basis = BasisSpec(random_unitary(rng, 2))
    direct = born_distribution(psi, basis, 1)
    via_trace = born_distribution(partial_trace(psi.density_matrix(), [1]), basis, 0)
    np.testing.assert_allclose(direct.p, via_trace.p, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_collapse_completeness(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, (2, 2))
    basis = BasisSpec(random_unitary(rng, 2))
    total = 0.0
    for k in range(2):
        try:
            prob, _ = conditional_collapse(psi, basis, 1, k)
        except ZeroProbabilityError:
            prob = 0.0
        total += prob
    assert abs(total - 1.0) < 1e-10


# ---------------------------------------------------------------- serialization


def test_state_json_roundtrip():
    psi = hs.qubit(0.6, 0.8j)
    blob = psi.to_json()
    back = PureState(tuple(blob["dims"]), np.array(blob["re"]) + 1j * np.array(blob["im"]))
    assert back.equal_up_to_phase(psi)
