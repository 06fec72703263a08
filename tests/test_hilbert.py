import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import cnot_qnd as cq
from qndsim import hilbert as hs
from qndsim import metrics
from qndsim import photonics as ph
from qndsim.cnot_qnd import MeterPrep
from qndsim.hilbert import BasisSpec, HilbertError, ProbDist, PureState
from qndsim.metrics import classical_fidelity

from oracles import PHASE_ATOL, check_unitary, run

S = 1 / math.sqrt(2)


def random_state(rng, d):
    a = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState.from_amplitudes(a)


def random_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- construction


def test_purestate_rejects_unnormalized():
    with pytest.raises(HilbertError):
        PureState(np.array([1.0, 1.0]))


def test_purestate_rejects_nan():
    with pytest.raises(HilbertError):
        PureState(np.array([np.nan, 0.0]))


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
        PureState(np.array(amps))


@pytest.mark.parametrize(
    "amps, match",
    [(np.eye(2), r"1-D array, got shape \(2, 2\)"), (1.0, r"1-D array, got shape \(\)"), ([], "normali")],
    ids=["matrix", "scalar", "empty"],
)
def test_states_reject_amplitudes_that_are_not_a_vector(amps, match):
    for build in (PureState, PureState.from_amplitudes):
        with pytest.raises(HilbertError, match=match):
            build(amps)


def test_purestate_takes_no_subsystem_dimensions():
    dims, amps = (2,), [1, 0]
    with pytest.raises(TypeError):
        PureState(dims, amps)


def test_array_holding_values_compare_and_hash_by_identity():
    k = np.array([0.5, -0.5])
    pairs = [
        (BasisSpec(np.eye(2)), BasisSpec(np.eye(2))),
        (hs.KET0, hs.qubit(1, 0)),
        (ProbDist([0.5, 0.5]), ProbDist([0.5, 0.5])),
        (metrics.DistinguishabilityPair(0.5, 0.5), metrics.DistinguishabilityPair(0.5, 0.5)),
        (metrics.DistinguishabilityPair(k, k), metrics.DistinguishabilityPair(k, k)),
        (ph.run_gate(hs.KET0, ph.meter_prep(1 / 3)), ph.run_gate(hs.KET0, ph.meter_prep(1 / 3))),
    ]
    for a, b in pairs:
        assert a == a and a != b and len({a, b, a}) == 2
    assert hs.Z_BASIS in {hs.Z_BASIS}


def test_probdist_clamps_tiny_negative():
    p = ProbDist(np.array([1.0 + 5e-13, -5e-13]))
    assert p.p[1] == 0.0


@pytest.mark.parametrize("p", [[1.0 + 5e-11, -5e-11], [-5e-11, 0.5, 0.5 + 5e-11]])
def test_probdist_rejects_negative_beyond_the_clamp(p):
    # below -PROB_CLAMP, yet still summing to 1 within PROB_ATOL once clipped
    with pytest.raises(HilbertError, match="negative probability"):
        ProbDist(np.array(p))


def test_probdist_rejects_bad_sum():
    with pytest.raises(HilbertError):
        ProbDist(np.array([0.6, 0.6]))


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [np.nan, np.nan]])
def test_probdist_rejects_non_finite(weights):
    with pytest.raises(HilbertError):
        ProbDist.from_weights(weights)
    with pytest.raises(HilbertError):
        ProbDist(np.array(weights))


@pytest.mark.parametrize("build", [
    lambda: ProbDist([]),
    lambda: ProbDist.from_weights([]),
    lambda: ProbDist(np.empty((0,))),
    lambda: classical_fidelity([], []),
    lambda: cq.strength_sweep([S, 1.0], ensemble=[]),
], ids=["probdist", "from_weights", "probdist_array", "classical_fidelity", "strength_sweep"])
def test_empty_distribution_is_a_hilbert_error(build):
    # typed, not numpy's "zero-size array to reduction operation minimum"
    with pytest.raises(HilbertError, match="sum|nonempty"):
        build()


def test_basis_rejects_non_orthonormal():
    with pytest.raises(HilbertError):
        BasisSpec(np.array([[1.0, 1.0], [0.0, 0.0]]))


def _read_matrix_bases():
    rng = np.random.default_rng(29)
    return [hs.Z_BASIS, hs.X_BASIS, hs.Y_BASIS] + [BasisSpec(random_unitary(rng, 2)) for _ in range(20)]


def test_basis_read_matrices_are_cached_read_only_and_match_their_formulas():
    for basis in _read_matrix_bases():
        text = repr(basis)
        v = basis.vectors
        b = np.concatenate((v, v @ hs.X_BASIS.vectors), axis=1)
        s = np.multiply.outer(b.conj(), b).transpose(0, 2, 1, 3).reshape(4, 16)  # [(o, n), (j, i)]
        for name, want in (("outputs", b), ("born_products", s)):
            got = getattr(basis, name)
            assert got is getattr(basis, name)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0] = 0.0
            assert got.shape == want.shape and np.array_equal(got, want)
        assert repr(basis) == text  # the cache is no field


def test_equal_bases_read_a_stack_bit_for_bit_alike():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(5, 2, 2, 2)) + 1j * rng.normal(size=(5, 2, 2, 2))
    for basis in _read_matrix_bases():
        twin = BasisSpec(basis.vectors.copy())  # its read matrices not built yet
        (joint, pair), (twin_joint, twin_pair) = (metrics.kraus_figures(m, b) for b in (basis, twin))
        for got, want in ((twin_joint, joint), (twin_pair.k, pair.k), (twin_pair.k_bar, pair.k_bar)):
            assert got.tobytes() == want.tobytes()


def test_from_amplitudes_rejects_zero_vector():
    with pytest.raises(HilbertError, match="zero vector"):
        PureState.from_amplitudes([0.0, 1e-15])


@pytest.mark.parametrize("amps, expected", [
    ((-1e300, 0.866), (-1.0, 8.66e-301)),
    ((1e308, 1e308), (S, S)),
    ((1.7e308, 1.7e308j), (S, 1j * S)),
])
def test_from_amplitudes_scales_huge_amplitudes(amps, expected):
    # |a|^2 overflows a float for each of these, so the norm must be taken after scaling
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        psi = hs.qubit(*amps)
    np.testing.assert_allclose(psi.amps, expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("amps", [[np.nan, 0.0], [np.inf, 1e300], [0.6, complex(0.0, -np.inf)]])
def test_from_amplitudes_rejects_non_finite(amps):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(HilbertError, match="non-finite amplitude"):
            PureState.from_amplitudes(amps)


def test_from_amplitudes_scaling_is_exact():
    # a power-of-two scaling changes no bit of the normalized amplitudes
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 10.0 ** rng.uniform(-5, 5)
        assert np.array_equal(PureState.from_amplitudes(a).amps, a / np.linalg.norm(a))


def test_basis_states_are_the_named_qubits():
    named = [(hs.Z_BASIS, (hs.KET0, hs.KET1)), (hs.X_BASIS, (hs.PLUS, hs.MINUS)),
             (hs.Y_BASIS, (hs.qubit(S, 1j * S), hs.qubit(S, -1j * S)))]
    for basis, kets in named:
        for k, ket in enumerate(kets):
            assert abs(abs(np.vdot(basis.vectors[:, k], ket.amps)) - 1.0) <= PHASE_ATOL


def test_probdist_from_weights_normalizes_counts():
    np.testing.assert_allclose(ProbDist.from_weights([3, 1, 0]).p, [0.75, 0.25, 0.0], atol=1e-15)
    with pytest.raises(HilbertError, match="nonnegative"):
        ProbDist.from_weights([2.0, -1.0])
    with pytest.raises(HilbertError, match="positive sum"):
        ProbDist.from_weights([0.0, 0.0])


def test_probdist_from_weights_scales_huge_weights():
    # the raw sum overflows a float, so the weights must be scaled before summing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(ProbDist.from_weights([1e308, 1e308]).p, [0.5, 0.5])


# --------------------------------------------------- the gate's joint state
# The joint (signal, meter) state of the CNOT gate and the statistics read
# from it, as ``oracles.run`` takes them off the Kraus stack ``cnot_qnd.kraus``:
# tensor structure, reduced states, Born statistics and collapse.


def test_tensor_basis_states():
    # signal |0> with the meter prepared in |0>: the product basis state |00>
    out = run(hs.KET0, MeterPrep(1.0))
    np.testing.assert_allclose(out.joint, np.eye(4)[0], atol=1e-15)


def test_tensor_linearity():
    # signal |0> leaves the meter as prepared, and the gate is linear in the signal
    g, gb = 0.8, 0.6
    zero, one = run(hs.KET0, MeterPrep(g)).joint, run(hs.KET1, MeterPrep(g)).joint
    np.testing.assert_allclose(zero, [g, gb, 0, 0], atol=1e-15)
    out = run(hs.qubit(0.6, 0.8j), MeterPrep(g))
    np.testing.assert_allclose(out.joint, 0.6 * zero + 0.8j * one, atol=1e-12)


def test_tensor_uniform():
    # |+> leaves the turned-off meter |+> as it is: the joint is |+>|+>
    out = run(hs.PLUS, MeterPrep(S))
    np.testing.assert_allclose(out.joint, [0.5] * 4, atol=1e-15)


def test_partial_trace_bell():
    out = run(hs.PLUS, MeterPrep(1.0))
    np.testing.assert_allclose(out.joint, [S, 0, 0, S], atol=1e-12)
    np.testing.assert_allclose(out.rho_s, np.diag([0.5, 0.5]), atol=1e-12)
    np.testing.assert_allclose(out.rho_m, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_weighted_entangled():
    # tracing either qubit from alpha|00> + beta|11> leaves diag(|a|^2, |b|^2)
    out = run(hs.qubit(0.6, 0.8), MeterPrep(1.0))
    np.testing.assert_allclose(out.rho_s, np.diag([0.36, 0.64]), atol=1e-12)
    np.testing.assert_allclose(out.rho_m, np.diag([0.36, 0.64]), atol=1e-12)


def test_partial_trace_product_state():
    # a turned-off gate leaves signal and meter a product: each keeps its own pure state
    sig = hs.qubit(0.6, 0.8j)
    out = run(sig, MeterPrep(S))
    np.testing.assert_allclose(out.rho_s, np.outer(sig.amps, sig.amps.conj()), atol=1e-12)
    np.testing.assert_allclose(out.rho_m, np.full((2, 2), 0.5), atol=1e-12)


def test_born_qubit_z():
    out = run(hs.qubit(0.6, 0.8), MeterPrep(1.0))
    np.testing.assert_allclose(out.p_m, [0.36, 0.64], atol=1e-12)


def test_born_conjugate_uniform():
    out = run(hs.KET0, MeterPrep(1.0), hs.X_BASIS)
    np.testing.assert_allclose(out.p_m, [0.5, 0.5], atol=1e-12)


def test_born_meter_marginal_of_gate_state():
    a, b, g = 0.6, 0.8, 0.9
    gb = math.sqrt(1 - g * g)
    out = run(hs.qubit(a, b), MeterPrep(g))
    np.testing.assert_allclose(out.joint, [a * g, a * gb, b * gb, b * g], atol=1e-12)
    expected = [a * a * g * g + b * b * gb * gb, b * b * g * g + a * a * gb * gb]
    np.testing.assert_allclose(out.p_m, expected, atol=1e-12)


def test_born_dimension_mismatch():
    with pytest.raises(HilbertError):
        cq.kraus(MeterPrep(1.0), BasisSpec(np.eye(3)))


def test_collapse_entangled_meter():
    prob, post, p_match = run(hs.qubit(0.6, 0.8), MeterPrep(1.0)).conditional[1]
    assert prob == pytest.approx(0.64, abs=1e-12)
    assert abs(abs(np.vdot(post.amps, hs.KET1.amps)) - 1.0) <= PHASE_ATOL
    assert p_match == pytest.approx(1.0, abs=1e-12)


def test_collapse_eigenstate_is_identity():
    # an eigenstate of the measured observable is left as it is, at any strength
    for g in (S, 0.8, 1.0):
        prob, post, _ = run(hs.PLUS, MeterPrep(g), hs.X_BASIS).conditional[0]
        assert prob == pytest.approx(g * g, abs=1e-12)
        assert abs(abs(np.vdot(post.amps, hs.PLUS.amps)) - 1.0) <= PHASE_ATOL


def test_collapse_gate2_state_matches_matrix_oracle():
    # independent oracle: explicit 4x4 projector onto meter |0>
    a, b, g = 0.8, -0.6, 0.85
    gb = math.sqrt(1 - g * g)
    amps = np.array([a * g, a * gb, b * gb, b * g], dtype=complex)
    proj = np.kron(np.eye(2), np.diag([1.0, 0.0]))
    projected = proj @ amps
    prob_oracle = float(np.vdot(projected, projected).real)
    post_oracle = projected / math.sqrt(prob_oracle)

    out = run(hs.qubit(a, b), MeterPrep(g))
    np.testing.assert_allclose(out.joint, amps, atol=1e-12)
    prob, post, _ = out.conditional[0]
    assert prob == pytest.approx(prob_oracle, abs=1e-12)
    # the signal factor of signal x |0>
    np.testing.assert_allclose(post.amps, post_oracle.reshape(2, 2)[:, 0], atol=1e-12)
    # frozen expectation from the oracle
    assert prob == pytest.approx(a * a * g * g + b * b * gb * gb, abs=1e-12)


def test_collapse_zero_probability_branch():
    assert run(hs.KET0, MeterPrep(1.0)).conditional[1] == (0.0, None, 0.0)


def test_cnot_entangles():
    # Schmidt coefficients of the joint: |a|, |b| at full strength, a product when off
    sig = hs.qubit(0.6, 0.8)
    on = run(sig, MeterPrep(1.0)).joint.reshape(2, 2)
    np.testing.assert_allclose(np.linalg.svd(on, compute_uv=False), [0.8, 0.6], atol=1e-12)
    off = run(sig, MeterPrep(S)).joint.reshape(2, 2)
    np.testing.assert_allclose(np.linalg.svd(off, compute_uv=False), [1.0, 0.0], atol=1e-12)


def test_identity_noop():
    # the turned-off gate acts on the signal as the identity, in every basis
    for basis in (hs.Z_BASIS, hs.X_BASIS, hs.Y_BASIS):
        np.testing.assert_allclose(cq.kraus(MeterPrep(S), basis), [S * np.eye(2)] * 2, atol=1e-15)
    psi = hs.qubit(0.6, 0.8j)
    np.testing.assert_allclose(run(psi, MeterPrep(S)).joint, np.kron(psi.amps, [S, S]), atol=1e-15)


def test_hadamard_involution():
    h = hs.X_BASIS.vectors
    np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-15)
    plus = np.outer(hs.PLUS.amps, hs.PLUS.amps)
    np.testing.assert_allclose(cq.kraus(MeterPrep(1.0), hs.X_BASIS)[0], plus, atol=1e-15)


def test_non_unitary_rejected():
    with pytest.raises(ph.PhotonicsError, match="unitary"):
        check_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(HilbertError, match="orthonormal"):
        BasisSpec(np.array([[1.0, 0.0], [0.0, 2.0]]))


# an identity whose first entry is 4e-6 too long
STRETCHED = np.diag([1.0 + 4e-6, 1.0])


@pytest.mark.parametrize(
    "build, error, match",
    [
        pytest.param(lambda: BasisSpec(STRETCHED), HilbertError, "orthonormal", id="basis"),
        pytest.param(lambda: check_unitary(STRETCHED), ph.PhotonicsError, "unitary", id="circuit"),
    ],
)
def test_identity_checks_hold_their_absolute_tolerance(build, error, match):
    # a relative tolerance against the identity would let a 1e-5 defect through
    with pytest.raises(error, match=match):
        build()


# ------------------------------------------------------------------ properties


def random_run(seed, gamma):
    rng = np.random.default_rng(seed)
    basis = BasisSpec(random_unitary(rng, 2))
    return run(random_state(rng, 2), MeterPrep(gamma), basis), basis


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1 / math.sqrt(2), 1.0))
def test_norm_preserved_under_unitary(seed, gamma):
    out, _ = random_run(seed, gamma)
    assert abs(np.vdot(out.joint, out.joint).real - 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1 / math.sqrt(2), 1.0))
def test_partial_trace_preserves_trace_and_purity_bound(seed, gamma):
    out, _ = random_run(seed, gamma)
    purities = []
    for red in (out.rho_s, out.rho_m):
        np.testing.assert_allclose(red, red.conj().T, atol=1e-12)
        assert abs(np.trace(red).real - 1.0) < 1e-10
        purities.append(np.trace(red @ red).real)
        assert 1 / 2 - 1e-10 <= purities[-1] <= 1 + 1e-10
    # both halves of a pure joint state have the same Schmidt spectrum
    assert purities[0] == pytest.approx(purities[1], abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1 / math.sqrt(2), 1.0))
def test_marginal_consistency(seed, gamma):
    out, basis = random_run(seed, gamma)
    v = basis.vectors
    np.testing.assert_allclose(out.p_m, np.diag(out.rho_m).real, atol=1e-10)
    np.testing.assert_allclose(out.p_out, np.diag(v.conj().T @ out.rho_s @ v).real, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1 / math.sqrt(2), 1.0))
def test_collapse_completeness(seed, gamma):
    out, _ = random_run(seed, gamma)
    assert abs(sum(prob for prob, _, _ in out.conditional) - 1.0) < 1e-10
