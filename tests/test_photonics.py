import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qndsim import cnot_qnd as cq
from qndsim import hilbert as hs
from qndsim import metrics
from qndsim import photonics as ph
from qndsim.hilbert import PureState
from qndsim.photonics import (
    PhotonicsError,
    heralded_kraus,
    hom_reduction,
    meter_prep,
    meter_prep_strength,
    run_gate,
)

from oracles import (KET0, KET1, MET, SIG, FockState, LinearCircuit, ModeLayout, analytic_success, born_read,
                     bs_matrix, build_qnd_circuit, class_weights, gate_parts, lift_two_photon, mode_unitary,
                     pair_map, scan_figures_decimal, two_photon_input)

ETA = 1.0 / 3.0
H = PureState([1, 0])
V = PureState([0, 1])


# ----------------------------------------------------- permanent-based oracle


def two_photon_patterns(m):
    pats = []
    for i in range(m):
        for j in range(i, m):
            p = [0] * m
            p[i] += 1
            p[j] += 1
            pats.append(tuple(p))
    return pats


def permanent(mat):
    n = mat.shape[0]
    total = 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= mat[i, j]
        total += prod
    return total


def oracle_lift(u, state):
    """Transition amplitude via permanents of row/column-repeated submatrices."""
    m = u.shape[0]
    out = {}
    for pat_out in two_photon_patterns(m):
        amp = 0.0j
        for pat_in, a in state.items():
            rows = [i for i, n in enumerate(pat_out) for _ in range(n)]
            cols = [j for j, n in enumerate(pat_in) for _ in range(n)]
            sub = u[np.ix_(rows, cols)]
            norm = math.sqrt(
                math.prod(math.factorial(n) for n in pat_out)
                * math.prod(math.factorial(n) for n in pat_in)
            )
            amp += a * permanent(sub) / norm
        if abs(amp) > 1e-15:
            out[pat_out] = amp
    return out


def random_mode_unitary(rng, m):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_two_photon(rng, m):
    pats = two_photon_patterns(m)
    a = rng.normal(size=len(pats)) + 1j * rng.normal(size=len(pats))
    a /= np.linalg.norm(a)
    return FockState(m, dict(zip(pats, a)))


# ------------------------------------------------------------------- elements


def test_bs_matrix_mirror():
    np.testing.assert_allclose(bs_matrix(1.0), [[1, 0], [0, -1]], atol=1e-14)


def test_bs_matrix_balanced():
    np.testing.assert_allclose(bs_matrix(0.5), np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-14)


def test_bs_matrix_one_third():
    expected = [[math.sqrt(1 / 3), math.sqrt(2 / 3)], [math.sqrt(2 / 3), -math.sqrt(1 / 3)]]
    b = bs_matrix(ETA)
    np.testing.assert_allclose(b, expected, atol=1e-14)
    np.testing.assert_allclose(b.T @ b, np.eye(2), atol=1e-14)


def test_bs_matrix_rejects():
    with pytest.raises(PhotonicsError):
        bs_matrix(1.2)


def test_hom_reduction_values():
    assert hom_reduction(0.5) == 0.0
    assert hom_reduction(0.0) == pytest.approx(1.0)
    assert hom_reduction(ETA) == pytest.approx(1 / 5, abs=1e-14)


def test_hom_reduction_grid():
    for eta in np.linspace(0.0, 1.0, 20):
        expected = (1 - 2 * eta) ** 2 / ((1 - eta) ** 2 + eta**2)
        assert hom_reduction(float(eta)) == pytest.approx(expected, abs=1e-12)


def test_meter_prep_values():
    np.testing.assert_allclose(meter_prep(ETA).amps, [math.sqrt(3) / 2, 0.5], atol=1e-12)
    np.testing.assert_allclose(meter_prep_strength(0.0).amps, [0, 1], atol=1e-14)
    np.testing.assert_allclose(
        meter_prep_strength(math.sqrt(3) / 2).amps, meter_prep(ETA).amps, atol=1e-12
    )
    with pytest.raises(PhotonicsError):
        meter_prep_strength(0.9)


# -------------------------------------------------------------------- circuit


def test_circuit_unitary_and_untouched_rails():
    layout, circuit = build_qnd_circuit(ETA)
    assert layout.names == ("s_H", "s_V", "m_H", "m_V")
    np.testing.assert_allclose(circuit.u.conj().T @ circuit.u, np.eye(4), atol=1e-12)
    # s_V rail untouched
    sv = layout.index("s_V")
    np.testing.assert_allclose(circuit.u[:, sv], np.eye(4)[:, sv], atol=1e-14)


def test_circuit_with_loss():
    layout, circuit = build_qnd_circuit(ETA, include_signal_loss=True)
    assert "dump_s" in layout.names
    np.testing.assert_allclose(circuit.u.conj().T @ circuit.u, np.eye(5), atol=1e-12)
    sv = layout.index("s_V")
    assert abs(circuit.u[sv, sv]) == pytest.approx(math.sqrt(1 / 3), abs=1e-12)


def test_circuit_rejects_eta():
    meter = meter_prep(ETA)
    builds = (build_qnd_circuit, lambda eta: run_gate(H, meter, eta), lambda eta: heralded_kraus(meter, eta))
    for eta in (0.0, math.nan, 0.0, math.nan, 1.0):
        for build in builds:
            with pytest.raises(PhotonicsError):
                build(eta)


def test_circuit_of_numpy_eta_is_the_float_circuit():
    sig, meter = PureState.from_amplitudes([0.6, 0.8j]), meter_prep(ETA)
    _, circuit = build_qnd_circuit(ETA)
    res, kraus = run_gate(sig, meter, ETA), heralded_kraus(meter, ETA)
    pair, gamma_eff = ph.strength_distinguishability(ETA, ETA)
    for eta in (np.float64(ETA), np.array(ETA)):
        np.testing.assert_array_equal(build_qnd_circuit(eta)[1].u, circuit.u)
        got = run_gate(sig, meter, eta)
        assert (got.success_prob, got.failure_breakdown) == (res.success_prob, res.failure_breakdown)
        np.testing.assert_array_equal(got.conditional_joint, res.conditional_joint)
        np.testing.assert_array_equal(heralded_kraus(meter, eta), kraus)
        # a numpy strength a, too, is scanned in Python floats
        got_pair, got_gamma = ph.strength_distinguishability(eta, eta)
        assert (got_pair.k, got_pair.k_bar, got_gamma) == (pair.k, pair.k_bar, gamma_eff)
        assert type(got_pair.k) is type(got_pair.k_bar) is type(got_gamma) is float


def test_gate_values_agree_across_eta_and_loss_keys():
    sig, meter = PureState.from_amplitudes([0.6, 0.8j]), meter_prep(ETA)
    first = {}
    keys = [(ETA, False), (ETA, True), (0.62, False), (ETA, False), (0.62, False), (ETA, True)]
    for eta, loss in keys:
        layout, circuit = build_qnd_circuit(eta, loss)
        assert layout.n_modes == 4 + loss and dict(circuit.elements[0])["eta"] == eta
        res = run_gate(sig, meter, eta, loss)
        got = (res.success_prob, res.failure_breakdown, res.conditional_joint.tolist())
        got += (heralded_kraus(meter, eta, loss).tolist(),)
        if eta == ETA:
            assert res.success_prob == pytest.approx(analytic_success(0.6, 0.8j, loss), abs=1e-12)
        assert first.setdefault((eta, loss), got) == got


def test_heralded_kraus_returns_the_callers_own_array():
    kraus = heralded_kraus(meter_prep(ETA))
    kept = kraus.copy()
    kraus[...] = 0.0
    np.testing.assert_array_equal(heralded_kraus(meter_prep(ETA)), kept)


def test_heralded_joint_is_a_read_only_complex_matrix():
    joint = run_gate(PureState.from_amplitudes([0.6, 0.8j]), meter_prep(ETA)).conditional_joint
    assert joint.shape == (2, 2) and joint.dtype == complex and not joint.flags.writeable
    assert np.linalg.norm(joint) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="read-only"):
        joint[0, 0] = 0.0


def random_qubit(rng):
    return PureState.from_amplitudes(rng.normal(size=2) + 1j * rng.normal(size=2))


def test_table_gate_matches_the_permanents_of_the_mode_unitary():
    rng = np.random.default_rng(53)
    etas = rng.uniform(0.0, 1.0, 1000).tolist() + [1 / 3, 1e-9, 1 - 1e-9]
    for loss in (False, True):
        weights = class_weights(loss)
        for eta in etas:
            sig, meter = random_qubit(rng), random_qubit(rng)
            a, herald = pair_map(eta, loss)
            phi = a @ np.outer(sig.amps, meter.amps).ravel()
            res = run_gate(sig, meter, eta, loss)
            joint = res.conditional_joint * math.sqrt(res.success_prob)
            assert np.abs(joint - phi.reshape(4 + loss, -1)[SIG, MET]).max() <= 1e-15
            assert np.abs(heralded_kraus(meter, eta, loss) - herald @ meter.amps).max() <= 1e-15
            got = [res.success_prob, *res.failure_breakdown.values()]
            assert np.abs(np.array(got) - weights @ np.abs(phi) ** 2).max() <= 2e-15


@pytest.mark.parametrize("loss", [False, True])
@pytest.mark.parametrize("part, entry", [(1, (0, 0)), (1, (2, 2)), (2, (3, 0)), (0, (1, 1))])
def test_mode_unitary_rejects_a_corrupted_part(loss, part, entry):
    parts = gate_parts(loss)
    for eta in (0.1, 0.5, 0.9):
        mode_unitary(eta, loss, parts)  # the parts as built pass
    parts[(part,) + entry] *= -1.0 if part else 0.5
    for eta in (0.1, 0.5, 0.9):
        with pytest.raises(PhotonicsError, match="not unitary"):
            mode_unitary(eta, loss, parts)


def test_circuit_json():
    _, circuit = build_qnd_circuit(ETA, include_signal_loss=True)
    blob = circuit.to_json()
    assert blob["modes"][0] == "s_H"
    kinds = [dict(e)["kind"] for e in circuit.elements]
    assert kinds == ["beamsplitter", "loss_beamsplitter", "half_wave_plate"]


# ----------------------------------------------------------------------- lift


def test_hom_null_at_balanced_bs():
    layout = ModeLayout(("a", "b"))
    circuit = LinearCircuit(layout, bs_matrix(0.5))
    state = FockState(2, {(1, 1): 1.0})
    out = lift_two_photon(circuit, state)
    assert abs(out.amplitude((1, 1))) < 1e-12


def test_hom_reduction_matches_lift():
    for eta in np.linspace(0.05, 0.95, 10):
        circuit = LinearCircuit(ModeLayout(("a", "b")), bs_matrix(float(eta)))
        out = lift_two_photon(circuit, FockState(2, {(1, 1): 1.0}))
        classical = (1 - eta) ** 2 + eta**2
        assert out.probability((1, 1)) == pytest.approx(
            hom_reduction(float(eta)) * classical, abs=1e-12
        )


def test_lift_identity_on_uncoupled_modes():
    circuit = LinearCircuit(ModeLayout(("a", "b")), np.eye(2))
    out = lift_two_photon(circuit, FockState(2, {(1, 1): 1.0}))
    assert out.amplitude((1, 1)) == pytest.approx(1.0)


def test_lift_rejects_wrong_photon_number():
    with pytest.raises(PhotonicsError):
        FockState(2, {(1, 0): 1.0})


@pytest.mark.parametrize("amp", [math.nan, math.inf, complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_fock_oracle_rejects_non_finite_amplitude(amp):
    with pytest.raises(PhotonicsError, match="not normalized"):
        FockState(2, {(1, 1): amp})
    with pytest.raises(PhotonicsError, match="not normalized"):
        FockState(2, {(1, 1): math.sqrt(0.5), (2, 0): amp})


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_lift_matches_permanent_oracle(seed, m):
    rng = np.random.default_rng(seed)
    u = random_mode_unitary(rng, m)
    layout = ModeLayout(tuple(f"mode{i}" for i in range(m)))
    state = random_two_photon(rng, m)
    out = lift_two_photon(LinearCircuit(layout, u), state)
    expected = oracle_lift(u, state)
    for pat in two_photon_patterns(m):
        assert out.amplitude(pat) == pytest.approx(expected.get(pat, 0.0), abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lift_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    m = 4
    u = random_mode_unitary(rng, m)
    layout = ModeLayout(tuple(f"mode{i}" for i in range(m)))
    out = lift_two_photon(LinearCircuit(layout, u), random_two_photon(rng, m))
    total = sum(abs(a) ** 2 for _, a in out.items())
    assert total == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------------- run_gate


def test_run_gate_vertical_eigenstate():
    res = run_gate(V, meter_prep(ETA))
    assert res.success_prob == pytest.approx(0.5, abs=1e-10)
    joint = res.conditional_joint
    # heralded: signal stays V and the meter reads V after the waveplate
    assert abs(joint[1, 1]) == pytest.approx(1.0, abs=1e-10)


def test_run_gate_horizontal_eigenstate():
    res = run_gate(H, meter_prep(ETA))
    assert res.success_prob == pytest.approx(1 / 6, abs=1e-10)
    joint = res.conditional_joint
    assert abs(joint[0, 0]) == pytest.approx(1.0, abs=1e-10)


def test_run_gate_failure_breakdown_vertical():
    res = run_gate(V, meter_prep(ETA))
    # the only failure channel for a V signal is both photons in the signal arm
    assert res.failure_breakdown["both_in_signal"] == pytest.approx(0.5, abs=1e-10)
    assert res.failure_breakdown["both_in_meter"] == pytest.approx(0.0, abs=1e-12)
    assert res.failure_breakdown["dump"] == pytest.approx(0.0, abs=1e-12)


def test_run_gate_keeps_a_rare_but_possible_herald():
    # an H signal is heralded only when reflected on the eta-BS: with probability eta = 1e-6,
    # far above ZERO_BRANCH, and then the meter's V leaves the HWP as (H - V)/sqrt(2)
    res = run_gate(KET0, KET1, 1e-6)
    assert res.success_prob == 1e-06
    assert res.conditional_joint is not None
    np.testing.assert_allclose(res.conditional_joint, [[math.sqrt(0.5), -math.sqrt(0.5)], [0.0, 0.0]],
                               rtol=0, atol=1e-12)


def test_run_gate_probability_completeness():
    # success and the three failure classes partition the two-photon outcomes
    rng = np.random.default_rng(59)
    for _ in range(1000):
        sig, eta = random_qubit(rng), float(rng.uniform(0.0, 1.0))
        for meter in (random_qubit(rng), meter_prep(eta)):
            for loss in (False, True):
                res = run_gate(sig, meter, eta, loss)
                classes = [res.success_prob, *res.failure_breakdown.values()]
                assert all(0.0 <= p <= 1.0 for p in classes)
                assert abs(sum(classes) - 1.0) <= 1e-15


def test_run_gate_matches_analytic_success():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        sig = PureState(a)
        for loss in (False, True):
            res = run_gate(sig, meter_prep(ETA), include_signal_loss=loss)
            assert res.success_prob == pytest.approx(
                analytic_success(a[0], a[1], loss), abs=1e-10
            )


def fock_oracle_gate(signal, meter, eta, loss):
    """Heralded joint amplitudes and failure classes by Fock-space expansion."""
    layout, circuit = build_qnd_circuit(eta, loss)
    out = lift_two_photon(circuit, two_photon_input(signal, meter, layout))
    s_idx, m_idx = layout.signal_modes, layout.meter_modes
    joint = np.zeros((2, 2), dtype=complex)
    failures = {"both_in_signal": 0.0, "both_in_meter": 0.0, "dump": 0.0}
    for pattern, amp in out.items():
        p = abs(amp) ** 2
        if any(pattern[i] for i in layout.dump_modes):
            failures["dump"] += p
        elif sum(pattern[i] for i in s_idx) == 2:
            failures["both_in_signal"] += p
        elif sum(pattern[i] for i in m_idx) == 2:
            failures["both_in_meter"] += p
        else:
            joint[0 if pattern[s_idx[0]] else 1, 0 if pattern[m_idx[0]] else 1] = amp
    return joint, failures


def test_run_gate_and_heralded_kraus_match_fock_oracle():
    rng = np.random.default_rng(29)
    for _ in range(200):
        sig = PureState.from_amplitudes(rng.normal(size=2) + 1j * rng.normal(size=2))
        eta = float(rng.uniform(0.0, 1.0))
        for meter in (meter_prep(eta), meter_prep(ETA)):
            for loss in (False, True):
                joint, failures = fock_oracle_gate(sig, meter, eta, loss)
                success = float((np.abs(joint) ** 2).sum())
                expected = joint / math.sqrt(success)
                res = run_gate(sig, meter, eta, include_signal_loss=loss)
                assert abs(res.success_prob - success) <= 1e-14
                np.testing.assert_allclose(res.conditional_joint, expected, rtol=0, atol=1e-14)
                for name, p in failures.items():
                    assert abs(res.failure_breakdown[name] - p) <= 1e-14
                branches = heralded_kraus(meter, eta, loss) @ sig.amps / math.sqrt(res.success_prob)
                np.testing.assert_allclose(branches.T, expected, rtol=0, atol=1e-14)


def test_analytic_success_values():
    assert analytic_success(1, 0) == pytest.approx(1 / 6)
    assert analytic_success(0, 1) == pytest.approx(1 / 2)
    s = 1 / math.sqrt(2)
    assert analytic_success(s, s) == pytest.approx(1 / 3, abs=1e-12)
    assert analytic_success(s, s, include_signal_loss=True) == pytest.approx(1 / 6)
    with pytest.raises(PhotonicsError):
        analytic_success(1, 1)
    for loss in (False, True):
        with pytest.raises(PhotonicsError):
            analytic_success(math.nan, 0, loss)


# -------------------------------------------------- equivalence with the CNOT


def test_full_strength_matches_projective_cnot_correlations():
    for i, sig in enumerate((H, V)):
        res = run_gate(sig, meter_prep(ETA))
        joint = res.conditional_joint
        # projective CNOT at gamma=1: joint is |i>|i> exactly
        target = np.eye(4)[3 * i].reshape(2, 2)
        assert abs(abs(np.vdot(joint, target)) - 1.0) < 1e-10


def test_strength_grid_coherence():
    for a in np.linspace(0.0, math.sqrt(3) / 2, 12):
        pair, gamma_eff = ph.strength_distinguishability(float(a))
        assert pair.englert_lhs == pytest.approx(1.0, abs=1e-9)
        assert cq.GAMMA_MIN - 1e-9 <= gamma_eff <= 1 + 1e-9


def test_strength_distinguishability_matches_run_gate():
    # L and P_c from the heralded joint states of run_gate, conditioned per input
    diag = PureState([1, 1] / np.sqrt(2))
    anti = PureState([1, -1] / np.sqrt(2))
    for eta in (ETA, 0.2, 0.7):
        for a in np.linspace(0.0, ph.A_MAX, 13):
            meter = meter_prep_strength(float(a))

            def joint(sig):
                res = run_gate(sig, meter, eta, include_signal_loss=True)
                return res.conditional_joint  # [signal, meter]

            # meter reading agrees with the eigenstate that went in
            likelihood = 0.5 * sum((np.abs(joint(s)[:, i]) ** 2).sum() for i, s in enumerate((H, V)))
            # signal output found again in the conjugate state that went in
            p_c = 0.5 * sum((np.abs(s.amps.conj() @ joint(s)) ** 2).sum() for s in (diag, anti))
            pair, gamma_eff = ph.strength_distinguishability(float(a), eta)
            assert abs(pair.k - (2 * likelihood - 1)) <= 1e-12
            assert abs(pair.k_bar - (2 * p_c - 1)) <= 1e-12
            assert abs(gamma_eff - math.sqrt(likelihood)) <= 1e-12


def test_strength_endpoints_match_cnot():
    pair_off, g_off = ph.strength_distinguishability(0.0)
    assert g_off == pytest.approx(cq.GAMMA_MIN, abs=1e-10)
    assert pair_off.k == pytest.approx(0.0, abs=1e-10)
    assert pair_off.k_bar == pytest.approx(1.0, abs=1e-10)
    pair_on, g_on = ph.strength_distinguishability(math.sqrt(3) / 2)
    assert g_on == pytest.approx(1.0, abs=1e-10)
    assert pair_on.k == pytest.approx(1.0, abs=1e-10)
    assert pair_on.k_bar == pytest.approx(0.0, abs=1e-10)


def test_strength_scan_reads_the_heralded_kraus_stack():
    # the scan's closed form on the heralding table agrees with the one reader on
    # heralded_kraus's own stack; eta != 1/3 heralds the inputs unevenly, so each must be
    # conditioned on its own success. At eta = 1e-300 and 1 - 2^-53 it divides by heraldings
    # near the float edges
    rng = np.random.default_rng(47)
    cases = [(float(rng.uniform(0.0, ph.A_MAX)), float(rng.uniform(0.01, 0.99))) for _ in range(200)]
    assert all(eta != ETA for _, eta in cases)
    cases += [(a, eta) for a in (0.0, ph.A_MAX) for eta in (0.01, ETA, 0.99)]
    cases += [(a, eta) for a in (0.0, ph.A_MAX / 2, ph.A_MAX) for eta in (1e-300, 1.0 - 2.0**-53)]
    for a, eta in cases:
        m = heralded_kraus(meter_prep_strength(a), eta, include_signal_loss=True)
        _, likelihood, p_c, _ = born_read(m, hs.Z_BASIS)
        pair, gamma_eff = ph.strength_distinguishability(a, eta)
        assert abs(pair.k - (2 * likelihood - 1)) <= 2e-15
        assert abs(pair.k_bar - (2 * p_c - 1)) <= 2e-15
        assert abs(gamma_eff - math.sqrt(likelihood)) <= 2e-15


SCAN_ATOL = 8 * 2.0**-52  # eight ulps of 1; K_bar, the worst, is off by up to 5 over 500 000 draws


@settings(max_examples=300, deadline=None)
@given(st.floats(-330.0, 0.0), st.floats(math.log10(5e-324), 0.0))
@example(math.log10(1e-170 / ph.A_MAX), math.log10(5e-324))  # K = 0.5 where the exact K is 4.5e-9
@example(math.log10(1e-160 / ph.A_MAX), math.log10(5e-324))
def test_strength_scan_matches_a_50_digit_reference_or_refuses(log_a, log_eta):
    # a log-uniform down to 0 and eta down to 5e-324: where a heralding is subnormal the scan
    # refuses, and elsewhere each figure is within a few ulps of 1 of the decimal reference
    a, eta = min(ph.A_MAX * 10.0**log_a, ph.A_MAX), min(max(10.0**log_eta, 5e-324), 1.0 - 2.0**-53)
    likelihood, p_c, least_heralding = scan_figures_decimal(a, eta)
    try:
        pair, gamma_eff = ph.strength_distinguishability(a, eta)
    except PhotonicsError:
        assert least_heralding < 1.01 * hs.HERALD_MIN  # a heralding is subnormal
        return
    assert abs(pair.k - float(2 * likelihood - 1)) <= SCAN_ATOL
    assert abs(pair.k_bar - float(2 * p_c - 1)) <= SCAN_ATOL
    assert abs(gamma_eff - float(likelihood.sqrt())) <= SCAN_ATOL


@pytest.mark.parametrize("a, eta", [(-1e-300, ETA), (ph.A_MAX + 2 * ph.A_MAX_ATOL, ETA), (1.0, ETA), (math.nan, ETA),
                                    (0.5, 0.0), (0.5, 1.0), (0.5, math.nan),
                                    (0.0, 5e-324)])  # the |V> meter's heralding underflows to 0
def test_strength_scan_rejects_a_bad_strength_or_eta(a, eta):
    with pytest.raises(PhotonicsError):
        ph.strength_distinguishability(a, eta)


def test_strength_scan_clips_a_just_above_a_max():
    pair, gamma_eff = ph.strength_distinguishability(ph.A_MAX)
    for a in (ph.A_MAX + 0.5 * ph.A_MAX_ATOL, ph.A_MAX + ph.A_MAX_ATOL):
        above, above_gamma = ph.strength_distinguishability(a)
        assert (above.k, above.k_bar, above_gamma) == (pair.k, pair.k_bar, gamma_eff)


def test_meter_off_is_uncorrelated():
    res = run_gate(H, meter_prep_strength(0.0), include_signal_loss=True)
    joint = res.conditional_joint
    p_meter = (np.abs(joint) ** 2).sum(axis=0)
    np.testing.assert_allclose(p_meter, [0.5, 0.5], atol=1e-10)
    res_v = run_gate(V, meter_prep_strength(0.0), include_signal_loss=True)
    joint_v = res_v.conditional_joint
    np.testing.assert_allclose(
        (np.abs(joint_v) ** 2).sum(axis=0), p_meter, atol=1e-10
    )


# ------------------------------------------- the heralded gate as an instrument


def closed_form_strength(a):
    """(heralding probability s(a), gamma_eff(a)) of the eta = 1/3 gate with the loss."""
    s = (3.0 - 2.0 * a * a) / 9.0
    return s, (math.sqrt(3.0) * math.sqrt(1.0 - a * a) + a) / math.sqrt(2.0 * (3.0 - 2.0 * a * a))


def test_heralded_kraus_is_the_scaled_cnot_instrument():
    rng = np.random.default_rng(41)
    grid = np.concatenate([np.linspace(0.0, ph.A_MAX, 401), rng.uniform(0.0, ph.A_MAX, 200)])
    sign = np.array([1.0, -1.0])[:, None, None]
    for a in grid.tolist():
        s, gamma_eff = closed_form_strength(a)
        expected = sign * math.sqrt(s) * cq.kraus(cq.MeterPrep(gamma_eff))
        m = heralded_kraus(meter_prep_strength(a), ETA, include_signal_loss=True)
        assert np.abs(m - expected).max() <= 1e-14
        assert abs(ph.strength_distinguishability(a)[1] - gamma_eff) <= 1e-15


@pytest.mark.parametrize("loss, success", [(False, [1 / 6, 1 / 2]), (True, [1 / 6, 1 / 6])])
def test_heralding_operator_at_one_third(loss, success):
    m = heralded_kraus(meter_prep(ETA), ETA, include_signal_loss=loss)
    effect = np.einsum("kji,kjl->il", m.conj(), m)  # sum_k M_k^dag M_k
    np.testing.assert_allclose(effect, np.diag(success), rtol=0, atol=1e-15)


def test_englert_bound_on_random_heralded_stacks():
    rng = np.random.default_rng(43)
    lhs = []
    for _ in range(4000):
        eta, loss = float(rng.uniform(0.0, 1.0)), bool(rng.integers(2))
        if rng.integers(2):
            meter = meter_prep(eta)
        else:
            meter = meter_prep_strength(float(rng.uniform(0.0, ph.A_MAX)))
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        _, pair = metrics.kraus_figures(heralded_kraus(meter, eta, loss), hs.BasisSpec(q))
        lhs.append(pair.englert_lhs)
    assert max(lhs) <= 1.0 + 1e-12
    assert min(lhs) < 0.01  # far from saturation, not only near it
