import math
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import cnot_qnd as cq
from qndsim import hilbert as hs
from qndsim import weakval as wv
from qndsim.hilbert import PureState
from qndsim.weakval import (
    N_HAT,
    EmptyPostSelectionError,
    WeakValueError,
    estimate_sampled,
    negativity_gamma_bound,
    postselected_mean_n,
    povm,
    strong_value_postselected,
    weak_value,
)

S = 1 / math.sqrt(2)


def random_qubit(rng, real=False):
    a = rng.normal(size=2) + (0 if real else 1j * rng.normal(size=2))
    return PureState.from_amplitudes(a)


# --------------------------------------------------------------- weak values


def test_weak_value_no_postselection_is_expectation():
    psi = hs.qubit(0.6, 0.8)
    assert weak_value(N_HAT, psi, psi) == pytest.approx(0.64, abs=1e-12)


def test_weak_value_logical_postselection_is_trivial():
    psi = hs.qubit(0.6, 0.8)
    for m, target in enumerate((hs.KET0, hs.KET1)):
        assert weak_value(N_HAT, psi, target) == pytest.approx(m, abs=1e-12)
        assert strong_value_postselected(N_HAT, psi, target) == pytest.approx(m, abs=1e-12)


def test_weak_value_anomalous():
    psi = hs.qubit(0.8, -0.6)
    # Re beta/(alpha+beta) with alpha=0.8, beta=-0.6
    assert weak_value(N_HAT, psi, hs.PLUS) == pytest.approx(-3.0, abs=1e-12)


def test_weak_value_orthogonal_rejected():
    with pytest.raises(WeakValueError):
        weak_value(N_HAT, hs.PLUS, hs.MINUS)


@pytest.mark.parametrize("x", [np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])], ids=["sigma_plus", "sigma_minus"])
def test_strong_value_rejects_a_non_hermitian_observable(x):
    # eigh would read only the lower triangle and return 0.0 and 1.0 here
    weak_value(x, hs.KET0, hs.PLUS)  # a weak value is defined for any operator
    with pytest.raises(WeakValueError, match="not Hermitian"):
        strong_value_postselected(x, hs.KET0, hs.PLUS)


@pytest.mark.parametrize("f", [weak_value, strong_value_postselected])
@pytest.mark.parametrize("x, match", [
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
    (np.diag([0.0, 1.0, 2.0]), r"shape \(3, 3\)"),
    (np.array([0.0, 1.0]), r"shape \(2,\)"),
], ids=["nan", "qutrit", "vector"])
def test_weak_values_reject_a_bad_observable(f, x, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WeakValueError, match=match):
            f(x, hs.KET0, hs.PLUS)


@pytest.mark.parametrize("f", [weak_value, strong_value_postselected])
def test_weak_values_reject_states_of_different_dimensions(f):
    with pytest.raises(WeakValueError, match="dimensions 2 and 3"):
        f(N_HAT, hs.KET0, PureState.from_amplitudes([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("f, x, psi, phi, expected", [
    (weak_value, [[1.5e308, -1.5e308], [1.5e308, -1.5e308]], hs.qubit(0.6, 0.8), hs.PLUS, 1.5e308 / 7 * -2),
    (strong_value_postselected, [[0, 1.7e308], [-1.7e308, 0]], hs.KET0, hs.PLUS, "not Hermitian"),
    (weak_value, np.full((2, 2), 1e308), hs.PLUS, hs.PLUS, "out of float range"),  # the value is 2e308
], ids=["finite_value", "anti_hermitian", "value_overflows"])
def test_weak_values_of_huge_finite_observables(f, x, psi, phi, expected):
    # the observable is scaled by a power of two, so no numpy overflow warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if isinstance(expected, str):
            with pytest.raises(WeakValueError, match=expected):
                f(x, psi, phi)
        else:
            assert f(x, psi, phi) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_hermitian_tolerance_does_not_depend_on_the_observable_scale(scale):
    # X is scaled by a power of two inside, but HERMITIAN_ATOL still bounds |X - X^dag| itself
    for skew, hermitian in ((0.5 * wv.HERMITIAN_ATOL, True), (2 * wv.HERMITIAN_ATOL, False)):
        x = np.array([[0.0, scale], [scale + skew, 0.0]])
        if hermitian:
            assert strong_value_postselected(x, hs.KET0, hs.PLUS) == pytest.approx(scale, rel=1e-12)
        else:
            with pytest.raises(WeakValueError, match="not Hermitian"):
                strong_value_postselected(x, hs.KET0, hs.PLUS)


def test_scaled_weak_values_equal_the_unscaled_formulas():
    # the power-of-two scaling is exact: ordinary observables give the unscaled values bit for bit
    rng = np.random.default_rng(41)
    n = 10**4
    a = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))) * 10 ** rng.uniform(-5, 5, (n, 1, 1))
    amps = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    for x, (psi, phi) in zip((a + a.conj().swapaxes(1, 2)) / 2, amps):
        psi, phi = PureState(psi), PureState(phi)
        weak = complex(phi.amps.conj() @ x @ psi.amps) / complex(np.vdot(phi.amps, psi.amps))
        assert weak_value(x, psi, phi) == float(weak.real)
        evals, evecs = np.linalg.eigh(x)
        w = (np.abs(evecs.conj().T @ phi.amps) ** 2) * (np.abs(evecs.conj().T @ psi.amps) ** 2)
        assert strong_value_postselected(x, psi, phi) == float(np.dot(w, evals.real) / float(w.sum()))


def test_weak_value_unbounded_existence():
    # inputs with alpha ~ -beta push the weak value below -10
    eps = 0.01
    psi = PureState.from_amplitudes([1.0, -(1.0 - eps)])
    assert weak_value(N_HAT, psi, hs.PLUS) < -10


# ------------------------------------------------------------- strong values


def test_strong_value_conjugate_postselection():
    rng = np.random.default_rng(5)
    for _ in range(20):
        psi = random_qubit(rng)
        v = strong_value_postselected(N_HAT, psi, hs.PLUS)
        assert v == pytest.approx(abs(psi.amps[1]) ** 2, abs=1e-10)


def test_strong_value_eigenstate_input():
    assert strong_value_postselected(N_HAT, hs.KET1, hs.PLUS) == pytest.approx(1.0)


def test_strong_value_stays_in_range():
    rng = np.random.default_rng(9)
    for _ in range(100):
        psi, phi = random_qubit(rng), random_qubit(rng)
        try:
            v = strong_value_postselected(N_HAT, psi, phi)
        except WeakValueError:
            continue
        assert -1e-10 <= v <= 1 + 1e-10


def test_strong_value_sum_rule():
    rng = np.random.default_rng(13)
    for _ in range(50):
        psi = random_qubit(rng)
        total = 0.0
        for phi in (hs.PLUS, hs.MINUS):
            w = np.abs(np.vdot(phi.amps, psi.amps)) ** 2
            # P(phi|psi) marginalized over the intermediate projective outcomes
            p_phi = sum(
                abs(np.vdot(phi.amps, e)) ** 2 * abs(np.vdot(e, psi.amps)) ** 2
                for e in (hs.KET0.amps, hs.KET1.amps)
            )
            total += strong_value_postselected(N_HAT, psi, phi) * p_phi
        assert total == pytest.approx(abs(psi.amps[1]) ** 2, abs=1e-10)


def test_weak_value_sum_rule():
    rng = np.random.default_rng(17)
    for _ in range(100):
        psi = random_qubit(rng, real=True)
        total = 0.0
        for phi in (hs.PLUS, hs.MINUS):
            p_phi = abs(np.vdot(phi.amps, psi.amps)) ** 2
            if p_phi < 1e-10:
                continue
            total += weak_value(N_HAT, psi, phi) * p_phi
        assert total == pytest.approx(abs(psi.amps[1]) ** 2, abs=1e-10)


# ---------------------------------------------------------------------- POVM


def test_povm_projective_limit():
    e = povm(1.0)
    assert e.shape == (2, 2, 2)
    np.testing.assert_allclose(e[0], np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(e[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_povm_no_information_limit():
    e = povm(S)
    np.testing.assert_allclose(e[0], np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(e[1], np.eye(2) / 2, atol=1e-12)


def closed_form_effect(k, gamma):
    """2 E_k = 1 - (-1)^k (2 gamma^2 - 1)(2 n - 1)."""
    return (np.eye(2) - (-1) ** k * (2 * gamma**2 - 1) * (2 * N_HAT - np.eye(2))) / 2


def test_povm_intermediate_matches_gate_statistics():
    # E_1 = diag(1-g^2, g^2), so the meter reads 1 on |0> with probability 0.36
    e = povm(0.8)
    np.testing.assert_allclose(e[1], np.diag([0.36, 0.64]), atol=1e-12)
    expected = (hs.KET0.amps.conj() @ closed_form_effect(1, 0.8) @ hs.KET0.amps).real
    assert (hs.KET0.amps.conj() @ e[1] @ hs.KET0.amps).real == pytest.approx(expected, abs=1e-12)


def test_povm_rejects_gamma():
    with pytest.raises(cq.StrengthError):
        povm(0.3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_povm_consistency_random(seed):
    rng = np.random.default_rng(seed)
    psi = random_qubit(rng)
    for g in rng.uniform(cq.GAMMA_MIN, 1.0, size=20):
        e = povm(float(g))
        for k in range(2):
            effect = closed_form_effect(k, g)
            np.testing.assert_allclose(e[k], effect, atol=1e-12)
            expected = (psi.amps.conj() @ effect @ psi.amps).real
            assert (psi.amps.conj() @ e[k] @ psi.amps).real == pytest.approx(expected, abs=1e-12)


# -------------------------------------------------------- post-selected means


def test_minus_nine_sevenths():
    plus, _, p_plus = postselected_mean_n(0.8, -0.6, 0.8)
    assert plus == pytest.approx(-9 / 7, abs=1e-10)
    assert p_plus == pytest.approx((1 - 4 * 0.8 * 0.6 * 0.48) / 2, abs=1e-12)


def test_strong_limit_recovers_beta_squared():
    plus, _, _ = postselected_mean_n(0.8, -0.6, 1.0)
    assert plus == pytest.approx(0.36, abs=1e-12)


def test_weak_limit_recovers_weak_value():
    plus, _, _ = postselected_mean_n(0.8, -0.6, cq.GAMMA_MIN + 1e-8)
    assert plus == pytest.approx(-3.0, abs=1e-5)


def test_gamma_min_gives_the_weak_values():
    # the meter says nothing at gamma = 1/sqrt(2): the post-selected means are the weak values;
    # inputs near |+-> orthogonal are skipped, where both lose digits as 1/|<+-|psi>|^2
    rng = np.random.default_rng(47)
    for _ in range(200):
        psi = random_qubit(rng, real=True)
        if min(abs(np.vdot(psi.amps, hs.PLUS.amps)), abs(np.vdot(psi.amps, hs.MINUS.amps))) ** 2 < 0.05:
            continue
        alpha, beta = psi.amps.real
        plus, minus, _ = postselected_mean_n(alpha, beta, cq.GAMMA_MIN)
        assert abs(plus - weak_value(N_HAT, psi, hs.PLUS)) <= 1e-12
        assert abs(minus - weak_value(N_HAT, psi, hs.MINUS)) <= 1e-12
    assert postselected_mean_n(0.8, -0.6, cq.GAMMA_MIN)[0] == pytest.approx(-3.0, abs=1e-12)


def test_sampled_estimator_singular_at_gamma_min():
    with pytest.raises(WeakValueError, match="singular"):
        estimate_sampled(0.8, -0.6, cq.GAMMA_MIN, 100, 1)


def test_postselected_mean_matches_brute_force_conditional():
    # oracle: conditional expectation straight from the entangled gate state
    rng = np.random.default_rng(23)
    for complex_amps in (False, True):
        for _ in range(50):
            a = rng.normal(size=2) + (1j * rng.normal(size=2) if complex_amps else 0)
            a /= np.linalg.norm(a)
            g = rng.uniform(cq.GAMMA_MIN + 0.01, 1.0)
            gb = math.sqrt(1 - g * g)
            alpha, beta = a
            p0_plus = abs(alpha * g + beta * gb) ** 2 / 2
            p1_plus = abs(alpha * gb + beta * g) ** 2 / 2
            p_plus = p0_plus + p1_plus
            if p_plus < 1e-6:
                continue
            n_plus = (1 + (p1_plus - p0_plus) / (p_plus * (2 * g * g - 1))) / 2
            plus, _, pp = postselected_mean_n(alpha, beta, float(g))
            assert plus == pytest.approx(n_plus, abs=1e-10)
            assert pp == pytest.approx(p_plus, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 2 * math.pi))
def test_postselected_mean_global_phase_invariance(seed, phase):
    rng = np.random.default_rng(seed)
    alpha, beta = random_qubit(rng).amps
    g = float(rng.uniform(cq.GAMMA_MIN + 0.01, 1.0))
    try:
        expected = postselected_mean_n(alpha, beta, g)
    except WeakValueError:
        return
    u = np.exp(1j * phase)
    np.testing.assert_allclose(postselected_mean_n(u * alpha, u * beta, g), expected, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("alpha, beta", [(np.nan, 0.6), (0.8, np.nan), (np.inf, 0.0)])
def test_postselected_mean_rejects_non_finite(alpha, beta):
    with pytest.raises(WeakValueError):
        postselected_mean_n(alpha, beta, 0.8)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_arbitrary_strength_sum_rule(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=2)
    a /= np.linalg.norm(a)
    for g in rng.uniform(cq.GAMMA_MIN + 0.01, 1.0, size=20):
        try:
            plus, minus, p_plus = postselected_mean_n(a[0], a[1], float(g))
        except WeakValueError:
            continue
        lhs = p_plus * plus + (1 - p_plus) * minus
        assert lhs == pytest.approx(a[1] ** 2, abs=1e-10)


# ----------------------------------------------------------- negativity bound


def test_negativity_bound_example():
    assert negativity_gamma_bound(0.8) == pytest.approx(0.911, abs=1e-3)


def test_negativity_bound_limits():
    assert negativity_gamma_bound(1 / math.sqrt(2) + 1e-9) == pytest.approx(
        cq.GAMMA_MIN, abs=1e-3
    )
    assert negativity_gamma_bound(1 - 1e-12) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(WeakValueError):
        negativity_gamma_bound(0.5)


def test_negativity_boundary_is_zero_crossing():
    for alpha in np.linspace(0.72, 0.99, 15):
        beta = -math.sqrt(1 - alpha * alpha)
        g_max = negativity_gamma_bound(float(alpha))
        plus, _, _ = postselected_mean_n(alpha, beta, g_max)
        assert plus == pytest.approx(0.0, abs=1e-9)
        # strictly inside the window the value is negative
        g_in = (cq.GAMMA_MIN + g_max) / 2
        plus_in, _, _ = postselected_mean_n(alpha, beta, g_in)
        assert plus_in < 0


# --------------------------------------------------------- sampled estimation


def test_sampled_deterministic_given_seed():
    r1 = estimate_sampled(0.8, -0.6, 0.8, 5000, 42)
    r2 = estimate_sampled(0.8, -0.6, 0.8, 5000, 42)
    assert r1.value == r2.value
    assert r1.stderr == r2.stderr


def test_sampled_projective_eigenstate_is_exact():
    r = estimate_sampled(0.0, 1.0, 1.0, 1000, 7)
    assert r.value == pytest.approx(1.0, abs=1e-12)
    assert r.stderr == 0.0


def test_sampled_matches_analytic_at_example_point():
    # at this parameter point the post-selected meter record is deterministic
    r = estimate_sampled(0.8, -0.6, 0.8, 10**5, 0)
    assert r.value == pytest.approx(-9 / 7, abs=1e-10)


def test_sampled_error_shrinks_with_shots():
    a, b, g = 0.9, -math.sqrt(1 - 0.81), 0.85
    plus, _, _ = postselected_mean_n(a, b, g)
    errs = []
    for shots in (10**3, 10**4, 10**5, 10**6):
        r = estimate_sampled(a, b, g, shots, seed=1)
        errs.append(abs(r.value - plus))
    assert all(x > y for x, y in zip(errs, errs[1:]))
    r = estimate_sampled(a, b, g, 10**6, seed=1)
    assert abs(r.value - plus) < 3 * r.stderr


def test_sampled_three_sigma_coverage():
    a, b, g = 0.9, -math.sqrt(1 - 0.81), 0.85
    plus, _, _ = postselected_mean_n(a, b, g)
    runs = [estimate_sampled(a, b, g, 20000, seed) for seed in range(100)]
    hits = sum(abs(r.value - plus) <= 3 * r.stderr for r in runs)
    assert hits >= 99


@pytest.mark.parametrize("extra", [-1, 0, 1, wv.CHUNK_SHOTS + 7])
def test_sampled_chunks_match_one_shot_draws(extra):
    shots = wv.CHUNK_SHOTS + extra
    alpha, beta, gamma, seed = 0.6 * np.exp(0.5j), 0.8 * np.exp(0.7j), 0.85, 9
    # one-shot formulation: every draw at once, then the sample mean and std
    m = cq.kraus(cq.MeterPrep(gamma))
    branches = m @ PureState.from_amplitudes([alpha, beta]).amps
    p_m = (np.abs(branches) ** 2).sum(axis=1)
    p_plus = (np.abs(branches @ hs.PLUS.amps.conj()) ** 2) / p_m
    draws = np.random.Generator(np.random.Philox(seed)).random((shots, 2))
    ks = (draws[:, 0] < p_m[1]).astype(int)
    record = 2.0 * ks[draws[:, 1] < p_plus[ks]] - 1.0
    scale = 2 * gamma**2 - 1
    r = estimate_sampled(alpha, beta, gamma, shots, seed)
    assert r.value == (1.0 + float(record.mean()) / scale) / 2.0
    expected = float(record.std(ddof=1)) / (2.0 * scale * math.sqrt(record.size))
    assert r.stderr == pytest.approx(expected, rel=1e-12)


def sampled(*args):
    """(value, stderr) of ``estimate_sampled``, or "empty" if no shot is kept."""
    try:
        r = estimate_sampled(*args)
    except EmptyPostSelectionError:
        return "empty"
    return r.value, r.stderr


C = wv.CHUNK_SHOTS


@pytest.mark.parametrize("shots", [1, C - 1, C, C + 1, 3 * C + 7, 10**6])
@pytest.mark.parametrize(
    "alpha, beta, gamma",
    [
        (0.6 * np.exp(0.5j), 0.8 * np.exp(0.7j), 0.85),
        (0.8, -0.6, 0.8),  # one meter reading is never kept
        (0.6, 0.8, 0.8),  # P(+|0) = 1
        (1.0, 0.0, 1.0),  # |0>: the meter never reads 1
        (S, S, 0.85),  # |+>
    ],
)
def test_sampled_is_bit_identical_on_any_cpu_count(monkeypatch, alpha, beta, gamma, shots):
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, so a lost count would show
    try:
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr(wv, "_available_cpus", lambda: cpus)
            results.append(sampled(alpha, beta, gamma, shots, 12))
    finally:
        sys.setswitchinterval(interval)
    assert results[1:] == results[:-1]


class ThreadSpy(threading.Thread):
    started: list = []

    def start(self):
        ThreadSpy.started.append(self)
        super().start()


@pytest.mark.parametrize("shots, threads", [(1, 0), (C, 0), (C + 1, 1), (10**6, 6)])
def test_sampled_threads_end_with_the_call(monkeypatch, shots, threads):
    monkeypatch.setattr(wv, "_available_cpus", lambda: 7)
    monkeypatch.setattr(wv, "threading", SimpleNamespace(Thread=ThreadSpy))
    monkeypatch.setattr(ThreadSpy, "started", [])
    before = threading.active_count()
    estimate_sampled(0.6, 0.8, 0.85, shots, 4)
    assert len(ThreadSpy.started) == threads
    assert not any(t.is_alive() for t in ThreadSpy.started)
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [0, C, 2 * C])
def test_sampled_raises_what_a_span_raises(monkeypatch, failing):
    count_span = wv._count_span

    def flaky(seed, start, *args):
        if start == failing:
            raise RuntimeError(f"span at {start}")
        return count_span(seed, start, *args)

    monkeypatch.setattr(wv, "_available_cpus", lambda: 3)
    monkeypatch.setattr(wv, "threading", SimpleNamespace(Thread=ThreadSpy))
    monkeypatch.setattr(ThreadSpy, "started", [])
    monkeypatch.setattr(wv, "_count_span", flaky)
    with pytest.raises(RuntimeError, match=f"span at {failing}$"):
        estimate_sampled(0.6, 0.8, 0.85, 3 * C, 4)
    assert len(ThreadSpy.started) == 2
    assert not any(t.is_alive() for t in ThreadSpy.started)


def test_sampled_requires_shots():
    with pytest.raises(WeakValueError):
        estimate_sampled(0.8, -0.6, 0.8, 0, 1)


@pytest.mark.parametrize(
    "shots, seed, field",
    [
        (1e5, 1, "shots"),
        (True, 1, "shots"),
        (np.bool_(True), 1, "shots"),
        ("100", 1, "shots"),
        (-3, 1, "shots"),
        (10**6, -1, "seed"),
        (10**6, 2.5, "seed"),
        (10**6, None, "seed"),
        (10**6, False, "seed"),
        (10**6, np.float64(4.0), "seed"),
    ],
)
def test_sampled_checks_shots_and_seed_before_any_thread(monkeypatch, shots, seed, field):
    monkeypatch.setattr(wv, "_available_cpus", lambda: 7)
    monkeypatch.setattr(wv, "threading", SimpleNamespace(Thread=ThreadSpy))
    monkeypatch.setattr(ThreadSpy, "started", [])
    with pytest.raises(WeakValueError, match=f"^{field} "):
        estimate_sampled(0.6, 0.8, 0.85, shots, seed)
    assert ThreadSpy.started == []


def test_sampled_takes_numpy_integers():
    r = estimate_sampled(0.6, 0.8, 0.85, np.int32(C + 1), np.uint64(5))
    assert (r.value, r.stderr) == sampled(0.6, 0.8, 0.85, C + 1, 5)


WORD_PROBABILITIES = [0.0, 5e-324, 2.0**-60, 2.0**-53, 1 / 3, 0.5, 1 - 2.0**-53, 1.0, np.nextafter(1.0, 2.0)]


@pytest.mark.parametrize("p", WORD_PROBABILITIES)
def test_word_bound_agrees_with_the_double_compare(p):
    bound = wv._word_bound(p)
    words = [x for x in (0, 2**11 - 1, 2**11, bound - 1, bound, 2**63, 2**64 - 1) if 0 <= x < 2**64]
    got = wv._below(np.array(words, np.uint64), bound, np.empty(len(words), bool))
    assert got.tolist() == [(x >> 11) * 2.0**-53 < p for x in words]


@pytest.mark.parametrize("seed, advance, n", [(0, 0, 1), (3, 5, 1001), (12, 2**40, 4096), (2**70, 7, 333)])
def test_philox_doubles_are_the_top_53_bits_of_its_words(seed, advance, n):
    # the sampler counts on raw words; if numpy's word-to-double mapping
    # ever changed, its stream would no longer be Generator.random's
    doubles = np.random.Generator(np.random.Philox(seed).advance(advance)).random(n)
    words = np.random.Philox(seed).advance(advance).random_raw(n)
    assert np.array_equal(doubles, (words >> np.uint64(11)) * 2.0**-53)


def test_sampled_empty_postselection():
    # P(+) ~ 0.04 here, so a single shot at this seed is discarded
    with pytest.raises(EmptyPostSelectionError):
        estimate_sampled(0.8, -0.6, 0.8, 1, 0)


def test_sampled_json():
    r = estimate_sampled(0.8, -0.6, 0.8, 100, 3)
    blob = r.to_json()
    assert blob["mode"] == "sampled"
    assert blob["shots"] == 100
    assert blob["seed"] == 3
