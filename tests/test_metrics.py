import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import born_products, born_read, correlation_c2, outputs
from qndsim import hilbert as hs
from qndsim import metrics
from qndsim.hilbert import X_BASIS, BasisSpec
from qndsim.metrics import (
    DistinguishabilityPair,
    MetricsError,
    classical_fidelity,
    distinguishability,
    measurement_fidelity,
    qnd_fidelity,
    qsp_fidelity,
)

dists = st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6)
PM = np.array([1.0, -1.0])  # eigenvalues of the qubit observables the library reads


def test_fidelity_identical():
    assert classical_fidelity([0.3, 0.7], [0.3, 0.7]) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_uncorrelated():
    assert classical_fidelity([1, 0], [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_anticorrelated():
    assert classical_fidelity([1, 0], [0, 1]) == 0.0


def test_fidelity_accepts_counts():
    # raw counts are normalized internally
    expected = (math.sqrt(0.9 * 0.88) + math.sqrt(0.1 * 0.12)) ** 2
    assert classical_fidelity([90, 10], [88, 12]) == pytest.approx(expected, abs=1e-12)


def test_fidelity_length_mismatch():
    with pytest.raises(MetricsError):
        classical_fidelity([1, 0], [1, 0, 0])


def test_measurement_fidelity_examples():
    assert measurement_fidelity([1, 0], [0.5, 0.5]) == pytest.approx(0.5)
    assert measurement_fidelity([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)
    a2, b2 = 0.36, 0.64
    assert measurement_fidelity([a2, b2], [0.5, 0.5]) == pytest.approx(
        0.5 + math.sqrt(a2 * b2), abs=1e-12
    )


def test_qnd_fidelity_examples():
    assert qnd_fidelity([0.2, 0.8], [0.2, 0.8]) == pytest.approx(1.0)
    assert qnd_fidelity([1, 0], [0, 1]) == 0.0


def test_qsp_fidelity_examples():
    assert qsp_fidelity([0.3, 0.7], [1.0, 1.0]) == pytest.approx(1.0)
    assert qsp_fidelity([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.5)
    with pytest.raises(MetricsError):
        qsp_fidelity([0.5, 0.5], [1.0])


def test_distinguishability_projective():
    pair = distinguishability(1.0, 0.5)
    assert pair.k == pytest.approx(1.0)
    assert pair.k_bar == pytest.approx(0.0)
    assert pair.englert_lhs == pytest.approx(1.0)
    assert abs(pair.englert_lhs - 1.0) < 1e-9


def test_distinguishability_intermediate():
    g = 0.8
    gb = math.sqrt(1 - g * g)
    pair = distinguishability(g * g, g * gb + 0.5)
    assert pair.k == pytest.approx(0.28, abs=1e-12)
    assert pair.k_bar == pytest.approx(0.96, abs=1e-12)
    assert pair.englert_lhs == pytest.approx(1.0, abs=1e-12)


def test_distinguishability_off():
    pair = distinguishability(0.5, 0.5)
    assert pair.k == pytest.approx(0.0)
    assert pair.k_bar == pytest.approx(0.0)
    assert pair.englert_lhs == pytest.approx(0.0)
    assert not abs(pair.englert_lhs - 1.0) < 1e-9


def test_distinguishability_rejects_out_of_range():
    with pytest.raises(MetricsError):
        distinguishability(1.2, 0.5)
    with pytest.raises(MetricsError):
        distinguishability(0.5, -0.1)


@pytest.mark.parametrize("lo", [0.0, -1.0])
@pytest.mark.parametrize("bad", ["below", "nan", "above"])
@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "array"])
def test_range_check_names_the_value_outside(lo, bad, batched):
    value = {"below": lo - 2e-12, "nan": float("nan"), "above": 1 + 2e-12}[bad]
    metrics._check_range("x", np.array([lo, 0.5, 1.0]) if batched else lo, lo)
    with pytest.raises(MetricsError, match=f"x = {value} outside"):
        metrics._check_range("x", np.array([lo, value, 1.0]) if batched else value, lo)
    if lo == -1.0:
        with pytest.raises(MetricsError, match=f"k = {value} outside"):
            DistinguishabilityPair(k=np.array([0.0, value]) if batched else value, k_bar=0.0)


# ------------------------------------- the general C^2 oracle, and C^2 = K^2


def test_correlation_perfect():
    assert correlation_c2(np.diag([0.5, 0.5]), PM, PM) == pytest.approx(1.0, abs=1e-12)


def test_correlation_independent_uniform():
    assert correlation_c2(np.full((2, 2), 0.25), PM, PM) == pytest.approx(0.0, abs=1e-12)


def test_correlation_gate_joint():
    # brute-force oracle over the four joint outcomes of the strength-gamma gate
    g = 0.87
    gb2 = 1 - g * g
    q = np.array([[g * g, gb2], [gb2, g * g]]) / 2
    corr = float(PM @ q @ PM)
    expected = corr**2  # unit second moments
    assert expected == pytest.approx((2 * g * g - 1) ** 2, abs=1e-12)
    assert correlation_c2(q, PM, PM) == pytest.approx(expected, abs=1e-12)


def test_correlation_with_eigenvalues_other_than_plus_minus_one():
    # <O_A O_B> = 0.5 * 2 * 1, <O_A^2> = 0.5 * 4, <O_B^2> = 1: C^2 = 1/2, where K = 1
    assert correlation_c2(np.diag([0.5, 0.5]), [2.0, 0.0], PM) == pytest.approx(0.5, abs=1e-15)


def test_correlation_degenerate_observable():
    with pytest.raises(MetricsError):
        correlation_c2(np.diag([0.5, 0.5]), [0, 0], PM)


def test_correlation_rejects_a_table_that_does_not_match_the_eigenvalues():
    with pytest.raises(MetricsError, match="shape must match"):
        correlation_c2(np.full((2, 3), 1 / 6), PM, PM)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", ["eigvals_a", "eigvals_b"])
def test_correlation_rejects_non_finite_eigenvalues(axis, bad):
    eigvals = {"eigvals_a": [1.0, -1.0], "eigvals_b": [1.0, -1.0], axis: [bad, 1.0]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricsError, match=re.escape(f"{axis} must be finite, got [{bad}, 1.0]")):
            correlation_c2(np.diag([0.5, 0.5]), **eigvals)


def test_c2_shortcut():
    # 2 F_QSP - 1 at F_QSP = 1, 1/2 and 0.64 (gamma = 1, 1/sqrt(2) and 0.8)
    from qndsim import cnot_qnd

    rows = cnot_qnd.strength_sweep([1.0, cnot_qnd.GAMMA_MIN, 0.8])
    assert [r.f_qsp for r in rows] == pytest.approx([1.0, 0.5, 0.64], abs=1e-12)
    assert [r.c2_shortcut for r in rows] == pytest.approx([1.0, 0.0, 0.28], abs=1e-12)


def _random_bases(rng, n):
    return [BasisSpec(np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]) for _ in range(n)]


def test_sweep_c2_columns_are_the_general_c2_and_the_qsp_shortcut():
    from qndsim import cnot_qnd

    rng = np.random.default_rng(97)
    gammas = np.linspace(cnot_qnd.GAMMA_MIN, 1.0, 50)
    for basis in _random_bases(rng, 50):
        rows = cnot_qnd.strength_sweep(gammas, basis)
        c2_raw, c2_shortcut, f_qsp = np.array([[r.c2_raw, r.c2_shortcut, r.f_qsp] for r in rows]).T
        stacks = np.array([cnot_qnd.kraus(cnot_qnd.MeterPrep(g), basis) for g in gammas])
        q = _reference_figures(stacks, basis)[0]
        np.testing.assert_allclose(c2_raw, correlation_c2(q, PM, PM), rtol=0, atol=1e-15)
        np.testing.assert_allclose(c2_shortcut, 2 * f_qsp - 1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(f_qsp, np.einsum("...ii->...", q), rtol=0, atol=1e-15)


def test_kraus_figures_k_squared_is_the_general_c2_on_heralded_stacks():
    from qndsim import photonics

    rng = np.random.default_rng(89)
    for basis in _random_bases(rng, 100):
        eta, loss = float(rng.uniform(0.05, 0.95)), bool(rng.integers(2))
        meter = photonics.meter_prep_strength(float(rng.uniform(0.0, photonics.A_MAX)))
        q, pair = metrics.kraus_figures(photonics.heralded_kraus(meter, eta, loss), basis)
        assert abs(pair.k**2 - correlation_c2(q, PM, PM)) <= 1e-15


# ------------------------------------------------------------------ properties


@settings(max_examples=150, deadline=None)
@given(dists, dists)
def test_fidelity_symmetric_and_bounded(p, q):
    if len(p) != len(q):
        q = (q * len(p))[: len(p)]
    f = classical_fidelity(p, q)
    assert f == classical_fidelity(q, p)
    assert -1e-12 <= f <= 1 + 1e-12


@settings(max_examples=150, deadline=None)
@given(dists)
def test_fidelity_one_iff_equal(p):
    assert classical_fidelity(p, p) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(dists, dists)
def test_fidelity_one_implies_equal(p, q):
    if len(p) != len(q):
        q = (q * len(p))[: len(p)]
    pa = np.asarray(p) / np.sum(p)
    qa = np.asarray(q) / np.sum(q)
    if classical_fidelity(p, q) > 1 - 1e-12:
        np.testing.assert_allclose(pa, qa, atol=1e-5)


def test_englert_bound_for_simulated_cnot_family():
    from qndsim import cnot_qnd

    for g in np.linspace(cnot_qnd.GAMMA_MIN, 1.0, 25):
        row = cnot_qnd.strength_sweep([g])[0]
        assert row.englert <= 1 + 1e-9
        assert row.englert == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------ batched Kraus-stack reader


def _reader_stacks():
    """A (3, 4) batch of complex, trace-decreasing and trace-preserving stacks,
    with the random complex basis they are read in."""
    from qndsim import cnot_qnd, photonics

    rng = np.random.default_rng(71)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    basis = BasisSpec(np.linalg.qr(z)[0])
    stacks = [
        photonics.heralded_kraus(
            photonics.meter_prep_strength(rng.uniform(0.0, photonics.A_MAX)),
            rng.uniform(0.2, 0.8),
            include_signal_loss=bool(rng.integers(2)),
        )
        for _ in range(6)
    ]
    stacks += [cnot_qnd.kraus(cnot_qnd.MeterPrep(rng.uniform(cnot_qnd.GAMMA_MIN, 1.0)), basis) for _ in range(6)]
    return np.array(stacks).reshape(3, 4, 2, 2, 2), basis


def _reference_figures(m, basis):
    """q, K and K_bar, by explicit einsum contractions."""

    def conditioned(v):
        w = np.abs(np.einsum("sj,...kst,ti->...kji", v.conj(), m, v)) ** 2
        return w / w.sum(axis=(-3, -2), keepdims=True)

    q = 0.5 * np.einsum("...kji->...jk", conditioned(basis.vectors))
    p_c = 0.5 * np.einsum("...kii->...", conditioned(basis.vectors @ X_BASIS.vectors))
    return q, 2 * np.einsum("...ii->...", q) - 1, 2 * p_c - 1


def test_batched_reader_matches_per_stack_calls_and_einsum_reference():
    m, basis = _reader_stacks()
    joint, pair = metrics.kraus_figures(m, basis)
    assert joint.shape == (3, 4, 2, 2) and pair.k.shape == pair.k_bar.shape == (3, 4)
    assert not joint.flags.writeable
    for idx in np.ndindex(3, 4):
        one_joint, one_pair = metrics.kraus_figures(m[idx], basis)
        np.testing.assert_allclose(joint[idx], one_joint, rtol=0, atol=1e-15)
        np.testing.assert_allclose([pair.k[idx], pair.k_bar[idx]], [one_pair.k, one_pair.k_bar], rtol=0, atol=1e-15)
    q, k, k_bar = _reference_figures(m, basis)
    for got, want in [(joint, q), (pair.k, k), (pair.k_bar, k_bar), (pair.k**2, correlation_c2(q, PM, PM))]:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def _cnot_kraus(gamma):
    from qndsim import cnot_qnd

    return cnot_qnd.kraus(cnot_qnd.MeterPrep(gamma))


def _unheralded_stacks():
    """Kraus stacks in the Z basis that herald a basis input (|1>), a conjugate
    input (|->) or nothing with probability 0, alone and in a batch."""
    zero = np.zeros((2, 2, 2), dtype=complex)
    on_0, on_plus = zero.copy(), zero.copy()
    on_0[0, 0, 0] = 1.0
    on_plus[0] = 0.5
    return [on_0, on_plus, zero, np.array([_cnot_kraus(0.9), on_plus])]


@pytest.mark.parametrize("m", _unheralded_stacks(), ids=["basis", "conjugate", "zero", "batch"])
def test_kraus_figures_rejects_an_unheralded_input_before_dividing(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 RuntimeWarning first, in any test run
        with pytest.raises(MetricsError, match="probability 0"):
            metrics.kraus_figures(m, BasisSpec(np.eye(2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_kraus_figures_rejects_a_non_finite_stack(bad):
    m = _cnot_kraus(0.9).copy()
    m[1, 0, 1] = bad
    for stack in (m, np.array([_cnot_kraus(0.8), m])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricsError, match="non-finite"):
                metrics.kraus_figures(stack, BasisSpec(np.eye(2)))


def test_kraus_figures_rejects_a_stack_whose_squares_overflow():
    # finite, but |1e200|^2 is beyond the largest float: named, with no numpy warning first
    def reads_with(x):  # M_0 = diag(x, 1), M_1 = diag(1, x)
        return np.array([np.diag([x, 1.0]), np.diag([1.0, x])], dtype=complex)

    for m, basis in ((reads_with(1e200), hs.Z_BASIS), (reads_with(1e200), hs.X_BASIS),
                     (np.full((2, 2, 2), 1.7e308 + 0j), hs.X_BASIS)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MetricsError, match="squared amplitudes overflow"):
                metrics.kraus_figures(m, basis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, pair = metrics.kraus_figures(reads_with(1e154), hs.Z_BASIS)  # squares of 1e308 are read
    assert (pair.k, pair.k_bar) == (1.0, 0.0)


def _misshapen_stacks():
    m = _cnot_kraus(0.9)
    three = np.zeros((2, 3, 3), dtype=complex)
    three[:, :2, :2] = m
    three[0, 2, 2] = 1.0
    return [np.concatenate((m, np.eye(2)[None] / 2)), m[:1], m[0], three]


@pytest.mark.parametrize("m", _misshapen_stacks(), ids=["three_outcomes", "one_outcome", "matrix", "qutrit"])
def test_kraus_figures_rejects_a_stack_of_the_wrong_shape(m):
    with pytest.raises(MetricsError, match=r"shape \(\.\.\., 2, 2, 2\), got " + re.escape(str(m.shape))):
        metrics.kraus_figures(m, BasisSpec(np.eye(2)))


def _non_qubit_bases():
    a = np.random.default_rng(11).normal(size=(2, 3, 3))
    return [BasisSpec(np.eye(1)), BasisSpec(np.eye(3)), BasisSpec(np.linalg.qr(a[0] + 1j * a[1])[0])]


@pytest.mark.parametrize("basis", _non_qubit_bases(), ids=["one", "three", "random_unitary3"])
def test_kraus_figures_names_a_basis_that_is_not_a_qubit_basis(basis):
    with pytest.raises(MetricsError, match=f"qubit basis, got dimension {basis.dim}"):
        metrics.kraus_figures(_cnot_kraus(0.9), basis)


def test_kraus_figures_reads_a_nested_list_as_its_array():
    m = _cnot_kraus(0.9)
    (joint, pair), (list_joint, list_pair) = (metrics.kraus_figures(x, BasisSpec(np.eye(2))) for x in (m, m.tolist()))
    assert list_joint.tobytes() == joint.tobytes()
    assert (list_pair.k, list_pair.k_bar) == (pair.k, pair.k_bar)


@pytest.mark.parametrize("basis", [np.eye(2), [[1, 0], [0, 1]], None], ids=["array", "list", "none"])
def test_kraus_figures_names_a_basis_that_is_not_a_basis_spec(basis):
    with pytest.raises(MetricsError, match=f"basis must be a BasisSpec, got {type(basis).__name__}"):
        metrics.kraus_figures(_cnot_kraus(0.9), basis)


def test_kraus_figures_rejects_a_subnormal_heralding():
    # below the smallest normal float, 2^-1022, the squared amplitudes lose their relative
    # precision: the a-scan's stack at (a, eta) = (1e-170, 5e-324) heralds |H> with 5e-324
    from qndsim import photonics

    def reads_one_with(x):  # M_0 = |0><0|, M_1 = x |1><1|: |1> is heralded with x^2
        return np.array([np.diag([1.0, 0.0]), np.diag([0.0, x])], dtype=complex)

    below, at_floor = (math.ldexp(1.0 + e, -511) for e in (-(2**-53), 2**-52))  # squared: 2^-1022 (1 -+ ...)
    for m in (reads_one_with(1e-160), reads_one_with(below),
              photonics.heralded_kraus(photonics.meter_prep_strength(1e-170), 5e-324, True)):
        with pytest.raises(MetricsError, match="probability [1-9]"):
            metrics.kraus_figures(m, BasisSpec(np.eye(2)))
    q, pair = metrics.kraus_figures(reads_one_with(at_floor), BasisSpec(np.eye(2)))
    assert (pair.k, pair.k_bar) == (1.0, 0.0) and np.array_equal(q, np.diag([0.5, 0.5]))


def _reference_probe_statistics(m, basis, probes):
    """p_in, p_m and p_out of the input states ``probes`` (rows) under the
    stacks ``m``, by explicit einsum contractions: p_m from the computational
    components of the branches M_k a_i, p_out from their basis components."""
    branches = np.einsum("...kst,it->...iks", m, probes)
    p_m = np.einsum("...iks,...iks->...ik", branches, branches.conj()).real
    p_out = np.einsum("...ikj->...ij", np.abs(np.einsum("sj,...iks->...ikj", basis.vectors.conj(), branches)) ** 2)
    p_in = np.abs(np.einsum("sj,is->ij", basis.vectors.conj(), probes)) ** 2
    return p_in, p_m, p_out


def _reference_fidelity(p, q):
    return np.einsum("...i->...", np.sqrt(p * q)) ** 2


def test_reader_probe_columns_match_einsum_reference():
    from qndsim import cnot_qnd
    from qndsim.hilbert import PureState

    m, _ = _reader_stacks()  # heralded (trace-decreasing) and CNOT stacks
    rng = np.random.default_rng(73)
    probes = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    ensemble = tuple(PureState(a) for a in probes)
    gammas = rng.uniform(cnot_qnd.GAMMA_MIN, 1.0, 9)
    for _ in range(4):
        basis = BasisSpec(np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0])
        p_in, p_m, p_out = _reference_probe_statistics(m, basis, probes)
        *figures, f = born_read(m, basis, ensemble)
        assert f.shape == (7, 2, 3, 4)
        f = np.moveaxis(f, (0, 1), (-2, -1))
        # the unconditioned F_M and F_QND of each input, heralded stacks included
        np.testing.assert_allclose(f[..., 0], _reference_fidelity(p_in, p_m), rtol=0, atol=1e-14)
        np.testing.assert_allclose(f[..., 1], _reference_fidelity(p_in, p_out), rtol=0, atol=1e-14)
        # the probe columns leave the figures read beside them as they are without probes
        for got, want in zip(figures, born_read(m, basis)[:3]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        # the CNOT sweep, against the reference on its per-strength stacks: the basis
        # eigenstates attain its worst case, and no probe scores below it
        stacks = np.array([cnot_qnd.kraus(cnot_qnd.MeterPrep(g), basis) for g in gammas])
        worst = np.array([[r.f_m, r.f_qnd] for r in cnot_qnd.strength_sweep(gammas, basis)]).T

        def least(inputs):  # the least (F_M, F_QND) over the rows of ``inputs``, per strength
            p_in, p_m, p_out = _reference_probe_statistics(stacks, basis, inputs)
            return np.array([_reference_fidelity(p_in, q).min(axis=-1) for q in (p_m, p_out)])

        np.testing.assert_allclose(least(basis.vectors.T), worst, rtol=0, atol=1e-14)
        assert (least(probes) >= worst - 1e-14).all()


def test_oracle_read_matrices_match_their_formulas():
    rng = np.random.default_rng(29)
    for basis in [hs.Z_BASIS, hs.X_BASIS, hs.Y_BASIS] + _random_bases(rng, 20):
        v = basis.vectors
        b = np.concatenate((v, v @ X_BASIS.vectors), axis=1)
        s = np.multiply.outer(b.conj(), b).transpose(0, 2, 1, 3).reshape(4, 16)  # [(o, n), (j, i)]
        for got, want in ((outputs(basis), b), (born_products(basis), s)):
            assert got.shape == want.shape and np.array_equal(got, want)


def test_sweep_matches_the_oracle_reader_on_random_bases():
    # the sweep's closed forms on G against the Born-table reader on cnot_qnd.kraus's stacks.
    # F_M and F_QND, gamma^2 and s, are held to the 50-digit reference instead (test_cnot_qnd.py):
    # read at the basis eigenstates, the oracle's products are off them by up to 5.3e-15 over
    # 300 random complex bases
    from qndsim import cnot_qnd

    rng = np.random.default_rng(79)
    gammas = np.concatenate(([cnot_qnd.GAMMA_MIN, 1.0], rng.uniform(cnot_qnd.GAMMA_MIN, 1.0, 48)))
    for basis in _random_bases(rng, 30):
        stacks = np.array([cnot_qnd.kraus(cnot_qnd.MeterPrep(g), basis) for g in gammas])
        _, likelihood, p_c, _ = born_read(stacks, basis)
        k, k_bar = 2 * likelihood - 1, 2 * p_c - 1
        want = {"gamma": gammas, "f_qsp": likelihood, "k": k, "k_bar": k_bar, "englert": k**2 + k_bar**2,
                "c2_raw": k**2, "c2_shortcut": k}
        rows = cnot_qnd.strength_sweep(gammas, basis)
        got = np.array([[getattr(r, name) for name in want] for r in rows])
        np.testing.assert_allclose(got, np.array(list(want.values())).T, rtol=0, atol=4e-15)
