import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import cnot_qnd as cq
from qndsim import hilbert as hs
from qndsim import metrics
from qndsim import weakval as wv
from qndsim.hilbert import BasisSpec, PureState

from oracles import PHASE_ATOL, run

S = 1 / math.sqrt(2)


def random_qubit(rng):
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    return PureState.from_amplitudes(a)


def random_unitary2(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------- oracle for the gate
# Independent dense path: explicit 4x4 matrices and projectors only.

CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def oracle_run(alpha, beta, gamma, vectors=np.eye(2)):
    """Gate in the basis with columns ``vectors``: R^dag CNOT (R x I), R = vectors^dag."""
    gb = math.sqrt(1 - gamma * gamma)
    rot = np.kron(vectors.conj().T, np.eye(2))
    joint = rot.conj().T @ CNOT @ rot @ np.kron([alpha, beta], [gamma, gb])
    p_m = np.array(
        [
            np.vdot(np.kron(np.eye(2), np.diag([1, 0])) @ joint, np.kron(np.eye(2), np.diag([1, 0])) @ joint).real,
            np.vdot(np.kron(np.eye(2), np.diag([0, 1])) @ joint, np.kron(np.eye(2), np.diag([0, 1])) @ joint).real,
        ]
    )
    rho = np.outer(joint, joint.conj()).reshape(2, 2, 2, 2)
    rho_s = np.einsum("ikjk->ij", rho)
    rho_m = np.einsum("kikj->ij", rho)
    return joint, p_m, rho_s, rho_m


# -------------------------------------------------------------------- meter


def meter_amps(gamma):
    prep = cq.MeterPrep(gamma)
    return [prep.gamma, prep.gamma_bar]


def test_meter_state_projective():
    np.testing.assert_allclose(meter_amps(1.0), [1, 0], atol=1e-15)


def test_meter_state_off():
    np.testing.assert_allclose(meter_amps(S), [S, S], atol=1e-12)


def test_meter_state_intermediate():
    np.testing.assert_allclose(meter_amps(0.8), [0.8, 0.6], atol=1e-12)


def test_meter_prep_rejects_out_of_range():
    with pytest.raises(cq.StrengthError):
        cq.MeterPrep(0.5)
    with pytest.raises(cq.StrengthError):
        cq.MeterPrep(1.01)


@pytest.mark.parametrize("gamma", [True, np.True_, np.array(True), np.array([0.8]), [0.8]])
def test_meter_prep_rejects_a_bool_or_an_array(gamma):
    with pytest.raises(TypeError, match="gamma must be a number"):
        cq.MeterPrep(gamma)


# ---------------------------------------------------------------------- run


def test_run_projective():
    out = run(hs.qubit(0.6, 0.8), cq.MeterPrep(1.0))
    np.testing.assert_allclose(out.joint, [0.6, 0, 0, 0.8], atol=1e-12)
    prob, post, p_match = out.conditional[0]
    assert prob == pytest.approx(0.36, abs=1e-12)
    assert abs(abs(np.vdot(post.amps, hs.KET0.amps)) - 1.0) <= PHASE_ATOL
    assert p_match == pytest.approx(1.0, abs=1e-12)


def test_run_turned_off():
    psi = hs.qubit(0.6, 0.8j)
    out = run(psi, cq.MeterPrep(S))
    np.testing.assert_allclose(out.rho_s, np.outer(psi.amps, psi.amps.conj()), atol=1e-12)
    np.testing.assert_allclose(out.p_m, [0.5, 0.5], atol=1e-12)


def test_run_intermediate_meter_distribution():
    out = run(hs.KET0, cq.MeterPrep(0.8))
    np.testing.assert_allclose(out.p_m, [0.64, 0.36], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1 / math.sqrt(2), 1.0))
def test_run_matches_matrix_oracle(seed, gamma):
    rng = np.random.default_rng(seed)
    psi = random_qubit(rng)
    for vectors in (np.eye(2), random_unitary2(rng)):
        out = run(psi, cq.MeterPrep(gamma), BasisSpec(vectors))
        joint, p_m, rho_s, rho_m = oracle_run(psi.amps[0], psi.amps[1], gamma, vectors)
        np.testing.assert_allclose(out.joint, joint, atol=1e-12)
        np.testing.assert_allclose(out.p_m, p_m, atol=1e-12)
        np.testing.assert_allclose(out.rho_s, rho_s, atol=1e-12)
        np.testing.assert_allclose(out.rho_m, rho_m, atol=1e-12)


def test_reduced_states_match_closed_form():
    # rho_s and rho_m from the explicit two-branch decomposition
    a, b, g = 0.8, -0.6, 0.9
    gb = math.sqrt(1 - g * g)
    out = run(hs.qubit(a, b), cq.MeterPrep(g))
    v1 = np.array([a * g, b * gb])
    v2 = np.array([a * gb, b * g])
    np.testing.assert_allclose(
        out.rho_s, np.outer(v1, v1) + np.outer(v2, v2), atol=1e-12
    )
    w1 = np.array([a * g, a * gb])
    w2 = np.array([b * gb, b * g])
    np.testing.assert_allclose(
        out.rho_m, np.outer(w1, w1) + np.outer(w2, w2), atol=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1 / math.sqrt(2), 1.0))
def test_p_in_equals_p_out(seed, gamma):
    rng = np.random.default_rng(seed)
    psi = random_qubit(rng)
    out = run(psi, cq.MeterPrep(gamma))
    np.testing.assert_allclose(out.p_in, out.p_out, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1 / math.sqrt(2), 1.0))
def test_basis_covariance(seed, gamma):
    rng = np.random.default_rng(seed)
    psi = random_qubit(rng)
    r = random_unitary2(rng)
    rotated_basis = BasisSpec(r @ np.eye(2))
    rotated_psi = PureState(r @ psi.amps)
    out_z = run(psi, cq.MeterPrep(gamma))
    out_r = run(rotated_psi, cq.MeterPrep(gamma), rotated_basis)
    np.testing.assert_allclose(out_r.p_in, out_z.p_in, atol=1e-10)
    np.testing.assert_allclose(out_r.p_out, out_z.p_out, atol=1e-10)
    np.testing.assert_allclose(out_r.p_m, out_z.p_m, atol=1e-10)


def test_conditional_projects_to_eigenstate_at_full_strength():
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = random_qubit(rng)
        out = run(psi, cq.MeterPrep(1.0))
        for k in range(2):
            prob, post, p_match = out.conditional[k]
            if post is None:
                continue
            target = hs.KET0 if k == 0 else hs.KET1
            assert abs(abs(np.vdot(post.amps, target.amps)) - 1.0) < 1e-10
            assert p_match == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------- characterize


def test_characterize_projective():
    row = cq.strength_sweep([1.0])[0]
    assert row.f_m == pytest.approx(1.0, abs=1e-10)
    assert row.f_qnd == pytest.approx(1.0, abs=1e-10)
    assert row.f_qsp == pytest.approx(1.0, abs=1e-10)
    assert row.k == pytest.approx(1.0, abs=1e-10)
    assert row.k_bar == pytest.approx(0.0, abs=1e-10)
    assert row.c2_raw == pytest.approx(1.0, abs=1e-10)


def test_characterize_turned_off():
    row = cq.strength_sweep([S], ensemble=[hs.KET0, hs.KET1])[0]
    assert row.f_m == pytest.approx(0.5, abs=1e-10)
    assert row.f_qnd == pytest.approx(1.0, abs=1e-10)
    assert row.f_qsp == pytest.approx(0.5, abs=1e-10)
    assert row.c2_raw == pytest.approx(0.0, abs=1e-10)


def test_characterize_conjugate_hit_rate():
    g = 0.8
    row = cq.strength_sweep([g])[0]
    gb = math.sqrt(1 - g * g)
    assert row.k_bar == pytest.approx(2 * g * gb, abs=1e-10)
    assert (row.k_bar + 1) / 2 == pytest.approx(g * gb + 0.5, abs=1e-10)
    assert row.englert == pytest.approx(1.0, abs=1e-9)


def test_characterize_superposition_fm_is_one_when_off():
    row = cq.strength_sweep([S], ensemble=[hs.PLUS])[0]
    assert row.f_m == pytest.approx(1.0, abs=1e-10)


def test_sweep_rejects_non_qubit():
    # a two-qubit probe is named as the wrong input, not failed on deep in numpy
    ensemble = [hs.KET0, PureState(np.eye(4)[0])]
    with pytest.raises(hs.HilbertError, match="qubit"):
        cq.strength_sweep([S, 1.0], ensemble=ensemble)


@pytest.mark.parametrize("ensemble, index", [([hs.KET0.amps], 0), ([hs.KET0, ("|0>", hs.KET0)], 1)],
                         ids=["amplitudes", "labelled_pair"])
def test_sweep_rejects_an_ensemble_entry_that_is_not_a_state(ensemble, index):
    with pytest.raises(hs.HilbertError, match=f"ensemble entry {index} must be a signal-qubit PureState"):
        cq.strength_sweep([0.9], ensemble=ensemble)


def test_strength_law_on_grid():
    grid = np.linspace(cq.GAMMA_MIN, 1.0, 50)
    random_basis = BasisSpec(random_unitary2(np.random.default_rng(17)))
    for basis in (hs.Z_BASIS, hs.X_BASIS, hs.Y_BASIS, random_basis):
        # the Pauli ensemble carried into ``basis``, so it holds that basis's eigenstates
        ensemble = [PureState(basis.vectors @ s.amps) for s in cq.pauli_ensemble()]
        rows = cq.strength_sweep(grid, basis, ensemble)
        for g, row in zip(grid, rows):
            assert row.f_m == pytest.approx(g * g, abs=1e-10)
            assert row.f_qsp == pytest.approx(g * g, abs=1e-10)
            assert row.f_qnd == pytest.approx(1.0, abs=1e-10)
            assert row.englert == pytest.approx(1.0, abs=1e-9)
            assert row.k == pytest.approx(2 * g * g - 1, abs=1e-10)
            assert row.k_bar == pytest.approx(2 * g * math.sqrt(1 - g * g), abs=1e-10)
            assert row.c2_raw == pytest.approx((2 * g * g - 1) ** 2, abs=1e-10)
            assert row.c2_shortcut == pytest.approx(2 * g * g - 1, abs=1e-10)
        fms = [r.f_m for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(fms, fms[1:]))


def test_sweep_example_grid():
    rows = cq.strength_sweep([S, 0.8, 1.0])
    np.testing.assert_allclose([r.f_m for r in rows], [0.5, 0.64, 1.0], atol=1e-10)
    np.testing.assert_allclose([r.f_qnd for r in rows], [1, 1, 1], atol=1e-10)


def test_sweep_csv_schema():
    rows = cq.strength_sweep([1.0])
    csv = cq.sweep_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "gamma,f_m,f_qnd,f_qsp,k,k_bar,englert,c2_raw,c2_shortcut"
    assert len(lines) == 2
    values = [float(x) for x in lines[1].split(",")]
    assert values[0] == 1.0
    assert values[1] == pytest.approx(1.0)


def test_sweep_json_roundtrip():
    rows = cq.strength_sweep([0.9])
    blob = cq.sweep_to_json(rows)
    assert blob[0]["gamma"] == 0.9
    assert set(blob[0]) == set(cq.SWEEP_FIELDS)


def test_sweep_rows_match_one_point_sweeps():
    rng = np.random.default_rng(23)
    basis = BasisSpec(random_unitary2(rng))
    ensemble = cq.pauli_ensemble() + [random_qubit(rng) for _ in range(5)]
    grid = np.linspace(cq.GAMMA_MIN, 1.0, 17)
    rows = cq.strength_sweep(grid, basis, ensemble)
    assert len(rows) == grid.size
    for g, row in zip(grid, rows):
        single = cq.strength_sweep([g], basis, ensemble)[0]
        for field in cq.SWEEP_FIELDS:
            assert getattr(row, field) == pytest.approx(getattr(single, field), abs=1e-12)


def test_sweep_ignores_probe_phase_and_order():
    # a probe's global phase is not physical, and the worst case over a list is that over a set
    rng = np.random.default_rng(31)
    for _ in range(200):
        basis = BasisSpec(random_unitary2(rng))
        ensemble = cq.pauli_ensemble() + [random_qubit(rng) for _ in range(4)]
        phases = np.exp(2j * np.pi * rng.uniform(size=len(ensemble)))
        shuffled = [PureState(ensemble[i].amps * phases[i]) for i in rng.permutation(len(ensemble))]
        grid = rng.uniform(cq.GAMMA_MIN, 1.0, 20)
        rows, others = (cq.strength_sweep(grid, basis, probes) for probes in (ensemble, shuffled))
        np.testing.assert_allclose([[getattr(r, f) for f in cq.SWEEP_FIELDS] for r in others],
                                   [[getattr(r, f) for f in cq.SWEEP_FIELDS] for r in rows], rtol=0, atol=1e-14)


@pytest.mark.parametrize("basis", [np.eye(2), [[1, 0], [0, 1]], None], ids=["array", "list", "none"])
def test_kraus_and_sweep_name_a_basis_that_is_not_a_basis_spec(basis):
    message = f"basis must be a BasisSpec, got {type(basis).__name__}"
    with pytest.raises(hs.HilbertError, match=message):
        cq.kraus(cq.MeterPrep(0.9), basis)
    for grid in ([0.9], []):
        with pytest.raises(hs.HilbertError, match=message):
            cq.strength_sweep(grid, basis)


def _sweep_table(grid, basis, ensemble=None):
    return np.array([[getattr(r, f) for f in cq.SWEEP_FIELDS] for r in cq.strength_sweep(grid, basis, ensemble)])


def test_sweep_read_matrices_are_read_only():
    basis = BasisSpec(random_unitary2(np.random.default_rng(37)))
    probes = tuple(cq.pauli_ensemble())
    assert cq._meter_stacks(basis) is cq._meter_stacks(basis)
    assert metrics._probe_read(basis, probes) is metrics._probe_read(basis, probes)
    for x in (cq._meter_stacks(basis), *metrics._probe_read(basis, probes)):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0] = 0.0


def test_sweep_read_cache_keeps_each_ensemble_apart():
    rng = np.random.default_rng(41)
    basis = BasisSpec(random_unitary2(rng))
    grid = rng.uniform(cq.GAMMA_MIN, 1.0, 12)
    first = [random_qubit(rng) for _ in range(3)]
    second = [random_qubit(rng) for _ in range(5)]
    a, b = _sweep_table(grid, basis, first), _sweep_table(grid, basis, second)
    assert not np.array_equal(a[:, 1:3], b[:, 1:3])  # F_M and F_QND depend on the probes
    # reading one ensemble leaves the other's rows as they were, through more
    # (basis, ensemble) pairs than the cache holds
    for _ in range(metrics.READ_CACHE_SIZE + 1):
        _sweep_table(grid, basis, [random_qubit(rng)])
    for ensemble, want in ((second, b), (first, a), (second, b)):
        assert _sweep_table(grid, basis, ensemble).tobytes() == want.tobytes()
    # a sweep read with the cache cleared agrees bit for bit
    metrics._probe_read.cache_clear()
    cq._meter_stacks.cache_clear()
    assert _sweep_table(grid, basis, first).tobytes() == a.tobytes()


def test_sweep_rows_are_bit_identical_on_an_equal_basis_or_ensemble():
    rng = np.random.default_rng(43)
    grid = rng.uniform(cq.GAMMA_MIN, 1.0, 15)
    for basis in (hs.Z_BASIS, hs.X_BASIS, hs.Y_BASIS, BasisSpec(random_unitary2(rng))):
        ensemble = cq.pauli_ensemble() + [random_qubit(rng) for _ in range(3)]
        want = _sweep_table(grid, basis, ensemble)
        twin = BasisSpec(basis.vectors.copy())  # its read matrices not built yet
        fresh = [PureState(s.amps.copy()) for s in ensemble]
        for b, e in ((twin, ensemble), (basis, fresh), (twin, fresh)):
            assert _sweep_table(grid, b, e).tobytes() == want.tobytes()


def test_sweep_rows_are_frozen_sweep_rows():
    rows = cq.strength_sweep([S, 0.8, 0.93, 1.0], hs.Y_BASIS)
    for row in rows:
        values = [getattr(row, f) for f in cq.SWEEP_FIELDS]
        assert type(row) is cq.SweepRow
        assert row == cq.SweepRow(*values)
        assert vars(row) == vars(cq.SweepRow(*values))
        assert list(vars(row)) == list(cq.SWEEP_FIELDS)
        assert all(type(v) is float for v in values)
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.f_m = 0.0


def test_gamma_just_above_one_is_scored_as_one():
    over = 1.0 + 5e-13  # inside GAMMA_ATOL, so accepted
    basis = BasisSpec(random_unitary2(np.random.default_rng(29)))
    for b in (hs.Z_BASIS, hs.X_BASIS, basis):
        row, = cq.strength_sweep([over], b)
        assert row == dataclasses.replace(cq.strength_sweep([1.0], b)[0], gamma=over)
    under = cq.GAMMA_MIN - 5e-13
    assert cq.strength_sweep([under])[0] == dataclasses.replace(cq.strength_sweep([cq.GAMMA_MIN])[0], gamma=under)
    # the prepared strength is the clipped one, and every weak-value function reads it
    assert cq.MeterPrep(over) == cq.MeterPrep(1.0)
    assert np.array_equal(wv.povm(over), wv.povm(1.0))
    assert wv.postselected_mean_n(0.8, -0.6, over) == wv.postselected_mean_n(0.8, -0.6, 1.0)
    sampled = wv.estimate_sampled(0.8, -0.6, over, 10**5, 3)
    # bit-identical to gamma = 1, and echoing the strength as given
    assert sampled == dataclasses.replace(wv.estimate_sampled(0.8, -0.6, 1.0, 10**5, 3), gamma=over)


def test_sweep_rejects_bad_gamma_naming_it():
    with pytest.raises(cq.StrengthError, match="0.6123"):
        cq.strength_sweep([0.8, 0.9, 0.6123, 1.5, 1.0])
    with pytest.raises(cq.StrengthError, match="nan"):
        cq.strength_sweep([0.8, float("nan")])
    with pytest.raises(cq.StrengthError):
        cq.MeterPrep(float("nan"))


def test_pauli_ensemble_is_a_fresh_list_each_call():
    first = cq.pauli_ensemble()
    first.append(hs.KET0)
    second = cq.pauli_ensemble()
    expected = [[1, 0], [0, 1], [S, S], [S, -S], [S, 1j * S], [S, -1j * S]]  # |0>, |1>, |+>, |->, |+i>, |-i>
    assert len(second) == 6
    np.testing.assert_allclose([state.amps for state in second], expected, rtol=0, atol=1e-15)
    assert second is not cq.pauli_ensemble()


def test_sweep_of_empty_grid_is_empty():
    assert cq.strength_sweep([]) == []
