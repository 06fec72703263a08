"""End-to-end acceptance checks.

Each test covers one headline claim of the toolkit and prints a single
``ACCEPTANCE <n> <name> ... PASS`` (or FAIL) line, so the whole contract can
be audited from ``pytest tests/test_acceptance.py -s``.
"""

import contextlib
import itertools
import math
import sys
import time

import numpy as np
import pytest

from qndsim import cnot_qnd as cq
from qndsim import hilbert as hs
from qndsim import photonics as ph
from qndsim import weakval as wv
from qndsim.hilbert import PureState

from oracles import FockState, LinearCircuit, ModeLayout, bs_matrix, lift_two_photon

S = 1 / math.sqrt(2)
ETA = 1.0 / 3.0
H = PureState([1, 0])
V = PureState([0, 1])
EIGENSTATES = [hs.KET0, hs.KET1]


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name:<42s} FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {num:2d} {name:<42s} PASS", file=sys.stderr)


def test_01_ideal_projective_qnd():
    with criterion(1, "ideal projective QND at full strength"):
        row = cq.strength_sweep([1.0], ensemble=EIGENSTATES)[0]
        assert row.f_m == pytest.approx(1.0, abs=1e-9)
        assert row.f_qnd == pytest.approx(1.0, abs=1e-9)
        assert row.f_qsp == pytest.approx(1.0, abs=1e-9)
        assert row.c2_raw == pytest.approx(1.0, abs=1e-9)


def test_02_turned_off_measurement():
    with criterion(2, "turned-off measurement limit"):
        row = cq.strength_sweep([S], ensemble=EIGENSTATES)[0]
        assert row.f_m == pytest.approx(0.5, abs=1e-9)
        assert row.f_qnd == pytest.approx(1.0, abs=1e-9)
        assert row.f_qsp == pytest.approx(0.5, abs=1e-9)
        sup = cq.strength_sweep([S], ensemble=[hs.PLUS])[0]
        assert sup.f_m == pytest.approx(1.0, abs=1e-9)


def test_03_strength_law():
    with criterion(3, "fidelity strength law over the gamma grid"):
        for g in np.linspace(cq.GAMMA_MIN, 1.0, 50):
            row = cq.strength_sweep([g], ensemble=EIGENSTATES)[0]
            assert row.f_m == pytest.approx(g * g, abs=1e-10)
            assert row.f_qsp == pytest.approx(g * g, abs=1e-10)
            assert row.f_qnd == pytest.approx(1.0, abs=1e-10)


def test_04_englert_saturation():
    with criterion(4, "distinguishability duality saturation"):
        for g in np.linspace(cq.GAMMA_MIN, 1.0, 50):
            row = cq.strength_sweep([g], ensemble=EIGENSTATES)[0]
            gb = math.sqrt(1 - g * g)
            assert row.k == pytest.approx(2 * g * g - 1, abs=1e-9)
            assert row.k_bar == pytest.approx(2 * g * gb, abs=1e-9)
            assert row.englert == pytest.approx(1.0, abs=1e-9)
        row = cq.strength_sweep([0.8], ensemble=EIGENSTATES)[0]
        assert row.k == pytest.approx(0.28, abs=1e-9)
        assert row.k_bar == pytest.approx(0.96, abs=1e-9)


def test_05_optics_success_probabilities():
    with criterion(5, "optical gate success probabilities"):
        meter = ph.meter_prep(ETA)
        assert ph.run_gate(V, meter).success_prob == pytest.approx(0.5, abs=1e-10)
        assert ph.run_gate(H, meter).success_prob == pytest.approx(1 / 6, abs=1e-10)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            a /= np.linalg.norm(a)
            sig = PureState(a)
            res = ph.run_gate(sig, meter)
            expected = (abs(a[0]) ** 2 + 3 * abs(a[1]) ** 2) / 6
            assert res.success_prob == pytest.approx(expected, abs=1e-10)
            lossy = ph.run_gate(sig, meter, include_signal_loss=True)
            assert lossy.success_prob == pytest.approx(1 / 6, abs=1e-10)


def test_06_hom_interference():
    with criterion(6, "two-photon interference null and reduction"):
        circuit = LinearCircuit(ModeLayout(("a", "b")), bs_matrix(0.5))
        out = lift_two_photon(circuit, FockState(2, {(1, 1): 1.0}))
        assert abs(out.amplitude((1, 1))) < 1e-12
        for eta in np.linspace(0.0, 1.0, 20):
            expected = (1 - 2 * eta) ** 2 / ((1 - eta) ** 2 + eta**2)
            assert ph.hom_reduction(float(eta)) == pytest.approx(expected, abs=1e-12)


def test_07_optics_cnot_equivalence():
    with criterion(7, "optical gate reproduces the CNOT QND"):
        meter = ph.meter_prep(ETA)
        for i, sig in enumerate((H, V)):
            joint = ph.run_gate(sig, meter).conditional_joint
            target = np.eye(4)[3 * i].reshape(2, 2)
            assert abs(abs(np.vdot(joint, target)) - 1.0) < 1e-10
        for a in np.linspace(0.0, ph.A_MAX, 25):
            pair, _ = ph.strength_distinguishability(float(a))
            assert pair.englert_lhs == pytest.approx(1.0, abs=1e-9)


def test_08_anomalous_weak_value():
    with criterion(8, "anomalous post-selected mean and bound"):
        plus, _, _ = wv.postselected_mean_n(0.8, -0.6, 0.8)
        assert plus == pytest.approx(-9 / 7, abs=1e-10)
        assert wv.negativity_gamma_bound(0.8) == pytest.approx(0.911, abs=1e-3)


def test_09_weak_value_sum_rules():
    with criterion(9, "post-selected sum rules"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.normal(size=2)
            a /= np.linalg.norm(a)
            for g in rng.uniform(cq.GAMMA_MIN + 1e-3, 1.0, size=20):
                try:
                    plus, minus, p_plus = wv.postselected_mean_n(a[0], a[1], float(g))
                except wv.WeakValueError:
                    continue
                lhs = p_plus * plus + (1 - p_plus) * minus
                assert lhs == pytest.approx(a[1] ** 2, abs=1e-10)
        strong, _, _ = wv.postselected_mean_n(0.8, -0.6, 1.0)
        assert strong == pytest.approx(0.36, abs=1e-10)


def test_10_monte_carlo_consistency():
    with criterion(10, "reproducible Monte-Carlo estimation"):
        started = time.monotonic()
        r1 = wv.estimate_sampled(0.8, -0.6, 0.8, 10**6, seed=12345)
        r2 = wv.estimate_sampled(0.8, -0.6, 0.8, 10**6, seed=12345)
        assert r1.value == r2.value and r1.stderr == r2.stderr
        assert abs(r1.value - (-9 / 7)) <= 3 * max(r1.stderr, 1e-12)
        assert time.monotonic() - started < 120


def test_11_two_photon_lift_vs_permanent_oracle():
    with criterion(11, "two-photon propagation vs permanent oracle"):
        rng = np.random.default_rng(99)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            q, r = np.linalg.qr(a)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            layout = ModeLayout(tuple(f"mode{i}" for i in range(m)))
            pats = [
                tuple(
                    sum(1 for k in (i, j) if k == mode) for mode in range(m)
                )
                for i in range(m)
                for j in range(i, m)
            ]
            amps = rng.normal(size=len(pats)) + 1j * rng.normal(size=len(pats))
            amps /= np.linalg.norm(amps)
            state = FockState(m, dict(zip(pats, amps)))
            out = lift_two_photon(LinearCircuit(layout, u), state)
            for pat_out in pats:
                rows = [i for i, n in enumerate(pat_out) for _ in range(n)]
                expected = 0.0j
                for pat_in, amp in state.items():
                    cols = [j for j, n in enumerate(pat_in) for _ in range(n)]
                    sub = u[np.ix_(rows, cols)]
                    perm = sum(
                        sub[0, p[0]] * sub[1, p[1]]
                        for p in itertools.permutations(range(2))
                    )
                    norm = math.sqrt(
                        math.prod(math.factorial(n) for n in pat_out)
                        * math.prod(math.factorial(n) for n in pat_in)
                    )
                    expected += amp * perm / norm
                assert out.amplitude(pat_out) == pytest.approx(expected, abs=1e-10)
