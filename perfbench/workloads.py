"""Workload process of the qndsim benchmark.

One process runs one workload: it imports qndsim from ``src/``, generates
the workload's inputs from the seed, makes one small warm-up call of each
entry point, and prints its ready time (``time.monotonic()``) and host
scale if asked only to set up. Otherwise it then runs the workload as a closed loop, one call in
flight, for the given number of seconds and prints one JSON object with the
measurements. With ``--trace 1`` the first half of the time runs untraced
and the second half traced, and the object holds the per-module metrics.

A round is one top-level call into qndsim and what it returns:

- sweep: one ``strength_sweep`` over a 50-point gamma grid in one basis,
  50 items (one item per characterized row);
- optics: 100 signals, each through ``run_gate`` in three configurations,
  and four 25-point ``strength_distinguishability`` a-grids, 400 items
  (one item per gate evaluation: a ``run_gate`` call or an a-point);
- sampling: one ``estimate_sampled`` call, 10**7 items (one item per shot);
- cli: one ``python -m qndsim.cli`` subprocess, 1 item.

Only the call is timed; the correctness check of its result runs after it.
Latencies are reported scaled to nominal host speed (see ``REF_NOMINAL_S``)
and as measured.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/workloads.py --workload sweep --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer, qndsim_modules

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
TOL = 1e-9
THIRD = 1.0 / 3.0
SQRT_HALF = 1.0 / math.sqrt(2.0)
HILBERT_VALIDATORS = ("PureState", "DensityMatrix", "BasisSpec", "ProbDist")
# the sampling stream digest covers the first rounds, which every run makes
DIGEST_ROUNDS = 8
CLI_SHOTS = 10_000
# A shared host's speed can drift by a factor of two over minutes, which
# swamps a 25 s run. Times are therefore reported at nominal host speed: each
# round's latency is scaled by REF_NOMINAL_S over the median time of a fixed
# reference computation, which runs no qndsim code, timed after each of the
# rounds around it. The latencies as measured are reported next to them.
REF_NOMINAL_S = 0.002
REF_WINDOW = 3  # rounds on each side whose reference times scale a round
REF_SHARE = 0.02  # reference time after a round, as a share of its latency
_REF_ARRAY = np.linspace(0.0, 1.0, 200_000)


def _attempt(fn, *args):
    """Call ``fn``; an exception becomes the result, to fail that item only."""
    try:
        return fn(*args)
    except Exception as exc:  # the item counts as failed
        return exc


def _sweep_row_ok(row: dict, gamma: float) -> bool:
    """The closed forms every basis obeys for the CNOT gate at strength gamma."""
    g2 = gamma * gamma
    expected = {
        "gamma": gamma,
        "f_qsp": g2,
        "k": 2.0 * g2 - 1.0,
        "k_bar": 2.0 * gamma * math.sqrt(max(0.0, 1.0 - g2)),
        "englert": 1.0,
        "c2_raw": (2.0 * g2 - 1.0) ** 2,
        "f_qnd": 1.0,
    }
    return all(abs(row[key] - value) <= TOL for key, value in expected.items())


def _kraus_postselected(alpha: complex, beta: complex, gamma: float) -> tuple[float, float, float]:
    """Exact |+>-post-selected mean of n, P(+) and min_k P(k, +) for the
    strength-gamma readout, from its Kraus operators M_0 = diag(g, gb),
    M_1 = diag(gb, g)."""
    gb = math.sqrt(1.0 - gamma * gamma)
    psi = np.array([alpha, beta], dtype=complex)
    psi /= np.linalg.norm(psi)
    plus = np.array([SQRT_HALF, SQRT_HALF])
    p0, p1 = (abs(np.vdot(plus, np.array(m) * psi)) ** 2 for m in ((gamma, gb), (gb, gamma)))
    accept = p0 + p1
    value = (1.0 + (p1 - p0) / accept / (2.0 * gamma * gamma - 1.0)) / 2.0
    return value, accept, min(p0, p1)


def _weak_input(rng, shots: int, complex_amps: bool):
    """Seeded (alpha, beta, gamma) with gamma in (0.72, 0.99). Each meter
    outcome is expected at least 100 times among the retained shots, the
    condition for the 6-stderr test of a sampled mean: with fewer, a correct
    sampler can return a record without variance and a stderr of 0."""
    while True:
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        alpha, beta = math.cos(theta), math.sin(theta)
        if complex_amps:
            p0, p1 = rng.uniform(0.0, 2 * math.pi, 2)
            alpha, beta = complex(alpha * np.exp(1j * p0)), complex(beta * np.exp(1j * p1))
        gamma = float(rng.uniform(0.72, 0.99))
        value, accept, rarest = _kraus_postselected(alpha, beta, gamma)
        if rarest * shots >= 100:
            return alpha, beta, gamma, value, accept


def _success_eta_third(alpha: complex, beta: complex, loss: bool) -> float:
    """Heralding probability of the eta = 1/3 gate with meter D(1/3)."""
    if loss:
        return 1.0 / 6.0
    n = abs(alpha) ** 2 + abs(beta) ** 2
    return (abs(alpha) ** 2 + 3.0 * abs(beta) ** 2) / (6.0 * n)


def _heralding_ok(res) -> bool:
    total = res.success_prob + sum(res.failure_breakdown.values())
    return abs(total - 1.0) <= TOL


class Sweep:
    """Strength sweeps of the CNOT QND gate in four bases."""

    POINTS = 50
    POOL = 64

    def __init__(self, seed: int):
        from qndsim import cnot_qnd, hilbert

        self.cnot_qnd = cnot_qnd
        rng = np.random.default_rng([seed, 1])
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        self.bases = [hilbert.Z_BASIS, hilbert.X_BASIS, hilbert.Y_BASIS, hilbert.BasisSpec(q)]
        lo = cnot_qnd.GAMMA_MIN
        step = (1.0 - lo) / (self.POINTS - 1)
        base = np.linspace(lo, 1.0, self.POINTS)
        self.grids = [
            np.clip(base + rng.uniform(-step / 4, step / 4, self.POINTS), lo, 1.0).tolist()
            for _ in range(self.POOL)
        ]
        cnot_qnd.strength_sweep([1.0])

    def items(self, i: int) -> int:
        return self.POINTS

    def call(self, i: int):
        return self.cnot_qnd.strength_sweep(self.grids[i % self.POOL], self.bases[i % 4])

    def check(self, i: int, rows) -> int:
        grid = self.grids[i % self.POOL]
        if len(rows) != len(grid):
            return len(grid)
        return sum(not _sweep_row_ok(vars(row), g) for row, g in zip(rows, grid))


class Optics:
    """Heralded two-photon gate evaluations and strength scans."""

    GRID = 25  # points per a-grid, and signals per a-grid
    GRIDS = 4  # a-grids per round
    POOL = 4

    def __init__(self, seed: int):
        from qndsim import hilbert, photonics

        self.photonics = photonics
        rng = np.random.default_rng([seed, 2])
        self.d_third = photonics.meter_prep(THIRD)
        n = self.GRID * self.GRIDS
        step = photonics.A_MAX / (self.GRID - 1)
        base = np.linspace(0.0, photonics.A_MAX, self.GRID)
        self.batches = []
        for _ in range(self.POOL):
            theta = rng.uniform(0.0, math.pi / 2, n)
            phase = rng.uniform(0.0, 2 * math.pi, (n, 2))
            etas = rng.uniform(0.05, 0.95, n)
            signals = [
                (complex(math.cos(t) * np.exp(1j * p0)), complex(math.sin(t) * np.exp(1j * p1)))
                for t, (p0, p1) in zip(theta, phase)
            ]
            grids = [
                np.clip(base + rng.uniform(-step / 4, step / 4, self.GRID), 0.0, photonics.A_MAX)
                for _ in range(self.GRIDS)
            ]
            self.batches.append(
                {
                    "amps": signals,
                    "signals": [hilbert.qubit(a, b) for a, b in signals],
                    "etas": etas.tolist(),
                    "meters": [photonics.meter_prep(e) for e in etas],
                    "a_points": np.concatenate(grids).tolist(),
                }
            )
        photonics.run_gate(self.batches[0]["signals"][0], self.d_third, THIRD)
        photonics.strength_distinguishability(self.batches[0]["a_points"][0])

    def items(self, i: int) -> int:
        return 4 * self.GRID * self.GRIDS

    def call(self, i: int):
        b = self.batches[i % self.POOL]
        run_gate, d_third = self.photonics.run_gate, self.d_third
        gates = []
        for sig, eta, meter in zip(b["signals"], b["etas"], b["meters"]):
            gates.append(_attempt(run_gate, sig, d_third, THIRD, False))
            gates.append(_attempt(run_gate, sig, d_third, THIRD, True))
            gates.append(_attempt(run_gate, sig, meter, eta, False))
        scans = [_attempt(self.photonics.strength_distinguishability, a) for a in b["a_points"]]
        return gates, scans

    def check(self, i: int, out) -> int:
        b = self.batches[i % self.POOL]
        gates, scans = out
        bad = 0
        for k, res in enumerate(gates):
            if isinstance(res, Exception) or not _heralding_ok(res):
                bad += 1
            elif k % 3 < 2:
                expected = _success_eta_third(*b["amps"][k // 3], loss=k % 3 == 1)
                bad += abs(res.success_prob - expected) > TOL
        for res in scans:
            if isinstance(res, Exception):
                bad += 1
                continue
            pair, gamma_eff = res
            bad += not (
                -TOL <= pair.k <= 1.0 + TOL
                and pair.k**2 + pair.k_bar**2 <= 1.0 + TOL
                and abs(pair.k - (2.0 * gamma_eff**2 - 1.0)) <= TOL
            )
        return bad


class Sampling:
    """Monte-Carlo post-selected weak values at 10**7 shots per call."""

    SHOTS = 10**7
    POOL = 64

    def __init__(self, seed: int):
        from qndsim import weakval

        self.weakval = weakval
        rng = np.random.default_rng([seed, 3])
        self.inputs = []
        for _ in range(self.POOL):
            alpha, beta, gamma, value, accept = _weak_input(rng, self.SHOTS, complex_amps=True)
            self.inputs.append((alpha, beta, gamma, int(rng.integers(2**32)), value, accept))
        alpha, beta, gamma, s, _, _ = self.inputs[0]
        weakval.estimate_sampled(alpha, beta, gamma, 1000, s)
        weakval.postselected_mean_n(alpha, beta, gamma)
        self.stream: list[tuple[float, float]] = []

    def items(self, i: int) -> int:
        return self.SHOTS

    def call(self, i: int):
        alpha, beta, gamma, s, _, _ = self.inputs[i % self.POOL]
        return self.weakval.estimate_sampled(alpha, beta, gamma, self.SHOTS, s)

    def check(self, i: int, res) -> int:
        if i < DIGEST_ROUNDS:
            self.stream.append((res.value, res.stderr))
        exact = self.inputs[i % self.POOL][4]
        tol = 6.0 * res.stderr if res.stderr > 0 else 1e-12
        return 0 if abs(res.value - exact) <= tol else self.SHOTS

    def closed_form_mismatch(self) -> int:
        """Inputs where the printed closed form misses the exact mean or P(+)."""
        count = 0
        for alpha, beta, gamma, _, value, accept in self.inputs:
            try:
                plus, _, p_plus = self.weakval.postselected_mean_n(alpha, beta, gamma)
            except self.weakval.WeakValueError:
                count += 1
                continue
            count += bool(abs(plus - value) > TOL or abs(p_plus - accept) > TOL)
        return count


def _json_check(check):
    """A check of the ``results`` object of a JSON report."""
    return lambda text: check(json.loads(text)["results"])


def _csv_rows(text: str) -> list[dict]:
    header, *lines = text.strip().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, map(float, line.split(",")))) for line in lines]


def _cli_set(rng) -> list[tuple[list[str], object]]:
    """One pass over the command mix: (argv, check of stdout) per command.

    The 11-point sweep, twice as slow as any other command, runs twice (JSON
    and CSV output), so that every run of a few tens of seconds makes more
    than ten of them. The tail latency, which has ten samples beyond it,
    then stays among them instead of jumping to another command kind as the
    number of invocations in a run changes.
    """
    f = repr
    lo = SQRT_HALF
    grid = [lo + (1.0 - lo) * i / 10 for i in range(11)]
    gamma = float(rng.uniform(lo, 1.0))
    p_in, p_m, p_out = (rng.integers(1, 1000, 2) for _ in range(3))

    def fid(p, q):
        p, q = p / p.sum(), q / q.sum()
        return float(np.sum(np.sqrt(p * q)) ** 2)

    w_alpha, w_beta, w_gamma, exact, accept = _weak_input(rng, CLI_SHOTS, complex_amps=False)
    w_seed = int(rng.integers(2**31))
    bound_alpha = float(rng.uniform(0.72, 0.99))
    gamma_max = math.sqrt((1.0 + math.sqrt(2.0 * bound_alpha**2 - 1.0) / bound_alpha) / 2.0)
    label = "HV"[int(rng.integers(2))]
    o_theta = float(rng.uniform(0.0, math.pi / 2))
    o_alpha, o_beta = math.cos(o_theta), math.sin(o_theta)
    strength_a = float(rng.uniform(0.0, math.sqrt(3.0) / 2.0))
    weak = ["weak", "--alpha", f(w_alpha), "--beta", f(w_beta), "--gamma", f(w_gamma)]
    dists = [x for k, p in (("--p-in", p_in), ("--p-m", p_m), ("--p-out", p_out))
             for x in (k, ",".join(map(str, p)))]

    def grid_ok(rows):
        return len(rows) == len(grid) and all(_sweep_row_ok(r, g) for r, g in zip(rows, grid))

    def analytic_ok(r):
        a = r["analytic"]
        return abs(a["plus_value"] - exact) <= TOL and abs(a["p_plus"] - accept) <= TOL

    def sampled_ok(r):
        s = r["sampled"]
        return analytic_ok(r) and abs(s["value"] - exact) <= max(6.0 * s["stderr"], 1e-12)

    def optics_ok(success):
        def ok(r):
            total = r["success_prob"] + sum(r["failure_breakdown"].values())
            return abs(total - 1.0) <= TOL and (
                success is None or abs(r["success_prob"] - success) <= TOL
            )

        return _json_check(ok)

    return [
        (["cnot-sweep", "--gamma-points", "11"], _json_check(lambda r: grid_ok(r["rows"]))),
        ([*weak, "--shots", str(CLI_SHOTS), "--seed", str(w_seed)], _json_check(sampled_ok)),
        (
            ["cnot-sweep", "--gamma", f(gamma)],
            _json_check(lambda r: len(r["rows"]) == 1 and _sweep_row_ok(r["rows"][0], gamma)),
        ),
        (
            ["fidelity", *dists],
            _json_check(
                lambda r: abs(r["f_m"] - fid(p_in, p_m)) <= TOL
                and abs(r["f_qnd"] - fid(p_in, p_out)) <= TOL
            ),
        ),
        (["optics", "--signal", label], optics_ok(1 / 6 if label == "H" else 1 / 2)),
        (["cnot-sweep", "--gamma-points", "11", "--format", "csv"], lambda t: grid_ok(_csv_rows(t))),
        (["optics", "--alpha", f(o_alpha), "--beta", f(o_beta), "--loss"], optics_ok(1 / 6)),
        (["optics", "--strength-a", f(strength_a)], optics_ok(None)),
        ([*weak, "--analytic"], _json_check(analytic_ok)),
        (
            ["weak", "--alpha", f(bound_alpha), "--bound"],
            _json_check(lambda r: abs(r["gamma_max"] - gamma_max) <= TOL),
        ),
    ]


class Cli:
    """The qndsim command line as a subprocess, one invocation at a time."""

    POOL = 16
    WARM_UP = (
        ["fidelity", "--p-in", "1,1", "--p-m", "1,1"],
        ["cnot-sweep", "--gamma", "1"],
        ["optics", "--signal", "H"],
        ["weak", "--alpha", "0.8", "--bound"],
    )

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.commands = [cmd for _ in range(self.POOL) for cmd in _cli_set(rng)]
        self.traced = False
        self.stats: dict[str, list] = {}
        for argv in self.WARM_UP:
            if self._run(argv).returncode != 0:
                raise RuntimeError(f"warm-up invocation failed: {argv}")

    def _run(self, argv: list[str]):
        entry = [str(HERE / "tracer.py")] if self.traced else ["-m", "qndsim.cli"]
        return subprocess.run(
            [sys.executable, *entry, *argv], capture_output=True, text=True, timeout=60
        )

    def items(self, i: int) -> int:
        return 1

    def call(self, i: int):
        return self._run(self.commands[i % len(self.commands)][0])

    def check(self, i: int, proc) -> int:
        if proc.returncode != 0:
            return 1
        if self.traced:
            for key, (calls, total, own) in json.loads(proc.stderr.splitlines()[-1])["stats"].items():
                acc = self.stats.setdefault(key, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        try:
            return 0 if self.commands[i % len(self.commands)][1](proc.stdout) else 1
        except (ValueError, KeyError, TypeError):
            return 1


WORKLOADS = {"sweep": Sweep, "optics": Optics, "sampling": Sampling, "cli": Cli}


def reference_s() -> float:
    """Wall time of the reference computation: an interpreter loop and a
    vectorized numpy reduction, about 2 ms on an unloaded host."""
    t0 = time.perf_counter()
    total = 0
    for k in range(30_000):
        total += k
    for _ in range(4):
        int((_REF_ARRAY < 0.5).sum())
    return time.perf_counter() - t0


def drive(wl, seconds: float, first: int = 0) -> list[tuple[float, int, int, float]]:
    """Closed loop for ``seconds``: (latency_s, items, failed, reference_s)
    per round, the reference timed after the round, as often as needed to
    sample the host for a REF_SHARE of the round's duration."""
    rounds = []
    i = first
    end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < end:
        t0 = time.perf_counter()
        try:
            out = wl.call(i)
        except Exception:
            out = None
        dt = time.perf_counter() - t0
        n = wl.items(i)
        bad = n if out is None else wl.check(i, out)
        refs = [reference_s() for _ in range(max(1, round(REF_SHARE * dt / REF_NOMINAL_S)))]
        rounds.append((dt, n, bad, statistics.fmean(refs)))
        i += 1
    return rounds


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at least
    ten samples beyond it; never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    idx = max(n - 11, n // 2)
    return xs[idx], 100.0 * (idx + 1) / n


def scaled(rounds) -> list[float]:
    """Round latencies at nominal host speed: each scaled by REF_NOMINAL_S
    over the median reference time of the rounds around it."""
    refs = [r[3] for r in rounds]
    return [
        r[0] * REF_NOMINAL_S / statistics.median(refs[max(0, k - REF_WINDOW) : k + REF_WINDOW + 1])
        for k, r in enumerate(rounds)
    ]


def throughput(rounds, latencies) -> float:
    """Items completed per second of call time."""
    return sum(r[1] for r in rounds) / sum(latencies)


def end_to_end(name: str, rounds) -> dict:
    raw = [r[0] for r in rounds]
    lat = scaled(rounds)
    tail_s, pct = tail(lat)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return {
        "items_per_s": throughput(rounds, lat),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "invoke_ms_p50": 1000.0 * statistics.median(lat),
        "invoke_ms_tail": 1000.0 * tail_s,
        "tail_percentile": pct,
        "invocations": len(lat),
        "raw_items_per_s": throughput(rounds, raw),
        "raw_invoke_ms_p50": 1000.0 * statistics.median(raw),
        "host_scale": REF_NOMINAL_S / statistics.median(r[3] for r in rounds),
    }


def _probe_median(code: str, runs: int = 5) -> float:
    """Median wall time of a fresh interpreter running ``code``; if the code
    prints a number, the median of that number instead."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        dt = time.perf_counter() - t0
        times.append(float(out.stdout) if out.stdout.strip() else dt)
    return statistics.median(times)


def per_layer(name: str, wl, plain, traced, stats: dict, observed: dict) -> dict:
    items = sum(r[1] for r in traced)
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    for key, (calls, _, own) in stats.items():
        layer = key.split(".", 1)[0]
        layer_self[layer] += own
        layer_calls[layer] += calls
    inside = sum(layer_self.values()) or 1.0

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / items
        m[f"{layer}.share"] = layer_self[layer] / inside
        m[f"{layer}.calls"] = layer_calls[layer] / items
    for key, (n, total, _) in stats.items():
        m[f"{key}.ms"] = 1000.0 * total / n if n else 0.0
    validators = [stats.get(f"hilbert.{c}.__post_init__", [0, 0.0, 0.0]) for c in HILBERT_VALIDATORS]
    m["hilbert.validate_s"] = sum(v[1] for v in validators) / items
    m["hilbert.validate_calls"] = sum(v[0] for v in validators) / items
    m["cnot_qnd.run.calls_per_item"] = calls("cnot_qnd.run") / items
    m["photonics.lift_two_photon.self_s"] = stats.get("photonics.lift_two_photon", [0, 0.0, 0.0])[2] / items
    m["photonics.circuit_builds_per_item"] = calls("photonics.build_qnd_circuit") / items
    heralds = observed.get("photonics.run_gate", [])
    m["photonics.herald_success"] = sum(heralds) / len(heralds) if heralds else 0.0
    sampler = stats.get("weakval.estimate_sampled", [0, 0.0, 0.0])
    m["weakval.sampler_s"] = sampler[2] / sampler[0] if sampler[0] else 0.0
    m["weakval.py_peak_mb"] = observed.get("py_peak_mb", 0.0)
    if name == "sampling":
        used = [wl.inputs[i % wl.POOL] for i in range(len(plain), len(plain) + len(traced))]
        m["weakval.bytes_drawn"] = float(wl.SHOTS * 2 * 8)
        m["weakval.acceptance"] = statistics.fmean(x[5] for x in used)
        m["weakval.closed_form_mismatch"] = wl.closed_form_mismatch()
    else:
        m["weakval.bytes_drawn"] = m["weakval.acceptance"] = m["weakval.closed_form_mismatch"] = 0.0
    m["cli.interp_s"] = _probe_median("pass")
    m["cli.import_s"] = _probe_median(
        "import time; t = time.perf_counter(); import qndsim.cli; print(time.perf_counter() - t)"
    )
    m["bench.trace_overhead"] = throughput(plain, scaled(plain)) / throughput(traced, scaled(traced))
    m["bench.host_scale"] = REF_NOMINAL_S / statistics.median(r[3] for r in plain + traced)
    return m


def run_traced(name: str, wl, seconds: float, first: int):
    """Run the traced half; returns (rounds, stats, observed values)."""
    observed: dict = {"photonics.run_gate": []}
    if name == "cli":
        wl.traced = True
        return drive(wl, seconds, first), wl.stats, observed
    heralds = observed["photonics.run_gate"]
    tracer = Tracer(observe={"photonics.run_gate": lambda r: heralds.append(r.success_prob)})
    tracer.install(qndsim_modules())
    rounds = drive(wl, seconds, first)
    tracer.uninstall()
    if name == "sampling":
        # one more call, apart from the timed ones: tracemalloc slows every
        # small allocation the gate simulation makes
        tracemalloc.start()
        wl.call(first)
        observed["py_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return rounds, tracer.stats, observed


def provenance(seed: int, wl) -> dict:
    import qndsim

    out = {
        "qndsim": qndsim.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }
    if isinstance(wl, Sampling):
        digest = hashlib.sha256(b"".join(struct.pack("<dd", *x) for x in wl.stream))
        out["stream_sha256"] = digest.hexdigest()
        out["stream_rounds"] = len(wl.stream)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import qndsim

    if Path(qndsim.__file__).resolve().parent != ROOT / "src" / "qndsim":
        print(f"qndsim imported from {qndsim.__file__}, not from this checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    setup_scale = REF_NOMINAL_S / statistics.median(reference_s() for _ in range(2 * REF_WINDOW + 1))
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    out = {"ready": ready, "setup_scale": setup_scale}
    if args.trace:
        half = args.seconds / 2.0
        plain = drive(wl, half)
        traced, stats, observed = run_traced(args.workload, wl, half, len(plain))
        rounds = plain + traced
        out["per_layer"] = per_layer(args.workload, wl, plain, traced, stats, observed)
    else:
        rounds = drive(wl, args.seconds)
        out["end_to_end"] = end_to_end(args.workload, rounds)
    out["attempted"] = sum(r[1] for r in rounds)
    out["failed"] = sum(r[2] for r in rounds)
    out["provenance"] = provenance(args.seed, wl)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
