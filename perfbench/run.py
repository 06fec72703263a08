"""Benchmark of qndsim: one workload per run, end to end or traced per module.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The workloads (``perfbench/workloads.py``) are ``sweep``, ``optics``,
``sampling`` and ``cli``. Each runs in a fresh child process, one at a time,
with the BLAS thread pools pinned to one thread and qndsim taken from this
checkout's ``src/``. ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``setup_s`` is the median over several fresh processes
of the time from process start until the inputs are generated and every
entry point has been called once. Times are scaled to nominal host speed by a
reference computation timed in the same process (``workloads.REF_NOMINAL_S``);
the values as measured are printed next to them. ``--trace 1`` reports the per-module
metrics of a traced run. Each report is a few lines naming every metric with
its unit, then one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``. With ``--workload all`` the last line combines the workloads,
with metric names prefixed by the workload.

The exit code is 0 when the workloads ran, whether or not their outputs were
correct, and nonzero, with no JSON line, when they could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "optics", "sampling", "cli")
SETUP_RUNS = 5  # fresh processes timed for setup_s, the measured run included
RUN_SLACK_S = 110  # time a run may take beyond --seconds, so it ends within 3 minutes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one workload process; (start time, its JSON report)."""
    started = time.monotonic()
    # a session of its own, so a timeout also stops the CLI processes it runs
    with subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}): {err.strip()}")
    return started, json.loads(out.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + seconds + RUN_SLACK_S
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            started, report = worker([*base, "--setup-only"], deadline)
            setups.append((report["ready"] - started) * report["setup_scale"])
    args = [*base, "--seconds", str(seconds), "--trace", str(trace)]
    started, report = worker(args, deadline)
    if trace:
        report["metrics"] = report.pop("per_layer")
    else:
        setups.append((report["ready"] - started) * report["setup_scale"])
        report["metrics"] = dict(report.pop("end_to_end"), setup_s=statistics.median(setups))
    return report


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(name: str, report: dict, spec: list[dict]) -> dict:
    """Print every metric of ``spec`` by name with its unit; return them."""
    metrics = report["metrics"]
    out = {}
    print(f"== {name}: attempted {report['attempted']}, failed {report['failed']}, "
          f"failed_frac {fmt(report['failed'] / report['attempted'])}")
    for m in spec:
        value = metrics.get(m["name"], 0.0)
        note = ""
        if m["name"] == "invoke_ms_tail":
            note = f"  (p{metrics['tail_percentile']:.1f} of {metrics['invocations']} invocations)"
        elif "raw_" + m["name"] in metrics:
            note = f"  (as timed: {fmt(metrics['raw_' + m['name']])})"
        print(f"{name}  {m['name']} = {fmt(value)} {m['unit']}{note}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    if "host_scale" in metrics:
        print(f"{name}  host_scale = {fmt(metrics['host_scale'])} (nominal over measured reference time)")
    print(f"{name}  provenance = {json.dumps(report['provenance'], sort_keys=True)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "qndsim" / "__init__.py").is_file():
            raise BenchError(f"no qndsim sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = spec["per_layer" if args.trace else "end_to_end"]
        # compile once, so no timed set-up pays for bytecode compilation
        if not all(compileall.compile_dir(d, quiet=1) for d in (ROOT / "src", HERE)):
            raise BenchError("bytecode compilation failed")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, report in reports.items():
        shown = print_report(name, report, spec)
        if len(names) == 1:
            metrics = shown
        else:
            metrics.update({f"{name}.{k}": v for k, v in shown.items()})
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
