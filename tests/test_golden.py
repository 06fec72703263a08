"""Golden outputs of the CLI, pinned against the files in ``tests/golden``.

``cnot_sweep_50.csv`` is the standard output of
``qndsim cnot-sweep --gamma-points 50 --format csv``; ``reports.json`` maps
each command line to the ``results`` of its JSON report. The header, the
keys and every string and integer must match exactly. Floats are compared
to 1e-12, so that a last-bit difference on other hardware does not fail
the test; the CSV values, printed to 12 significant digits, also get one
unit of their last printed digit. The sampled weak value and its standard
error are derived from integer counts and must match exactly.
"""

import json
import math
from pathlib import Path

import pytest

from qndsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = json.loads((GOLDEN / "reports.json").read_text())
FLOAT_ATOL = 1e-12


def run_cli(capsys, command):
    assert main(command.split()) == 0
    return capsys.readouterr().out


def assert_matches(got, want, path="results"):
    """``got`` equals ``want`` in structure, keys, strings, booleans and
    integers, and in floats to FLOAT_ATOL."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= FLOAT_ATOL, (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_cnot_sweep_csv(capsys):
    got = run_cli(capsys, "cnot-sweep --gamma-points 50 --format csv").split("\n")
    want = (GOLDEN / "cnot_sweep_50.csv").read_text().split("\n")
    assert got[0] == want[0]
    assert len(got) == len(want) == 53 and got[-2:] == want[-2:] == ["", ""]
    for row, (g_line, w_line) in enumerate(zip(got[1:-2], want[1:-2]), start=1):
        g, w = g_line.split(","), w_line.split(",")
        assert len(g) == len(w), row
        for field, (a, b) in zip(want[0].split(","), zip(map(float, g), map(float, w))):
            last_digit = 10.0 ** (math.floor(math.log10(abs(b))) - 11) if b else 0.0
            assert abs(a - b) <= FLOAT_ATOL + last_digit, (row, field, a, b)


@pytest.mark.parametrize("command", list(REPORTS))
def test_report_results(capsys, command):
    results = json.loads(run_cli(capsys, command))["results"]
    assert_matches(results, REPORTS[command])
    if "sampled" in results:
        for key in ("value", "stderr"):
            assert results["sampled"][key] == REPORTS[command]["sampled"][key], key
