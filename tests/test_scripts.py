"""Smoke tests of the experiment scripts, each run as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("strength_sweep.py", ["--points", "5", "--out", "sweep.csv"], "wrote 5 rows to sweep.csv"),
        ("optics_demo.py", [], "variable-strength scan"),
        ("weak_value_scan.py", ["--shots", "10000"], "Monte-Carlo check at gamma = 0.8:"),
        ("optics_demo.py", ["--eta", "0.2"], "variable-strength scan"),
    ],
)
def test_script_runs(tmp_path, script, args, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
