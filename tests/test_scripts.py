"""The example scripts run end to end on small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["convergence_sweep.py", "--decades", "1", "--replicates", "64"],
    ["curve_gallery.py", "--n", "100", "--replicates", "64"],
    ["index_separation.py", "--replicates", "64"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(_ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # a zero error bar on the curve index means batches were dropped
    curve_lines = [ln for ln in proc.stdout.splitlines() if "curve index" in ln]
    assert all("+- 0.0000" not in ln for ln in curve_lines), curve_lines
