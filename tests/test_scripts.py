"""The example scripts run end to end on small sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("argv", [
    ["convergence_sweep.py", "--decades", "1", "--replicates", "64"],
    ["curve_gallery.py", "--n", "100", "--replicates", "64"],
    ["index_separation.py", "--replicates", "64"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    proc = subprocess.run([sys.executable, str(_ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    # a zero error bar on the curve index means batches were dropped
    curve_lines = [ln for ln in proc.stdout.splitlines() if "curve index" in ln]
    assert all("+- 0.0000" not in ln for ln in curve_lines), curve_lines


def test_readme_quick_start_runs():
    # the first python block of README.md, as a reader would paste it
    text = (_ROOT / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "theta_def2" in proc.stdout


def _result(theta, psi):
    return {"rows": [{"s": 0.1, "psi_hat": psi[0]}, {"s": 0.9, "psi_hat": psi[1]}],
            "summary": {"indices": {"theta_def2": theta}, "system": "dup"}}


def test_result_check_diff(tmp_path):
    # `result_check.py run` (28 full CLI runs, ~11 s on 2 CPUs) stays out of the suite
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        old: {"a.w0": _result(0.5, [0.1, 0.9]), "a.w2": _result(0.5, [0.1, 0.9]),
              "b.w0": _result(0.4, [0.2, 0.8]), "b.w2": _result(0.4, [0.2, 0.8])},
        new: {"a.w0": _result(0.5, [0.1, 0.9]), "a.w2": _result(0.5, [0.1, 0.9]),
              "b.w0": _result(0.5, [0.2, 0.72]), "b.w2": _result(0.5, [0.2, 0.8])},
    }
    for root, results in files.items():
        root.mkdir()
        for name, payload in results.items():
            (root / f"{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    proc = subprocess.run([sys.executable, str(_ROOT / "scripts" / "result_check.py"),
                           "diff", str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    lines = proc.stdout.splitlines()
    assert "a.w0.json: identical" in lines and "a.w2.json: identical" in lines
    b0 = lines[lines.index("b.w0.json: changed") + 1:][:2]
    assert b0 == ["    rows.psi_hat: 1 value(s), largest relative drift 0.1",
                  "    summary.indices.theta_def2: 1 value(s), largest relative drift 0.2"]
    assert "b.w2.json: changed" in lines
    assert lines[-1] == f"WORKER MISMATCH in {new}: b differs between workers (0, 2)"
    assert proc.returncode == 1


_SETUP = """
import json, sys
import extlab
from extlab import cli
for path in sys.argv[1:]:
    cfg, raw = cli._load_config(path)
    cli._validate_config(cfg, path, raw)
    cli.build_system(cfg["system"]).validate_n(int(cfg["n"]))
print(json.dumps(sorted(m for m in ("scipy", "concurrent.futures.process") if m in sys.modules)))
"""


def test_setup_path_loads_neither_scipy_nor_the_process_pool(tmp_path):
    # what a run does before its first draw, in a fresh interpreter: the shipped
    # configs and the calibration benchmark's systems import neither
    sys.path.insert(0, str(_ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(_ROOT / "perfbench"))
    paths = sorted(str(p) for p in (_ROOT / "scripts" / "configs").glob("*.json"))
    for exp in WORKLOADS["calibration"].experiments:
        path = tmp_path / f"{exp.name}.json"
        path.write_text(json.dumps(exp.config))
        paths.append(str(path))
    assert len(paths) == 7
    proc = subprocess.run([sys.executable, "-c", _SETUP, *paths], capture_output=True,
                          text=True, env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
