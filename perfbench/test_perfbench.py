"""The benchmark's own checks, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs end to end with at most 2e5 replicates per experiment,
smaller sampler stages and no `def2_fit` scan; the rest of the file shows that a corrupted, mismatched
or failing result is counted as failed instead of passing.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 11
_SMALL_N = {"branching_heredity": 8, "power_law_graph": 400}


def tiny(workload: Workload) -> Workload:
    exps = []
    for exp in workload.experiments:
        cfg = copy.deepcopy(exp.config)
        cfg["replicates"] = min(cfg["replicates"], 200_000)
        cfg["n"] = _SMALL_N.get(exp.name, cfg["n"])
        cfg["analyses"] = [a for a in cfg["analyses"] if a != "def2_fit"]
        exps.append(dataclasses.replace(exp, config=cfg))
    return dataclasses.replace(workload, experiments=tuple(exps))


@pytest.fixture
def configs_for(tmp_path):
    return lambda workload: run.write_configs(workload, tmp_path)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name, configs_for):
    workload = tiny(WORKLOADS[name])
    result = run.measure(workload, configs_for(workload), SEED, seconds=0.0)
    assert result.failures == []
    assert result.failed == 0
    assert result.attempted == 2 * len(workload.experiments)   # warm-up + one pass
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in result.metrics.values())


def test_traced_run_reports_every_layer_metric(configs_for):
    workload = tiny(WORKLOADS["samplers"])
    result = run.measure_traced(workload, configs_for(workload), SEED, seconds=0.0)
    assert result.failed == 0
    assert set(result.metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert result.record["tracer_missing"] == []
    m = result.metrics
    assert m["systems.sample_batch_calls"] == 2 * 64
    # branching's nu pool (few distinct sizes) and the graph's marginal pool
    assert m["systems.pool_size"] == 2 * 200_000
    assert 200_000 < m["systems.pool_distinct"] < m["systems.pool_size"]
    assert m["sampling.variates"] > 0
    assert m["estimator.replicate_phase_s"] > 0


def _one_outcome(configs_for, name="closed_forms"):
    workload = tiny(WORKLOADS[name])
    exp = workload.experiments[0]
    outcome = run.run_experiment(configs_for(workload)[exp.name], SEED, 0)
    assert run.check(exp, outcome, outcome.text) == []
    return exp, outcome, workload


def test_corrupted_result_counts_as_failed(configs_for):
    exp, outcome, _ = _one_outcome(configs_for)
    lines = outcome.text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    fields = lines[row].split(",")
    fields[2] = "0.5" if fields[2] != "0.5" else "0.25"      # psi_hat
    lines[row] = ",".join(fields)
    corrupted = dataclasses.replace(outcome, text="".join(lines))
    assert run.check(exp, corrupted, outcome.text) != []
    truncated = dataclasses.replace(outcome, text=outcome.text.split("# summary")[0])
    assert run.check(exp, truncated, None) == ["no summary record in the result"]


def test_mismatched_result_counts_as_failed(configs_for):
    exp, outcome, workload = _one_outcome(configs_for)
    other = run.run_experiment(configs_for(workload)[exp.name], SEED + 1, 0)
    assert run.check(exp, other, None) == []
    assert run.check(exp, other, outcome.text) == [
        "result differs from the in-process reference pass"]


def test_z_bound_and_exit_code_count_as_failed(configs_for):
    exp, outcome, _ = _one_outcome(configs_for)
    strict = dataclasses.replace(exp, max_abs_z=1e-12)
    assert "above the bound" in run.check(strict, outcome, None)[0]
    assert run.check(exp, dataclasses.replace(outcome, rc=1), None) == ["exit code 1"]
    with_tb = dataclasses.replace(outcome, stderr="Traceback (most recent call last):\n")
    assert run.check(exp, with_tb, None) == ["traceback on stderr"]


def test_failing_experiment_is_counted_not_fatal(configs_for, monkeypatch):
    base = tiny(WORKLOADS["closed_forms"]).experiments[0]
    cfg = dict(base.config, system={"kind": "no_such_system"})
    workload = Workload("broken", 0, (dataclasses.replace(base, config=cfg),))
    p = run.run_pass(workload, configs_for(workload), SEED, 0, None)
    assert p.failed == 1
    assert p.problems == {base.name: ["exit code 2"]}

    from extlab import cli

    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", crash)
    outcome = run.run_experiment(Path("unused.json"), SEED, 0)
    assert run.check(base, outcome, None) == ["exception: RuntimeError: boom"]


def test_pass_that_disagrees_with_the_reference_is_counted(configs_for, monkeypatch):
    workload = tiny(WORKLOADS["closed_forms"])
    configs = configs_for(workload)
    reference = run.warm_up(workload, configs, SEED, 0, run.RunResult())
    real = run.run_experiment

    def flaky(config_path, seed, workers):
        outcome = real(config_path, seed, workers)
        return dataclasses.replace(outcome, text=outcome.text.replace("0.", "1.", 1))

    monkeypatch.setattr(run, "run_experiment", flaky)
    p = run.run_pass(workload, configs, SEED, 0, reference)
    assert p.failed == len(workload.experiments)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "closed_forms",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
