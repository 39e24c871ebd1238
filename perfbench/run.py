"""extlab benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload calibration --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every experiment goes through the public
CLI entry point `extlab.cli.main(["run", ...])` inside this one process
(worker processes are the estimator's own pool).  `--workload all` runs
every workload in turn.

--trace 0 measures the end-to-end metrics with tracing off:
  run_s             median wall time of one pass over the workload's
                    experiments, after a warm-up pass
  replicates_per_s  Monte Carlo replicates of one pass / run_s
  setup_s           median, over fresh interpreters, of `import extlab`,
                    loading and validating the configs, `build_system`
                    and `validate_n`: what a user pays before the first draw
  peak_rss_mb       peak resident memory of this process or of its
                    largest worker process
--trace 1 runs the passes in-process with the tracer installed and reports
per-layer numbers (tracer.py) and the tracing overhead.

Every experiment of every pass is checked: exit code 0, no traceback,
output byte-identical to the warm-up pass, and |z| against the reference
curve within the experiment's bound.  With --trace 1 the warm-up runs
in-process and the pass at the workload's worker count must match it
byte for byte (the worker-count contract).  An experiment that fails a
check counts in `failed`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record
(environment, every pass time, every failure, and for --trace 1 the
spans) goes to perfbench/out/.
"""

from __future__ import annotations

import os

# one BLAS thread, so workers=2 measures the process pool, not oversubscription
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"      # metric names and units

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Experiment, Workload  # noqa: E402

_PERCENTILES = (99, 95, 90, 75, 50)


# ---------------------------------------------------------------------------
# one experiment, one pass

@dataclass
class Outcome:
    rc: int | None
    text: str
    stderr: str
    error: str = ""          # traceback of an exception that escaped main


@dataclass
class Pass:
    seconds: float
    outcomes: dict[str, Outcome]
    problems: dict[str, list[str]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems.values() if p)


def run_experiment(config_path: Path, seed: int, workers: int) -> Outcome:
    """`extlab run` in this process, capturing its stdout and stderr."""
    from extlab import cli

    out, err = io.StringIO(), io.StringIO()
    argv = ["run", "--config", str(config_path), "--seed", str(seed),
            "--workers", str(workers)]
    rc, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # counted as a failed experiment, never fatal
            error = traceback.format_exc()
    return Outcome(rc, out.getvalue(), err.getvalue(), error)


def summary_of(text: str) -> dict | None:
    """The `# summary:` record of a CSV result, or None."""
    for line in reversed(text.splitlines()):
        if line.startswith("# summary: "):
            try:
                return json.loads(line[len("# summary: "):])
            except json.JSONDecodeError:
                return None
    return None


def check(exp: Experiment, outcome: Outcome, reference: str | None) -> list[str]:
    """Why this outcome is wrong; empty when it passes every check."""
    problems = []
    if outcome.error:
        problems.append("exception: " + outcome.error.strip().splitlines()[-1])
    elif outcome.rc != 0:
        problems.append(f"exit code {outcome.rc}")
    if "Traceback" in outcome.stderr:
        problems.append("traceback on stderr")
    if problems:
        return problems
    summary = summary_of(outcome.text)
    if summary is None:
        return ["no summary record in the result"]
    if reference is not None and outcome.text != reference:
        problems.append("result differs from the in-process reference pass")
    if exp.max_abs_z is not None:
        z = summary.get("max_abs_z")
        if not isinstance(z, (int, float)) or not abs(z) <= exp.max_abs_z:
            problems.append(f"max_abs_z {z!r} above the bound {exp.max_abs_z}")
    return problems


def run_pass(workload: Workload, configs: dict[str, Path], seed: int, workers: int,
             reference: dict[str, str] | None, tracer=None) -> Pass:
    outcomes = {}
    t0 = time.perf_counter()
    for exp in workload.experiments:
        if tracer is not None:
            tracer.experiment = exp.name
        outcomes[exp.name] = run_experiment(configs[exp.name], seed, workers)
    seconds = time.perf_counter() - t0
    p = Pass(seconds, outcomes)
    for exp in workload.experiments:
        ref = None if reference is None else reference[exp.name]
        p.problems[exp.name] = check(exp, outcomes[exp.name], ref)
    return p


def write_configs(workload: Workload, directory: Path) -> dict[str, Path]:
    paths = {}
    for exp in workload.experiments:
        path = directory / f"{workload.name}__{exp.name}.json"
        path.write_text(json.dumps(exp.config, indent=2, sort_keys=True) + "\n")
        paths[exp.name] = path
    return paths


# ---------------------------------------------------------------------------
# metrics

def timing_summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "samples": len(samples)}
    for p in _PERCENTILES:
        if len(samples) * (100 - p) / 100.0 >= 10:
            qs = statistics.quantiles(samples, n=100, method="inclusive")
            out[f"p{p}"] = qs[p - 1]
            break
    return out


def measure_setup(configs: dict[str, Path], repeats: int) -> list[float]:
    """Set-up seconds of `repeats` fresh interpreters (setup_probe.py)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *map(str, configs.values())],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # ru_maxrss is in KiB on Linux


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "threads_env": {k: os.environ[k] for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    return env


# ---------------------------------------------------------------------------
# runs

@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def count(self, label: str, p: Pass) -> None:
        self.attempted += len(p.problems)
        self.failed += p.failed
        for name, problems in p.problems.items():
            for problem in problems:
                self.failures.append(f"{label} {name}: {problem}")


def warm_up(workload: Workload, configs, seed: int, workers: int,
            result: RunResult) -> dict[str, str]:
    """First pass; its outputs are the reference every other pass must match."""
    p = run_pass(workload, configs, seed, workers, None)
    result.count("warm-up", p)
    result.record["warm_up_s"] = p.seconds
    return {name: o.text for name, o in p.outcomes.items()}


def measure(workload: Workload, configs, seed: int, seconds: float) -> RunResult:
    result = RunResult()
    reference = warm_up(workload, configs, seed, workload.workers, result)
    times = []
    start = time.perf_counter()
    while True:
        p = run_pass(workload, configs, seed, workload.workers, reference)
        result.count(f"pass {len(times) + 1}", p)
        times.append(p.seconds)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    rss = peak_rss_mb()      # before the set-up probes add children of their own
    setup = measure_setup(configs, repeats=5)
    run = timing_summary(times)
    result.metrics = {
        "run_s": run["median"],
        "replicates_per_s": workload.replicates / run["median"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    result.record.update(run_s=run, pass_s=times, setup_s=setup)
    return result


def _median(values: list):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure_traced(workload: Workload, configs, seed: int, seconds: float) -> RunResult:
    import tracer as tracing

    result = RunResult()
    # in-process reference: the traced passes and the pool pass must match it
    reference = warm_up(workload, configs, seed, 0, result)
    tr = tracing.Tracer().install()
    try:
        plain, traced, layers, records = [], [], [], []
        start = time.perf_counter()
        while True:
            p = run_pass(workload, configs, seed, 0, reference)
            result.count(f"untraced pass {len(plain) + 1}", p)
            plain.append(p.seconds)
            tr.enabled = True
            p = run_pass(workload, configs, seed, 0, reference, tracer=tr)
            tr.enabled = False
            result.count(f"traced pass {len(traced) + 1}", p)
            traced.append(p.seconds)
            spans = tr.take()
            layers.append(tracing.layer_metrics(spans))
            records += tracing.span_records(spans, f"traced pass {len(traced)}")
            per_pair = (time.perf_counter() - start) / len(plain)
            if time.perf_counter() - start + per_pair > seconds:
                break
        methods = tracing.methods_by_experiment(spans)
        pools = tracing.pools_by_experiment(spans)
        # the worker pool's parent side: spans of the estimator, not of the workers
        pool_phase_s = None
        if workload.workers > 1:
            tr.enabled = True
            p = run_pass(workload, configs, seed, workload.workers, reference, tracer=tr)
            tr.enabled = False
            result.count("traced pool pass", p)
            pool_spans = tr.take()
            pool_phase_s = tracing.phase_split(pool_spans)[1]
            records += tracing.span_records(pool_spans, "traced pool pass")
    finally:
        tr.uninstall()

    metrics = {k: _median([m[k] for m in layers]) for k in layers[0]}
    if pool_phase_s is not None:
        metrics["estimator.replicate_phase_s"] = pool_phase_s
    phase_s = metrics["estimator.replicate_phase_s"]
    busy = metrics["estimator.replicate_sampling_s"]
    workers = max(workload.workers, 1)
    metrics["estimator.parallel_efficiency"] = busy / (workers * phase_s) if phase_s > 0 else 0.0
    metrics["cli.result_bytes"] = sum(len(t.encode()) for t in reference.values())
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    result.metrics = metrics
    result.record.update(untraced_pass_s=plain, traced_pass_s=traced, methods=methods,
                         pools=pools, tracer_missing=tr.missing, spans=records)
    return result


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "extlab" / "__init__.py").is_file():
        print(f"no extlab sources under {SRC}: run from the root of an extlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    attempted = failed = 0
    metrics = {}
    with tempfile.TemporaryDirectory(dir=OUT, prefix="configs-") as tmp:
        for name in names:
            workload = WORKLOADS[name]
            configs = write_configs(workload, Path(tmp))
            measure_fn = measure_traced if args.trace else measure
            result = measure_fn(workload, configs, args.seed, args.seconds)
            attempted += result.attempted
            failed += result.failed
            share = result.failed / result.attempted
            for metric, value in result.metrics.items():
                print(f"{name} {metric} = {value:.6g} {units[metric]}")
            print(f"{name} failed_share = {share:.6g} ratio "
                  f"({result.failed} of {result.attempted} experiment runs)")
            if "run_s" in result.record:
                run = result.record["run_s"]
                tail = next((f"p{p} {run[f'p{p}']:.6g} s" for p in _PERCENTILES
                             if f"p{p}" in run), "no tail percentile (under 20 passes)")
                print(f"{name} run_s: median {run['median']:.6g} s, {tail}, "
                      f"{run['samples']} passes")
            for exp, pools in result.record.get("pools", {}).items():
                shares = ", ".join(f"{p['distinct']}/{p['size']}" for p in pools)
                print(f"{name} pool distinct/size of {exp}: {shares}")
            for line in result.failures:
                print(f"{name} FAILED {line}")
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "environment": env,
                      "attempted": result.attempted, "failed": result.failed,
                      "failures": result.failures,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in result.metrics.items()},
                      **result.record}
            out = OUT / f"{name}_seed{args.seed}_trace{args.trace}.json"
            out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, value in result.metrics.items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
