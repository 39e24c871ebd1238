"""Command-line flows: run, compare, sweep, validation exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import extlab
from extlab import cli, estimator
from extlab.normalizer import SolverError

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(extlab.__file__)))

_BASE = {
    "system": {"kind": "exchangeable_copula",
               "generator": {"family": "clayton", "alpha": 1.0}},
    "n": 200,
    "replicates": 2000,
    "s_grid": {"start": 0.1, "stop": 0.9, "count": 5},
    "seed": 4242,
    "analyses": ["psi", "partial_indices", "tail_indices", "compare"],
}


def _cfg(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(_BASE))
    cfg.update(overrides)
    for key in [k for k, v in overrides.items() if v is None]:
        cfg.pop(key)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def _run(*argv, env_extra=None):
    env = os.environ.copy()
    env.pop("EXTLAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "extlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def _main(*argv, monkeypatch=None, env_seed=None):
    if monkeypatch is not None:
        if env_seed is None:
            monkeypatch.delenv("EXTLAB_SEED", raising=False)
        else:
            monkeypatch.setenv("EXTLAB_SEED", env_seed)
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    """Three runs of one config: two worker counts and a JSON rendering."""
    root = tmp_path_factory.mktemp("cli")
    cfg = _cfg(root)
    paths = {"cfg": cfg, "w1": root / "w1.csv", "w3": root / "w3.csv",
             "json": root / "run.json"}
    for args, out in ((("--workers", "1"), paths["w1"]),
                      (("--workers", "3"), paths["w3"])):
        proc = _run("run", "--config", str(cfg), *args, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    proc = _run("run", "--config", str(cfg), "--format", "json",
                "--out", str(paths["json"]))
    assert proc.returncode == 0, proc.stderr
    return paths


# ---------------------------------------------------------------------------
# run

def test_list_systems():
    proc = _run("list-systems")
    assert proc.returncode == 0
    for kind in ("exchangeable_copula", "random_threshold", "power_law_graph"):
        assert kind in proc.stdout


def test_run_stdout_csv(tmp_path):
    proc = _run("run", "--config", str(_cfg(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "# extlab result"
    assert "s,u_n,psi_hat,stderr,psi_ref,z" in lines
    data = [ln for ln in lines if ln and not ln.startswith(("#", "s,"))]
    assert len(data) == 5
    for ln in data:
        s, u_n, psi_hat, stderr, psi_ref, z = map(float, ln.split(","))
        assert 0.0 < s < 1.0 and 0.0 < u_n < 1.0
        assert abs(z) < 6.0  # exact reference available for this family
    summary = json.loads([ln for ln in lines if ln.startswith("# summary: ")][0][11:])
    assert len(summary["config_sha256"]) == 64
    assert summary["solver_method"] == "closed_form"
    assert "runtime" in proc.stderr


def test_workers_do_not_change_bytes(canonical):
    assert canonical["w1"].read_bytes() == canonical["w3"].read_bytes()


def test_json_format_and_shared_hash(canonical):
    payload = json.loads(canonical["json"].read_text())
    assert len(payload["rows"]) == 5
    idx = payload["summary"]["indices"]
    for key in ("theta_minus", "theta_plus", "theta0", "theta1",
                "grid_mean_slope", "isotonic_violation"):
        assert key in idx
    # format and destination are execution details: same provenance hash
    csv_summary = json.loads(
        [ln for ln in canonical["w1"].read_text().splitlines()
         if ln.startswith("# summary: ")][0][11:]
    )
    assert payload["summary"]["config_sha256"] == csv_summary["config_sha256"]
    assert payload["summary"]["max_abs_z"] == csv_summary["max_abs_z"]


def test_seed_sources(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path, seed=None, replicates=1000, n=50)
    assert _main("run", "--config", str(cfg), "--seed", "777",
                 monkeypatch=monkeypatch) == 0
    assert "# seed: 777" in capsys.readouterr().out
    assert _main("run", "--config", str(cfg),
                 monkeypatch=monkeypatch, env_seed="778") == 0
    assert "# seed: 778" in capsys.readouterr().out
    assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 2
    assert "no seed" in capsys.readouterr().err
    assert _main("run", "--config", str(cfg),
                 monkeypatch=monkeypatch, env_seed="not-a-number") == 2
    assert "EXTLAB_SEED" in capsys.readouterr().err


def test_cli_seed_overrides_config(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path, replicates=1000, n=50)
    assert _main("run", "--config", str(cfg), "--seed", "9",
                 monkeypatch=monkeypatch) == 0
    assert "# seed: 9" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# validation exit codes

@pytest.mark.parametrize(
    "overrides,needle",
    [
        ({"system": {"kind": "weibull"}}, "unknown system kind"),
        ({"replicates": 10}, "below minimum"),
        ({"s_grid": [0.9, 0.1]}, "ascending"),
        ({"s_grid": [0.5, 1.5]}, "strictly in (0, 1)"),
        ({"s_grid": {"start": 0.1, "stop": 0.9}}, "start/stop/count"),
        ({"frobnicate": 1}, "unknown config fields"),
        ({"analyses": ["psi", "bogus"]}, "unknown analyses"),
        ({"n": None}, "missing required field"),
        ({"format": "xml"}, "format must be csv or json"),
        ({"def2_bounds": [2.0, 1.0]}, "def2_bounds"),
        ({"seed": "abc"}, "seed must be an integer"),
        ({"n": "abc"}, "n must be an integer"),
        ({"n": 100.7}, "n must be an integer"),
        ({"workers": "two"}, "workers must be an integer"),
        ({"def2_bounds": ["a", 2]}, "def2_bounds"),
        ({"system": {"kind": "duplicated_iid", "m": 2.7}}, "must be an integer"),
        ({"system": {"kind": "mixture_spike", "gamma": "abc"}}, "field 'gamma'"),
        ({"system": {"kind": "exchangeable_copula",
                     "generator": {"family": "frank", "alpha": "x"}}}, "field 'generator'"),
        ({"system": {"kind": "branching_heredity", "offspring": [1, 2],
                     "gamma": 1.0, "a": 0.5}}, "field 'offspring'"),
        ({"s_grid": {"start": "a", "stop": 0.9, "count": 3}}, "bad s_grid value"),
        ({"s_grid": {"start": 0.1, "stop": 0.9, "count": 2.5}}, "must be an integer"),
        ({"out": 7}, "out must be a file path string"),
        ({"analyses": "psi"}, "analyses must be a list"),
        ({"system": {"kind": "exchangeable_copula",
                     "generator": {"family": "frank", "alpha": 40}}}, "too large"),
        ({"out": "no_such_dir/x.csv"}, "does not exist"),
        # JSON readers accept NaN and Infinity: every float field refuses them
        ({"system": {"kind": "exchangeable_copula",
                     "generator": {"family": "clayton", "alpha": math.nan}}}, "finite number"),
        ({"system": {"kind": "exchangeable_copula",
                     "generator": {"family": "clayton", "alpha": math.inf}}}, "finite number"),
        ({"system": {"kind": "exchangeable_copula",
                     "generator": {"family": "gumbel_hougaard", "alpha": math.nan}}},
         "finite number"),
        ({"system": {"kind": "exchangeable_copula",
                     "generator": {"family": "gumbel_hougaard", "alpha": math.inf}}},
         "finite number"),
        ({"system": {"kind": "branching_heredity", "offspring": {"1": math.nan, "3": 0.5},
                     "gamma": 1.0, "a": 0.5}}, "finite number"),
        ({"system": {"kind": "mixture_spike", "gamma": math.inf}}, "finite number"),
        ({"system": {"kind": "power_law_graph", "beta": 3.5, "x_min": math.inf}},
         "finite number"),
        ({"def2_bounds": [0.1, math.inf]}, "def2_bounds"),
        ({"seed": -1}, "seed must be an integer"),
        ({"workers": -5}, "workers must be 0 or more"),
        ({"workers": True}, "workers must be an integer"),
        ({"n": 1e30}, "within int64"),
        ({"system": {"kind": "duplicated_iid", "m": 10**30}}, "within int64"),
        # numbers only: a JSON string or boolean is not read as one
        ({"n": "16"}, "n must be an integer"),
        ({"n": "1_000"}, "n must be an integer"),
        ({"system": {"kind": "duplicated_iid", "m": "3"}}, "must be an integer"),
        ({"system": {"kind": "mixture_spike", "gamma": True}}, "must be a number"),
        ({"s_grid": {"start": "0.1", "stop": 0.9, "count": 3}}, "bad s_grid value"),
        ({"s_grid": [0.2, "0.5"]}, "bad s_grid value"),
        # an offspring size is a JSON key, so a string, but of ASCII digits alone
        ({"system": {"kind": "branching_heredity", "offspring": {"1_0": 0.5, "1": 0.5},
                     "gamma": 1.0, "a": 0.5}}, "field 'offspring'"),
        ({"system": {"kind": "branching_heredity", "offspring": {" 3 ": 0.5, "1": 0.5},
                     "gamma": 1.0, "a": 0.5}}, "field 'offspring'"),
        ({"system": {"kind": "branching_heredity", "offspring": {"+3": 0.5, "1": 0.5},
                     "gamma": 1.0, "a": 0.5}}, "field 'offspring'"),
    ],
)
def test_invalid_configs_exit_2(tmp_path, capsys, monkeypatch, overrides, needle):
    cfg = _cfg(tmp_path, **overrides)
    assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert f"{cfg}:" in err  # message carries file and line


@pytest.mark.parametrize(
    "argv,env_seed,needle",
    [
        (("--seed", "-1"), None, "--seed: seed must be an integer"),
        (("--workers", "-5"), None, "--workers: workers must be 0 or more"),
        ((), "-4", "EXTLAB_SEED: seed must be an integer"),
        ((), "not-a-number", "EXTLAB_SEED: seed must be an integer"),
    ],
)
def test_invalid_flags_and_environment_exit_2(tmp_path, capsys, monkeypatch,
                                              argv, env_seed, needle):
    # the message names the flag or variable, not the config's (valid) "seed" line
    cfg = _cfg(tmp_path, seed=None if env_seed else 3)
    assert _main("run", "--config", str(cfg), *argv,
                 monkeypatch=monkeypatch, env_seed=env_seed) == 2
    err = capsys.readouterr().err
    assert err.startswith(needle)
    assert str(cfg) not in err


def test_stable_size_def2_fit_is_finite(tmp_path, capsys, monkeypatch):
    # at beta = 0.2 some sizes n S pass 2^63, where an int64 cast wrapped them negative
    cfg = _cfg(tmp_path, system={"kind": "stable_size_gumbel", "beta": 0.2,
                                 "gamma": math.log(2.0)},
               n=10_000, seed=1, replicates=1000, s_grid=None,
               analyses=["psi", "def2_fit"], format="json")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 0
    idx = json.loads(capsys.readouterr().out)["summary"]["indices"]
    assert isinstance(idx["def2_discrepancy"], float) and math.isfinite(idx["def2_discrepancy"])
    assert 0.0 < idx["theta_def2"] < 1.0


def test_random_threshold_with_a_far_root_runs(tmp_path, capsys, monkeypatch):
    # Gamma(0.01) puts f^-1(s) many binary orders below its bracket, and at
    # n = 100 the thresholds for s = 0.6 and 0.9 round to 1: G reads 1 there
    cfg = _cfg(tmp_path, system={"kind": "random_threshold",
                                 "law": {"kind": "gamma", "shape": 0.01}},
               n=100, replicates=1000, s_grid=[0.3, 0.6, 0.9])
    assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 3
    err = capsys.readouterr().err
    assert "calibration residual" in err and "Traceback" not in err


@pytest.mark.parametrize("system,n,s_grid", [
    ({"kind": "exchangeable_copula", "generator": {"family": "clayton", "alpha": 1.0}}, 10**17,
     _BASE["s_grid"]),
    ({"kind": "geometric_threshold", "eps": 1e-20}, 100, _BASE["s_grid"]),
    ({"kind": "stable_size_gumbel", "beta": 0.5, "gamma": 0.5}, 10**17, [0.3, 0.6, 0.9]),
], ids=["copula_n_1e17", "geometric_eps_1e-20", "stable_size_n_1e17"])
def test_closed_form_threshold_that_rounds_to_one_exits_3(tmp_path, capsys, monkeypatch,
                                                          system, n, s_grid):
    # u_n = 1 in double precision: G(F(u_n)) = 1 or inf, far from every s; the
    # stable size takes its root, each within 2^-54 of 1 at n = 1e17
    cfg = _cfg(tmp_path, system=system, n=n, s_grid=s_grid, replicates=1000)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 3
    err = capsys.readouterr().err
    assert "calibration residual" in err and "Traceback" not in err
    # the solver message comes alone, with no numpy warning ahead of it
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)] == []


def test_def2_refusal_is_located_before_work(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "estimate_psi", boom)
    cfg = _cfg(tmp_path, system={"kind": "power_law_graph", "beta": 3.5},
               analyses=["psi", "def2_fit"])
    assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 2
    lineno = next(i + 1 for i, ln in enumerate(cfg.read_text().splitlines())
                  if '"def2_fit"' in ln)
    err = capsys.readouterr().err
    assert err.startswith(f"{cfg}:{lineno}: ") and "def2_fit needs a closed-form marginal" in err



def test_size_jitter_over_a_tilted_base_is_located(tmp_path, capsys, monkeypatch):
    # the jitter reaches nu = 1, where no tilt is defined: refused at build, not mid-run
    cfg = _cfg(tmp_path, n=4, replicates=1000, system={
        "kind": "size_jitter", "base": {"kind": "exchangeable_copula", "generator": {
            "family": "frank", "alpha": 2.0, "tilt_gamma": 0.7}}})
    assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 2
    lineno = next(i + 1 for i, ln in enumerate(cfg.read_text().splitlines())
                  if '"size_jitter"' in ln)
    err = capsys.readouterr().err
    assert err.startswith(f"{cfg}:{lineno}: ") and "tilted" in err and "Traceback" not in err


_SCIPY_PROBE_RUN = """
import json, sys
from extlab import cli
with open(sys.argv[1], "w") as fh:
    json.dump(json.loads(sys.argv[3]), fh)
code = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, json.dumps([m for m in ("scipy", "scipy.special", "scipy.optimize")
                        if m in sys.modules]))
"""


def _workload_config(workload, name, n=None, **system):
    """The benchmark experiment's config at a test's size, n and system fields replaced."""
    sys.path.insert(0, os.path.join(os.path.dirname(_SRC), "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    cfg = next(e for e in WORKLOADS[workload].experiments if e.name == name).config
    return dict(cfg, n=n or cfg["n"], system=dict(cfg["system"], **system),
                replicates=1000 if workload == "samplers" else 2000, seed=1, format="json")


@pytest.mark.parametrize("workload, name, changes, loaded", [
    # the calibration workload's size jitter: the exact size law takes its normal
    # tails from math.erfc, and scipy would add ~16 MB to the run's peak RSS
    ("calibration", "size_jitter", {}, []),
    # closed_forms' threshold runs invert f and the spike's marginal with the
    # lab's own bracketed root, where scipy.optimize would add ~25 MB more; the
    # spike's curve takes Newton's method and the Pareto law's f its own 2F1 series,
    # where scipy.special would add ~15 MB
    ("closed_forms", "two_point_threshold", {}, []),
    ("closed_forms", "mixture_spike", {}, []),
    ("closed_forms", "pareto_threshold", {}, []),
    # the samplers: the graph's degree law is the lab's own Hurwitz zeta, and
    # branching at gamma = 1 inverts the Cauchy law by tan; gamma = 2 still
    # takes ndtr and ndtri from scipy.special
    ("samplers", "branching_heredity", {}, []),
    ("samplers", "power_law_graph", {}, []),
    ("samplers", "branching_heredity", {"n": 8, "gamma": 2.0}, ["scipy", "scipy.special"]),
], ids=["size_jitter", "two_point_threshold", "mixture_spike", "pareto_threshold",
        "branching_heredity", "power_law_graph", "branching_gamma_2"])
def test_run_loads_only_the_scipy_it_needs(tmp_path, workload, name, changes, loaded):
    cfg = _workload_config(workload, name, **changes)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE_RUN, str(tmp_path / "cfg.json"),
                           str(tmp_path / "out.json"), json.dumps(cfg)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              filter(None, [_SRC, os.environ.get("PYTHONPATH")]))),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, modules = proc.stdout.split(maxsplit=1)
    assert (code, json.loads(modules)) == ("0", loaded)
    if name == "size_jitter":
        summary = json.loads((tmp_path / "out.json").read_text())
        assert summary["summary"]["solver_method"] == "deterministic_root"


_THRESHOLD_SYSTEMS = pytest.mark.parametrize("system", [
    {"kind": "random_threshold", "law": {"kind": "two_point", "delta": 0.5}},
    {"kind": "random_threshold", "law": {"kind": "pareto", "a": 3.0}},
    {"kind": "random_threshold", "law": {"kind": "gamma", "shape": 2.0}},
    {"kind": "geometric_threshold", "eps_exponent": 0.5},
], ids=["two_point", "pareto", "gamma", "geometric"])


@_THRESHOLD_SYSTEMS
def test_subnormal_s_on_a_threshold_grid(tmp_path, capsys, monkeypatch, system):
    # (1 - s)/s overflows at s = 1e-320: the root of f(t) = s lies past the largest
    # double, so the threshold is 0 and the curve reads 0 there, with no warning
    cfg = _cfg(tmp_path, system=system, n=200, s_grid=[1e-320, 0.5])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 0
    assert [str(w.message) for w in seen] == []
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith(("#", "s,"))]
    assert float(rows[0][0]) == 1e-320 and rows[0][1:5:3] == ["0", "0"]  # u_n and psi_ref


@_THRESHOLD_SYSTEMS
@pytest.mark.parametrize("s", [7e-309, 3e-308])
def test_root_near_the_largest_double_on_a_threshold_grid(tmp_path, capsys, monkeypatch,
                                                          system, s):
    # (1 - s)/s is finite but t/x_m or z = t + k x/(1 - x) may overflow on the way:
    # the run must neither fail its calibration nor warn
    cfg = _cfg(tmp_path, system=system, n=200, s_grid=[s, 0.5])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 0
    assert [str(w.message) for w in seen] == []
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith(("#", "s,"))]
    assert float(rows[0][0]) == s
    u_n, psi_ref = float(rows[0][1]), float(rows[0][4])
    assert 0.0 < u_n < 1e-300 and 0.0 <= psi_ref < 1e-300


def test_missing_out_directory_refused_before_work(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "estimate_psi", boom)
    cfg = _cfg(tmp_path)
    out = tmp_path / "no_such_dir" / "x.csv"
    assert _main("run", "--config", str(cfg), "--out", str(out), monkeypatch=monkeypatch) == 2
    assert "--out" in capsys.readouterr().err


def test_failed_write_exits_2(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path, replicates=1000, n=100)
    assert _main("run", "--config", str(cfg), "--out", str(tmp_path),
                 monkeypatch=monkeypatch) == 2
    assert "cannot write" in capsys.readouterr().err
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert _main("sweep", "--config", str(cfg), "--out-dir", str(blocker),
                 "--param", "n=100", monkeypatch=monkeypatch) == 2
    assert "cannot make" in capsys.readouterr().err


def test_error_messages_carry_line_numbers(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path, system={"kind": "weibull"})
    assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 2
    err = capsys.readouterr().err
    line = json.dumps(json.loads(cfg.read_text()), indent=1).splitlines()
    lineno = next(i + 1 for i, ln in enumerate(line) if '"weibull"' in ln)
    assert f"{cfg}:{lineno}:" in err


def test_invalid_json_and_missing_file(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert _main("run", "--config", str(bad), monkeypatch=monkeypatch) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert _main("run", "--config", str(tmp_path / "gone.json"),
                 monkeypatch=monkeypatch) == 2


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_undecodable_file_exits_2_located(tmp_path, capsys, monkeypatch, command):
    # a UTF-16 byte order mark is not UTF-8, the encoding of JSON
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00{")
    argv = {"run": ("run", "--config", str(bad), "--seed", "1"),
            "sweep": ("sweep", "--config", str(bad), "--param", "n=10,20",
                      "--out-dir", str(tmp_path / "out")),
            "compare": ("compare", str(bad), str(bad))}[command]
    assert _main(*argv, monkeypatch=monkeypatch) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: ") and "utf-8" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "overrides,flags,key,needle",
    [
        ({"s_grid": {"start": 0.1, "stop": 0.9, "count": 1e15}}, (), "s_grid",
         "more than the 1000"),
        ({"s_grid": [0.5] * 1001}, (), "s_grid", "more than the 1000"),
        ({"system": {"kind": "power_law_graph", "beta": 3.5}, "n": 1e15}, (), "n", "graph bound"),
        ({"replicates": 10**15}, (), "replicates", "more than the 100000000"),
        ({}, ("--replicates", str(10**8 + 1)), "replicates", "more than the 100000000"),
        ({"system": {"kind": "branching_heredity", "offspring": {"1": 0.5, "3": 0.5},
                     "gamma": 1.0, "a": 0.5}, "n": 2000}, (), "n", "particle budget"),
        ({"system": {"kind": "size_jitter", "base": _BASE["system"]}, "n": 10**6 + 1}, (), "n",
         "jitter bound"),
        # eps = n^-1000 underflows to 0, where the size law would read 0/0
        ({"system": {"kind": "geometric_threshold", "eps_exponent": 1000}, "n": 10}, (), "n",
         "eps = n^-1000 is 0 at n = 10"),
    ],
    ids=["grid_count", "grid_list", "graph_n", "replicates", "replicates_flag", "branching_n",
         "jitter_n", "geometric_eps"],
)
def test_oversized_inputs_exit_2_located(tmp_path, capsys, monkeypatch, overrides, flags, key,
                                         needle):
    # refused before any array of that size is asked for, and with no numpy warning
    monkeypatch.setattr(estimator, "_replicate_batch", lambda job: pytest.fail("drew a batch"))
    cfg = _cfg(tmp_path, **overrides)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert _main("run", "--config", str(cfg), *flags, monkeypatch=monkeypatch) == 2
    assert [str(w.message) for w in seen] == []
    err = capsys.readouterr().err
    lineno = cli._line_of(cfg.read_text(), f'"{key}"')
    where = f"--{key}" if flags else f"{cfg}:{lineno}"
    assert err.startswith(f"{where}: ") and needle in err and "Traceback" not in err


def test_stage_validation_is_located(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path, system={"kind": "stable_size_gumbel",
                                 "beta": 0.5, "gamma": 2.0}, n=5,
               analyses=["psi"])
    assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 2
    assert f"{cfg}:" in capsys.readouterr().err


def test_compare_without_reference_curve(tmp_path, capsys, monkeypatch):
    # the branching model has a matching index but no closed-form curve
    cfg = _cfg(tmp_path, system={"kind": "branching_heredity", "offspring": {"1": 0.5, "3": 0.5},
                                 "gamma": 1.0, "a": 0.5}, n=6, replicates=1000)
    assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 0
    out = capsys.readouterr().out
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith(("#", "s,"))]
    assert len(rows) == 5 and all(r[4:] == ["", ""] for r in rows)
    summary = json.loads([ln for ln in out.splitlines() if ln.startswith("# summary: ")][0][11:])
    assert "reference" not in summary and "max_abs_z" not in summary


def test_replicate_override_checked(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path)
    assert _main("run", "--config", str(cfg), "--replicates", "10",
                 monkeypatch=monkeypatch) == 2
    assert "below minimum" in capsys.readouterr().err


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path)

    def boom(*a, **k):
        raise SolverError("no bracket anywhere")

    monkeypatch.setattr(cli, "estimate_psi", boom)
    assert _main("run", "--config", str(cfg), monkeypatch=monkeypatch) == 3
    assert "solver failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare

@pytest.mark.parametrize("text", ['{"rows": [', "{}", "[1,2]", "s,u_n,psi_hat\n0.5,0.9,abc\n"],
                         ids=["truncated", "no_rows", "array", "bad_cell"])
def test_compare_malformed_result_exits_2(tmp_path, canonical, capsys, monkeypatch, text):
    bad = tmp_path / "bad.result"
    bad.write_text(text)
    assert _main("compare", str(canonical["w1"]), str(bad), monkeypatch=monkeypatch) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:") and "Traceback" not in err


def test_compare_identical_runs(canonical, capsys, monkeypatch):
    code = _main("compare", str(canonical["w1"]), str(canonical["w3"]),
                 monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_dpsi"] == 0.0
    assert report["points"] == 5
    assert all(v == 0.0 for v in report["index_deltas"].values())


def test_compare_reads_both_formats(canonical, capsys, monkeypatch):
    code = _main("compare", str(canonical["w1"]), str(canonical["json"]),
                 "--tolerance", "0.001", monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["within_tolerance"] is True
    assert report["max_abs_dpsi"] == 0.0


def test_compare_tolerance_fails_on_different_systems(tmp_path, canonical,
                                                      capsys, monkeypatch):
    other_cfg = _cfg(tmp_path, system={"kind": "duplicated_iid", "m": 2},
                     analyses=["psi", "partial_indices"])
    out = tmp_path / "dup.csv"
    assert _main("run", "--config", str(other_cfg), "--out", str(out),
                 monkeypatch=monkeypatch) == 0
    capsys.readouterr()
    code = _main("compare", str(canonical["w1"]), str(out),
                 "--tolerance", "0.001", monkeypatch=monkeypatch)
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["within_tolerance"] is False
    assert report["max_abs_dpsi"] > 0.05


@pytest.mark.parametrize("tolerance", ["-1", "nan"])
def test_compare_refuses_a_bad_tolerance(canonical, capsys, monkeypatch, tolerance):
    # exit 1 means over tolerance, so a tolerance that is not >= 0 is a usage error
    code = _main("compare", str(canonical["w1"]), str(canonical["w3"]),
                 "--tolerance", tolerance, monkeypatch=monkeypatch)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("--tolerance:") and captured.out == ""


def test_compare_grid_mismatch(tmp_path, canonical, capsys, monkeypatch):
    cfg = _cfg(tmp_path, s_grid={"start": 0.1, "stop": 0.9, "count": 7})
    out = tmp_path / "seven.csv"
    assert _main("run", "--config", str(cfg), "--out", str(out),
                 monkeypatch=monkeypatch) == 0
    capsys.readouterr()
    assert _main("compare", str(canonical["w1"]), str(out),
                 monkeypatch=monkeypatch) == 2
    assert "grid mismatch" in capsys.readouterr().err


def test_compare_def2_gap(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path, system={"kind": "duplicated_iid", "m": 2}, n=50,
               analyses=["psi", "def2_fit", "compare"],
               def2_bounds=[0.1, 2.0])
    out = tmp_path / "def2.csv"
    assert _main("run", "--config", str(cfg), "--out", str(out),
                 monkeypatch=monkeypatch) == 0
    capsys.readouterr()
    assert _main("compare", str(out), str(out), monkeypatch=monkeypatch) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["def1_def2_gap_a"] == pytest.approx(report["def1_def2_gap_b"])
    assert abs(report["def1_def2_gap_a"]) < 0.1  # both notions sit near 1/2 here
    summary = json.loads(
        [ln for ln in out.read_text().splitlines()
         if ln.startswith("# summary: ")][0][11:]
    )
    assert summary["indices"]["theta_def2"] == pytest.approx(0.5, abs=0.05)
    assert "theta_minus" not in summary["indices"]  # analysis not requested


# ---------------------------------------------------------------------------
# sweep

def test_sweep_nested_params(tmp_path):
    cfg = _cfg(tmp_path, replicates=1000, n=100)
    out_dir = tmp_path / "grid"
    proc = _run("sweep", "--config", str(cfg), "--out-dir", str(out_dir),
                "--param", "system.generator.alpha=1.0,2.0")
    assert proc.returncode == 0, proc.stderr
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["cfg__alpha-1.0.csv", "cfg__alpha-2.0.csv"]
    for p in out_dir.iterdir():
        assert "# extlab result" in p.read_text()


def test_sweep_keeps_going_after_bad_combo(tmp_path):
    cfg = _cfg(tmp_path, replicates=1000, n=100)
    out_dir = tmp_path / "grid2"
    proc = _run("sweep", "--config", str(cfg), "--out-dir", str(out_dir),
                "--param", "replicates=2000,10")
    assert proc.returncode == 2
    assert (out_dir / "cfg__replicates-2000.csv").exists()
    assert not (out_dir / "cfg__replicates-10.csv").exists()
    assert "below minimum" in proc.stderr


def test_sweep_requires_params(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path)
    assert _main("sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "x"),
                 monkeypatch=monkeypatch) == 2
    assert "--param" in capsys.readouterr().err
