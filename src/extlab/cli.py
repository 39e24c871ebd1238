"""Config-driven experiment runner.

Builds a system from a JSON config, estimates the limit curve, attaches
reference values and index summaries, and emits a plot-ready table.  All
science inputs (system, n, replicates, grid, seed, analyses) are hashed
into the output for provenance; worker count and file destination are
execution details and stay out of the hash.  Timing goes to stderr, never
into result files, so reruns at any worker count are byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import inspect
import itertools
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from .estimator import DEFAULT_GRID, _refuse_def2, def2_fit, estimate_psi, index_report
from .normalizer import SolverError
from .sampling import RandomStream
from .systems import SYSTEMS, ConfigError, _integral, _real, build_system

_ANALYSES = ("psi", "partial_indices", "tail_indices", "def2_fit", "compare")
_CONFIG_KEYS = {"system", "n", "replicates", "s_grid", "seed", "workers",
                "analyses", "format", "out", "def2_bounds"}
# run settings a config may leave out; run flags override the config
_DEFAULTS = {"replicates": 100_000, "workers": 0, "format": "csv",
             "analyses": ["psi", "partial_indices", "tail_indices", "compare"]}
_COLUMNS = ("s", "u_n", "psi_hat", "stderr", "psi_ref", "z")
# far above any shipped grid (19 points); each point costs a calibration column
_MAX_GRID_POINTS = 1000
# 20x the largest shipped run (5e6); each batch holds replicates/64 maxima
_MAX_REPLICATES = 10**8

class CliError(Exception):
    """Validation failure carrying a formatted, located message."""


def _line_of(raw: str, needle: str) -> int:
    idx = raw.find(needle)
    if idx < 0:
        return 1
    return 1 + raw.count("\n", 0, idx)


def _located(path: str, raw: str, needle: str, msg: str) -> CliError:
    return CliError(f"{path}:{_line_of(raw, needle)}: {msg}")


def _fmt(x) -> str:
    return "" if x is None else f"{float(x):.10g}"


def _jsonable(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


# ---------------------------------------------------------------------------
# config handling

def _load_config(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_text(encoding="utf-8")  # JSON's encoding
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"{path}: {exc}") from None
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(cfg, dict):
        raise CliError(f"{path}:1: config must be a JSON object")
    return cfg, raw


def _resolve_seed(cfg: dict, args, path: str, raw: str) -> int:
    """The seed from --seed, else the config, else EXTLAB_SEED; a bad one names its source."""
    env = os.environ.get("EXTLAB_SEED")
    if getattr(args, "seed", None) is not None:
        seed, source = args.seed, "--seed"
    elif cfg.get("seed") is not None:
        line = _line_of(raw, '"seed"')
        seed, source = cfg["seed"], f"{path}:{line}"
    elif env:
        try:
            seed = int(env)
        except ValueError:
            seed = env
        source = "EXTLAB_SEED"
    else:
        raise CliError(f"{path}:1: no seed: set \"seed\" in the config, pass "
                       f"--seed, or export EXTLAB_SEED")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise CliError(f"{source}: seed must be an integer in [0, 2^64), got {seed!r}")
    return seed


def _resolve_grid(cfg: dict, path: str, raw: str) -> np.ndarray:
    spec = cfg.get("s_grid")
    if spec is None:
        return DEFAULT_GRID.copy()
    if isinstance(spec, dict) and set(spec) != {"start", "stop", "count"}:
        raise _located(path, raw, '"s_grid"', "s_grid object needs exactly start/stop/count")
    if not isinstance(spec, (dict, list)):
        raise _located(path, raw, '"s_grid"', "s_grid must be a list or {start, stop, count}")
    try:
        count = _integral(spec["count"]) if isinstance(spec, dict) else len(spec)
        if count > _MAX_GRID_POINTS:
            raise _located(path, raw, '"s_grid"', f"s_grid has {count} points, "
                           f"more than the {_MAX_GRID_POINTS} allowed")
        if isinstance(spec, dict):
            grid = np.round(np.linspace(_real(spec["start"]), _real(spec["stop"]), count), 10)
        else:
            grid = np.array([_real(x) for x in spec])
    except (TypeError, ValueError, OverflowError) as exc:
        raise _located(path, raw, '"s_grid"', f"bad s_grid value: {exc}") from None
    if grid.size == 0 or not np.all((grid > 0.0) & (grid < 1.0)):
        raise _located(path, raw, '"s_grid"', "grid values must lie strictly in (0, 1)")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise _located(path, raw, '"s_grid"', "grid must be strictly ascending")
    return grid


def _validate_config(cfg: dict, path: str, raw: str, args=None) -> dict:
    """Check the config; each run setting is its flag, else its config field, else the default."""
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        key = sorted(unknown)[0]
        raise _located(path, raw, f'"{key}"', f"unknown config fields {sorted(unknown)}")
    for key in ("system", "n"):
        if key not in cfg:
            raise CliError(f"{path}:1: config is missing required field {key!r}")
    flagged = {key for key in _DEFAULTS if getattr(args, key, None) is not None}
    got = {key: getattr(args, key) if key in flagged else cfg.get(key, default)
           for key, default in _DEFAULTS.items()}

    def refuse(key: str, msg: str) -> CliError:
        if key in flagged:
            return CliError(f"--{key}: {msg}")
        return _located(path, raw, f'"{key}"', msg)

    reps = got["replicates"]
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1000:
        raise refuse("replicates",
                     f"replicates below minimum: need an integer >= 1000, got {reps!r}")
    if reps > _MAX_REPLICATES:
        raise refuse("replicates", f"replicates = {reps} is more than the {_MAX_REPLICATES} allowed")
    analyses = got["analyses"]
    if not isinstance(analyses, list) or not all(isinstance(a, str) for a in analyses):
        raise refuse("analyses", f"analyses must be a list of names, got {analyses!r}")
    bad = [a for a in analyses if a not in _ANALYSES]
    if bad:
        raise _located(path, raw, f'"{bad[0]}"',
                       f"unknown analyses {bad}; know {list(_ANALYSES)}")
    if got["format"] not in ("csv", "json"):
        raise refuse("format", f"format must be csv or json, got {got['format']!r}")
    out = cfg.get("out")
    if out is not None and not isinstance(out, str):
        raise _located(path, raw, '"out"', f"out must be a file path string, got {out!r}")
    for key, value in (("n", cfg["n"]), ("workers", got["workers"])):
        try:
            got[key] = _integral(value)
        except (TypeError, ValueError, OverflowError):
            raise refuse(key, f"{key} must be an integer within int64, got {value!r}") from None
    if got["workers"] < 0:
        raise refuse("workers", f"workers must be 0 or more, got {got['workers']}")
    bounds = cfg.get("def2_bounds")
    if bounds is not None:
        try:
            ok = (isinstance(bounds, list) and len(bounds) == 2
                  and all(isinstance(b, (int, float)) and not isinstance(b, bool)
                          and math.isfinite(b) for b in bounds)
                  and 0.0 < bounds[0] < bounds[1])
        except OverflowError:  # an integer past the float range
            ok = False
        if not ok:
            raise _located(path, raw, '"def2_bounds"', "def2_bounds must be two finite "
                           f"numbers [lo, hi] with 0 < lo < hi, got {bounds!r}")
    return got


def _config_sha(cfg: dict, seed: int, grid: np.ndarray, replicates: int,
                analyses: list[str]) -> str:
    # hash the science inputs only; workers / destination / format are
    # execution details and must not perturb provenance
    core = {
        "system": cfg["system"],
        "n": cfg["n"],
        "replicates": replicates,
        "s_grid": [float(x) for x in grid],
        "seed": seed,
        "analyses": list(analyses),
    }
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# run

def _execute(cfg: dict, path: str, raw: str, args) -> tuple[str, str, dict]:
    """Run one experiment; returns (rendered text, format, summary)."""
    got = _validate_config(cfg, path, raw, args)
    seed = _resolve_seed(cfg, args, path, raw)
    grid = _resolve_grid(cfg, path, raw)
    analyses, fmt, replicates = list(got["analyses"]), got["format"], got["replicates"]

    try:
        system = build_system(cfg["system"])
    except ConfigError as exc:
        kind = cfg["system"].get("kind") if isinstance(cfg["system"], dict) else None
        needle = f'"{kind}"' if kind else '"system"'
        raise _located(path, raw, needle, str(exc)) from None
    if "def2_fit" in analyses:
        try:
            _refuse_def2(system)
        except ConfigError as exc:
            raise _located(path, raw, '"def2_fit"', str(exc)) from None

    n = got["n"]
    t0 = time.perf_counter()
    try:
        est = estimate_psi(system, n, s_grid=grid, replicates=replicates,
                           stream=RandomStream(seed=seed, stream_id=0), workers=got["workers"])
    except ConfigError as exc:
        raise _located(path, raw, '"n"', str(exc)) from None

    ref = system.reference() if "compare" in analyses else None
    try:
        psi_ref = None if ref is None else ref.psi(est.s)
    except NotImplementedError:  # a model with indices but no curve
        psi_ref = None
    fit = None
    if "def2_fit" in analyses:
        bounds = cfg.get("def2_bounds")
        kw = {} if bounds is None else {"theta_bounds": (float(bounds[0]), float(bounds[1]))}
        fit = def2_fit(est, **kw)
    report = index_report(est, fit)
    runtime = time.perf_counter() - t0

    sha = _config_sha(cfg, seed, grid, replicates, analyses)
    rows = []
    for j, s in enumerate(est.s):
        row = dict(zip(_COLUMNS, (float(s), float(est.u[j]), float(est.psi_hat[j]),
                                  float(est.stderr[j]),
                                  None if psi_ref is None else float(psi_ref[j]), None)))
        if psi_ref is not None:
            diff = row["psi_hat"] - row["psi_ref"]
            row["z"] = 0.0 if diff == 0.0 else diff / row["stderr"] \
                if row["stderr"] > 0.0 else math.copysign(math.inf, diff)
        rows.append(row)

    summary: dict = {
        "config_sha256": sha,
        "seed": seed,
        "system": system.name,
        "n": n,
        "replicates": replicates,
        "solver_method": est.curve.method,
        "analyses": analyses,
    }
    # index fields of analyses that were not asked for stay out of the summary
    hidden = {"partial_indices": ("theta_minus", "theta_plus"),
              "tail_indices": ("theta0", "theta1")}
    drop = {key for name, keys in hidden.items() if name not in analyses for key in keys}
    summary["indices"] = {k: _jsonable(v) for k, v in report.as_dict().items() if k not in drop}
    if psi_ref is not None:
        zs = np.asarray([r["z"] for r in rows], dtype=float)
        summary["reference"] = ref.name
        summary["max_abs_z"] = _jsonable(np.max(np.abs(zs)))
        summary["max_abs_dev"] = _jsonable(np.max(np.abs(
            est.psi_hat - np.asarray(psi_ref, dtype=float))))

    head = {k: summary[k] for k in ("config_sha256", "seed", "system", "n", "replicates")}
    if fmt == "csv":
        lines = ["# extlab result", *(f"# {k}: {v}" for k, v in head.items()), ",".join(_COLUMNS)]
        lines += [",".join(_fmt(row[k]) for k in _COLUMNS) for row in rows]
        lines.append("# summary: " + json.dumps(
            summary, sort_keys=True, separators=(",", ":")))
        text = "\n".join(lines) + "\n"
    else:
        payload = {**head, "rows": [{k: _jsonable(v) for k, v in row.items()} for row in rows],
                   "summary": summary}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    summary["_runtime_seconds"] = runtime
    return text, fmt, summary


def _write(target, text: str) -> None:
    try:
        Path(target).write_text(text)
    except OSError as exc:
        raise CliError(f"{target}: cannot write the result: {exc}") from None


def _cmd_run(args) -> int:
    cfg, raw = _load_config(args.config)
    out = args.out or cfg.get("out")
    if isinstance(out, str) and not Path(out).parent.is_dir():
        msg = f"the directory of {out!r} does not exist"
        if args.out:
            raise CliError(f"--out: {msg}")
        raise _located(args.config, raw, '"out"', msg)
    text, fmt, summary = _execute(cfg, args.config, raw, args)
    runtime = summary.pop("_runtime_seconds")
    if out:
        _write(out, text)
        print(f"wrote {out} ({summary['system']}, n={summary['n']}, "
              f"replicates={summary['replicates']}) in {runtime:.1f}s", file=sys.stderr)
    else:
        sys.stdout.write(text)
        print(f"runtime: {runtime:.1f}s", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# compare

def _num(v):
    if v is None:
        return None
    if isinstance(v, str):
        return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}.get(v)
    return float(v)


def _read_result(path: str) -> dict:
    """The s, psi_hat and stderr columns and the index values of a result file."""
    try:
        raw = Path(path).read_text(encoding="utf-8")  # JSON's encoding
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"{path}: {exc}") from None
    try:
        if raw.lstrip().startswith(("{", "[")):
            data = json.loads(raw)
            rows = data["rows"]
            summary = data.get("summary", {})
        else:
            rows, summary = [], {}
            for line in raw.splitlines():
                if line.startswith("# summary: "):
                    summary = json.loads(line[len("# summary: "):])
                elif not line or line.startswith("#") or line.startswith("s,"):
                    continue
                else:
                    rows.append({k: (float(v) if v else None)
                                 for k, v in zip(_COLUMNS, line.split(","))})
        cols = {k: np.asarray([r[k] for r in rows], dtype=float)
                for k in ("s", "psi_hat", "stderr")}
        indices = {k: _num(v) for k, v in summary.get("indices", {}).items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"{path}: not an extlab result file "
                       f"({type(exc).__name__}: {exc})") from None
    if not rows:
        raise CliError(f"{path}: no result rows found")
    return {**cols, "indices": indices}


def _cmd_compare(args) -> int:
    if args.tolerance is not None and not args.tolerance >= 0.0:
        raise CliError(f"--tolerance: must be a number >= 0, got {args.tolerance!r}")
    a = _read_result(args.file_a)
    b = _read_result(args.file_b)
    sa, sb = a["s"], b["s"]
    if sa.shape != sb.shape or not np.allclose(sa, sb, rtol=0.0, atol=1e-9):
        print(f"grid mismatch: {args.file_a} has {sa.size} points, "
              f"{args.file_b} has {sb.size}", file=sys.stderr)
        return 2

    dev = np.abs(a["psi_hat"] - b["psi_hat"])
    sigma = np.sqrt(a["stderr"]**2 + b["stderr"]**2)

    report: dict = {
        "points": int(sa.size),
        "max_abs_dpsi": _jsonable(np.max(dev)),
        "argmax_s": _jsonable(sa[int(np.argmax(dev))]),
    }
    ia, ib = a["indices"], b["indices"]
    report["index_deltas"] = {k: _jsonable(ia[k] - ib[k]) for k in sorted(set(ia) & set(ib))
                              if ia[k] is not None and ib[k] is not None}
    for label, idx in (("a", ia), ("b", ib)):
        slope, def2 = idx.get("grid_mean_slope"), idx.get("theta_def2")
        if slope is not None and def2 is not None:
            report[f"def1_def2_gap_{label}"] = _jsonable(slope - def2)

    ok = args.tolerance is None or bool(np.all(dev <= args.tolerance + 3.0 * sigma))
    if args.tolerance is not None:
        report.update(tolerance=args.tolerance, within_tolerance=ok)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sweep

def _parse_params(specs: list[str]) -> list[tuple[str, list]]:
    out = []
    for spec in specs:
        if "=" not in spec:
            raise CliError(f"--param needs key.path=v1,v2,..., got {spec!r}")
        key, _, values = spec.partition("=")
        vals = []
        for tok in values.split(","):
            try:
                vals.append(json.loads(tok))
            except json.JSONDecodeError:
                vals.append(tok)
        if not vals:
            raise CliError(f"--param {key} has no values")
        out.append((key.strip(), vals))
    return out


def _set_path(cfg: dict, dotted: str, value) -> None:
    *path, last = dotted.split(".")
    node = cfg
    for part in path:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[last] = value


def _slug(value) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]+", "-", str(value))


def _cmd_sweep(args) -> int:
    cfg, raw = _load_config(args.config)
    params = _parse_params(args.param or [])
    if not params:
        raise CliError("sweep needs at least one --param key.path=v1,v2,...")
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"{out_dir}: cannot make the output directory: {exc}") from None
    stem = Path(args.config).stem

    worst = 0
    for combo in itertools.product(*(vals for _, vals in params)):
        point = copy.deepcopy(cfg)
        tags = []
        for (key, _), value in zip(params, combo):
            _set_path(point, key, value)
            tags.append(f"{key.split('.')[-1]}-{_slug(value)}")
        name = f"{stem}__{'__'.join(tags)}"
        try:
            text, fmt, summary = _execute(point, args.config, raw, args)
        except CliError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        except SolverError as exc:
            print(f"{name}: solver failure: {exc}", file=sys.stderr)
            worst = max(worst, 3)
            continue
        target = out_dir / f"{name}.{fmt}"
        _write(target, text)
        runtime = summary.pop("_runtime_seconds")
        print(f"wrote {target} in {runtime:.1f}s", file=sys.stderr)
    return worst


# ---------------------------------------------------------------------------
# entry point

def _cmd_list_systems(_args) -> int:
    width = max(map(len, SYSTEMS))
    for kind, cls in SYSTEMS.items():
        params = inspect.signature(cls).parameters
        fields = ", ".join(name + ("" if params[name].default is inspect.Parameter.empty
                                   else "?") for name in cls.fields)
        print(f"{kind:<{width}}  {cls.__doc__.splitlines()[0]}")
        print(f"{'':<{width}}  fields: {fields}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extlab",
        description="estimate limit curves and extremal indices of series schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-systems", help="list available system kinds")

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--replicates", type=int, default=None)
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--format", choices=("csv", "json"), default=None)

    cmp_ = sub.add_parser("compare", help="diff two result files on a shared grid")
    cmp_.add_argument("file_a")
    cmp_.add_argument("file_b")
    cmp_.add_argument("--tolerance", type=float, default=None,
                      help="pass if |dpsi| <= tolerance + 3 sigma pointwise")

    sweep = sub.add_parser("sweep", help="cartesian parameter sweep over a config")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--param", action="append",
                       help="dotted.path=v1,v2,... (repeatable)")
    sweep.add_argument("--out-dir", required=True)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--replicates", type=int, default=None)
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--format", choices=("csv", "json"), default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list-systems": _cmd_list_systems,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
    }[args.command]
    try:
        return handler(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
