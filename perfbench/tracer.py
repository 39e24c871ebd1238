"""Outside-in span tracer: wraps extlab's public calls from the benchmark side.

The program is not changed.  While a Tracer is installed, each wrapped
function or method records a span (name, start, end, parent span,
experiment id, and a few counts taken from its arguments and result) in
memory.  `layer_metrics` turns one pass's spans into per-layer numbers;
a layer's self time is its span minus the time of its child spans.

extlab's modules import each other's functions by name, so a wrapper goes
on the name the caller looks up (for example `extlab.cli.estimate_psi`,
not `extlab.estimator.estimate_psi`).  A name that a later version of the
program no longer has is skipped and listed in `Tracer.missing`.

Calls made inside worker processes are not recorded: the wrappers call
straight through in any process other than the one that installed them.
A count that cannot be read from a call's arguments or result (say, after
a signature change) is left out of that span rather than failing the call.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int
    experiment: str
    end: float = 0.0
    child_s: float = 0.0
    info: dict | None = None

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def _size(x) -> int:
    return int(np.size(x))


# info callbacks: (args, kwargs, result) -> dict, run after the span closes
def _batch_info(args, kwargs, result):
    return {"count": int(args[2] if len(args) > 2 else kwargs["count"])}


def _variates_info(args, kwargs, result):
    return {"variates": _size(result)}


def _calibrator_info(args, kwargs, result):
    cal, u = args[0], args[1] if len(args) > 1 else kwargs["u"]
    pool = getattr(cal, "pool", None)
    return {"terms": (1 if pool is None else _size(pool)) * _size(u)}


def _pool_info(args, kwargs, result):
    return {"pool": result}


def _curve_info(args, kwargs, result):
    s = np.asarray(result.s, dtype=float)
    achieved = np.asarray(result.achieved, dtype=float)
    stderr = np.asarray(result.stderr, dtype=float)
    return {
        "method": result.method,
        "residual": float(np.nanmax(np.abs(achieved - s))) if np.isfinite(achieved).any() else 0.0,
        "stderr": float(np.nanmax(stderr)) if np.isfinite(stderr).any() else 0.0,
    }


def _diag_info(args, kwargs, result):
    return {"values": _size(result)}


def _psi_info(args, kwargs, result):
    return {"points": _size(result)}


class Tracer:
    """Records spans of the wrapped extlab calls made in this process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.experiment = ""
        self.enabled = False
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, info=None) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled or os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, 0.0, stack[-1] if stack else -1, tracer.experiment)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    tracer.spans[span.parent].child_s += span.end - span.start
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except Exception:  # a count the tracer cannot read, not a failure
                    span.info = None
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def _wrap_name(self, module, attr: str, name: str, info=None) -> None:
        if attr in module.__dict__:
            self._wrap(module, attr, name, info)
        else:
            self.missing.append(f"{module.__name__}.{attr}")

    def _wrap_methods(self, base, attr: str, name: str, info=None) -> None:
        seen, todo, found = set(), [base], False
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self._wrap(cls, attr, name, info)
                found = True
        if not found:
            self.missing.append(f"{base.__name__}.{attr}")

    def install(self) -> "Tracer":
        """Wrap the names the benchmark traces; `uninstall` restores them."""
        from extlab import cli, estimator, reference, sampling, systems

        self._wrap_name(cli, "main", "cli.main")
        for attr in ("estimate_psi", "def2_fit", "index_report"):
            self._wrap_name(cli, attr, f"estimator.{attr}")
        self._wrap_name(cli, "build_system", "systems.build_system")
        self._wrap_name(estimator, "solve_curve", "normalizer.solve_curve", _curve_info)
        self._wrap_name(systems, "build_calibration_pool", "systems.build_calibration_pool",
                        _pool_info)
        self._wrap_name(systems, "diag_inverse", "copulas.diag_inverse", _diag_info)
        self._wrap_methods(systems.SeriesSystem, "sample_batch", "systems.sample_batch",
                           _batch_info)
        self._wrap_methods(systems.Calibrator, "value", "systems.calibrator_value",
                           _calibrator_info)
        self._wrap_methods(systems.Calibrator, "stderr_at", "systems.calibrator_stderr",
                           _calibrator_info)
        self._wrap_methods(reference.ReferenceModel, "psi", "reference.psi", _psi_info)
        self._wrap_methods(sampling.Distribution, "sample", "sampling.sample", _variates_info)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# -- per-layer metrics -------------------------------------------------------

def _info(span: Span, key: str, default):
    return (span.info or {}).get(key, default)


def _ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent


def phase_split(spans: list[Span]) -> tuple[float, float]:
    """(estimate_psi time, its replicate phase): estimate minus solve_curve."""
    total = solve = 0.0
    for i, sp in enumerate(spans):
        if sp.name == "estimator.estimate_psi":
            total += sp.total_s
        elif sp.name == "normalizer.solve_curve" and any(
                a.name == "estimator.estimate_psi" for a in _ancestors(spans, i)):
            solve += sp.total_s
    return total, total - solve


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (times in seconds)."""
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for sp in spans:
        self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.self_s
        total_s[sp.name] = total_s.get(sp.name, 0.0) + sp.total_s
        calls[sp.name] = calls.get(sp.name, 0) + 1

    def info_sum(name: str, key: str) -> float:
        return sum(_info(sp, key, 0) for sp in spans if sp.name == name)

    def under(i: int, name: str) -> bool:
        return any(a.name == name for a in _ancestors(spans, i))

    # replicate sampling: outermost sample_batch spans called by estimate_psi
    rep_count, rep_busy = 0, 0.0
    for sp in spans:
        if sp.name == "systems.sample_batch" and sp.parent >= 0 \
                and spans[sp.parent].name == "estimator.estimate_psi":
            rep_count += _info(sp, "count", 0)
            rep_busy += sp.total_s
    # draws: outermost Distribution.sample spans (a law may sample through
    # another); variates counts those made inside the samplers, pool and
    # replicate draws alike
    draws = [i for i, sp in enumerate(spans) if sp.name == "sampling.sample"
             and not under(i, "sampling.sample")]
    draw_s = sum(spans[i].total_s for i in draws)
    variates = sum(_info(spans[i], "variates", 0) for i in draws
                   if under(i, "systems.sample_batch")
                   or under(i, "systems.build_calibration_pool"))
    pools = [p for ps in pools_by_experiment(spans).values() for p in ps]
    pool_size = sum(p["size"] for p in pools)
    pool_distinct = sum(p["distinct"] for p in pools)
    curves = [sp for sp in spans if sp.name == "normalizer.solve_curve"]
    estimate_s, phase_s = phase_split(spans)

    return {
        "systems.sample_batch_s": self_s.get("systems.sample_batch", 0.0),
        "systems.sample_batch_calls": calls.get("systems.sample_batch", 0),
        "systems.replicates_per_busy_s": rep_count / rep_busy if rep_busy > 0 else 0.0,
        "sampling.draw_s": draw_s,
        "sampling.variates": variates,
        "systems.calibration_pool_s": total_s.get("systems.build_calibration_pool", 0.0),
        "systems.pool_size": pool_size,
        "systems.pool_distinct": pool_distinct,
        "systems.pool_distinct_share": pool_distinct / pool_size if pool_size else 0.0,
        "systems.calibrator_value_s": self_s.get("systems.calibrator_value", 0.0),
        "systems.calibrator_value_calls": calls.get("systems.calibrator_value", 0),
        "systems.calibrator_terms": int(info_sum("systems.calibrator_value", "terms")
                                        + info_sum("systems.calibrator_stderr", "terms")),
        "systems.calibrator_stderr_s": self_s.get("systems.calibrator_stderr", 0.0),
        "systems.build_system_s": total_s.get("systems.build_system", 0.0),
        "normalizer.solve_curve_s": total_s.get("normalizer.solve_curve", 0.0),
        "normalizer.calibrator_calls": sum(
            1 for i, sp in enumerate(spans)
            if sp.name == "systems.calibrator_value" and under(i, "normalizer.solve_curve")),
        "normalizer.residual_max": max((_info(c, "residual", 0.0) for c in curves), default=0.0),
        "normalizer.stderr_max": max((_info(c, "stderr", 0.0) for c in curves), default=0.0),
        "estimator.estimate_psi_s": estimate_s,
        "estimator.replicate_phase_s": phase_s,
        "estimator.count_self_s": self_s.get("estimator.estimate_psi", 0.0),
        "estimator.replicate_sampling_s": rep_busy,
        "estimator.def2_fit_s": total_s.get("estimator.def2_fit", 0.0),
        "estimator.def2_calibrator_calls": sum(
            1 for i, sp in enumerate(spans)
            if sp.name == "systems.calibrator_value" and under(i, "estimator.def2_fit")),
        "estimator.index_report_s": total_s.get("estimator.index_report", 0.0),
        "reference.psi_s": self_s.get("reference.psi", 0.0),
        "reference.psi_points": int(info_sum("reference.psi", "points")),
        "copulas.diag_inverse_s": total_s.get("copulas.diag_inverse", 0.0),
        "copulas.diag_inverse_values": int(info_sum("copulas.diag_inverse", "values")),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.main_s": total_s.get("cli.main", 0.0),
    }


def methods_by_experiment(spans: list[Span]) -> dict[str, str]:
    """Calibration route of each experiment's curve, for the report."""
    return {sp.experiment: _info(sp, "method", None) for sp in spans
            if sp.name == "normalizer.solve_curve"}


def pools_by_experiment(spans: list[Span]) -> dict[str, list[dict]]:
    """Size and distinct-value count of each calibration pool, for the report."""
    out: dict[str, list[dict]] = {}
    for sp in spans:
        pool = _info(sp, "pool", None) if sp.name == "systems.build_calibration_pool" else None
        if pool is not None:
            out.setdefault(sp.experiment, []).append(
                {"size": _size(pool), "distinct": _size(np.unique(pool))})
    return out


def span_records(spans: list[Span], label: str) -> list[dict]:
    """One pass's spans as plain records, for the trace file."""
    return [{"pass": label, "name": sp.name, "start": sp.start, "end": sp.end,
             "parent": sp.parent, "experiment": sp.experiment, "self_s": sp.self_s,
             **{k: v for k, v in (sp.info or {}).items() if k != "pool"}}
            for sp in spans]
