"""Threshold calibration: solve E F_n(u)^nu_n = s for the level u_n(s).

Three routes, picked automatically per system:

* closed_form        -- the system inverts its own calibration functional;
* deterministic_root -- bisection against an exact (or deterministic
                        quadrature) mean;
* stochastic_root    -- bisection against a frozen-pool Monte Carlo mean,
                        which is a fixed function once the pool is drawn,
                        so the root is reproducible and the reported
                        stderr quantifies the pool noise honestly.  A pool
                        of series sizes is compressed once into distinct
                        sizes and counts, so each bisection step costs
                        distinct sizes x grid points, not pool size x grid.

The functional is nondecreasing and continuous in u for every system here
(empirical marginal pools excepted, where it is a step function), so plain
bisection is exact bookkeeping.  Curves are solved with one shared pool
across the whole s grid: common random numbers keep the curve monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import POOL_SIZE, Calibrator, ConfigError, SeriesSystem

__all__ = ["SolverError", "NormalizingCurve", "solve_curve"]


class SolverError(RuntimeError):
    """Threshold calibration failed (no bracket, or residual above tolerance)."""


@dataclass
class NormalizingCurve:
    """Calibrated thresholds over an s grid at one stage n."""

    n: int
    s: np.ndarray
    u: np.ndarray
    achieved: np.ndarray
    stderr: np.ndarray
    method: str


_ROOT_STEPS = 60          # interval shrinks by 2^-60: far below any tolerance here
_DETERMINISTIC_TOL = 1e-9


def _check_grid(s_grid) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    if s.size == 0:
        raise ConfigError("empty s grid")
    if np.any((s <= 0.0) | (s >= 1.0)):
        raise SolverError(f"s values must lie strictly inside (0, 1), got {s}")
    return s


def _initial_bracket(value_fn, domain, s: np.ndarray):
    """Per-point brackets [lo, hi] with value(lo) < s < value(hi)."""
    lo_d, hi_d = domain
    if lo_d is not None and hi_d is not None:
        lo = np.full(s.shape, float(lo_d))
        hi = np.full(s.shape, float(hi_d))
        return lo, hi
    lo0 = 0.0 if lo_d is None else float(lo_d)
    lo = np.full(s.shape, min(-1.0, lo0) if lo_d is None else lo0)
    hi = np.full(s.shape, max(1.0, 2.0 * abs(lo0) + 1.0))
    for _ in range(300):
        need = value_fn(hi) <= s
        if not need.any():
            break
        hi = np.where(need, hi * 2.0, hi)
    else:
        raise SolverError("no upper bracket: the calibration mean stays below s")
    if lo_d is None:
        for _ in range(300):
            need = value_fn(lo) >= s
            if not need.any():
                break
            lo = np.where(need, lo * 2.0, lo)
        else:
            raise SolverError("no lower bracket: the calibration mean stays above s")
    return lo, hi


def _bisect(value_fn, lo, hi, s):
    for _ in range(_ROOT_STEPS):
        mid = 0.5 * (lo + hi)
        below = value_fn(mid) <= s
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def solve_curve(system: SeriesSystem, n: int, s_grid, stream=None,
                pool_size: int = POOL_SIZE) -> NormalizingCurve:
    """Calibrate thresholds for a whole s grid at stage n.

    Pool-backed systems draw their frozen pool from the stream.  A closed
    form threshold with no exact mean and no stream reports NaN for the
    achieved values and their stderr.
    """
    s = _check_grid(s_grid)
    system.validate_n(n)

    closed = system.closed_form_u(n, s)
    if closed is not None:
        u = np.asarray(closed, dtype=float)
        if stream is None and system.calibration_kind != "exact":
            nan = np.full(s.shape, math.nan)
            return NormalizingCurve(n, s, u, nan, nan, "closed_form")
    cal = Calibrator(system, n, stream=stream, pool_size=pool_size)
    if closed is not None:
        return NormalizingCurve(n, s, u, cal.value(u), cal.stderr_at(u), "closed_form")

    lo, hi = _initial_bracket(cal.value, system.u_domain, s)
    u = _bisect(cal.value, lo, hi, s)
    achieved = cal.value(u)
    stderr = cal.stderr_at(u)
    if np.any(~np.isfinite(achieved)):
        raise SolverError("calibration mean evaluated to a non-finite value")
    if cal.exact:
        resid = float(np.max(np.abs(achieved - s)))
        if resid > _DETERMINISTIC_TOL:
            raise SolverError(f"deterministic calibration residual {resid:.3g} exceeds "
                              f"tolerance {_DETERMINISTIC_TOL:.3g}")
        method = "deterministic_root"
    else:
        # residual vanishes except across pool step edges; stderr is the honest figure
        method = "stochastic_root"
    return NormalizingCurve(n, s, u, achieved, stderr, method)
