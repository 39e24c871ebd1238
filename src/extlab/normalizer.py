"""Threshold calibration: solve E F_n(u)^nu_n = s for the level u_n(s).

The left side is G_n(F_n(u)), with G_n(x) = E x^nu_n the generating
function of the series size.  A system that gives u_n(s) itself (an exact
inverse, or an asymptotic tail threshold whose achieved values show its
bias) takes the closed_form route.  Every other curve is one bisection of
G_n(x) = s over x in [0, 1], which brackets every root, then u = F_n^{-1}(x).
G_n is exact ("deterministic_root") or the mean over a frozen pool of sizes
compressed into distinct sizes and counts ("stochastic_root"); a frozen pool
is a fixed function, so the root is reproducible and its stderr measures the
pool noise.  Both are continuous in x, so every root must close to 1e-9.
Only a marginal known through draws, inverted through the edf of a frozen
pool (a step function), is exempt.  One pool serves the whole s grid: common
random numbers keep the curve monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import POOL_SIZE, Calibrator, ConfigError, SeriesSystem

__all__ = ["SolverError", "NormalizingCurve", "solve_curve"]


class SolverError(RuntimeError):
    """Threshold calibration failed (non-finite mean, or residual above tolerance)."""


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
_RESIDUAL_TOL = 1e-9


def _check_grid(s_grid) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    if s.size == 0:
        raise ConfigError("empty s grid")
    if np.any((s <= 0.0) | (s >= 1.0)):
        raise SolverError(f"s values must lie strictly inside (0, 1), got {s}")
    return s


def _bisect(fn, s):
    """Per-point x in [0, 1] with fn(x) = s, for fn nondecreasing on [0, 1]."""
    lo, hi = np.zeros(s.shape), np.ones(s.shape)
    for _ in range(_ROOT_STEPS):
        mid = 0.5 * (lo + hi)
        below = fn(mid) <= s
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def solve_curve(system: SeriesSystem, n: int, s_grid, stream=None,
                pool_size: int = POOL_SIZE) -> NormalizingCurve:
    """Calibrate thresholds for a whole s grid at stage n; pools draw from the stream."""
    s = _check_grid(s_grid)
    cal = Calibrator(system, n, stream=stream, pool_size=pool_size)
    closed = system.closed_form_u(n, s)
    if closed is not None:
        u = np.asarray(closed, dtype=float)
        return NormalizingCurve(n, s, u, cal.value(u), cal.stderr_at(u), "closed_form")

    x = _bisect(cal.pgf, s)  # G_n(x) = s, bracketed by [0, 1]
    u = np.asarray(cal.quantile(x), dtype=float)
    achieved, stderr = cal.value(u), cal.stderr_at(u)
    if np.any(~np.isfinite(achieved)):
        raise SolverError("calibration mean evaluated to a non-finite value")
    resid = float(np.max(np.abs(achieved - s)))
    if resid > _RESIDUAL_TOL and cal.kind != "marginal_pool":  # an edf step is exempt
        raise SolverError(f"calibration residual {resid:.3g} exceeds tolerance {_RESIDUAL_TOL:.3g}")
    method = "deterministic_root" if cal.exact else "stochastic_root"
    return NormalizingCurve(n, s, u, achieved, stderr, method)
