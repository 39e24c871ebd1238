"""Threshold calibration: solve E F_n(u)^nu_n = s for the level u_n(s).

The left side is G_n(F_n(u)), with G_n(x) = E x^nu_n the generating
function of the series size.  A system that gives u_n(s) itself (an exact
inverse, or an asymptotic tail threshold whose achieved values show its
bias) takes the closed_form route.  Every other curve is one bracketed root
of G_n(x) = s over x in [0, 1], which brackets every root, then
u = F_n^{-1}(x).  The root finder (`_root`) takes ITP-projected secant steps
on the Gumbel scale, where G_n is close to linear, and stops at the same
adjacent doubles as 60 bisection steps in a fraction of the evaluations.
G_n is exact ("deterministic_root") or the mean over a frozen pool of sizes
compressed into distinct sizes and counts ("stochastic_root"); a frozen pool
is a fixed function, so the root is reproducible and its stderr measures the
pool noise.  Both are continuous in x, so every root must close to 1e-9.
One pool serves the whole s grid: common random numbers keep the curve
monotone.
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


_ROOT_STEPS = 60          # bisection's 60 halvings of [0, 1]; a root closes in at most 61 steps
_TRUNCATION = 0.2         # ITP's kappa1 on [0, 1]: a secant moves 0.2 w^2 toward the midpoint
_RESIDUAL_TOL = 1e-9


def _check_grid(s_grid) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    if s.size == 0:
        raise ConfigError("empty s grid")
    if np.any((s <= 0.0) | (s >= 1.0)):
        raise SolverError(f"s values must lie strictly inside (0, 1), got {s}")
    return s


class _Plain:
    """Secants on x and fn(x) themselves."""

    @staticmethod
    def gap(u, v):
        return v - u

    @staticmethod
    def move(x, d):
        return x + d


class _Gumbel:
    """Secants on ln(-ln x) and ln(-ln G), where G(x) = E x^nu is close to linear.

    -ln G(x) ~ E nu (-ln x) as x -> 1.  Values are clipped to [tiny, 1 - 2^-53],
    so an underflowed G reads as the least normal double and a secant from it
    falls short of the root instead of jumping to an end.  Near points differ
    through log1p, so a secant still resolves adjacent doubles.
    """

    _LO, _HI = np.finfo(float).tiny, 1.0 - 2.0**-53

    @classmethod
    def gap(cls, u, v):  # ln(-ln v) - ln(-ln u)
        u, v = np.clip(u, cls._LO, cls._HI), np.clip(v, cls._LO, cls._HI)
        far = np.log(-np.log(v)) - np.log(-np.log(u))
        near = np.log1p(np.log1p((v - u) / u) / np.log(u))
        return np.where(np.abs(far) < 1.0, near, far)

    @classmethod
    def move(cls, x, d):  # the point d past x on this scale
        x = np.clip(x, cls._LO, cls._HI)
        return x * np.exp(np.log(x) * np.expm1(d))


def _sum_rounded(x, y, up: bool):
    """x + y rounded toward +inf (up) or -inf, from the exact error of the sum."""
    s = x + y
    z = s - x
    err = (x - (s - z)) + (y - z)
    if up:
        return np.where(err > 0.0, np.nextafter(s, np.inf), s)
    return np.where(err < 0.0, np.nextafter(s, -np.inf), s)


def _root(fn, s, scale=_Plain):
    """Per-point x in [0, 1] with fn(x) = s, for fn nondecreasing on [0, 1].

    The bracket keeps fn(lo) <= s < fn(hi), NaN counting as above, and takes
    fn(0) <= s < fn(1) as given.  It stops at two adjacent doubles or at
    width 2^-60 and returns its midpoint.  A nondecreasing fn crosses s
    between one pair of adjacent doubles, so a root of at least 2^-8 is the
    one 60 bisection steps find, bit for bit, and a smaller one lies within
    2^-60 of it.

    Each step is an ITP step (Oliveira & Takahashi 2021, ACM TOMS 47(1)):
    the secant through the last two points on `scale`, moved toward the
    midpoint by 0.2 w^2 (w the bracket width), then projected into the window
    that leaves the bracket at most 2^-j wide after step j.  So no point
    takes more than 61 steps, and on a smooth fn the secant converges
    superlinearly.  fn(0) and fn(1) start the secant; after that fn sees
    only the points whose bracket is still open.
    """
    s = np.asarray(s, dtype=float)
    lo, hi = np.zeros(s.shape), np.ones(s.shape)
    x0, y0, x1, y1 = lo, fn(lo), hi, fn(hi)
    out = np.empty(s.shape)
    todo = np.arange(s.size)
    for j in range(_ROOT_STEPS + 1):
        done = (hi - lo <= 2.0**-_ROOT_STEPS) | (np.nextafter(lo, 1.0) >= hi)
        out[todo[done]] = 0.5 * (lo[done] + hi[done])
        todo, s, lo, hi, x0, y0, x1, y1 = (
            v[~done] for v in (todo, s, lo, hi, x0, y0, x1, y1))
        if not todo.size:
            return out
        mid, trunc = 0.5 * (lo + hi), _TRUNCATION * (hi - lo) ** 2
        with np.errstate(all="ignore"):
            x = scale.move(x1, scale.gap(y1, s) * scale.gap(x0, x1) / scale.gap(y0, y1))
            x += np.clip(mid - x, -trunc, trunc)
        x = np.where(np.isfinite(x), x, mid)
        w = 2.0**-j  # the largest bracket this step may leave
        x = np.clip(x, np.maximum(_sum_rounded(hi, -w, up=True), np.nextafter(lo, 1.0)),
                    np.minimum(_sum_rounded(lo, w, up=False), np.nextafter(hi, 0.0)))
        y = fn(x)
        above = ~(y <= s)
        lo, hi = np.where(above, lo, x), np.where(above, x, hi)
        x0, y0, x1, y1 = x1, y1, x, y
    out[todo] = 0.5 * (lo + hi)  # each bracket is now at most 2^-60 wide
    return out


def solve_curve(system: SeriesSystem, n: int, s_grid, stream=None,
                pool_size: int = POOL_SIZE) -> NormalizingCurve:
    """Calibrate thresholds for a whole s grid at stage n; pools draw from the stream."""
    s = _check_grid(s_grid)
    cal = Calibrator(system, n, stream=stream, pool_size=pool_size)
    closed = system.closed_form_u(n, s)
    if closed is not None:
        u = np.asarray(closed, dtype=float)
        return NormalizingCurve(n, s, u, cal.value(u), cal.stderr_at(u), "closed_form")

    # G_n(x) = s, bracketed by [0, 1]
    x = _root(cal.pgf, s, _Gumbel)
    u = np.asarray(system.marginal_quantile(n, x), dtype=float)
    achieved, stderr = cal.value(u), cal.stderr_at(u)
    if np.any(~np.isfinite(achieved)):
        raise SolverError("calibration mean evaluated to a non-finite value")
    resid = float(np.max(np.abs(achieved - s)))
    if resid > _RESIDUAL_TOL:
        raise SolverError(f"calibration residual {resid:.3g} exceeds tolerance {_RESIDUAL_TOL:.3g}")
    method = "deterministic_root" if cal.exact else "stochastic_root"
    return NormalizingCurve(n, s, u, achieved, stderr, method)
