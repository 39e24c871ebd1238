"""Threshold calibration: solve E F_n(u)^nu_n = s for the level u_n(s).

The left side is G_n(lam) = E e^(-lam nu_n), the Laplace transform of the
series size, at lam = -ln F_n(u).  Every curve is solved in lam: by the
system's closed_form_lam where its size law inverts in closed form, else by
one bracketed root of G_n(lam) = s (`_complement_root`), which keeps full
relative precision where e^-lam is within a few doubles of 1.  Then
u_n = threshold_at(lam), the u with F_n(u) = e^-lam (for a marginal known
only through draws, an asymptotic tail threshold whose achieved values show
its bias).  The root finder (`_root`) takes ITP-projected secant steps and
stops at the same adjacent doubles as 60 bisection steps in a fraction of
the evaluations.  G_n is exact ("deterministic_root") or the mean over a
frozen pool of sizes compressed into distinct sizes and counts
("stochastic_root"); a frozen pool is a fixed function, so the root is
reproducible and its stderr measures the pool noise.  Both are continuous,
so every root must close to 1e-9, and so must a closed form on an exact G.
The curve carries the lam at which that residual is read: e^-lam itself
for a root on the uniform marginal, else -ln F_n(u_n) at the double u_n.
One pool serves the whole s grid and the Definition-2 fit (the curve keeps
its calibrator): common random numbers keep the curve monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    lam: np.ndarray       # where G_n read `achieved`: achieved = calibrator.laplace(lam)
    achieved: np.ndarray
    stderr: np.ndarray
    method: str
    calibrator: Calibrator = field(repr=False)  # G_n and F_n, pool and all


_ROOT_STEPS = 60          # bisection's 60 halvings of [0, 1]; a root closes in at most 61 steps
_TRUNCATION = 0.2         # ITP's kappa1 on [0, 1]: a secant moves 0.2 w^2 toward the midpoint
_RESIDUAL_TOL = 1e-9
_LAM_BITS = (10.0, 70.0)  # the complement root's lam = 2^(10 - 70 t) over t in [0, 1]
_G_LO, _G_HI = np.finfo(float).tiny, 1.0 - 2.0**-53  # the complement root's clip on G


def _check_grid(s_grid) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s_grid, dtype=float))
    if s.size == 0:
        raise ConfigError("empty s grid")
    if np.any((s <= 0.0) | (s >= 1.0)):
        raise SolverError(f"s values must lie strictly inside (0, 1), got {s}")
    return s


def _sum_rounded(x, y, up: bool):
    """x + y rounded toward +inf (up) or -inf, from the exact error of the sum."""
    s = x + y
    z = s - x
    err = (x - (s - z)) + (y - z)
    if up:
        return np.where(err > 0.0, np.nextafter(s, np.inf), s)
    return np.where(err < 0.0, np.nextafter(s, -np.inf), s)


def _root(fn, s):
    """Per-point x in [0, 1] with fn(x) = s, for fn nondecreasing on [0, 1].

    The bracket keeps fn(lo) <= s < fn(hi), NaN counting as above, and takes
    fn(0) <= s < fn(1) as given.  It stops at two adjacent doubles or at
    width 2^-60 and returns its midpoint.  A nondecreasing fn crosses s
    between one pair of adjacent doubles, so a root of at least 2^-8 is the
    one 60 bisection steps find, bit for bit, and a smaller one lies within
    2^-60 of it.

    Each step is an ITP step (Oliveira & Takahashi 2021, ACM TOMS 47(1)):
    the secant through the last two points, moved toward the midpoint by
    0.2 w^2 (w the bracket width), then projected into the window that
    leaves the bracket at most 2^-j wide after step j.  So no point takes
    more than 61 steps, and on a smooth fn the secant converges
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
            x = x1 + (s - y1) * (x1 - x0) / (y1 - y0)
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


def _complement_root(laplace, s):
    """Per-point lam >= 0 with laplace(lam) = E e^(-lam nu) = s, to full relative precision.

    The bracket runs over t in [0, 1] with lam = 2^(10 - 70 t): e^-lam
    underflows to 0 at t = 0 and rounds to 1 from t = 1 - 6/70 on, where the
    residual refuses the threshold 1, so the bracket need not reach lam = 0.
    One double of t moves lam by a relative 5.4e-15 at most.  The secants read
    -ln(-ln G), linear in t where -ln G is a power of lam, with G clipped to
    [_G_LO, _G_HI]: a secant from an underflowed G falls short of the root
    instead of jumping to an end.
    """
    top, span = _LAM_BITS

    def lam(t):
        return np.exp2(top - span * t)

    def fn(t):
        return -np.log(-np.log(np.clip(laplace(lam(t)), _G_LO, _G_HI)))

    return lam(_root(fn, -np.log(-np.log(s))))


def _uniform_marginal(system: SeriesSystem) -> bool:
    """Whether the system keeps the uniform marginal of SeriesSystem, so u_n = e^-lam."""
    cls = type(system)
    return (cls.marginal_cdf is SeriesSystem.marginal_cdf
            and cls.threshold_at is SeriesSystem.threshold_at)


def solve_curve(system: SeriesSystem, n: int, s_grid, stream=None,
                pool_size: int = POOL_SIZE) -> NormalizingCurve:
    """Calibrate thresholds for a whole s grid at stage n; pools draw from the stream."""
    s = _check_grid(s_grid)
    cal = Calibrator(system, n, stream=stream, pool_size=pool_size)
    lam, method = system.closed_form_lam(n, s), "closed_form"
    if lam is None:  # G_n(lam) = s
        lam = _complement_root(cal.laplace, s)
        method = "deterministic_root" if cal.exact else "stochastic_root"
    u = np.asarray(system.threshold_at(n, lam), dtype=float)
    if method == "closed_form" or not _uniform_marginal(system):  # G read at the double u_n
        lam, achieved = cal.lam_at(u), cal.value(u)
    else:  # u_n = e^-lam; a threshold that rounds to 1 counts every replicate: G reads 1 there
        lam = np.where(u < 1.0, lam, 0.0)
        achieved = cal.laplace(lam)
    resid = float(np.max(np.abs(achieved - s)))  # a pooled closed form shows its pool's noise
    if (method != "closed_form" or cal.exact) and not resid <= _RESIDUAL_TOL:  # NaN fails too
        raise SolverError(f"calibration residual {resid:.3g} exceeds tolerance {_RESIDUAL_TOL:.3g}")
    return NormalizingCurve(n, s, u, lam, achieved, cal.stderr_at(u), method, cal)
