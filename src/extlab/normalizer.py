"""Threshold calibration: solve E F_n(u)^nu_n = s for the level u_n(s).

The left side is G_n(lam) = E e^(-lam nu_n), the Laplace transform of the
series size, at lam = -ln F_n(u).  Every curve is solved in lam: by the
system's closed_form_lam where its size law inverts in closed form, else by
one bracketed root of G_n(lam) = s (`_complement_root`), which keeps full
relative precision where e^-lam is within a few doubles of 1.  Then
u_n = threshold_at(lam), the u with F_n(u) = e^-lam (for a marginal known
only through draws, an asymptotic tail threshold whose achieved values show
its bias).  The root finder (`sampling._root`) takes ITP-projected secant
steps and stops at the same adjacent doubles as 60 bisection steps in a
fraction of the evaluations.  G_n is exact ("deterministic_root") or the mean over a
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

from .sampling import _root
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

    def fn(t, _):
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
    if np.any(np.isnan(u)):  # a pooled closed form skips the residual; the count needs a u
        raise SolverError(f"no threshold at s = {s[np.isnan(u)]}")
    if method == "closed_form" or not _uniform_marginal(system):  # G read at the double u_n
        lam, achieved = cal.lam_at(u), cal.value(u)
    else:  # u_n = e^-lam; a threshold that rounds to 1 counts every replicate: G reads 1 there
        lam = np.where(u < 1.0, lam, 0.0)
        achieved = cal.laplace(lam)
    resid = float(np.max(np.abs(achieved - s)))  # a pooled closed form shows its pool's noise
    if (method != "closed_form" or cal.exact) and not resid <= _RESIDUAL_TOL:  # NaN fails too
        raise SolverError(f"calibration residual {resid:.3g} exceeds tolerance {_RESIDUAL_TOL:.3g}")
    return NormalizingCurve(n, s, u, lam, achieved, cal.stderr_at(u), method, cal)
