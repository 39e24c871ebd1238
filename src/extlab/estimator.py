"""Monte Carlo estimation of the limit curve and the indices read off it.

psi_hat(s) is the fraction of replicates whose maximum sits at or below the
calibrated threshold u_n(s), evaluated on one shared set of replicates for
the whole grid (common random numbers keep the curve monotone up to noise).

Replicates are drawn in a fixed layout of 64 batches, batch j on substream
(REPLICATE_TAG, j), and reduced in batch order with integer counts, so the
result is byte-identical no matter how many worker processes execute the
batches.  A calibration pool lives on its own substream, independent of the
replicates, and the Definition-2 fit reads the estimate's own calibrator at
the lam_n its curve carries.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .normalizer import NormalizingCurve, solve_curve
from .sampling import RandomStream, _root
from .systems import ConfigError, SeriesSystem

__all__ = [
    "PsiEstimate",
    "Def2Fit",
    "IndexReport",
    "estimate_psi",
    "partial_indices",
    "tail_indices",
    "mean_log_slope",
    "def2_fit",
    "isotonic_fit",
    "index_report",
]

_BATCHES = 64
# substream purpose tags: replicates, calibration pool
_REPLICATE_TAG = 1
_POOL_TAG = 2

DEFAULT_GRID = np.round(np.linspace(0.05, 0.95, 19), 10)


@dataclass
class PsiEstimate:
    """Empirical limit curve on an s grid at one stage n."""

    system_name: str
    n: int
    replicates: int
    s: np.ndarray
    u: np.ndarray
    psi_hat: np.ndarray
    stderr: np.ndarray
    curve: NormalizingCurve
    batch_counts: np.ndarray = field(repr=False)   # (64, len(s)) int64
    batch_sizes: np.ndarray = field(repr=False)    # (64,) int64
    maxima: np.ndarray | None = field(default=None, repr=False)


def _compare_cheaper(points: int, size: int) -> bool:
    """Whether one compare pass per threshold costs less than a sort and a search.

    Measured on batches of maxima (timeit, 2-CPU Xeon, numpy 2.4): a pass takes
    ~2 us + 0.2 ns a maximum, a sort and search ~5.8 ns a maximum; so long
    batches over short grids compare, and everything else sorts.
    """
    return points * (2000.0 + 0.2 * size) < 5.8 * size


def _counts(m: np.ndarray, u: np.ndarray, compare: bool) -> np.ndarray:
    """How many maxima of m lie at or below each threshold u_j; NaN maxima lie above all.

    compare: one count_nonzero(m <= u_j) pass per threshold, m left as it is;
    else m is sorted in place and searched (side right).  For every non-NaN
    u_j both give the same integer counts (`solve_curve` refuses a NaN one).
    """
    if compare:
        return np.array([np.count_nonzero(m <= uj) for uj in u.tolist()], dtype=np.int64)
    m.sort()
    return np.searchsorted(m, u, side="right").astype(np.int64)


def _replicate_batch(args):
    """Counts of batch j's maxima at or below each threshold, and the maxima if kept.

    A kept batch is returned in draw order: the compare route leaves it so,
    and the sort route sorts a copy.
    """
    system, n, u, seed, parent_id, j, size, keep = args
    rng = RandomStream(seed, parent_id).substream(_REPLICATE_TAG, j).generator
    m = system.sample_batch(n, size, rng)
    compare = _compare_cheaper(u.size, size)
    counts = _counts(m.copy() if keep and not compare else m, u, compare)
    return counts, m if keep else None


def estimate_psi(system: SeriesSystem, n: int, s_grid=None, replicates: int = 100_000,
                 stream: RandomStream | None = None, workers: int = 0,
                 keep_maxima: bool = False) -> PsiEstimate:
    """Estimate the limit curve: solve thresholds, then count threshold hits."""
    if stream is None:
        raise ConfigError("estimate_psi needs a RandomStream")
    if not isinstance(replicates, (int, np.integer)) or replicates < _BATCHES:
        raise ConfigError(f"replicates must be an integer >= {_BATCHES}, got {replicates!r}")
    s = DEFAULT_GRID.copy() if s_grid is None else np.atleast_1d(np.asarray(s_grid, dtype=float))
    thresholds = solve_curve(system, n, s, stream=stream.substream(_POOL_TAG))
    u = np.asarray(thresholds.u, dtype=float)

    sizes = np.full(_BATCHES, replicates // _BATCHES, dtype=np.int64)
    sizes[: replicates % _BATCHES] += 1
    # replicates >= _BATCHES, so every batch is drawn and row j holds batch j
    jobs = [(system, n, u, stream.seed, stream.stream_id, j, int(sizes[j]), keep_maxima)
            for j in range(_BATCHES)]
    if workers and workers > 1:
        # imported here, so a serial run never loads multiprocessing; a worker
        # past the 64th would hold no batch, yet fork starts every one up front
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(int(workers), _BATCHES)) as ex:
            results = list(ex.map(_replicate_batch, jobs))
    else:
        results = [_replicate_batch(job) for job in jobs]

    batch_counts = np.array([counts for counts, _ in results])
    total = batch_counts.sum(axis=0)
    psi_hat = total / float(replicates)
    stderr = np.sqrt(psi_hat * (1.0 - psi_hat) / replicates)
    maxima = None
    if keep_maxima:
        maxima = np.concatenate([m for _, m in results])
    return PsiEstimate(
        system_name=system.name, n=int(n), replicates=int(replicates),
        s=s, u=u, psi_hat=psi_hat, stderr=stderr, curve=thresholds,
        batch_counts=batch_counts, batch_sizes=sizes, maxima=maxima,
    )


# ---------------------------------------------------------------------------
# index extraction

def _log_slopes(est: PsiEstimate) -> np.ndarray:
    """log_s psi_hat(s) per grid point; +inf where psi_hat = 0."""
    with np.errstate(divide="ignore"):
        return np.log(est.psi_hat) / np.log(est.s)


def partial_indices(est: PsiEstimate) -> tuple[float, float]:
    """(theta_minus_hat, theta_plus_hat): grid extrema of log_s psi_hat."""
    slopes = _log_slopes(est)
    return float(np.min(slopes)), float(np.max(slopes))


def tail_indices(est: PsiEstimate) -> tuple[float, float]:
    """(theta0_hat, theta1_hat): the slope at the smallest and largest grid s."""
    slopes = _log_slopes(est)
    order = np.argsort(est.s)
    return float(slopes[order[0]]), float(slopes[order[-1]])


def mean_log_slope(est: PsiEstimate) -> tuple[float, float]:
    """Grid mean of log_s psi_hat with a delete-one-batch jackknife error.

    The batches are iid, so the grid means of the pooled counts with one
    batch left out give a correlation-honest error bar (Efron 1982), even
    where single batches have no hit; NaN when any of them is not finite.
    """
    mean = float(np.mean(_log_slopes(est)))
    with np.errstate(divide="ignore", invalid="ignore"):
        loo_psi = ((est.batch_counts.sum(axis=0) - est.batch_counts)
                   / (est.replicates - est.batch_sizes)[:, None])
        loo = np.mean(np.log(loo_psi) / np.log(est.s), axis=1)
    if not (math.isfinite(mean) and np.all(np.isfinite(loo))):
        return mean, math.nan
    return mean, math.sqrt((loo.size - 1) * np.var(loo))  # (B-1)/B * sum of squares


def isotonic_fit(y) -> np.ndarray:
    """Nondecreasing least-squares projection (pool adjacent violators)."""
    y = np.asarray(y, dtype=float)
    vals: list[float] = []
    wts: list[int] = []
    for v in y:
        vals.append(float(v))
        wts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            w = wts[-2] + wts[-1]
            vals[-2] = (vals[-2] * wts[-2] + vals[-1] * wts[-1]) / w
            wts[-2] = w
            vals.pop()
            wts.pop()
    return np.repeat(vals, wts)


# ---------------------------------------------------------------------------
# Definition-2 matching

@dataclass
class Def2Fit:
    """Best theta matching psi_hat against E F(u)^(theta nu) = G(theta lam)."""

    theta: float
    discrepancy: float
    bounds: tuple[float, float]
    estimate: PsiEstimate

    def gaps(self, theta: float) -> np.ndarray:
        """psi_hat - G(theta lam_n) per grid point; nondecreasing in theta."""
        curve = self.estimate.curve
        return self.estimate.psi_hat - curve.calibrator.laplace(float(theta) * curve.lam)

    def discrepancy_at(self, theta: float) -> float:
        """The sup-norm gap D(theta) = max_s |psi_hat - G(theta lam_n)|."""
        return float(np.max(np.abs(self.gaps(theta))))


def _refuse_def2(system: SeriesSystem) -> None:
    """def2_fit needs F_n in closed form; raises ConfigError on a marginal-pool system.

    On a marginal pool F_n(u) is the edf of the calibration pool, which holds
    only about POOL_SIZE * (-ln s) / n draws past each threshold, so the
    fitted theta would follow the pool's seed.
    """
    if system.calibration_kind == "marginal_pool":
        raise ConfigError(f"{system.name}: def2_fit needs a closed-form marginal d.f., "
                          f"and this system knows it only through a pool of draws")


def def2_fit(estimate: PsiEstimate, theta_bounds: tuple[float, float] = (0.01, 10.0)) -> Def2Fit:
    """Minimize the sup-norm gap D(theta) of the estimate at its stage n.

    The comparand is the calibrator that fixed the thresholds, the system's
    size law or the same frozen pool of sizes, at the curve's own lam_n:
    E F(u)^(theta nu) = G(theta lam_n).  G(theta lam) falls in theta for
    every lam >= 0, so with g = psi_hat - G(theta lam_n) the upper gap
    A = max g rises, the lower gap B = -min g falls, and D = max(A, B) is
    least exactly where A = B.  One bracketed root in log theta
    (`sampling._root`) finds the sign change of A - B = max g + min g to
    the same adjacent doubles as bisection; where A - B keeps one sign over
    the bounds, D is monotone and the nearer bound is the answer.
    """
    _refuse_def2(estimate.curve.calibrator.system)
    lo, hi = float(theta_bounds[0]), float(theta_bounds[1])
    if not (math.isfinite(hi) and 0.0 < lo < hi):
        raise ConfigError(f"need finite 0 < lo < hi in theta bounds, got {theta_bounds}")
    fit = Def2Fit(math.nan, math.nan, (lo, hi), estimate)

    def theta_at(t):  # lo at t = 0 and hi at t = 1, exactly
        return lo ** (1.0 - t) * hi ** t

    def spread(t, _):  # A - B, nondecreasing in t
        g = fit.gaps(theta_at(t[0]))
        return np.array([np.max(g) + np.min(g)])

    fit.theta = float(theta_at(_root(spread, np.zeros(1))[0]))
    fit.discrepancy = fit.discrepancy_at(fit.theta)
    return fit


# ---------------------------------------------------------------------------
# report

@dataclass
class IndexReport:
    """All index summaries extracted from one estimated curve."""

    theta_minus: float
    theta_plus: float
    theta0: float
    theta1: float
    grid_mean_slope: float
    grid_mean_slope_se: float
    isotonic_violation: float
    theta_def2: float | None = None
    def2_discrepancy: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def index_report(est: PsiEstimate, def2: Def2Fit | None = None) -> IndexReport:
    tm, tp = partial_indices(est)
    t0, t1 = tail_indices(est)
    gm, gse = mean_log_slope(est)
    order = np.argsort(est.s)
    violation = float(np.max(np.abs(est.psi_hat[order] - isotonic_fit(est.psi_hat[order]))))
    return IndexReport(
        theta_minus=tm, theta_plus=tp, theta0=t0, theta1=t1,
        grid_mean_slope=gm, grid_mean_slope_se=gse,
        isotonic_violation=violation,
        theta_def2=None if def2 is None else def2.theta,
        def2_discrepancy=None if def2 is None else def2.discrepancy,
    )
