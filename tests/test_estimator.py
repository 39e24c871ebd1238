"""Curve estimation, index extraction, and the Definition-2 fit."""

import concurrent.futures
import math

import numpy as np
import pytest

from extlab import estimator, systems
from extlab.copulas import ClaytonGenerator
from extlab.estimator import (
    DEFAULT_GRID,
    PsiEstimate,
    def2_fit,
    estimate_psi,
    index_report,
    isotonic_fit,
    mean_log_slope,
    partial_indices,
    tail_indices,
)
from extlab.sampling import RandomStream

from oracles import PooledStableSize, bisect_root
from extlab.systems import (
    Calibrator,
    ConfigError,
    DuplicatedIidSystem,
    ExchangeableCopulaSystem,
    GeometricThresholdSystem,
    PowerLawGraphSystem,
    StableSizeGumbelSystem,
)


def _stream(seed):
    return RandomStream(seed=seed, stream_id=0)


def _clayton():
    return ExchangeableCopulaSystem(ClaytonGenerator(1.0))


# ---------------------------------------------------------------------------
# estimate_psi

def test_estimate_matches_exact_max_law():
    sys_ = _clayton()
    n, reps = 100, 40_000
    est = estimate_psi(sys_, n, s_grid=[0.2, 0.5, 0.8], replicates=reps, stream=_stream(1))
    want = np.asarray(sys_.exact_max_cdf(n, est.u), dtype=float)
    assert np.all(np.abs(est.psi_hat - want) < 4.0 * np.sqrt(want * (1 - want) / reps))


def test_worker_count_is_invisible():
    sys_ = _clayton()
    kw = dict(s_grid=[0.3, 0.7], replicates=1280, stream=_stream(2))
    serial = estimate_psi(sys_, 50, workers=0, **kw)
    two = estimate_psi(sys_, 50, workers=2, **kw)
    three = estimate_psi(sys_, 50, workers=3, **kw)
    assert np.array_equal(serial.psi_hat, two.psi_hat)
    assert np.array_equal(serial.psi_hat, three.psi_hat)
    assert np.array_equal(serial.batch_counts, two.batch_counts)
    assert np.array_equal(serial.batch_counts, three.batch_counts)


def test_process_pool_is_capped_at_the_batch_count(monkeypatch):
    # a fake executor records max_workers and maps in this process; no worker starts
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    # estimate_psi imports the executor only when workers > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    kw = dict(s_grid=[0.3, 0.7], replicates=1280, stream=_stream(2))
    serial = estimate_psi(_clayton(), 50, workers=0, **kw)
    for workers, cap in ((3, 3), (64, 64), (100_000, 64)):
        pooled = estimate_psi(_clayton(), 50, workers=workers, **kw)
        assert asked[-1] == cap
        assert np.array_equal(pooled.batch_counts, serial.batch_counts)
    assert len(asked) == 3


def test_batch_layout_and_stderr():
    est = estimate_psi(_clayton(), 50, s_grid=[0.5], replicates=1000, stream=_stream(3))
    assert est.batch_sizes.sum() == 1000
    assert set(est.batch_sizes.tolist()) == {15, 16}
    assert (est.batch_sizes == 16).sum() == 1000 % 64
    p = est.psi_hat
    assert np.allclose(est.stderr, np.sqrt(p * (1 - p) / 1000), rtol=1e-12)
    assert est.batch_counts.sum(axis=0)[0] == round(p[0] * 1000)


def test_default_grid_and_kept_maxima():
    est = estimate_psi(_clayton(), 50, replicates=2000, stream=_stream(4), keep_maxima=True)
    assert np.array_equal(est.s, DEFAULT_GRID)
    assert est.maxima.shape == (2000,)
    replay = np.mean(est.maxima[:, None] <= est.u[None, :], axis=0)
    assert np.allclose(replay, est.psi_hat, rtol=1e-12)


def test_kept_maxima_are_the_batches_in_draw_order():
    # each batch is sorted in place for its count unless it is kept, and a kept
    # batch keeps its draw order while its count reads a sorted copy
    sys_, n, reps = _clayton(), 50, 2000
    kw = dict(s_grid=[0.2, 0.5, 0.8], replicates=reps, stream=_stream(5))
    kept = estimate_psi(sys_, n, keep_maxima=True, **kw)
    replay = np.concatenate([
        sys_.sample_batch(n, int(size), _stream(5).substream(estimator._REPLICATE_TAG, j).generator)
        for j, size in enumerate(kept.batch_sizes)])
    assert kept.batch_sizes.size == 64
    assert np.array_equal(kept.maxima, replay)
    assert np.array_equal(kept.batch_counts, estimate_psi(sys_, n, **kw).batch_counts)


def test_estimate_validation():
    with pytest.raises(ConfigError):
        estimate_psi(_clayton(), 50, replicates=1000)
    with pytest.raises(ConfigError):
        estimate_psi(_clayton(), 50, replicates=63, stream=_stream(6))
    estimate_psi(_clayton(), 50, s_grid=[0.5], replicates=64, stream=_stream(6))


# ---------------------------------------------------------------------------
# index extraction on synthetic curves

def _synthetic(s, psi, batch_counts=None, batch_sizes=None, replicates=100):
    s = np.asarray(s, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if batch_counts is None:
        batch_counts = np.outer([replicates], np.round(psi * replicates)).astype(np.int64)
        batch_sizes = np.array([replicates], dtype=np.int64)
    return PsiEstimate(
        system_name="synthetic", n=10, replicates=replicates, s=s, u=s.copy(),
        psi_hat=psi, stderr=np.zeros_like(psi), curve=None,
        batch_counts=np.asarray(batch_counts, dtype=np.int64),
        batch_sizes=np.asarray(batch_sizes, dtype=np.int64),
    )


def test_partial_and_tail_indices():
    est = _synthetic([0.1, 0.5, 0.9], [0.1**2.0, 0.5**0.5, 0.9**1.0])
    lo, hi = partial_indices(est)
    assert lo == pytest.approx(0.5, rel=1e-12)
    assert hi == pytest.approx(2.0, rel=1e-12)
    t0, t1 = tail_indices(est)
    assert t0 == pytest.approx(2.0, rel=1e-12)
    assert t1 == pytest.approx(1.0, rel=1e-12)


def test_tail_indices_sort_by_s_not_position():
    est = _synthetic([0.9, 0.1], [0.9**3.0, 0.1**2.0])
    t0, t1 = tail_indices(est)
    assert t0 == pytest.approx(2.0, rel=1e-12)
    assert t1 == pytest.approx(3.0, rel=1e-12)


def test_zero_psi_gives_infinite_slope():
    est = _synthetic([0.1, 0.9], [0.0, 0.9])
    t0, _ = tail_indices(est)
    assert math.isinf(t0) and t0 > 0
    assert partial_indices(est)[1] == math.inf


def test_mean_log_slope_batch_se():
    s = np.array([0.2, 0.8])
    counts = np.array([[10, 40], [12, 38], [8, 44], [11, 39]], dtype=np.int64)
    sizes = np.array([50, 50, 50, 50], dtype=np.int64)
    psi = counts.sum(axis=0) / 200.0
    est = _synthetic(s, psi, batch_counts=counts, batch_sizes=sizes, replicates=200)
    mean, se = mean_log_slope(est)
    assert mean == pytest.approx(float(np.mean(np.log(psi) / np.log(s))), rel=1e-12)
    # delete-one-batch jackknife over the pooled counts, written as a loop
    loo = np.array([np.mean(np.log(np.delete(counts, j, axis=0).sum(axis=0) / 150.0) / np.log(s))
                    for j in range(4)])
    assert se == pytest.approx(math.sqrt(3.0 / 4.0 * np.sum((loo - loo.mean()) ** 2)), rel=1e-12)


def test_mean_log_slope_drops_empty_batches():
    s = np.array([0.5])
    counts = np.array([[0], [20], [25], [22]], dtype=np.int64)
    sizes = np.array([50, 50, 50, 50], dtype=np.int64)
    est = _synthetic(s, counts.sum(axis=0) / 200.0,
                     batch_counts=counts, batch_sizes=sizes, replicates=200)
    mean, se = mean_log_slope(est)
    assert math.isfinite(mean) and math.isfinite(se)


def test_mean_log_slope_error_with_one_replicate_per_batch():
    # at 64 replicates most batches hold a zero count somewhere on the grid;
    # the pooled leave-one-out means stay finite, so the error bar is not 0
    est = estimate_psi(DuplicatedIidSystem(2), 50, replicates=64, stream=_stream(13))
    assert np.any(est.batch_counts == 0)
    mean, se = mean_log_slope(est)
    assert math.isfinite(mean)
    assert math.isfinite(se) and se > 0.0


def test_mean_log_slope_nan_when_a_leave_one_out_mean_is_infinite():
    s = np.array([0.5])
    counts = np.array([[0], [0], [3], [0]], dtype=np.int64)
    sizes = np.array([5, 5, 5, 5], dtype=np.int64)
    est = _synthetic(s, counts.sum(axis=0) / 20.0,
                     batch_counts=counts, batch_sizes=sizes, replicates=20)
    mean, se = mean_log_slope(est)
    assert math.isfinite(mean) and math.isnan(se)


def test_isotonic_fit_pools_violators():
    assert np.allclose(isotonic_fit([3.0, 1.0, 2.0]), [2.0, 2.0, 2.0])
    assert np.allclose(isotonic_fit([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert np.allclose(isotonic_fit([4.0, 3.0, 5.0]), [3.5, 3.5, 5.0])
    out = isotonic_fit(np.random.default_rng(7).random(50))
    assert np.all(np.diff(out) >= 0.0)


# ---------------------------------------------------------------------------
# Definition-2 fit

def test_def2_recovers_duplication_index():
    sys_ = DuplicatedIidSystem(2)
    est = estimate_psi(sys_, 50, replicates=25_600, stream=_stream(8))
    fit = def2_fit(est)
    assert abs(fit.theta - 0.5) < 0.02
    assert fit.discrepancy < 0.02
    assert fit.discrepancy_at(1.0) > 5.0 * fit.discrepancy
    assert fit.discrepancy_at(fit.theta) == pytest.approx(fit.discrepancy, abs=1e-9)


def test_def2_accepts_prebuilt_estimate():
    sys_ = DuplicatedIidSystem(2)
    est = estimate_psi(sys_, 50, replicates=6400, stream=_stream(9))
    fit = def2_fit(est)
    assert fit.estimate is est
    assert abs(fit.theta - 0.5) < 0.05


def test_def2_fails_for_exceedance_stopping():
    # the max sits above the threshold by construction, so the curve has a
    # flat zero stretch that no power of the calibration mean can follow
    sys_ = GeometricThresholdSystem(eps=0.05)
    est = estimate_psi(sys_, 100, replicates=25_600, stream=_stream(10))
    fit = def2_fit(est)
    assert fit.discrepancy > 0.05
    assert np.min(fit.estimate.psi_hat) == 0.0


def test_def2_validation():
    sys_ = DuplicatedIidSystem(2)
    est = estimate_psi(sys_, 50, replicates=640, stream=_stream(11))
    with pytest.raises(ConfigError):
        def2_fit(est, theta_bounds=(0.0, 1.0))
    with pytest.raises(ConfigError):
        def2_fit(est, theta_bounds=(2.0, 1.0))
    with pytest.raises(ConfigError):
        def2_fit(est, theta_bounds=(0.1, math.inf))


def _no_pool(*a, **k):
    raise AssertionError("a second pool was drawn")


def test_def2_refuses_a_marginal_pool_before_drawing_it(monkeypatch):
    # the power-law graph knows F_n only through a pool of draws
    sys_ = PowerLawGraphSystem(3.5)
    est = estimate_psi(sys_, 100, s_grid=[0.5], replicates=64, stream=_stream(1))
    monkeypatch.setattr(systems, "build_calibration_pool", _no_pool)
    with pytest.raises(ConfigError, match="def2_fit needs a closed-form marginal"):
        def2_fit(est)


@pytest.mark.parametrize("sys_,n,seed", [
    (DuplicatedIidSystem(2), 50, 13),
    (StableSizeGumbelSystem(0.5, 0.5), 1000, 14),
], ids=["duplicated_iid", "stable_size"])
def test_def2_fit_is_exact_minimax(sys_, n, seed):
    # the upper gap A = max(psi_hat - G) rises in theta and the lower gap
    # B = max(G - psi_hat) falls, so D = max(A, B) is least where A = B
    est = estimate_psi(sys_, n, replicates=6400, stream=_stream(seed))

    def one_sided_gaps(fit):
        g = est.psi_hat - est.curve.calibrator.laplace(fit.theta * est.curve.lam)
        return np.max(g), np.max(-g)

    def bisected_theta(fit):  # 60 halvings of A - B in log theta
        lo, hi = fit.bounds

        def spread(t):
            g = fit.gaps(lo ** (1.0 - t[0]) * hi ** t[0])
            return np.array([np.max(g) + np.min(g)])

        t = bisect_root(spread, np.zeros(1))[0]
        return lo ** (1.0 - t) * hi ** t

    fit = def2_fit(est)
    upper, lower = one_sided_gaps(fit)
    assert 0.2 < fit.theta < 2.0
    assert abs(upper - lower) <= 1e-12
    assert fit.discrepancy == pytest.approx(max(upper, lower), rel=1e-12)
    assert fit.theta == bisected_theta(fit)  # the same adjacent doubles in t
    # a crossing outside the bounds: D is monotone on them, least at the nearer bound
    for bounds, nearer in (((0.01, 0.2), 0.2), ((2.0, 10.0), 2.0)):
        fit = def2_fit(est, theta_bounds=bounds)
        assert fit.theta == pytest.approx(nearer, rel=1e-12)
        assert fit.theta == nearer  # bisection's t of 2^-61 or 1 gives the bound exactly


def test_def2_reads_the_calibrator_that_fixed_the_thresholds(monkeypatch):
    # a pooled size law: the fit matches psi_hat against the very pool that
    # calibrated u_n, and draws none of its own
    sys_ = PooledStableSize(0.5, 0.5)
    est = estimate_psi(sys_, 1000, replicates=6400, stream=_stream(14))
    monkeypatch.setattr(systems, "build_calibration_pool", _no_pool)
    fit = def2_fit(est)
    assert 0.2 < fit.theta < 2.0
    assert np.array_equal(fit.gaps(1.0), est.psi_hat - est.curve.achieved)


def test_def2_fit_pgf_calls(monkeypatch):
    # the calibration benchmark's stable_size experiment at seed 1: 61 calls
    # with 60 halvings, the fit's own discrepancy included
    sys_ = StableSizeGumbelSystem(0.5, math.log(2.0))
    stream = _stream(1)
    est = estimate_psi(sys_, 10_000, s_grid=np.linspace(0.05, 0.95, 7),
                       replicates=50_000, stream=stream)
    calls = []
    laplace = Calibrator.laplace
    monkeypatch.setattr(Calibrator, "laplace",
                        lambda self, lam: calls.append(lam) or laplace(self, lam))
    def2_fit(est)
    assert len(calls) <= 24


# ---------------------------------------------------------------------------
# report assembly

def test_index_report_fields():
    est = _synthetic([0.2, 0.5, 0.8], [0.2**1.5, 0.5**1.2, 0.8**1.1])
    rep = index_report(est)
    assert rep.theta_minus == pytest.approx(1.1, rel=1e-12)
    assert rep.theta_plus == pytest.approx(1.5, rel=1e-12)
    assert rep.theta0 == pytest.approx(1.5, rel=1e-12)
    assert rep.theta1 == pytest.approx(1.1, rel=1e-12)
    assert rep.isotonic_violation == 0.0
    assert rep.theta_def2 is None and rep.def2_discrepancy is None
    d = rep.as_dict()
    assert set(d) == {
        "theta_minus", "theta_plus", "theta0", "theta1",
        "grid_mean_slope", "grid_mean_slope_se",
        "isotonic_violation", "theta_def2", "def2_discrepancy",
    }


def test_index_report_flags_nonmonotone_curve():
    est = _synthetic([0.2, 0.5, 0.8], [0.30, 0.20, 0.70])
    rep = index_report(est)
    assert rep.isotonic_violation == pytest.approx(0.05, rel=1e-12)


def test_index_report_carries_def2():
    sys_ = DuplicatedIidSystem(2)
    est = estimate_psi(sys_, 50, replicates=6400, stream=_stream(12))
    fit = def2_fit(est)
    rep = index_report(fit.estimate, fit)
    assert rep.theta_def2 == fit.theta
    assert rep.def2_discrepancy == fit.discrepancy
