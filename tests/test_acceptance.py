"""Acceptance battery: statistical targets for every system family.

Each test pins one end-to-end behaviour with its tolerance.  Estimates are
checked against what the estimator promises on its grid (grid extrema of
log_s psi_hat, a curve at finite s); limits that only the deep tail reaches
(s -> 0 slopes) are checked on the closed-form reference itself.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from extlab.copulas import (
    ClaytonGenerator,
    FrankGenerator,
    GumbelHougaardGenerator,
    TiltedGenerator,
)
from extlab.estimator import (
    DEFAULT_GRID,
    def2_fit,
    estimate_psi,
    mean_log_slope,
    partial_indices,
    tail_indices,
)
from extlab.reference import GraphActivityLimit
from extlab.sampling import (
    Degenerate,
    PositiveStable,
    RandomStream,
    SymmetricStable,
    TwoPoint,
)
from extlab.systems import (
    BranchingHereditySystem,
    Calibrator,
    ExchangeableCopulaSystem,
    DuplicatedIidSystem,
    GeometricThresholdSystem,
    MixtureSpikeSystem,
    MonotoneTransformSystem,
    PowerLawGraphSystem,
    RandomThresholdSystem,
    SizeJitterSystem,
    StableSizeGumbelSystem,
)
from oracles import MaxStableLaw, TwoPointThresholdLimit, mixed_max_stable_cdf, probe_z

SEED = 7
N = 10_000
REPLICATES = 100_000


def _stream(sid=0):
    return RandomStream(seed=SEED, stream_id=sid)


def _slopes_with_se(est):
    """log_s psi_hat per grid point and its delta-method standard error."""
    log_s = np.log(est.s)
    slopes = np.log(est.psi_hat) / log_s
    se = est.stderr / (est.psi_hat * np.abs(log_s))
    return slopes, se


def _exact_slopes(ref, s):
    s = np.asarray(s, dtype=float)
    return np.log(np.asarray(ref.psi(s))) / np.log(s)


# ---------------------------------------------------------------------------
# 1. Clayton curve against its closed form, with a wall-clock budget

def test_clayton_curve_matches_closed_form():
    sys_ = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    t0 = time.perf_counter()
    est = estimate_psi(sys_, N, replicates=REPLICATES, stream=_stream(), workers=8)
    runtime = time.perf_counter() - t0
    ref = sys_.reference().psi(est.s)
    dev = np.abs(est.psi_hat - np.asarray(ref))
    assert np.all(dev <= np.maximum(0.01, 3.0 * est.stderr)), dev
    assert runtime <= 60.0, f"run took {runtime:.1f}s"


# ---------------------------------------------------------------------------
# 2. Frank curve; the grid-min slope and the deep-tail bound it tends to

def test_frank_curve_matches_closed_form():
    sys_ = ExchangeableCopulaSystem(FrankGenerator(2.0))
    est = estimate_psi(sys_, N, replicates=REPLICATES, stream=_stream())
    ref = sys_.reference().psi(est.s)
    dev = np.abs(est.psi_hat - np.asarray(ref))
    assert np.all(dev <= np.maximum(0.01, 3.0 * est.stderr)), dev


def test_frank_grid_min_slope_reaches_deep_tail_bound():
    sys_ = ExchangeableCopulaSystem(FrankGenerator(2.0))
    est = estimate_psi(sys_, N, replicates=REPLICATES, stream=_stream())
    ref = sys_.reference()
    theta_minus = ref.indices()["theta_minus"]
    # on the grid: the estimated grid-min slope is the exact curve's, and
    # like every slope of the curve it stays above the infimum theta_minus
    slopes, se = _slopes_with_se(est)
    k = int(np.argmin(slopes))
    exact_min = float(np.min(_exact_slopes(ref, est.s)))
    assert abs(slopes[k] - exact_min) <= max(0.01, 3.0 * se[k]), (
        f"grid-min slope {slopes[k]:.4f} vs exact {exact_min:.4f} "
        f"(se {se[k]:.4f})"
    )
    assert slopes[k] >= theta_minus, (slopes[k], theta_minus)
    # the infimum 2/(e^2 - 1) = 0.31304 is the s -> 0 limit of log_s psi,
    # far below the grid edge s = 0.05 (exact slope 0.5263 there): the
    # exact slope falls strictly toward it and is within 0.005 at 1e-300
    assert theta_minus == pytest.approx(2.0 / (math.e**2 - 1.0), rel=1e-12)
    deep = _exact_slopes(ref, [0.05, 1e-3, 1e-6, 1e-12, 1e-30, 1e-100, 1e-300])
    assert np.all(np.diff(deep) < 0), deep
    assert abs(deep[-1] - theta_minus) <= 0.005, deep


# ---------------------------------------------------------------------------
# 3. power-tilted series: curve at sqrt(s) and the matching index

def test_tilted_curve_and_def2_index():
    gen = TiltedGenerator(GumbelHougaardGenerator(1.0), gamma=math.log(2.0))
    sys_ = ExchangeableCopulaSystem(gen)
    est = estimate_psi(sys_, N, replicates=REPLICATES, stream=_stream())
    dev = np.abs(est.psi_hat - np.sqrt(est.s))
    assert np.all(dev <= 3.0 * est.stderr + 0.01), dev
    fit = def2_fit(est)
    assert 0.45 <= fit.theta <= 0.55, fit.theta
    assert fit.discrepancy <= 0.02, fit.discrepancy


# ---------------------------------------------------------------------------
# 4. spiked series: exact finite-n law, sub-diagonal curve, deep-tail slope

def test_spike_small_n_max_law():
    sys_ = MixtureSpikeSystem(1.0)
    m = sys_.sample_batch(10, REPLICATES, _stream().generator)
    # at n = 10 the max law is exactly x^19
    assert stats.kstest(m, lambda x: x**19.0).pvalue > 0.01


@pytest.fixture(scope="module")
def spike_estimate():
    sys_ = MixtureSpikeSystem(1.0)
    grid = np.unique(np.concatenate([[0.01], DEFAULT_GRID]))
    return estimate_psi(sys_, N, s_grid=grid, replicates=REPLICATES, stream=_stream())


def test_spike_curve_below_diagonal(spike_estimate):
    est = spike_estimate
    assert np.all(est.psi_hat < est.s), est.s[est.psi_hat >= est.s]


def test_spike_upper_partial_index_band(spike_estimate):
    est = spike_estimate
    ref = MixtureSpikeSystem(1.0).reference()
    # on the grid: theta_plus_hat is the exact curve's grid-max slope
    # (1.5772 at the grid edge s = 0.01)
    theta_plus = partial_indices(est)[1]
    slopes, se = _slopes_with_se(est)
    k = int(np.argmax(slopes))
    exact_max = float(np.max(_exact_slopes(ref, est.s)))
    assert abs(theta_plus - exact_max) <= max(0.01, 3.0 * se[k]), (
        f"upper partial index {theta_plus:.4f} vs exact grid max "
        f"{exact_max:.4f} (se {se[k]:.4f})"
    )
    # the band [1.85, 2.15] around 1 + gamma = 2 is reached only in the deep
    # tail: the exact slope enters it near s = 1e-6 and keeps climbing
    assert ref.indices()["theta_plus"] == 2.0
    deep = _exact_slopes(ref, [0.01, 1e-6, 1e-12, 1e-50])
    assert np.all(np.diff(deep) > 0), deep
    assert np.all((1.85 <= deep[1:]) & (deep[1:] <= 2.15)), deep


# ---------------------------------------------------------------------------
# 5. the two index notions separate on the stable-size series

def test_stable_size_indices_separate():
    sys_ = StableSizeGumbelSystem(beta=0.5, gamma=math.log(2.0))
    est = estimate_psi(sys_, N, replicates=REPLICATES, stream=_stream())
    slope, se = mean_log_slope(est)
    assert 0.66 <= slope <= 0.76, (slope, se)
    fit = def2_fit(est)
    assert 0.45 <= fit.theta <= 0.55, fit.theta
    # the interval estimates must not overlap: over the whole 3-se band of
    # the curve index, the matching discrepancy stays far above its minimum
    lo, hi = slope - 3.0 * se, slope + 3.0 * se
    assert lo > fit.theta
    worst = min(fit.discrepancy_at(t) for t in np.linspace(lo, hi, 21))
    assert worst > 2.0 * fit.discrepancy, (worst, fit.discrepancy)


# ---------------------------------------------------------------------------
# 6. vanishing fixed thresholds: curve exists, no matching index

def test_geometric_threshold_curve_and_no_matching_index():
    sys_ = GeometricThresholdSystem(eps_exponent=0.5)
    est = estimate_psi(sys_, N, replicates=REPLICATES, stream=_stream())
    s = list(np.round(est.s, 10))
    psi_03 = est.psi_hat[s.index(0.3)]
    psi_08 = est.psi_hat[s.index(0.8)]
    assert abs(psi_08 - 0.75) <= 0.02, psi_08
    assert psi_03 <= 0.01, psi_03
    # analytic confirmation of the 0.05 margin: minimize the sup distance
    # between the limit curve 0 v (2 - 1/s) and the theta-matched family
    psi_lim = np.maximum(0.0, 2.0 - 1.0 / DEFAULT_GRID)
    best = min(
        float(np.max(np.abs(psi_lim - DEFAULT_GRID / (t + (1.0 - t) * DEFAULT_GRID))))
        for t in np.geomspace(0.01, 10.0, 2000)
    )
    assert best >= 0.05, best
    fit = def2_fit(est)
    assert fit.discrepancy >= 0.05, fit.discrepancy


# ---------------------------------------------------------------------------
# 7. random thresholds: curve, flat-zero tail, and the s -> 1 exponent

def test_random_threshold_curve_and_tail_exponents():
    sys_ = RandomThresholdSystem(TwoPoint(0.5, 1.5))
    est = estimate_psi(sys_, N, replicates=REPLICATES, stream=_stream())
    ref = np.asarray(TwoPointThresholdLimit(0.5).psi(est.s))
    assert np.all(np.abs(est.psi_hat - ref) <= 0.02 + 3.0 * est.stderr)
    assert np.all(est.psi_hat[est.s <= 0.35] == 0.0)
    theta0, theta1 = tail_indices(est)
    assert math.isinf(theta0) and theta0 > 0
    assert 0.65 <= theta1 <= 0.85, theta1


# ---------------------------------------------------------------------------
# 8. branching population: the matching index is the right one

@pytest.fixture(scope="module")
def branching_run():
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)
    stream = _stream()
    est = estimate_psi(sys_, 16, replicates=10_000, stream=stream, workers=2)
    cal = Calibrator(sys_, 16, stream=stream.substream(3))
    return est, cal


def test_branching_matching_index(branching_run):
    est, cal = branching_run

    def dis(theta):
        return float(np.max(np.abs(est.psi_hat - cal.laplace(theta * cal.lam_at(est.u)))))

    at_ref = dis(2.0 / 3.0)
    assert at_ref <= 0.03, at_ref
    assert at_ref < dis(0.4), (at_ref, dis(0.4))
    assert at_ref < dis(1.0), (at_ref, dis(1.0))


# ---------------------------------------------------------------------------
# 9. graph maxima: index via the curve; the dependent max and its
#    independent comparator converge to Frechet laws that differ by 1 + EK

@pytest.fixture(scope="module")
def graph_run():
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    return estimate_psi(sys_, N, replicates=10_000, stream=_stream(),
                        keep_maxima=True)


def test_graph_mean_slope(graph_run):
    slope, se = mean_log_slope(graph_run)
    assert abs(slope - 0.4565) <= 0.1, (slope, se)


def test_graph_max_law_against_dependent_limit(graph_run):
    # the max law converges to the standard Frechet curve, the aggregate
    # tail's factor 1 + EK cancelled by the index theta = 1/(1 + EK)
    ref = GraphActivityLimit(3.5, a=1.0)
    ks = stats.kstest(graph_run.maxima / N, ref.max_limit_cdf).statistic
    assert ks <= 0.05, ks


def test_graph_max_law_against_comparator_limit(graph_run):
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    ref = GraphActivityLimit(3.5, a=1.0)
    # the independent comparator: maxima of N iid aggregate marginals,
    # 2000 of them, drawn 200 at a time on their own substream
    rng = _stream(10).generator
    comparator = np.concatenate([
        sys_.sample_marginal(N, 200 * N, rng).reshape(200, N).max(axis=1)
        for _ in range(10)
    ])
    ks = stats.kstest(comparator / N, ref.comparator_limit_cdf).statistic
    assert ks <= 0.05, f"comparator max: KS {ks:.4f} to exp(-(1+EK)/x)"
    # the dependent max follows exp(-1/x) instead; the limiting distance
    # sup|e^-t - e^-(1+EK)t| = 0.281 is the index theta = 1/(1+EK) at work
    dep = stats.kstest(graph_run.maxima / N, ref.comparator_limit_cdf).statistic
    assert dep >= 0.2, f"dependent max: KS {dep:.4f} to exp(-(1+EK)/x)"


# ---------------------------------------------------------------------------
# 10. property suite

def test_monotone_transform_invariance_end_to_end():
    base = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    wrapped = MonotoneTransformSystem(base, 2.0)
    kw = dict(s_grid=[0.2, 0.5, 0.8], replicates=20_000)
    est_b = estimate_psi(base, N, stream=_stream(), **kw)
    est_w = estimate_psi(wrapped, N, stream=_stream(), **kw)
    assert np.array_equal(est_b.psi_hat, est_w.psi_hat)
    assert np.allclose(est_w.u, est_b.u**2, rtol=1e-12)


def test_size_jitter_leaves_curve_in_place():
    base = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    jittered = SizeJitterSystem(base)
    est = estimate_psi(jittered, N, replicates=REPLICATES, stream=_stream())
    ref = jittered.reference().psi(est.s)
    dev = np.abs(est.psi_hat - np.asarray(ref))
    assert np.all(dev <= 0.02 + 3.0 * est.stderr), dev


def test_duplication_halves_the_exponent():
    est = estimate_psi(DuplicatedIidSystem(2), N, replicates=REPLICATES,
                       stream=_stream())
    dev = np.abs(est.psi_hat - np.sqrt(est.s))
    assert np.all(dev <= 3.0 * est.stderr + 0.01), dev


def test_mixed_max_stable_identities():
    law = MaxStableLaw("gumbel")
    x = np.linspace(-2.0, 5.0, 29)
    got = mixed_max_stable_cdf(law, Degenerate(2.0), 0.7, x)
    assert np.max(np.abs(got - law.cdf(x) ** 1.4)) < 1e-9
    frechet = MaxStableLaw("frechet", alpha=1.0)
    xx = np.array([0.25, 0.5, 1.0, 2.0, 8.0])
    got = mixed_max_stable_cdf(frechet, PositiveStable(0.5), 1.0, xx)
    assert np.max(np.abs(got - np.exp(-(xx**-0.5)))) < 1e-9


def test_sampler_validation_battery():
    rng_stream = _stream(9)
    for dist in (PositiveStable(0.5), PositiveStable(0.8),
                 SymmetricStable(1.0), SymmetricStable(1.5), SymmetricStable(2.0)):
        for check in probe_z(dist, rng_stream, draws=1_000_000):
            assert abs(check[3]) < 4.0, (dist, check)


# ---------------------------------------------------------------------------
# 11. determinism across worker counts, through the command line

def test_worker_counts_yield_identical_files(tmp_path):
    cfg = {
        "system": {"kind": "exchangeable_copula",
                   "generator": {"family": "clayton", "alpha": 1.0}},
        "n": N,
        "replicates": REPLICATES,
        "seed": SEED,
        "analyses": ["psi", "partial_indices", "tail_indices", "compare"],
    }
    cfg_path = tmp_path / "determinism.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "extlab.cli", "run",
             "--config", str(cfg_path), "--workers", str(workers),
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
