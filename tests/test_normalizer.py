"""Threshold calibration: routes, residual control, failure modes."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from extlab import normalizer
from extlab.copulas import ClaytonGenerator
from extlab.estimator import DEFAULT_GRID
from extlab.normalizer import NormalizingCurve, SolverError, _complement_root, _root, solve_curve
from extlab.sampling import Gamma, RandomStream, TwoPoint
from extlab.systems import (
    BranchingHereditySystem,
    Calibrator,
    ConfigError,
    DuplicatedIidSystem,
    ExchangeableCopulaSystem,
    GeometricThresholdSystem,
    MixtureSpikeSystem,
    PowerLawGraphSystem,
    RandomThresholdSystem,
    SeriesSystem,
    SizeJitterSystem,
    StableSizeGumbelSystem,
)

from oracles import PooledStableSize, TwoPointThresholdLimit, bisect_root


def _stream(seed):
    return RandomStream(seed=seed, stream_id=0)


# ---------------------------------------------------------------------------
# closed-form route

def test_closed_form_copula():
    curve = solve_curve(ExchangeableCopulaSystem(ClaytonGenerator(1.0)), 100, [0.5])
    assert curve.method == "closed_form"
    assert curve.u[0] == pytest.approx(0.5**0.01, rel=1e-12)
    assert curve.achieved[0] == pytest.approx(0.5, rel=1e-12)
    assert curve.stderr[0] == 0.0


def test_closed_form_geometric():
    curve = solve_curve(GeometricThresholdSystem(eps=0.01), 1000, [0.5])
    assert curve.u[0] == pytest.approx(0.5 / 0.505, rel=1e-12)
    assert curve.achieved[0] == pytest.approx(0.5, rel=1e-12)


def test_closed_form_random_threshold():
    # both atoms lie below n, so f_n = f and u = n / (n + f^{-1}(s)) in closed form
    n, s = 1000, np.array([0.05, 0.5, 0.8, 0.95])
    curve = solve_curve(RandomThresholdSystem(TwoPoint(0.5, 1.5)), n, s)
    assert curve.method == "closed_form"
    want = n / (n + TwoPointThresholdLimit(0.5).f_inv(s))
    assert np.allclose(curve.u, want, rtol=1e-15, atol=0.0)
    assert np.allclose(curve.achieved, s, rtol=1e-12, atol=0.0)
    bisected = solve_curve(_BisectedThreshold(TwoPoint(0.5, 1.5)), n, s)
    assert np.allclose(bisected.u, curve.u, rtol=1e-12, atol=0.0)


def test_closed_form_without_size_pgf_reports_pool_noise():
    sys_ = PooledStableSize(beta=0.5, gamma=0.5)
    with pytest.raises(ConfigError):
        solve_curve(sys_, 1000, [0.5])  # the pooled mean needs a stream
    seeded = solve_curve(sys_, 1000, [0.5], stream=_stream(3), pool_size=50_000)
    assert seeded.method == "closed_form"
    assert seeded.u[0] == sys_.threshold_at(1000, sys_.closed_form_lam(1000, [0.5]))[0]
    assert math.isfinite(seeded.achieved[0]) and seeded.stderr[0] > 0.0
    assert abs(seeded.achieved[0] - 0.5) < 4.0 * seeded.stderr[0] + 2e-3


def test_closed_form_mixture_spike():
    # the size n gives lam = -ln s / n in closed form; the threshold is the marginal's
    # numeric inverse at e^-lam
    sys_ = MixtureSpikeSystem(1.0)
    n = 10
    curve = solve_curve(sys_, n, [0.2, 0.5, 0.8])
    assert curve.method == "closed_form"
    assert np.all(np.diff(curve.u) > 0.0)
    assert np.allclose(curve.achieved, [0.2, 0.5, 0.8], atol=1e-9)
    # replay the calibration mean by hand at the solved threshold
    u = curve.u[1]
    marg = u * (1.0 + (u ** (n - 1) - 1.0) / n)
    assert marg**n == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# deterministic root route

class _BisectedThreshold(RandomThresholdSystem):
    """A random-threshold system without its closed-form lam."""

    def closed_form_lam(self, n, s):
        return None


def test_deterministic_root_random_threshold():
    curve = solve_curve(_BisectedThreshold(TwoPoint(0.5, 1.5)), 1000, [0.8])
    assert curve.method == "deterministic_root"
    assert 0.997 < curve.u[0] < 1.0
    assert curve.achieved[0] == pytest.approx(0.8, abs=1e-9)
    assert curve.stderr[0] == 0.0


@pytest.mark.parametrize("law, n, s", [
    (Gamma(20.0, 0.05), 3, [0.2, 0.5, 0.8]),
    (Gamma(2.0, 0.5), 100, [1e-6, 1.0 - 1e-6]),
])
def test_random_threshold_quadrature_warns_only_above_tolerance(law, n, s):
    # quad cannot certify 1e-12 here, but its own error estimate is far below 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        curve = solve_curve(RandomThresholdSystem(law), n, s)
    assert np.max(np.abs(curve.achieved - np.asarray(s))) <= 1e-9


# ---------------------------------------------------------------------------
# stochastic root route

def test_stochastic_root_branching_reproducible():
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)
    a = solve_curve(sys_, 6, [0.3, 0.5, 0.8], stream=_stream(5), pool_size=50_000)
    b = solve_curve(sys_, 6, [0.3, 0.5, 0.8], stream=_stream(5), pool_size=50_000)
    assert a.method == "stochastic_root"
    assert np.array_equal(a.u, b.u)
    assert np.all(np.diff(a.u) > 0.0)
    # the pooled mean is continuous in u here, so bisection nails it
    assert np.allclose(a.achieved, [0.3, 0.5, 0.8], atol=1e-8)
    assert np.all(a.stderr > 0.0)


def test_graph_closed_form_with_pool_diagnostics():
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    curve = solve_curve(sys_, 100, [0.3, 0.7], stream=_stream(7), pool_size=40_000)
    # the tail-based threshold formula wins over pooled root finding; the
    # achieved values then carry the finite-n bias of that formula
    assert curve.method == "closed_form"
    assert np.all(curve.u > 0.0)
    assert np.all(np.abs(curve.achieved - curve.s) < 0.08)
    assert np.all(curve.stderr > 0.0)


def test_pool_required_when_stochastic():
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)
    with pytest.raises(ConfigError):
        solve_curve(sys_, 6, [0.5])


def test_stable_size_takes_the_deterministic_root():
    # the size law is summed exactly, and its asymptotic closed-form threshold
    # exp(-(-ln s)^(1/beta) / n) misses s by more than the residual tolerance
    sys_ = StableSizeGumbelSystem(beta=0.5, gamma=math.log(2.0))
    curve = solve_curve(sys_, 10_000, _GRID7)
    assert curve.method == "deterministic_root"
    assert np.max(np.abs(curve.achieved - _GRID7)) <= 1e-9
    assert np.all(curve.stderr == 0.0) and np.all(np.diff(curve.u) > 0.0)
    asymptotic = PooledStableSize(beta=0.5, gamma=math.log(2.0)).closed_form_lam(10_000, _GRID7)
    assert np.max(np.abs(sys_.size_laplace(10_000, asymptotic) - _GRID7)) > 1e-9


def test_size_jitter_takes_the_deterministic_root():
    # the jittered size law is summed exactly: no pool, no stream
    sys_ = SizeJitterSystem(ExchangeableCopulaSystem(ClaytonGenerator(1.0)))
    curve = solve_curve(sys_, 10_000, _GRID7)
    assert curve.method == "deterministic_root"
    assert np.max(np.abs(curve.achieved - _GRID7)) <= 1e-9
    assert np.all(curve.stderr == 0.0) and np.all(np.diff(curve.u) > 0.0)


# ---------------------------------------------------------------------------
# the bracketed root against plain bisection

_GRID7 = np.linspace(0.05, 0.95, 7)


def _bisected_complement_root(monkeypatch, laplace, s):
    """_complement_root with its bracketed root replaced by 60 plain halvings."""
    with monkeypatch.context() as m:
        m.setattr(normalizer, "_root", bisect_root)
        return _complement_root(laplace, s)


def _samplers_branching():
    return BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)


@pytest.mark.parametrize("sys_,n", [
    (_samplers_branching(), 16),
    (PooledStableSize(beta=0.5, gamma=math.log(2.0)), 10_000),
], ids=["branching_heredity", "stable_size_gumbel"])
def test_root_matches_bisection_on_pool_pgf(sys_, n, monkeypatch):
    fn = Calibrator(sys_, n, stream=_stream(1), pool_size=50_000).laplace
    want = _bisected_complement_root(monkeypatch, fn, _GRID7)
    assert np.array_equal(_complement_root(fn, _GRID7), want)


@pytest.mark.parametrize("count", [7, 19])
def test_root_matches_bisection_on_exact_pgf(count, monkeypatch):
    s = np.linspace(0.05, 0.95, count)
    for sys_, n in ((MixtureSpikeSystem(0.5), 10_000), (GeometricThresholdSystem(eps=0.01), 1000),
                    (StableSizeGumbelSystem(beta=0.5, gamma=math.log(2.0)), 10_000)):
        fn = Calibrator(sys_, n).laplace
        want = _bisected_complement_root(monkeypatch, fn, s)
        assert np.array_equal(_complement_root(fn, s), want)


def test_small_root_within_two_pow_minus_60():
    # below 2^-8 the bracket may stop at width 2^-60 on other doubles; G on the x scale
    fn = Calibrator(SizeJitterSystem(DuplicatedIidSystem(2)), 4, stream=_stream(1)).value
    got, want = _root(fn, np.array([1e-6])), bisect_root(fn, np.array([1e-6]))
    assert want[0] < 2.0**-8
    assert abs(got[0] - want[0]) <= 2.0**-60


_BREAKS = (0.6180339887498949, 0.5, 2.0**-8, 1.0 - 2.0**-50, 1e-100)


def _adversarial(kind, p):
    """Nondecreasing fns on [0, 1] that break at p; s = 0.5 sits on the plateau."""
    q = p + 0.5 * (1.0 - p)
    return {
        "step": lambda x: np.where(x < p, 0.0, 1.0),
        "plateau": lambda x: np.where(x < p, 0.5 * x / p, np.where(
            x <= q, 0.5, 0.5 + 0.5 * (x - q) / (1.0 - q))),
        "jump": lambda x: np.where(x < p, 0.2 * x, 0.6 + 0.4 * x),
        "nan_above": lambda x: np.where(x <= p, 0.5 * x / p, np.nan),
    }[kind]


@pytest.mark.parametrize("kind", ["step", "plateau", "jump", "nan_above"])
def test_root_on_adversarial_fns(kind):
    s = np.array([1e-300, 1e-6, 0.1, 0.5, 0.7, 1.0 - 1e-12])
    for p in _BREAKS:
        fn = _adversarial(kind, p)
        calls = []

        def counted(x, fn=fn, calls=calls):
            calls.append(x.size)
            return fn(x)

        got, want = _root(counted, s), bisect_root(fn, s)
        assert np.all(np.abs(got - want) <= 2.0**-60), (p, got, want)
        assert np.array_equal(got[want >= 2.0**-8], want[want >= 2.0**-8])
        # every point sees at most the two end values and 61 steps
        assert len(calls) <= 63


def test_solve_curve_pgf_points(monkeypatch):
    # the samplers benchmark's branching pool; 60 halvings took 7 x 60 points
    points = []
    laplace = Calibrator.laplace
    monkeypatch.setattr(Calibrator, "laplace",
                        lambda self, lam: points.append(np.size(lam)) or laplace(self, lam))
    curve = solve_curve(_samplers_branching(), 16, _GRID7, stream=_stream(1))
    assert curve.method == "stochastic_root"
    assert sum(points) <= 210


# ---------------------------------------------------------------------------
# failure modes

class _FlatSystem(SeriesSystem):
    """G pinned at a constant: no lam in [0, inf] reaches s."""

    name = "flat"

    def __init__(self, level):
        self.level = level

    def size_laplace(self, n, lam):
        return np.full_like(np.asarray(lam, dtype=float), self.level)


class _StepSystem(SeriesSystem):
    """G with a jump: the root exists but the residual cannot close."""

    name = "step"

    def size_laplace(self, n, lam):
        return np.where(np.asarray(lam, dtype=float) <= -math.log(0.7), 0.9, 0.1)


class _MisplacedThresholdJitter(SizeJitterSystem):
    """The jittered size law with a threshold that misses F^{-1}(e^-lam)."""

    def threshold_at(self, n, lam):
        return 0.5 * np.exp(-np.asarray(lam, dtype=float))


def test_no_upper_bracket():
    # G stays below s at every lam: the root cannot reach s
    with pytest.raises(SolverError, match="residual"):
        solve_curve(_FlatSystem(0.3), 10, [0.5])


def test_no_lower_bracket():
    # G stays above s at every lam: the root cannot reach s
    with pytest.raises(SolverError, match="residual"):
        solve_curve(_FlatSystem(0.3), 10, [0.1])


def test_residual_tolerance_enforced():
    # a jump in G, and G at the wrong u
    jitter = _MisplacedThresholdJitter(ExchangeableCopulaSystem(ClaytonGenerator(1.0)))
    for sys_, s in ((_StepSystem(), 0.5), (jitter, 0.5)):
        with pytest.raises(SolverError, match="residual"):
            solve_curve(sys_, 10, [s], stream=_stream(11), pool_size=10_000)


def test_stable_size_root_is_carried_as_its_complement():
    # at beta = 0.2, n = 1e4 the root for s = 0.95 sits 3.5e-11 below 1, where one
    # double moves G by 3e-8; lam = -ln x carries it, and the residual holds there
    sys_ = StableSizeGumbelSystem(beta=0.2, gamma=math.log(2.0))
    curve = solve_curve(sys_, 10_000, [0.5, 0.95])
    assert curve.method == "deterministic_root"
    assert np.max(np.abs(curve.achieved - curve.s)) <= 1e-9
    fn = Calibrator(sys_, 10_000).value
    steps = fn(np.nextafter(curve.u, 2.0)) - fn(np.nextafter(curve.u, -1.0))
    assert steps[1] > 1e-8  # no threshold in x comes within 1e-9
    assert np.all(np.abs(fn(curve.u) - curve.s) <= steps)  # u_n is the double nearest the root
    # a root within 2^-54 of 1 leaves u_n = 1, where G reads 1: at beta = 0.1, n = 1e4
    with pytest.raises(SolverError, match="residual"):
        solve_curve(StableSizeGumbelSystem(beta=0.1, gamma=math.log(2.0)), 10_000, [0.95])


def test_size_jitter_residual_holds_at_the_double_u_n():
    # the jitter's residual is read at its carried lam; at its stage bound, on the
    # default grid, G read at the double u_n closes to 1e-9 as well
    sys_ = SizeJitterSystem(ExchangeableCopulaSystem(ClaytonGenerator(1.0)))
    curve = solve_curve(sys_, 10**6, DEFAULT_GRID)
    assert curve.method == "deterministic_root"
    assert np.max(np.abs(curve.calibrator.value(curve.u) - curve.s)) <= 1e-9


def test_spike_residual_is_read_at_its_marginal():
    # at n = 1e15 the spike's threshold_at returns u_n = e^-lam, yet G read at that
    # double misses s by 0.13; a residual read at -ln F_n(u_n), not at the carried
    # lam, stops the run
    with pytest.raises(SolverError, match="residual"):
        solve_curve(MixtureSpikeSystem(0.5), 10**15, [0.5])


def test_closed_form_residual_is_read_at_the_double_u_n():
    # Clayton(1) at n = 1e8: lam = -ln s / n is exact, but G read at the double
    # u_n = e^-lam misses s by 4.6e-9 on the default grid, and the residual refuses it
    with pytest.raises(SolverError, match="residual"):
        solve_curve(ExchangeableCopulaSystem(ClaytonGenerator(1.0)), 10**8, DEFAULT_GRID)


def test_stable_far_tail_root_closes():
    # at gamma = 1.5 the roots sit at |u| ~ 1e3, past where scipy's cdf holds
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.5, a=0.5)
    s = [0.05, 0.5, 0.95]
    curve = solve_curve(sys_, 14, s, stream=_stream(7))
    assert np.max(np.abs(curve.achieved - s)) <= 1e-9
    assert np.all(np.diff(curve.u) > 0.0) and curve.u[-1] > 1e3


def test_grid_validation():
    sys_ = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    with pytest.raises(SolverError):
        solve_curve(sys_, 10, [0.0, 0.5])
    with pytest.raises(SolverError):
        solve_curve(sys_, 10, [0.5, 1.0])
    with pytest.raises(ConfigError):
        solve_curve(sys_, 10, [])
    with pytest.raises(ConfigError):
        solve_curve(sys_, 1, [0.5])


def test_curve_point_accessor():
    curve = solve_curve(ExchangeableCopulaSystem(ClaytonGenerator(1.0)), 10, [0.2, 0.8])
    assert isinstance(curve, NormalizingCurve)
    assert curve.s[1] == 0.8 and curve.u[1] == pytest.approx(0.8**0.1, rel=1e-12)
