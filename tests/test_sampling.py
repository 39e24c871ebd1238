"""Stream determinism and sampler correctness against analytic probes."""

import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import zeta as scipy_zeta

from extlab import sampling
from extlab.reference import RandomThresholdLimit
from extlab.sampling import (
    Degenerate,
    Distribution,
    Gamma,
    Pareto,
    PositiveStable,
    RandomStream,
    SymmetricStable,
    TwoPoint,
)
from oracles import PROBES, inline_positive_stable_cdf, probe_z, replay_two_point


# ---------------------------------------------------------------------------
# streams

def test_same_stream_reproduces():
    a = RandomStream(seed=123, stream_id=4).generator.random(100)
    b = RandomStream(seed=123, stream_id=4).generator.random(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RandomStream(seed=123, stream_id=0).generator.random(100)
    b = RandomStream(seed=123, stream_id=1).generator.random(100)
    c = RandomStream(seed=124, stream_id=0).generator.random(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_is_a_pure_function_of_index():
    root = RandomStream(seed=9, stream_id=2)
    a = root.substream(1, 7).generator.random(50)
    # drawing from the root does not perturb derived substreams
    root.generator.random(1000)
    b = root.substream(1, 7).generator.random(50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, root.substream(1, 8).generator.random(50))
    assert not np.array_equal(a, root.substream(2, 7).generator.random(50))


def test_stream_validates_range():
    with pytest.raises(ValueError):
        RandomStream(seed=-1)
    with pytest.raises(ValueError):
        RandomStream(seed=2**64)
    with pytest.raises(ValueError):
        RandomStream(seed=0, stream_id=2**64)


def test_stream_pickle_roundtrip():
    s = RandomStream(seed=55, stream_id=3).substream(2, 9)
    t = pickle.loads(pickle.dumps(s))
    assert np.array_equal(s.generator.random(20), t.generator.random(20))


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**31), st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_substream_collisionless_in_practice(seed, i, j):
    root = RandomStream(seed=seed, stream_id=0)
    a = root.substream(i).generator.random(4)
    b = root.substream(j).generator.random(4)
    assert (i == j) == bool(np.array_equal(a, b))


# ---------------------------------------------------------------------------
# distribution probes

_PROBED = [
    Gamma(0.5, 1.0),
    Gamma(3.0, 0.25),
    PositiveStable(0.25),
    PositiveStable(0.5),
    PositiveStable(0.8),
    SymmetricStable(1.0),
    SymmetricStable(1.5),
    SymmetricStable(2.0),
    Pareto(3.0, 2.0 / 3.0),
    TwoPoint(0.5, 1.5),
    Degenerate(1.0),
]


@pytest.mark.parametrize("dist", _PROBED, ids=lambda d: repr(d))
def test_probes_within_four_sigma(dist):
    stream = RandomStream(seed=2024, stream_id=11)
    for label, observed, expected, z in probe_z(dist, stream, draws=200_000):
        assert abs(z) < 4.0, (
            f"{dist!r} probe {label}: observed {observed:.6g}, expected {expected:.6g}, z={z:.2f}"
        )


def test_every_law_has_probes():
    # each law the library defines is checked by at least one closed-form probe
    laws = {obj for obj in vars(sampling).values() if isinstance(obj, type)
            and issubclass(obj, Distribution) and obj.__module__ == sampling.__name__}
    assert laws - {Distribution} <= {row[0] for row in PROBES}


def test_positive_stable_half_matches_inverse_gamma():
    # beta = 1/2 has the closed form S = 1/(4 G), G ~ Gamma(1/2, 1)
    rng1 = RandomStream(seed=77, stream_id=0).generator
    rng2 = RandomStream(seed=78, stream_id=0).generator
    s = PositiveStable(0.5).sample(rng1, 50_000)
    g = 1.0 / (4.0 * rng2.gamma(0.5, 1.0, 50_000))
    assert stats.ks_2samp(s, g).pvalue > 0.01


def test_symmetric_stable_special_cases():
    rng = RandomStream(seed=101, stream_id=0).generator
    cauchy = SymmetricStable(1.0).sample(rng, 50_000)
    assert stats.kstest(cauchy, "cauchy").pvalue > 0.01
    gauss = SymmetricStable(2.0).sample(rng, 50_000)
    assert stats.kstest(gauss, "norm", args=(0.0, math.sqrt(2.0))).pvalue > 0.01


def test_symmetric_stable_cdf_matches_empirical():
    dist = SymmetricStable(1.5)
    x = dist.sample(RandomStream(seed=5, stream_id=1).generator, 40_000)
    for q in (-2.0, -0.5, 0.0, 1.0, 3.0):
        emp = float(np.mean(x <= q))
        assert abs(emp - float(dist.cdf(q))) < 0.01


def test_symmetric_stable_far_tails_follow_the_leading_term():
    # P(X > x) ~ Gamma(gamma) sin(pi gamma / 2) / pi x^-gamma; scipy's cdf
    # returns exactly 1 and 0 out here for 1 < gamma < 2
    g = 1.5
    dist = SymmetricStable(g)
    for x in (1e4, 1e5):
        lead = math.gamma(g) * math.sin(0.5 * math.pi * g) / math.pi * x ** -g
        assert 1.0 - float(dist.cdf(x)) == pytest.approx(lead, rel=1e-4)
        assert float(dist.cdf(-x)) == pytest.approx(lead, rel=1e-4)


def test_symmetric_stable_tail_matches_scipy_where_scipy_holds():
    dist = SymmetricStable(0.7)
    x = np.array([-1e3, -1e4, -1e5])
    assert np.allclose(dist.cdf(x), stats.levy_stable.cdf(x, 0.7, 0.0), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("gamma, tol", [(1.0, 2 * np.finfo(float).eps),
                                        (2.0, 2 * np.finfo(float).eps),
                                        (0.7, 1e-12), (1.5, 1e-12)])
def test_symmetric_stable_quantile_inverts_cdf(gamma, tol):
    dist = SymmetricStable(gamma)
    p = np.array([1e-7, 0.05, 0.5, 0.95, 1.0 - 1e-7])
    x = dist.quantile(p)
    assert np.all(np.diff(x) > 0.0)
    assert np.max(np.abs(dist.cdf(x) - p)) <= tol


def test_zipf_normalization_against_series():
    # independent oracle: Euler-Maclaurin tail correction on the partial sum
    for beta in (2.5, 3.5):
        k = np.arange(1, 20_001, dtype=float)
        partial = float(np.sum(k**-beta))
        tail = 20_000.5 ** (1.0 - beta) / (beta - 1.0)
        assert abs(partial + tail - float(scipy_zeta(beta))) < 1e-10


def test_two_point_expect_is_exact():
    d = TwoPoint(0.5, 1.5, 0.25)
    assert d.expect(lambda x: x) == pytest.approx(0.25 * 0.5 + 0.75 * 1.5)
    assert d.expect(lambda x: x**2) == pytest.approx(0.25 * 0.25 + 0.75 * 2.25)


@pytest.mark.parametrize("p", [0.25, 1.0 / 3.0, 0.5, 1e-3, 2.0**-60, 1.0 - 2.0**-53])
def test_two_point_draws_replay_the_53_bit_comparison(p):
    # one word a draw, its top 53 bits against the cut: P = ceil(p 2^53)/2^53, both atoms exact
    for size in (1, 8, 4099):
        d = TwoPoint(-0.0, 3.0, p)
        x = d.sample(RandomStream(seed=9, stream_id=size).generator, size)
        want = replay_two_point(d, RandomStream(seed=9, stream_id=size).generator, size)
        assert x.shape == (size,) and x.tobytes() == want.tobytes()


def test_two_point_scalar_draw_reads_one_uniform_and_shapes_pass_through():
    d = TwoPoint(0.5, 1.5, 0.25)
    for seed in range(20):
        u = RandomStream(seed=seed, stream_id=0).generator.random()
        assert d.sample(RandomStream(seed=seed, stream_id=0).generator) == (0.5 if u < 0.25 else 1.5)
    assert d.sample(RandomStream(seed=0, stream_id=0).generator, (2, 3)).shape == (2, 3)


def test_gamma_expect_agrees_with_closed_form():
    # the Gamma threshold means' density quadrature reproduces an exact Laplace transform
    assert RandomThresholdLimit(Gamma(2.0, 0.5)).expect(lambda x: np.exp(-x)) == pytest.approx(
        (1.0 + 0.5) ** -2.0, rel=1e-12)
    # the Pareto law is read only through its closed forms
    with pytest.raises(NotImplementedError):
        RandomThresholdLimit(Pareto(3.0, 2.0 / 3.0)).expect(lambda x: 1.0 / x)


@given(st.floats(0.01, 0.99))
@settings(max_examples=40, deadline=None)
def test_cdf_quantile_roundtrip(p):
    dist = Pareto(2.5, 0.5)
    assert float(dist.cdf(dist.quantile(p))) == pytest.approx(p, abs=1e-9)


# ---------------------------------------------------------------------------
# size-biased forms

def test_size_biased_two_point():
    d = TwoPoint(0.5, 1.5, 0.5)
    sb = d.size_biased()
    assert sb.p_lo == pytest.approx(0.25)
    assert (sb.lo, sb.hi) == (0.5, 1.5)


def test_size_biased_gamma_and_pareto():
    g = Gamma(1.7, 0.4).size_biased()
    assert (g.shape, g.scale) == (2.7, 0.4)
    p = Pareto(3.0, 2.0).size_biased()
    assert (p.a, p.x_min) == (2.0, 2.0)
    with pytest.raises(ValueError):
        Pareto(1.0, 1.0).size_biased()


def _pareto_mean(dist, fn):
    """E fn(X) from the Pareto density a x_min^a x^(-a-1), by scipy's quadrature."""
    a, xm = dist.a, dist.x_min
    return integrate.quad(lambda x: fn(x) * a * xm**a * x ** (-a - 1.0), xm, math.inf)[0]


def test_size_biased_matches_reweighted_expectation():
    # E h(X~) = E[X h(X)] / E[X] for any h; check with h = exp(-x)
    for dist in (TwoPoint(0.5, 1.5), Gamma(2.0, 0.5), Pareto(3.0, 2.0 / 3.0)):
        mean = dist.mean()
        weight = lambda x: x * np.exp(-x)  # noqa: E731
        want = (_pareto_mean(dist, weight) if isinstance(dist, Pareto)
                else RandomThresholdLimit(dist).expect(weight)) / mean
        x = dist.size_biased().sample(RandomStream(seed=31, stream_id=2).generator, 400_000)
        h = np.exp(-x)
        se = float(h.std(ddof=1)) / math.sqrt(h.size)
        assert abs(float(h.mean()) - want) < 4.0 * se + 1e-12


def test_size_biased_default_is_not_implemented():
    with pytest.raises(NotImplementedError):
        PositiveStable(0.5).size_biased()


# ---------------------------------------------------------------------------
# the quadrature rule

def _logistic_integral(s, c):
    """int_0^1 dy / (1 + e^(-s (y - c))) = [ln(1 + e^(s (y - c))) / s] from 0 to 1."""
    return (1.0 - c) + (math.log1p(math.exp(-s * (1.0 - c))) - math.log1p(math.exp(-s * c))) / s


@pytest.mark.parametrize("fn, a, b, want", [
    (lambda y: y**-0.5, 0.0, 1.0, 2.0),
    (np.exp, -math.inf, 0.0, 1.0),
    (lambda y: 1.0 / (1.0 + np.exp(-200.0 * (y - 0.3))), 0.0, 1.0, _logistic_integral(200.0, 0.3)),
    (lambda y: np.exp(-1e8 * y), 0.0, 1.0, 1e-8),
    (np.exp, -math.inf, -720.0, math.exp(-720.0)),
], ids=["endpoint_singularity", "exp_sinh", "steep_logistic", "steep_at_an_end", "subnormal"])
def test_integral_of_known_integrals(fn, a, b, want):
    # the subnormal e^-720 is spaced 5e-324 apart, and every node's term rounds to that
    tol = {"abs": 1e-321} if want < sys.float_info.min else {"rel": 1e-14, "abs": 0.0}
    assert sampling._integral(fn, a, b) == pytest.approx(want, **tol)


def test_integral_reaches_a_feature_next_to_a_half_line_end():
    # e^(1e8 y) on (-inf, 0] puts its integral 1e-8 within 1e-7 of the end, where
    # exp-sinh's last node stops 2e-19 short
    assert sampling._integral(lambda y: np.exp(1e8 * y), -math.inf, 0.0) == pytest.approx(
        1e-8, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("fn", [lambda y: (y > 1.0 / 3.0) * 1.0, lambda y: np.full(y.shape, np.nan)],
                         ids=["jump", "nan"])
def test_integral_that_cannot_settle_raises(fn):
    with pytest.raises(ArithmeticError):
        sampling._integral(fn, 0.0, 1.0)


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.7, 0.9])
def test_positive_stable_cdf_on_the_shared_nodes_is_bit_equal(beta):
    # the cdf feeds the stable-size law's exact G, so sharing the rule's nodes moves no bit
    x = np.concatenate([[1e-12], np.logspace(-6.0, 6.0, 121), [1e300]])
    assert PositiveStable(beta).cdf(x).tobytes() == inline_positive_stable_cdf(beta, x).tobytes()
    assert PositiveStable(beta).cdf(0.3) == inline_positive_stable_cdf(beta, 0.3)


# ---------------------------------------------------------------------------
# parameter validation

@pytest.mark.parametrize(
    "ctor",
    [
        lambda: Gamma(-1.0, 1.0),
        lambda: PositiveStable(1.0),
        lambda: PositiveStable(0.0),
        lambda: SymmetricStable(2.5),
        lambda: Pareto(0.0, 1.0),
        lambda: TwoPoint(1.5, 0.5),
        lambda: TwoPoint(0.5, 1.5, 1.0),
        lambda: Gamma(1.0, 0.0),
        lambda: SymmetricStable(0.0),
        lambda: Pareto(1.0, 0.0),
        lambda: TwoPoint(0.5, 1.5, 0.0),
    ],
)
def test_invalid_parameters_raise(ctor):
    with pytest.raises(ValueError):
        ctor()
