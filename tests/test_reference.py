"""Closed-form limit models: frozen values, cross-checks, system lookup."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from extlab.copulas import (
    ClaytonGenerator,
    FrankGenerator,
    GumbelHougaardGenerator,
    IndependenceGenerator,
    TiltedGenerator,
)
from extlab.reference import (
    ArchimedeanLimit,
    BranchingHeredityIndex,
    DuplicatedIidLimit,
    FixedThresholdLimit,
    GraphActivityLimit,
    RandomThresholdLimit,
    SpikeMixtureLimit,
    StableSizeGumbelLimit,
)
from extlab.estimator import DEFAULT_GRID
from extlab.sampling import (
    Degenerate,
    Gamma,
    Pareto,
    PositiveStable,
    RandomStream,
    TwoPoint,
)
from extlab.systems import (
    BranchingHereditySystem,
    DuplicatedIidSystem,
    ExchangeableCopulaSystem,
    GeometricThresholdSystem,
    MixtureSpikeSystem,
    MonotoneTransformSystem,
    PowerLawGraphSystem,
    RandomThresholdSystem,
    SeriesSystem,
    SizeJitterSystem,
    StableSizeGumbelSystem,
)
from oracles import MaxStableLaw, TwoPointThresholdLimit, mixed_max_stable_cdf

_S_GRID = np.linspace(0.05, 0.95, 10)


# ---------------------------------------------------------------------------
# Archimedean limits

def test_archimedean_limit_frozen_values():
    assert ArchimedeanLimit(ClaytonGenerator(1.0)).psi(math.exp(-1.0)) == pytest.approx(
        0.5, rel=1e-12
    )
    assert ArchimedeanLimit(ClaytonGenerator(2.0)).psi(0.3) == pytest.approx(
        0.5416935602272823, rel=1e-12
    )
    assert ArchimedeanLimit(FrankGenerator(2.0)).psi(0.5) == pytest.approx(
        0.5953782530894984, rel=1e-12
    )
    assert np.allclose(ArchimedeanLimit(IndependenceGenerator()).psi(_S_GRID), _S_GRID)


def test_archimedean_limit_indices():
    idx = ArchimedeanLimit(ClaytonGenerator(1.0)).indices()
    assert idx["theta_minus"] == 0.0 and idx["theta0"] == 0.0
    assert idx["theta_plus"] == 1.0 and idx["theta1"] == 1.0
    assert idx["theta_def2"] is None
    idx = ArchimedeanLimit(IndependenceGenerator()).indices()
    assert all(idx[k] == 1.0 for k in idx)


def test_archimedean_limit_rejects_infinite_frailty_mean():
    with pytest.raises(ValueError):
        ArchimedeanLimit(GumbelHougaardGenerator(2.0))


def test_tilted_limit_frozen_values():
    g = math.log(2.0)
    m = ArchimedeanLimit(IndependenceGenerator(), g)
    assert m.psi(0.25) == pytest.approx(0.5, rel=1e-12)
    idx = m.indices()
    assert idx["theta_minus"] == idx["theta_plus"] == pytest.approx(0.5)
    assert idx["theta_def2"] == pytest.approx(0.5)
    assert ArchimedeanLimit(FrankGenerator(2.0), g).psi(0.5) == pytest.approx(
        0.747534519487085, rel=1e-12
    )


def test_tilted_limit_folds_tilted_generator():
    inner = TiltedGenerator(IndependenceGenerator(), gamma=0.3)
    m = ArchimedeanLimit(inner, 0.4)
    assert isinstance(m.gen, IndependenceGenerator)
    assert m.gamma == pytest.approx(0.7)
    assert m.psi(0.5) == pytest.approx(0.5 ** math.exp(-0.7), rel=1e-12)


@pytest.mark.parametrize("gen", [IndependenceGenerator(), ClaytonGenerator(1.0),
                                 FrankGenerator(2.0)], ids=lambda g: g.name)
def test_tilted_generator_folds_into_gamma(gen):
    folded = ArchimedeanLimit(TiltedGenerator(gen, 0.3), 0.4)
    direct = ArchimedeanLimit(gen, 0.3 + 0.4)
    assert np.array_equal(folded.psi(_S_GRID), direct.psi(_S_GRID))
    assert folded.indices() == direct.indices()
    assert folded.name == direct.name == f"tilted_limit({gen.name}, gamma=0.7)"
    assert ArchimedeanLimit(gen).name == f"archimedean_limit({gen.name})"


def test_tilted_limit_validation():
    with pytest.raises(ValueError):
        ArchimedeanLimit(GumbelHougaardGenerator(2.0), 0.5)
    with pytest.raises(ValueError):
        ArchimedeanLimit(TiltedGenerator(GumbelHougaardGenerator(2.0), 0.5))
    with pytest.raises(ValueError):
        ArchimedeanLimit(IndependenceGenerator(), -0.1)


# ---------------------------------------------------------------------------
# duplication / spike / fixed threshold

def test_duplicated_limit():
    m = DuplicatedIidLimit(2)
    assert np.allclose(m.psi(_S_GRID), np.sqrt(_S_GRID), rtol=1e-12)
    assert set(m.indices().values()) == {0.5}
    with pytest.raises(ValueError):
        DuplicatedIidLimit(1)


@given(st.floats(0.01, 0.99), st.floats(0.1, 4.0))
@settings(max_examples=100, deadline=None)
def test_spike_limit_inverse_roundtrip(v, gamma):
    m = SpikeMixtureLimit(gamma)
    s = float(m.inverse(v))
    if 0.0 < s < 1.0:
        assert m.psi(s) == pytest.approx(v, abs=1e-9)


@given(st.floats(-200.0, -0.01), st.floats(0.1, 4.0))
@settings(max_examples=100, deadline=None)
def test_spike_limit_inverse_roundtrip_deep_tail(log10_v, gamma):
    # relative, not absolute: an absolute 1e-9 cannot tell 1e-100 from 1e-25
    m = SpikeMixtureLimit(gamma)
    v = 10.0**log10_v
    assert m.psi(float(m.inverse(v))) == pytest.approx(v, rel=1e-12, abs=0.0)


def test_spike_limit_deep_tail_slope():
    # the slope log_s psi climbs to 1 + gamma as s -> 0
    m = SpikeMixtureLimit(1.0)
    slopes = [math.log(m.psi(s)) / math.log(s) for s in (1e-6, 1e-12, 1e-50, 1e-150)]
    assert np.all(np.diff(slopes) > 0), slopes
    assert abs(slopes[2] - 2.0) <= 0.02, slopes


def test_spike_limit_large_gamma():
    # gamma e^gamma overflows a double here; the curve must not
    m = SpikeMixtureLimit(1000.0)
    for s in (0.5, 0.9, 0.99):
        assert m.inverse(m.psi(s)) == pytest.approx(s, rel=1e-12)


def test_spike_limit_frozen_value():
    m = SpikeMixtureLimit(1.0)
    # inverse(0.25) = 0.5 exp(-0.5) by hand
    s = 0.5 * math.exp(-0.5)
    assert m.inverse(0.25) == pytest.approx(s, rel=1e-12)
    assert m.psi(s) == pytest.approx(0.25, abs=1e-10)
    idx = m.indices()
    assert idx["theta_minus"] == 1.0 and idx["theta_plus"] == 2.0
    assert idx["theta0"] == 2.0 and idx["theta1"] == 1.0
    with pytest.raises(ValueError):
        SpikeMixtureLimit(0.0)


def test_fixed_threshold_limit():
    m = FixedThresholdLimit()
    assert m.psi(0.5) == 0.0
    assert m.psi(0.8) == pytest.approx(0.75, rel=1e-12)
    assert np.all(m.psi(np.array([0.1, 0.3, 0.49])) == 0.0)
    idx = m.indices()
    assert idx["theta_plus"] == math.inf and idx["theta0"] == math.inf
    assert idx["theta_minus"] == 1.0 and idx["theta1"] == 1.0


# ---------------------------------------------------------------------------
# random threshold limits

def test_two_point_threshold_frozen_curve():
    m = TwoPointThresholdLimit(0.5)
    t = m.f_inv(0.8)
    assert t == pytest.approx((1.0 + math.sqrt(0.84)) / 1.6 - 1.0, rel=1e-12)
    assert m.psi(0.8) == pytest.approx(0.8021780381305187, rel=1e-9)
    idx = m.indices()
    assert idx["theta1"] == pytest.approx(0.75) and idx["theta_minus"] == pytest.approx(0.75)
    assert idx["theta_plus"] == math.inf and idx["theta0"] == math.inf
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            TwoPointThresholdLimit(bad)


def test_generic_matches_explicit_two_point():
    gen = RandomThresholdLimit(TwoPoint(0.5, 1.5))
    exp = TwoPointThresholdLimit(0.5)
    for s in _S_GRID:
        assert gen.psi(float(s)) == pytest.approx(float(exp.psi(float(s))), abs=1e-9)
    assert gen.theta1() == pytest.approx(0.75, abs=1e-9)
    gi, ei = gen.indices(), exp.indices()
    assert gi["theta1"] == pytest.approx(ei["theta1"], abs=1e-9)
    assert gi["theta_plus"] == ei["theta_plus"] == math.inf


def test_degenerate_threshold_is_fixed_threshold():
    gen = RandomThresholdLimit(Degenerate(1.0))
    fixed = FixedThresholdLimit()
    for s in (0.3, 0.55, 0.8, 0.95):
        assert gen.psi(s) == pytest.approx(float(fixed.psi(s)), abs=1e-9)


def test_pareto_threshold_against_monte_carlo():
    zeta = Pareto(3.0, 2.0 / 3.0)
    m = RandomThresholdLimit(zeta)
    rng = RandomStream(seed=101, stream_id=0).generator
    z = zeta.sample(rng, 1_000_000)
    for s in (0.3, 0.6, 0.9):
        t = m.f_inv(s)
        f_mc = np.mean(z / (t + z))
        assert abs(f_mc - s) < 4.0 * np.std(z / (t + z)) / 1000.0
        g_draws = np.maximum(z - t, 0.0)
        assert abs(np.mean(g_draws) - m.psi(s)) < 4.0 * np.std(g_draws) / 1000.0
    assert m.indices()["theta0"] == pytest.approx(2.0)
    # E 1/zeta = a / ((a+1) x_min) = 9/8 for this law
    assert m.theta1() == pytest.approx(8.0 / 9.0, abs=1e-8)


@pytest.mark.parametrize("zeta", [Pareto(3.0, 2.0 / 3.0), Gamma(2.0, 0.5)],
                         ids=["pareto", "gamma"])
def test_f_inv_round_trip(zeta):
    m = RandomThresholdLimit(zeta)
    for s in DEFAULT_GRID:
        assert m.f(m.f_inv(float(s))) == pytest.approx(float(s), rel=1e-12, abs=0.0)


def _f_gamma2(t):
    # Gamma(2, 1/2): f(t) = sum_k (-1)^k E zeta^(k+1) / t^(k+1), E zeta^j = (j+1)!/2^j;
    # the terms fall by ~k/2t, so twelve of them are exact to rounding for t >= 1e4
    return sum((-1) ** k * math.factorial(k + 2) / (2.0 ** (k + 1) * t ** (k + 1))
               for k in range(12))


def _f_pareto3(t):
    # Pareto(3, 2/3): 3 x^3 * int_x^inf dz / (z^3 (t + z)) by partial fractions
    x = 2.0 / 3.0
    return 3.0 * x**3 * (0.5 / (t * x**2) - 1.0 / (t**2 * x) + math.log1p(t / x) / t**3)


@pytest.mark.parametrize("zeta,f_exact", [(Gamma(2.0, 0.5), _f_gamma2),
                                          (Pareto(3.0, 2.0 / 3.0), _f_pareto3)],
                         ids=["gamma", "pareto"])
def test_f_keeps_relative_precision_in_the_tail(zeta, f_exact):
    # f ~ 1/t here, far below an absolute quadrature tolerance of 1e-12
    m = RandomThresholdLimit(zeta)
    for t in (1e4, 1e6):
        assert m.f(t) == pytest.approx(f_exact(t), rel=1e-11, abs=0.0)


def test_random_threshold_limit_needs_mean_one():
    with pytest.raises(ValueError):
        RandomThresholdLimit(Pareto(3.0, 1.0))
    with pytest.raises(ValueError):
        RandomThresholdLimit(TwoPoint(0.5, 1.6))


# ---------------------------------------------------------------------------
# split-index and graph models

def test_stable_size_limit():
    m = StableSizeGumbelLimit(0.5, math.log(2.0))
    assert m.theta_def1 == pytest.approx(math.exp(-0.5 * math.log(2.0)))
    assert m.theta_def2 == pytest.approx(0.5)
    assert m.psi(0.5) == pytest.approx(0.5**m.theta_def1, rel=1e-12)
    idx = m.indices()
    assert idx["theta_minus"] == idx["theta1"] == m.theta_def1
    assert idx["theta_def2"] == m.theta_def2
    with pytest.raises(ValueError):
        StableSizeGumbelLimit(1.0, 0.5)
    with pytest.raises(ValueError):
        StableSizeGumbelLimit(0.5, -0.1)


def test_graph_limit_values():
    m = GraphActivityLimit(3.5, a=1.0)
    assert m.mean_degree == pytest.approx(1.1905981, abs=1e-6)
    assert m.theta == pytest.approx(0.4564963, abs=1e-6)
    assert m.theta == pytest.approx(1.0 / (1.0 + m.mean_degree), rel=1e-12)
    assert m.max_limit_cdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert m.comparator_limit_cdf(1.0) == pytest.approx(
        math.exp(-(1.0 + m.mean_degree)), rel=1e-12
    )
    assert m.max_limit_cdf(0.0) == 0.0 and m.max_limit_cdf(-1.0) == 0.0
    assert m.psi(0.5) == pytest.approx(0.5**m.theta, rel=1e-12)
    with pytest.raises(ValueError):
        GraphActivityLimit(2.0)


def test_graph_limit_matches_system_constant():
    # the system's threshold formula and the limit model share the factor 1 + EK
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    m = GraphActivityLimit(3.5, a=1.0)
    assert m.mean_degree == float(scipy_zeta(2.5) / scipy_zeta(3.5))
    assert float(sys_.closed_form_u(100, math.exp(-1.0))) == pytest.approx(
        100.0 * m.frechet_scale, rel=1e-12)


def test_branching_index():
    m = BranchingHeredityIndex(a=0.5, gamma=1.0, mu=2.0)
    assert m.theta_def2 == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert m.indices()["theta_def2"] == m.theta_def2
    assert m.indices()["theta_minus"] is None
    for bad in (dict(a=1.0, gamma=1.0, mu=2.0),
                dict(a=0.5, gamma=2.5, mu=2.0),
                dict(a=0.5, gamma=1.0, mu=1.0)):
        with pytest.raises(ValueError):
            BranchingHeredityIndex(**bad)


# ---------------------------------------------------------------------------
# mixed max-stable laws

def test_max_stable_families():
    g = MaxStableLaw("gumbel")
    assert g.cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    fr = MaxStableLaw("frechet", alpha=2.0)
    assert fr.cdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert fr.cdf(-1.0) == 0.0
    w = MaxStableLaw("weibull", alpha=1.5)
    assert w.cdf(0.0) == 1.0
    assert w.cdf(-1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError):
        MaxStableLaw("normal")
    with pytest.raises(ValueError):
        MaxStableLaw("frechet")
    with pytest.raises(ValueError):
        MaxStableLaw("gumbel", scale=0.0)


def test_mixed_law_degenerate_mixing_is_plain_power():
    law = MaxStableLaw("gumbel")
    x = np.linspace(-2.0, 4.0, 13)
    got = mixed_max_stable_cdf(law, Degenerate(2.5), 0.4, x)
    assert np.allclose(got, law.cdf(x) ** 1.0, rtol=1e-12)
    assert np.allclose(
        mixed_max_stable_cdf(law, Degenerate(1.0), 1.0, x), law.cdf(x), rtol=1e-12
    )


def test_mixed_law_stable_mixing_thickens_frechet():
    # E exp(-u S) = exp(-u^beta) turns the alpha=1 tail into an alpha=beta one
    beta = 0.5
    law = MaxStableLaw("frechet", alpha=1.0)
    x = np.array([0.3, 1.0, 2.0, 7.0])
    got = mixed_max_stable_cdf(law, PositiveStable(beta), 1.0, x)
    assert np.allclose(got, np.exp(-(x**-beta)), rtol=1e-9)


def test_mixed_law_quadrature_fallback():
    # two-point mixing has no closed Laplace transform: the expectation path
    law = MaxStableLaw("gumbel")
    zeta = TwoPoint(0.5, 1.5)
    x = np.array([-1.0, 0.0, 2.0])
    want = 0.5 * (law.cdf(x) ** 0.35 + law.cdf(x) ** 1.05)
    got = mixed_max_stable_cdf(law, zeta, 0.7, x)
    assert np.allclose(got, want, rtol=1e-10)


def test_mixed_law_gamma_mixing_closed_form():
    law = MaxStableLaw("frechet", alpha=1.0)
    got = mixed_max_stable_cdf(law, Gamma(2.0, 0.5), 1.0, 2.0)
    # E exp(-u Z) = (1 + u/2)^(-2) at u = 1/2
    assert got == pytest.approx(1.25**-2.0, rel=1e-12)
    assert mixed_max_stable_cdf(law, Gamma(2.0, 0.5), 1.0, -3.0) == 0.0
    with pytest.raises(ValueError):
        mixed_max_stable_cdf(law, Gamma(2.0, 0.5), 0.0, 1.0)


# ---------------------------------------------------------------------------
# lookup

def test_reference_lookup_direct_families():
    assert isinstance(ExchangeableCopulaSystem(ClaytonGenerator(1.0)).reference(),
                      ArchimedeanLimit)
    assert ExchangeableCopulaSystem(GumbelHougaardGenerator(2.0)).reference() is None
    tilted = ExchangeableCopulaSystem(
        TiltedGenerator(FrankGenerator(2.0), gamma=0.5)
    ).reference()
    assert isinstance(tilted, ArchimedeanLimit)
    assert tilted.gamma == pytest.approx(0.5)
    assert tilted.name == "tilted_limit(frank(alpha=2), gamma=0.5)"
    assert ExchangeableCopulaSystem(
        TiltedGenerator(GumbelHougaardGenerator(2.0), gamma=0.5)
    ).reference() is None
    assert DuplicatedIidSystem(3).reference().m == 3
    assert MixtureSpikeSystem(2.0).reference().gamma == pytest.approx(2.0)
    assert isinstance(GeometricThresholdSystem(eps=0.1).reference(), FixedThresholdLimit)
    rt = RandomThresholdSystem(TwoPoint(0.5, 1.5)).reference()
    assert isinstance(rt, RandomThresholdLimit)
    ss = StableSizeGumbelSystem(beta=0.5, gamma=0.7).reference()
    assert ss.theta_def2 == pytest.approx(math.exp(-0.7))
    br = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5).reference()
    assert br.theta_def2 == pytest.approx(2.0 / 3.0)
    gr = PowerLawGraphSystem(beta=3.5, a=1.0).reference()
    assert isinstance(gr, GraphActivityLimit)
    assert SeriesSystem().reference() is None


def test_reference_lookup_unwraps_decorators():
    base = DuplicatedIidSystem(2)
    wrapped = MonotoneTransformSystem(base, 2.0)
    assert isinstance(wrapped.reference(), DuplicatedIidLimit)
    jittered = SizeJitterSystem(ExchangeableCopulaSystem(ClaytonGenerator(1.0)))
    assert isinstance(jittered.reference(), ArchimedeanLimit)


def test_reference_model_psi():
    m = DuplicatedIidLimit(4)
    assert m.psi(0.5) == pytest.approx(0.5**0.25, rel=1e-12)
    with pytest.raises(NotImplementedError):
        BranchingHeredityIndex(a=0.5, gamma=1.0, mu=2.0).psi(0.5)
