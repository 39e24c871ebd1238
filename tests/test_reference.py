"""Closed-form limit models: frozen values, cross-checks, system lookup."""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

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
    GraphActivityLimit,
    RandomThresholdLimit,
    SpikeMixtureLimit,
    StableSizeGumbelLimit,
)
from extlab import reference
from extlab.estimator import DEFAULT_GRID
from extlab.normalizer import solve_curve
from extlab.sampling import (
    Degenerate,
    Gamma,
    Pareto,
    PositiveStable,
    RandomStream,
    TwoPoint,
    _hurwitz_zeta,
)
from extlab.systems import (
    _GRAPH_MAX_N,
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
    _degree_cdf,
)
from oracles import MaxStableLaw, TwoPointThresholdLimit, mixed_max_stable_cdf, per_point_f_inv

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
    m = ArchimedeanLimit(TiltedGenerator(IndependenceGenerator(), g))
    assert m.psi(0.25) == pytest.approx(0.5, rel=1e-12)
    idx = m.indices()
    assert idx["theta_minus"] == idx["theta_plus"] == pytest.approx(0.5)
    assert idx["theta_def2"] == pytest.approx(0.5)
    assert ArchimedeanLimit(TiltedGenerator(FrankGenerator(2.0), g)).psi(0.5) == pytest.approx(
        0.747534519487085, rel=1e-12
    )


def test_tilted_limit_folds_tilted_generator():
    m = ArchimedeanLimit(TiltedGenerator(IndependenceGenerator(), gamma=0.7))
    assert isinstance(m.gen, IndependenceGenerator)
    assert m.gamma == pytest.approx(0.7)
    assert m.psi(0.5) == pytest.approx(0.5 ** math.exp(-0.7), rel=1e-12)


@pytest.mark.parametrize("gen", [IndependenceGenerator(), ClaytonGenerator(1.0),
                                 FrankGenerator(2.0)], ids=lambda g: g.name)
def test_tilted_generator_folds_into_gamma(gen):
    tilted = ArchimedeanLimit(TiltedGenerator(gen, 0.7))
    assert tilted.name == f"tilted_limit({gen.name}, gamma=0.7)"
    assert ArchimedeanLimit(gen).name == f"archimedean_limit({gen.name})"
    # a zero tilt is the untilted limit
    untilted = ArchimedeanLimit(TiltedGenerator(gen, 0.0))
    assert np.array_equal(untilted.psi(_S_GRID), ArchimedeanLimit(gen).psi(_S_GRID))
    assert untilted.indices() == ArchimedeanLimit(gen).indices()


def test_tilted_limit_validation():
    with pytest.raises(ValueError):
        ArchimedeanLimit(TiltedGenerator(GumbelHougaardGenerator(2.0), 0.5))
    with pytest.raises(ValueError):
        TiltedGenerator(IndependenceGenerator(), -0.1)


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


# s from the deep tail to 1 - 1e-16, dense near s = 1/e, where L = -ln s crosses 1
_SPIKE_S = np.unique(np.r_[np.geomspace(1e-320, 1e-3, 120), np.linspace(0.01, 0.99, 99),
                           1.0 - np.geomspace(0.5, 1e-16, 120),
                           np.exp(-1.0 + np.linspace(-1e-3, 1e-3, 41))])


@pytest.mark.parametrize("gamma", [1e-8, 1e-3, 1.0, 1e3, 1e12])
def test_spike_limit_solver_at_its_extremes(monkeypatch, gamma):
    from scipy.special import wrightomega  # an oracle only: the library loads no scipy here

    monkeypatch.setattr(reference, "_SPIKE_STEPS", 8)  # the loop must settle within 8 steps
    big_l = -np.log(_SPIKE_S)
    w = reference._spike_w(gamma, big_l)
    eps = np.finfo(float).eps
    with localcontext() as ctx:  # the residual of w + 1 - exp(-gamma w) = L, in 50 digits
        ctx.prec = 50
        g = Decimal(gamma)
        for wi, li in zip(w, big_l):
            res = Decimal(wi) + 1 - (-g * Decimal(wi)).exp() - Decimal(li)
            assert abs(res) <= 4 * Decimal(eps) * Decimal(li), (wi, li)
    psi = SpikeMixtureLimit(gamma).psi(_SPIKE_S)
    assert np.all(np.isfinite(psi)) and np.all((psi >= 0.0) & (psi <= 1.0))
    assert np.all(np.diff(psi) >= 0.0)
    # x = omega(ln gamma + gamma (1 - L)) gives w = L - 1 + x/gamma, and psi =
    # exp(-w) x/gamma keeps the cancellation in w out of the exponent's gamma w;
    # exp loses |ln psi| eps to the rounding of its argument, which sets the
    # tolerance deep in the tail
    keep = _SPIKE_S <= 0.99
    x = wrightomega(math.log(gamma) + gamma * (1.0 - big_l[keep]))
    want = np.exp(-(big_l[keep] - 1.0 + x / gamma)) * (x / gamma)
    normal = want >= np.finfo(float).tiny
    tol = np.maximum(1e-13, 4.0 * eps * np.abs(np.log(want[normal])))
    assert np.all(np.abs(psi[keep][normal] - want[normal]) <= tol * want[normal])


def test_fixed_threshold_limit():
    m = GeometricThresholdSystem(eps=0.1).reference()
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
    # the library's bracketed root against the closed form, from deep in the tail
    gen = RandomThresholdLimit(TwoPoint(0.5, 1.5))
    for s in np.r_[1e-300, 1e-12, 1e-6, DEFAULT_GRID]:
        assert gen.f_inv(float(s)) == pytest.approx(float(m.f_inv(s)), rel=1e-13, abs=0.0), s
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
    for s in (0.3, 0.55, 0.8, 0.95):
        assert gen.psi(s) == pytest.approx(max(0.0, 2.0 - 1.0 / s), abs=1e-9)


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


# 1e-320 has an infinite root, 7e-309 a root near the largest double
_F_INV_S = np.array([1e-320, 7e-309, 1e-12, *DEFAULT_GRID, 1.0 - 1e-9, 1.0 - 2.0**-53])


@pytest.mark.parametrize("cap", [1e4, math.inf], ids=["cap_n", "cap_inf"])
@pytest.mark.parametrize("zeta", [TwoPoint(0.5, 1.5), Degenerate(1.0), Pareto(3.0, 2.0 / 3.0),
                                  Gamma(2.0, 0.5)], ids=["two_point", "degenerate", "pareto", "gamma"])
def test_f_inv_on_a_grid_is_the_per_point_root(zeta, cap):
    # one root over the grid gives each point's own root, bit for bit, with no warning
    m = RandomThresholdLimit(zeta, cap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = m.f_inv(_F_INV_S)
        one_by_one = np.array([m.f_inv(float(s)) for s in _F_INV_S])
        own_root = np.array([per_point_f_inv(m, float(s)) for s in _F_INV_S])
        psi = m.psi(DEFAULT_GRID)
    assert grid.tobytes() == one_by_one.tobytes() == own_root.tobytes()
    assert math.isinf(grid[0]) and math.isfinite(grid[1])
    assert psi.tobytes() == np.array([m.psi(float(s)) for s in DEFAULT_GRID]).tobytes()


def test_f_inv_closes_a_root_far_below_its_bracket():
    # Gamma(0.01): the root of f(t) = 0.6 is ~9e-39, over a hundred halvings below (1-s)/s
    m = RandomThresholdLimit(Gamma(0.01, 100.0))
    t = m.f_inv(0.6)
    assert 0.0 < t < 1e-30
    assert m.f(t) == pytest.approx(0.6, rel=1e-12, abs=0.0)


def _f_gamma2(t):
    # Gamma(2, 1/2): f(t) = sum_k (-1)^k E zeta^(k+1) / t^(k+1), E zeta^j = (j+1)!/2^j;
    # the terms fall by ~k/2t, so twelve of them are exact to rounding for t >= 1e4
    return sum((-1) ** k * math.factorial(k + 2) / (2.0 ** (k + 1) * t ** (k + 1))
               for k in range(12))


# Pareto(a, x) with mean one, x = (a-1)/a, given zeta < cap: exact oracles without
# mpmath.  Integer a takes rationals, or 100-digit decimals where a log enters;
# a = 1.5 takes the substitution w = v^2, which leaves square roots and an arctan.
_PARETO_A = (1.5, 2.0, 3.0, 4.0, 10.0)
_PARETO_CAPS = (math.inf, 1e4, 100.0, 3.0)


def _pareto_t_sweep(cap):
    near_cap = [] if math.isinf(cap) else [0.99 * cap, 0.9999 * cap]
    return [10.0 ** (k / 2) for k in range(-12, 13)] + near_cap


def _exact_numbers(a):
    """(number type, z -> z^-a): rationals at integer a, decimals with a root at a = 1.5."""
    if a == int(a):
        return Fraction, lambda z: z ** -int(a)
    assert a == 1.5
    return Decimal, lambda z: 1 / (z * z.sqrt())


def _f_pareto(a, cap, t):
    """f(t) = a x^a int_x^cap dz / (z^a (t + z)) / mass."""
    x = (a - 1.0) / a
    if a == 1.5:
        # with w = x/z = v^2 the integral is 3 int v^2 / (1 + b v^2) dv, b = t/x, over
        # [sqrt(w0), 1]: 3 V^3 phi(sqrt(b) V) at the ends, phi(y) = (y - atan y) / y^3
        def phi(y):
            if y >= 0.5:
                return (y - math.atan(y)) / y**3
            return sum((-1) ** k * y ** (2 * k) / (2 * k + 3) for k in range(40))

        w0 = 0.0 if math.isinf(cap) else x / cap
        top = 3.0 * (phi(math.sqrt(t / x)) - w0**1.5 * phi(math.sqrt(t / x * w0)))
        return top / (1.0 - w0**1.5)
    # partial fractions: 1/(z^a (t+z)) = sum_j=1..a (-1)^(j-1) t^-j z^(j-1-a)
    # + (-1)^a t^-a / (t+z), where j = a and the last term give ln(z / (t+z))
    n = int(a)
    with localcontext() as ctx:
        ctx.prec = 100
        x, t = Decimal(x), Decimal(t)
        c = None if math.isinf(cap) else Decimal(cap)
        total = Decimal(0)
        for j in range(1, n):
            k = j - n
            total += (-1) ** (j - 1) / t**j * ((0 if c is None else c**k) - x**k) / k
        logs = (1 + t / x).ln() - (0 if c is None else (1 + t / c).ln())
        total += (-1) ** (n - 1) / t**n * logs
        mass = 1 - (0 if c is None else (x / c) ** n)
        return float(n * x**n * total / mass)


def _g_pareto(a, cap, t):
    """g(t) = a x^a int_lo^cap (z - t) z^(-a-1) dz / mass, lo = max(t, x), from the density:
    the antiderivative is z^(1-a)/(1-a) + t z^-a / a."""
    if t >= cap:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 100
        num, neg_pow = _exact_numbers(a)
        av, x, t = num(a), num((a - 1.0) / a), num(t)
        anti = lambda z: z * neg_pow(z) / (1 - av) + t * neg_pow(z) / av  # noqa: E731
        top, mass = (0, 1) if math.isinf(cap) else (anti(num(cap)), 1 - neg_pow(num(cap)) / neg_pow(x))
        return float(av / neg_pow(x) * (top - anti(max(t, x))) / mass)


def _theta1_pareto(a, cap):
    """1 / E[1/zeta | zeta < cap], E[1/zeta; zeta < cap] = a x^a (x^(-a-1) - cap^(-a-1)) / (a+1)."""
    with localcontext() as ctx:
        ctx.prec = 100
        num, neg_pow = _exact_numbers(a)
        av, x = num(a), num((a - 1.0) / a)
        top, mass = (0, 1) if math.isinf(cap) else (neg_pow(num(cap)) / num(cap),
                                                    1 - neg_pow(num(cap)) / neg_pow(x))
        return float(mass * (av + 1) * neg_pow(x) / (av * (neg_pow(x) / x - top)))


@pytest.mark.parametrize("zeta", [Gamma(2.0, 0.5), Pareto(3.0, 2.0 / 3.0)], ids=["gamma", "pareto"])
def test_f_keeps_relative_precision_in_the_tail(zeta):
    # f ~ 1/t in the tail, far below an absolute quadrature tolerance of 1e-12;
    # the Pareto law is swept over tail weights a, caps and t from 1e-6 to 1e6
    if isinstance(zeta, Gamma):
        m = RandomThresholdLimit(zeta)
        for t in (1e4, 1e6):
            assert m.f(t) == pytest.approx(_f_gamma2(t), rel=1e-11, abs=0.0)
        return
    for a in _PARETO_A:
        for cap in _PARETO_CAPS:
            m = RandomThresholdLimit(Pareto(a, (a - 1.0) / a), cap)
            for t in _pareto_t_sweep(cap):
                assert m.f(t) == pytest.approx(_f_pareto(a, cap, t), rel=1e-12, abs=0.0), (a, cap, t)


@pytest.mark.parametrize("a", _PARETO_A)
def test_pareto_threshold_means_match_exact_oracles(a):
    for cap in _PARETO_CAPS:
        m = RandomThresholdLimit(Pareto(a, (a - 1.0) / a), cap)
        for t in _pareto_t_sweep(cap):
            assert m.g(t) == pytest.approx(_g_pareto(a, cap, t), rel=1e-12, abs=0.0), (cap, t)
        assert m.m == pytest.approx(_g_pareto(a, cap, 0.0), rel=1e-12, abs=0.0)
        assert m.theta1() == pytest.approx(_theta1_pareto(a, cap), rel=1e-12, abs=0.0)
        assert m.f(0.0) == 1.0 and m.f(math.inf) == 0.0


def test_pareto_threshold_runs_without_quadrature(monkeypatch):
    def no_quad(*args):
        raise AssertionError("the Pareto threshold law took quadrature")

    monkeypatch.setattr(reference, "_integral", no_quad)
    sys_, n = RandomThresholdSystem(Pareto(3.0, 2.0 / 3.0)), 10_000
    curve = solve_curve(sys_, n, DEFAULT_GRID)
    assert curve.method == "closed_form"
    assert np.max(np.abs(curve.achieved - DEFAULT_GRID)) <= 1e-9  # the solver residual bound
    assert np.array_equal(sys_.size_laplace(n, np.array([math.inf, 0.0])), [0.0, 1.0])
    psi_n = sys_.exact_max_cdf(n, curve.u)
    assert np.all(np.diff(psi_n) > 0.0) and np.all((psi_n > 0.0) & (psi_n < 1.0))
    ref = sys_.reference()
    assert np.all(np.abs(ref.psi(DEFAULT_GRID) - psi_n) < 1e-3)
    assert ref.theta1() == pytest.approx(8.0 / 9.0, rel=1e-15)


# Gamma(1/2, 2) has mean one and zeta/2 is chi-square(1)/2, so with x = t/2 its means
# are erfc forms: f(t) = 1 - sqrt(pi x) e^x erfc(sqrt x), the uncapped
# g(t) = 2[(1/2 - x) erfc(sqrt x) + sqrt(x/pi) e^-x] and P(zeta < c) = erf(sqrt(c/2));
# Gamma(1, 1) is the unit exponential
_GAMMA_REL = 1e-13


def test_gamma_threshold_means_match_exact_oracles():
    m = RandomThresholdLimit(Gamma(0.5, 2.0))
    for t in [10.0 ** (k / 4) for k in range(-48, 1)]:
        x = t / 2.0
        want = 1.0 - math.sqrt(math.pi * x) * math.exp(x) * math.erfc(math.sqrt(x))
        assert m.f(t) == pytest.approx(want, rel=_GAMMA_REL, abs=0.0), t
    for t in (0.0, 1e-12, 1e-6, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
        x = t / 2.0
        want = 2.0 * ((0.5 - x) * math.erfc(math.sqrt(x)) + math.sqrt(x / math.pi) * math.exp(-x))
        assert m.g(t) == pytest.approx(want, rel=_GAMMA_REL, abs=0.0), t
    for cap in (3.0, 100.0, math.inf):
        half, one = (RandomThresholdLimit(Gamma(0.5, 2.0), cap), RandomThresholdLimit(Gamma(1.0, 1.0), cap))
        r = math.sqrt(cap / 2.0)
        assert (half.mass, half._tail) == pytest.approx((math.erf(r), math.erfc(r)), rel=_GAMMA_REL, abs=0.0)
        assert (one.mass, one._tail) == pytest.approx((-math.expm1(-cap), math.exp(-cap)),
                                                      rel=_GAMMA_REL, abs=0.0)


@pytest.mark.parametrize("shape", [0.01, 0.5, 1.0, 2.0, 5.0])
def test_gamma_threshold_theta1_matches_its_closed_form(shape):
    # 1 / E[1/zeta] = (k - 1)/k for Gamma(k, 1/k), and 0 where E[1/zeta] is infinite, k <= 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = RandomThresholdLimit(Gamma(shape, 1.0 / shape)).theta1()
    assert got == pytest.approx(max(shape - 1.0, 0.0) / shape, rel=_GAMMA_REL, abs=0.0)


def _pfaff_h(a, y):
    """2F1(1, a; a+1; -y) = (1+y)^-1 sum_k k!/(a+1)_k x^k, x = y/(1+y), in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, y = Decimal(a), Decimal(y)
        x = y / (1 + y)
        total, term, k = Decimal(1), Decimal(1), 0
        while term > Decimal("1e-45") * total:
            k += 1
            term *= k / (a + k) * x
            total += term
        return total / (1 + y)


@pytest.mark.parametrize("a", [1.001, 2.999999, 3.000001, 4.0000001])
def test_pareto_f_near_an_integer_a(a):
    # f(t) = H(t / x_m) uncapped; y <= 2 sums Pfaff's series and y > 2 splits the integral
    x_m = (a - 1.0) / a
    m = RandomThresholdLimit(Pareto(a, x_m))
    for y in (1e-8, 1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 2.01, 2.5, 3.0, 4.0):
        t = y * x_m
        want = float(_pfaff_h(a, Decimal(t) / Decimal(x_m)))
        assert m.f(t) == pytest.approx(want, rel=1e-13, abs=0.0), (a, y)


@pytest.mark.parametrize("a", [2.5, 2.999999, 4.0000001])
def test_pareto_h_keeps_its_recurrence_in_the_tail(a):
    # H_a(y) = a/((a-1) y) (1 - H_(a-1)(y)), from w^(a-1)/(1 + y w) = w^(a-2) (1 - 1/(1 + y w))/y;
    # the split route sums neither side through it
    for y in np.geomspace(4.0, 1e12, 33):
        y = float(y)
        want = a / ((a - 1.0) * y) * (1.0 - reference._pareto_h(a - 1.0, y, 1.0))
        assert reference._pareto_h(a, y, 1.0) == pytest.approx(want, rel=1e-13, abs=0.0), y


def test_pareto_f_where_t_over_x_m_overflows():
    # the largest roots of f(t) = s sit near 1/s; t/x_m overflows past t = x_m * 1.8e308
    m = RandomThresholdLimit(Pareto(3.0, 2.0 / 3.0))
    assert math.isfinite(m.f(1.7e308))
    assert m.f(1.7e308) == pytest.approx(_f_pareto(3.0, math.inf, 1.7e308), rel=1e-12, abs=0.0)
    # near a = 1 the second term of DLMF 15.8.2, H(y) = a/((a-1) y) (1 + O(1/y))
    # + a pi/sin(pi a) y^-a, is half the first even at y = 1.7e311
    a = 1.001
    x_m = (a - 1.0) / a
    with localcontext() as ctx:
        ctx.prec = 50
        y = Decimal(1.7e308) / Decimal(x_m)
        reflect = Decimal(-a * math.pi / math.sin(math.pi * (a - 1.0)))  # a pi/sin(pi a)
        want = Decimal(a) / (Decimal(a - 1.0) * y) + reflect * (-Decimal(a) * y.ln()).exp()
    assert RandomThresholdLimit(Pareto(a, x_m)).f(1.7e308) == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_random_threshold_limit_needs_mean_one():
    with pytest.raises(ValueError):
        RandomThresholdLimit(Pareto(3.0, 1.0))
    with pytest.raises(ValueError):
        RandomThresholdLimit(TwoPoint(0.5, 1.6))


# ---------------------------------------------------------------------------
# split-index and graph models

def test_stable_size_limit():
    m = StableSizeGumbelLimit(0.5, math.log(2.0))
    assert m.theta == pytest.approx(math.exp(-0.5 * math.log(2.0)))
    assert m.theta_def2 == pytest.approx(0.5)
    assert m.psi(0.5) == pytest.approx(0.5**m.theta, rel=1e-12)
    idx = m.indices()
    assert idx["theta_minus"] == idx["theta1"] == m.theta
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
    # scipy is the oracle, not the implementation: within 2 ulp of its ratio
    assert m.mean_degree == pytest.approx(float(scipy_zeta(2.5) / scipy_zeta(3.5)),
                                          rel=4.5e-16, abs=0.0)
    assert float(sys_.threshold_at(100, 0.01)) == pytest.approx(100.0 * m.frechet_scale, rel=1e-12)


@pytest.mark.parametrize("beta", [2.001, 2.1, 2.5, 3.5, 6.0])
def test_hurwitz_zeta_against_scipy(beta):
    # every q the degree table reads, up to the graph bound, and the s = beta - 1
    # that the limit model's mean degree reads at q = 1
    q = np.r_[np.arange(1.0, 10_001.0), np.geomspace(1e4, _GRAPH_MAX_N, 1000)]
    for s in (beta, beta - 1.0):
        got = _hurwitz_zeta(s, q)
        assert np.max(np.abs(got / scipy_zeta(s, q) - 1.0)) <= 1e-15, s


def test_degree_table_matches_scipy_cell_for_cell():
    want = 1.0 - scipy_zeta(3.5, np.arange(2.0, 10_000)) / scipy_zeta(3.5)
    assert np.array_equal(_degree_cdf(3.5, 10_000), want)


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
    geo = GeometricThresholdSystem(eps=0.1).reference()
    assert isinstance(geo, RandomThresholdLimit) and isinstance(geo.zeta, Degenerate)
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
