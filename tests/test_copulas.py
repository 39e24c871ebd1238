"""Generator algebra, diagonals, exchangeable sampling, limit curves."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlab.copulas import (
    ClaytonGenerator,
    FrankGenerator,
    GumbelHougaardGenerator,
    IndependenceGenerator,
    TiltedGenerator,
    default_tilt_power,
    diag_cdf,
    diag_inverse,
)
from extlab.reference import ArchimedeanLimit
from extlab.sampling import RandomStream
from oracles import (
    expression_diag_inverse,
    expression_f,
    expression_phi,
    pin,
    sample_exchangeable,
    sample_frailty,
)

_GENERATORS = [
    IndependenceGenerator(),
    ClaytonGenerator(0.5),
    ClaytonGenerator(2.0),
    FrankGenerator(1.0),
    FrankGenerator(4.0),
    GumbelHougaardGenerator(1.0),
    GumbelHougaardGenerator(2.5),
]


# ---------------------------------------------------------------------------
# generator algebra

@pytest.mark.parametrize("gen", _GENERATORS, ids=lambda g: g.name)
@given(t=st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_f_inverts_phi(gen, t):
    assert float(gen.f(gen.phi(t))) == pytest.approx(t, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("gen", _GENERATORS, ids=lambda g: g.name)
def test_phi_boundary_values(gen):
    assert float(gen.phi(1.0)) == pytest.approx(0.0, abs=1e-12)
    assert float(gen.f(0.0)) == pytest.approx(1.0, abs=1e-12)


def test_frailty_mean_matches_mu():
    # mu is documented as the frailty mean; check by simulation where finite
    for gen in (ClaytonGenerator(0.8), FrankGenerator(2.0), IndependenceGenerator()):
        z = np.asarray(
            sample_frailty(gen, RandomStream(seed=3, stream_id=1).generator, 300_000),
            dtype=float,
        )
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - gen.mu) < 4.0 * se + 1e-9


def test_frailty_laplace_is_f():
    # the inverse generator doubles as the frailty Laplace transform
    for gen in (ClaytonGenerator(1.5), FrankGenerator(3.0), GumbelHougaardGenerator(2.0)):
        z = np.asarray(
            sample_frailty(gen, RandomStream(seed=4, stream_id=1).generator, 300_000),
            dtype=float,
        )
        for u in (0.3, 1.0, 2.5):
            y = np.exp(-u * z)
            se = y.std(ddof=1) / math.sqrt(y.size)
            assert abs(y.mean() - float(gen.f(u))) < 4.0 * se + 1e-9


def test_tilted_frailty_laplace_is_f():
    # the tilt's frailty S * zeta^beta has the pinned inverse generator as Laplace transform
    for base in (FrankGenerator(2.0), IndependenceGenerator()):
        g = pin(TiltedGenerator(base, gamma=math.log(2.0)), 64)
        z = np.asarray(
            sample_frailty(g, RandomStream(seed=5, stream_id=1).generator, 300_000),
            dtype=float,
        )
        for u in (0.3, 1.0, 2.5):
            y = np.exp(-u * z)
            se = y.std(ddof=1) / math.sqrt(y.size)
            assert abs(y.mean() - float(g.f(u))) < 4.0 * se + 1e-9


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        ClaytonGenerator(0.0)
    with pytest.raises(ValueError):
        FrankGenerator(-1.0)
    # past alpha ~ 20 the inverse generator no longer returns f(0) = 1
    FrankGenerator(19.0)
    for alpha in (20.0, 36.0, 40.0):
        with pytest.raises(ValueError, match="too large"):
            FrankGenerator(alpha)
    with pytest.raises(ValueError):
        GumbelHougaardGenerator(0.9)


# ---------------------------------------------------------------------------
# tilt schedule

def test_tilt_power_formula():
    n = 10_000
    gamma = 0.25
    beta = default_tilt_power(n, gamma)
    logn = math.log(n)
    # the excess (beta - 1) ln n overshoots gamma by exactly gamma^2/(ln n - gamma)
    assert (beta - 1.0) * logn - gamma == pytest.approx(gamma**2 / (logn - gamma), rel=1e-12)
    for m in (10**3, 10**6, 10**9, 10**12):
        assert abs((default_tilt_power(m, gamma) - 1.0) * math.log(m) - gamma) <= \
            gamma**2 / (math.log(m) - gamma) + 1e-12


def test_tilt_power_needs_large_n():
    with pytest.raises(ValueError):
        default_tilt_power(2, 1.0)  # ln 2 < 1
    assert default_tilt_power(3, 1.0) > 1.0


def test_tilted_generator_fixed_dimension():
    # a tilt is its base at dimension d * exp(-gamma): the diagonals against
    # the pinned tilt phi_base^beta_d of the oracle
    ys = np.array([0.05, 0.3, 0.7, 0.95, 0.999])
    vs = np.array([1e-6, 0.01, 0.3, 0.7, 0.99])
    for base in (ClaytonGenerator(1.0), FrankGenerator(2.0), GumbelHougaardGenerator(2.0)):
        for gamma in (0.0, 0.5, math.log(2.0)):
            tg = TiltedGenerator(base, gamma)
            for d in (10, 1000):
                g = pin(tg, d)
                np.testing.assert_allclose(diag_cdf(tg, d, ys), g.f(d * g.phi(ys)),
                                           rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(diag_inverse(tg, d, vs), g.f(g.phi(vs) / d),
                                           rtol=1e-12, atol=0.0)
            # gamma = 0 means no tilt at all
            assert (pin(tg, 50) is base) == (gamma == 0.0)


def test_tilted_diagonal_needs_ln_d_above_gamma():
    tg = TiltedGenerator(ClaytonGenerator(1.0), 1.0)
    for diag in (diag_cdf, diag_inverse):
        with pytest.raises(ValueError):
            diag(tg, 2, 0.5)  # ln 2 < 1
        assert 0.0 < diag(tg, 3, 0.5) < 1.0


def test_tilted_generator_rejects_nesting():
    tg = TiltedGenerator(FrankGenerator(1.0), 0.3)
    with pytest.raises(ValueError):
        TiltedGenerator(tg, 0.2)


# ---------------------------------------------------------------------------
# diagonals

def test_diag_cdf_frozen_values():
    # Clayton alpha=1, d=2, y=1/2: phi = 1, f(2) = 1/3
    assert float(diag_cdf(ClaytonGenerator(1.0), 2, 0.5)) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # independence diagonal is the plain power
    assert float(diag_cdf(IndependenceGenerator(), 7, 0.9)) == pytest.approx(0.9**7, rel=1e-12)
    # Gumbel-Hougaard alpha=2, d=3, y=0.7
    assert float(diag_cdf(GumbelHougaardGenerator(2.0), 3, 0.7)) == pytest.approx(
        0.5391404727458685, rel=1e-12
    )


def test_diag_cdf_clamps_outside_unit_interval():
    gen = ClaytonGenerator(1.0)
    assert float(diag_cdf(gen, 5, -0.2)) == 0.0
    assert float(diag_cdf(gen, 5, 1.0)) == 1.0


@pytest.mark.parametrize("gen", _GENERATORS, ids=lambda g: g.name)
@given(y=st.floats(0.05, 0.999), d=st.integers(1, 2000))
@settings(max_examples=60, deadline=None)
def test_diag_inverse_roundtrip(gen, y, d):
    v = float(diag_cdf(gen, d, y))
    # subnormal v has too few mantissa bits left to carry the roundtrip
    if v < sys.float_info.min or v >= 1.0:
        return
    assert float(diag_inverse(gen, d, v)) == pytest.approx(y, abs=1e-10)


def test_diag_cdf_monotone_in_y_and_d():
    gen = FrankGenerator(2.0)
    ys = np.linspace(0.02, 0.98, 25)
    vals = np.asarray(diag_cdf(gen, 10, ys))
    assert np.all(np.diff(vals) > 0.0)
    assert float(diag_cdf(gen, 20, 0.8)) < float(diag_cdf(gen, 10, 0.8))


@pytest.mark.parametrize(
    "gen", _GENERATORS + [TiltedGenerator(FrankGenerator(2.0), math.log(2.0))],
    ids=lambda g: g.name,
)
def test_diag_inverse_exact_endpoints(gen):
    # the closed form f(phi(v) / d) lands on the ends of [0, 1] exactly
    for d in (3, 10, 100):
        assert diag_inverse(gen, d, 0.0) == 0.0
        assert diag_inverse(gen, d, 1.0) == 1.0
        assert np.array_equal(diag_inverse(gen, d, np.array([0.0, 1.0])), [0.0, 1.0])


def test_diag_inverse_validates_input():
    gen = ClaytonGenerator(1.0)
    with pytest.raises(ValueError):
        diag_inverse(gen, 4, 1.5)
    # an array: a NaN passes through as NaN, and no NaN hides a value off [0, 1]
    out = diag_inverse(gen, 4, np.array([0.25, np.nan, 1.0]))
    assert np.isnan(out[1]) and out[2] == 1.0 and 0.0 < out[0] < 1.0
    for bad in ([0.5, 1.5], [-0.1, 0.5], [np.nan, 1.5], [-0.1, np.nan]):
        with pytest.raises(ValueError):
            diag_inverse(gen, 4, np.array(bad))
    assert diag_inverse(gen, 4, np.array([])).shape == (0,)


# ---------------------------------------------------------------------------
# the kernel contract: in-place chains, bit-equal to the plain expressions

_KERNEL_GENERATORS = [
    IndependenceGenerator(),
    ClaytonGenerator(0.5),
    ClaytonGenerator(1.0),       # exponent -1 in phi and f
    FrankGenerator(2.0),
    FrankGenerator(7.0),
    GumbelHougaardGenerator(1.5),
    GumbelHougaardGenerator(2.0),  # exponent 0.5 in f
]


def _kernel_inputs():
    rng = np.random.default_rng(40)
    t = np.concatenate([[0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 2**-53, 1.0, np.nan],
                        rng.random(4000)])
    u = np.concatenate([[0.0, 5e-324, 1e-12, 1.0, 700.0, 1e300, np.inf, np.nan],
                        rng.standard_exponential(4000) * 10.0 ** rng.integers(-6, 7, 4000)])
    return {"phi": (t, expression_phi), "f": (u, expression_f)}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("gen", _KERNEL_GENERATORS, ids=lambda g: g.name)
@pytest.mark.parametrize("kernel", ["phi", "f"])
def test_kernels_match_their_expressions_with_and_without_out(gen, kernel):
    x, expression = _kernel_inputs()[kernel]
    fn = getattr(gen, kernel)
    with np.errstate(all="ignore"):
        want = expression(gen, x)
        kept = x.copy()
        got = fn(x)
        assert _same_bits(got, want) and _same_bits(x, kept)
        alias = x.copy()
        assert fn(alias, out=alias) is alias
        assert _same_bits(alias, want)
        for xi in x[:8]:  # a scalar in gives a float out, as the expression's scalar
            got = fn(float(xi))
            assert isinstance(got, float) and _same_bits(got, expression(gen, float(xi)))


_DIAGONAL_GENERATORS = _KERNEL_GENERATORS + [
    TiltedGenerator(FrankGenerator(2.0), math.log(2.0)),
    TiltedGenerator(GumbelHougaardGenerator(1.5), math.log(2.0)),
]


@pytest.mark.parametrize("gen", _DIAGONAL_GENERATORS, ids=lambda g: g.name)
def test_diagonals_leave_the_input_and_the_inverse_matches_its_expression(gen):
    rng = np.random.default_rng(41)
    v = np.concatenate([[0.0, 5e-324, 1e-300, 0.5, 1.0 - 2**-53, 1.0, np.nan], rng.random(3000)])
    y = np.concatenate([[-0.5, 0.0, 1e-300, 0.5, 1.0, 1.5, np.nan], rng.random(3000)])
    sizes = rng.integers(3, 5000, v.size)  # a size per value, as the size jitter passes
    kept_v, kept_y = v.copy(), y.copy()
    with np.errstate(over="ignore"):  # diag_cdf past y = 1: exp of a large positive
        for d in (3, 10_000, sizes):
            assert _same_bits(diag_inverse(gen, d, v), expression_diag_inverse(gen, d, v)), d
            diag_cdf(gen, d, y)
            assert _same_bits(v, kept_v) and _same_bits(y, kept_y)
        for vi, yi in zip(v[:7], y[:7]):
            got = diag_inverse(gen, 10, float(vi))
            assert isinstance(got, float) and _same_bits(got, expression_diag_inverse(gen, 10, float(vi)))
            assert isinstance(diag_cdf(gen, 10, float(yi)), float)
    # one value against many sizes broadcasts, as the expression does
    assert _same_bits(diag_inverse(gen, sizes[:5], 0.5), expression_diag_inverse(gen, sizes[:5], 0.5))


# ---------------------------------------------------------------------------
# exchangeable sampling

@pytest.mark.parametrize(
    "gen",
    [
        IndependenceGenerator(),
        ClaytonGenerator(1.0),
        FrankGenerator(2.0),
        GumbelHougaardGenerator(2.0),
        TiltedGenerator(GumbelHougaardGenerator(1.0), math.log(2.0)),
    ],
    ids=lambda g: g.name,
)
def test_sampled_max_matches_diagonal(gen):
    d, m = 32, 60_000
    u = sample_exchangeable(gen, d, RandomStream(seed=6, stream_id=2), size=m)
    assert u.shape == (m, d)
    assert np.all((u > 0.0) & (u < 1.0))
    mx = u.max(axis=1)
    for y in (0.5, 0.8, 0.95):
        want = float(diag_cdf(gen, d, y))
        got = float(np.mean(mx <= y))
        se = math.sqrt(want * (1.0 - want) / m)
        assert abs(got - want) < 4.0 * se + 1e-12, (gen.name, y, got, want)


def test_sampled_margins_are_uniform():
    u = sample_exchangeable(ClaytonGenerator(2.0), 8, RandomStream(seed=7, stream_id=2),
                            size=50_000)
    col = u[:, 3]
    for q in (0.25, 0.5, 0.75):
        assert abs(float(np.mean(col <= q)) - q) < 4.0 * math.sqrt(q * (1 - q) / col.size)


# ---------------------------------------------------------------------------
# limit curves

@pytest.mark.parametrize("gen", [FrankGenerator(2.0), ClaytonGenerator(1.0)],
                         ids=lambda g: g.name)
@pytest.mark.parametrize("gamma", [None, math.log(2.0)], ids=["untilted", "tilted"])
def test_psi_deep_tail_below_1e300(gen, gamma):
    # subnormal s must not be clamped: psi is f(-ln s * exp(-gamma) / mu) all the way down
    for s in (1e-305, 1e-310, 5e-324):
        want = float(gen.f(-math.log(s) * math.exp(-(gamma or 0.0)) / gen.mu))
        got = ArchimedeanLimit(TiltedGenerator(gen, gamma) if gamma else gen).psi(s)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), s


def test_psi_tilted_frozen_values():
    # independence tilts to the pure power s^exp(-gamma)
    g = math.log(2.0)
    independence = ArchimedeanLimit(TiltedGenerator(IndependenceGenerator(), g))
    assert independence.psi(0.25) == pytest.approx(0.5, rel=1e-12)
    frank = ArchimedeanLimit(TiltedGenerator(FrankGenerator(2.0), g))
    assert frank.psi(0.5) == pytest.approx(0.747534519487085, rel=1e-12)


def test_psi_rejects_infinite_mean():
    with pytest.raises(ValueError):
        ArchimedeanLimit(GumbelHougaardGenerator(2.0))
    with pytest.raises(ValueError):
        ArchimedeanLimit(TiltedGenerator(GumbelHougaardGenerator(1.5), 0.5))


@given(s=st.floats(1e-4, 1.0 - 1e-4), alpha=st.floats(0.1, 5.0))
@settings(max_examples=80, deadline=None)
def test_psi_between_jensen_bounds(s, alpha):
    # finite-mean frailty: s <= psi(s) <= s^(x0/mu)
    for gen in (ClaytonGenerator(alpha), FrankGenerator(alpha)):
        val = float(ArchimedeanLimit(gen).psi(s))
        hi = s ** (gen.x0 / gen.mu)
        assert s - 1e-12 <= val <= hi + 1e-12


def _partial(gen):
    idx = ArchimedeanLimit(gen).indices()
    return idx["theta_minus"], idx["theta_plus"]


def test_partial_indices_values():
    assert _partial(IndependenceGenerator()) == (1.0, 1.0)
    lo, hi = _partial(ClaytonGenerator(2.0))
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = _partial(FrankGenerator(1.0))
    assert hi == 1.0
    assert lo == pytest.approx(1.0 / math.expm1(1.0), rel=1e-12)


def test_partial_indices_tilt_scaling():
    g = math.log(2.0)
    lo, hi = _partial(TiltedGenerator(IndependenceGenerator(), g))
    assert (lo, hi) == (0.5, 0.5)
    lo, hi = _partial(TiltedGenerator(FrankGenerator(1.0), g))
    assert hi == pytest.approx(0.5, rel=1e-12)
    assert lo == pytest.approx(0.5 / math.expm1(1.0), rel=1e-12)
