"""System-level laws: exact formulas vs simulation, wrappers, config plumbing."""

import ast
import hashlib
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import zeta as scipy_zeta

import extlab
from extlab import cli
from extlab.copulas import (
    ClaytonGenerator,
    FrankGenerator,
    GumbelHougaardGenerator,
    IndependenceGenerator,
    TiltedGenerator,
    diag_cdf,
)
from extlab.estimator import DEFAULT_GRID
from extlab.normalizer import solve_curve
from extlab.reference import RandomThresholdLimit
from extlab.sampling import (
    Degenerate,
    Gamma,
    Pareto,
    PositiveStable,
    RandomStream,
    SymmetricStable,
    TwoPoint,
)
from extlab.systems import (
    SYSTEMS,
    BranchingHereditySystem,
    Calibrator,
    ConfigError,
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
    _jitter_pmf,
    _stable_size_cdf,
    build_calibration_pool,
    build_system,
)
from oracles import (
    PooledStableSize,
    expression_sample_batch,
    graph_max_cdf_3,
    sample_branching_full_tree,
    sample_copula_max,
    sample_spike_max,
    sample_threshold_max,
    sample_threshold_pair,
    stable_size_pgf_direct,
)


def _rng(seed, sid=0):
    return RandomStream(seed=seed, stream_id=sid).generator


def _empirical_max_matches_exact(system, n, probes, draws=60_000, seed=42):
    m = system.sample_batch(n, draws, _rng(seed))
    for u in probes:
        want = float(system.exact_max_cdf(n, u))
        got = float(np.mean(m <= u))
        se = math.sqrt(max(want * (1.0 - want), 1e-12) / draws)
        assert abs(got - want) < 4.0 * se + 1e-9, (system.name, u, got, want)


# ---------------------------------------------------------------------------
# exchangeable copula

def test_copula_exact_laws():
    sys_ = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    assert float(sys_.exact_max_cdf(2, 0.5)) == pytest.approx(1.0 / 3.0, rel=1e-12)
    u = sys_.threshold_at(100, sys_.closed_form_lam(100, 0.5))
    assert float(u) == pytest.approx(0.5**0.01, rel=1e-12)


def test_copula_max_simulation_matches_diagonal():
    sys_ = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    _empirical_max_matches_exact(sys_, 64, [0.9, 0.97, 0.995])


def test_tilted_copula_max_simulation_matches_diagonal():
    gen = TiltedGenerator(IndependenceGenerator(), gamma=math.log(2.0))
    sys_ = ExchangeableCopulaSystem(gen)
    _empirical_max_matches_exact(sys_, 256, [0.985, 0.995, 0.999])
    # the exact max law is the tilted diagonal
    assert float(sys_.exact_max_cdf(256, 0.99)) == pytest.approx(
        float(diag_cdf(gen, 256, 0.99)), rel=1e-12
    )


def test_tilted_copula_validates_stage():
    sys_ = ExchangeableCopulaSystem(TiltedGenerator(ClaytonGenerator(1.0), gamma=2.0))
    with pytest.raises(ConfigError):
        sys_.validate_n(2)
    with pytest.raises(ConfigError):
        sys_.validate_n(7)  # ln 7 < 2
    sys_.validate_n(8)


_COPULA_GENERATORS = [
    ClaytonGenerator(1.0),
    FrankGenerator(2.0),
    GumbelHougaardGenerator(2.0),
    TiltedGenerator(FrankGenerator(2.0), gamma=math.log(2.0)),
    TiltedGenerator(IndependenceGenerator(), gamma=math.log(2.0)),
]


@pytest.mark.parametrize("n", [3, 256, 10_000])
@pytest.mark.parametrize("gen", _COPULA_GENERATORS, ids=lambda g: g.name)
def test_copula_max_inversion_matches_frailty_oracle(gen, n):
    # the system inverts the diagonal; the oracle goes through the frailty
    sys_ = ExchangeableCopulaSystem(gen)
    m = sys_.sample_batch(n, 20_000, _rng(71, 0))
    m_o = sample_copula_max(gen, n, 20_000, _rng(71, 1))
    assert stats.ks_2samp(m, m_o).pvalue > 1e-3
    for draws in (m, m_o):
        assert stats.kstest(draws, lambda u: diag_cdf(gen, n, u)).pvalue > 1e-3


@pytest.mark.parametrize("sys_", [ExchangeableCopulaSystem(g) for g in _COPULA_GENERATORS]
                         + [ExchangeableCopulaSystem(IndependenceGenerator()),
                            DuplicatedIidSystem(3), MixtureSpikeSystem(0.5)], ids=repr)
def test_deterministic_size_max_draws_one_uniform_per_replicate(sys_):
    rng, ref = _rng(5), _rng(5)
    sys_.sample_batch(256, 1000, rng)
    ref.random(1000)
    assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)  # holds arrays


# ---------------------------------------------------------------------------
# duplicated iid

@pytest.mark.parametrize("n", [2, 11, 10_000])
@pytest.mark.parametrize("m", [2, 3])
def test_duplicated_iid_draws_are_power_of_one_uniform(m, n):
    got = DuplicatedIidSystem(m).sample_batch(n, 5000, _rng(9))
    want = _rng(9).random(5000) ** (1.0 / math.ceil(n / m))
    assert got.tobytes() == want.tobytes()


def test_duplicated_iid_group_count():
    sys_ = DuplicatedIidSystem(2)
    assert float(sys_.exact_max_cdf(10, 0.9)) == pytest.approx(0.9**5, rel=1e-12)
    assert float(DuplicatedIidSystem(3).exact_max_cdf(11, 0.9)) == pytest.approx(
        0.9**4, rel=1e-12
    )
    _empirical_max_matches_exact(sys_, 10, [0.7, 0.9, 0.98])


def test_duplicated_iid_size_inverse_roundtrip():
    sys_ = DuplicatedIidSystem(4)
    d = np.array([4, 5, 8, 9])
    v = np.array([0.3, 0.5, 0.7, 0.9])
    u = sys_.max_inverse_given_size(d, v)
    assert np.allclose(sys_.exact_max_cdf(d, u), v, rtol=1e-12)


def test_duplicated_iid_validates_m():
    with pytest.raises(ConfigError):
        DuplicatedIidSystem(1)


# ---------------------------------------------------------------------------
# mixture spike

def test_mixture_spike_exact_laws():
    sys_ = MixtureSpikeSystem(2.0)
    assert float(sys_.exact_max_cdf(10, 0.9)) == pytest.approx(0.9**29, rel=1e-12)
    want = 0.9 * (1.0 + (0.9**19 - 1.0) / 10.0)
    assert float(sys_.marginal_cdf(10, 0.9)) == pytest.approx(want, rel=1e-12)
    assert float(sys_.marginal_cdf(10, 1.0)) == 1.0
    assert float(sys_.marginal_cdf(10, 0.0)) == 0.0


def test_mixture_spike_max_simulation():
    _empirical_max_matches_exact(MixtureSpikeSystem(1.0), 10, [0.85, 0.95, 0.99])


@pytest.mark.parametrize("n", [2, 10, 10_000])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_mixture_spike_inversion_matches_two_block_oracle(gamma, n):
    # the system inverts x^((1+gamma)n - 1); the oracle takes the larger block maximum
    m = MixtureSpikeSystem(gamma).sample_batch(n, 20_000, _rng(73, 0))
    m_o = sample_spike_max(gamma, n, 20_000, _rng(73, 1))
    assert stats.ks_2samp(m, m_o).pvalue > 1e-3
    for draws in (m, m_o):
        assert stats.kstest(draws, lambda u: u ** ((1.0 + gamma) * n - 1.0)).pvalue > 1e-3


# ---------------------------------------------------------------------------
# geometric threshold

def test_geometric_threshold_construction():
    sys_ = GeometricThresholdSystem(eps=0.1)
    m = sys_.sample_batch(50, 100_000, _rng(7))
    nu = sample_threshold_pair(sys_, 50, 100_000, _rng(7))[0]
    assert np.all(m > 0.9)
    se = nu.std(ddof=1) / math.sqrt(nu.size)
    assert abs(nu.mean() - 10.0) < 4.0 * se


def test_geometric_threshold_exact_values():
    sys_ = GeometricThresholdSystem(eps=0.01)
    u = 0.5 / 0.505
    assert float(sys_.size_laplace(1000, -math.log(u))) == pytest.approx(0.5, rel=1e-9)
    assert float(sys_.threshold_at(1000, sys_.closed_form_lam(1000, 0.5))) == pytest.approx(
        u, rel=1e-12)
    assert float(GeometricThresholdSystem(eps=0.2).exact_max_cdf(10, 0.9)) == pytest.approx(
        0.5, rel=1e-12
    )


def test_geometric_threshold_schedule_and_validation():
    sched = GeometricThresholdSystem(eps_exponent=0.5)
    assert sched.eps_at(10_000) == pytest.approx(0.01, rel=1e-12)
    with pytest.raises(ConfigError):
        GeometricThresholdSystem()
    with pytest.raises(ConfigError):
        GeometricThresholdSystem(eps=0.1, eps_exponent=0.5)
    with pytest.raises(ConfigError):
        GeometricThresholdSystem(eps=1.0)


# ---------------------------------------------------------------------------
# random threshold

def test_random_threshold_needs_mean_one():
    with pytest.raises(ConfigError):
        RandomThresholdSystem(TwoPoint(0.5, 1.6))
    RandomThresholdSystem(TwoPoint(0.5, 1.5))
    RandomThresholdSystem(Pareto(3.0, 2.0 / 3.0))


def test_random_threshold_size_law():
    sys_ = RandomThresholdSystem(TwoPoint(0.5, 1.5))
    n = 1000
    nu = sample_threshold_pair(sys_, n, 200_000, _rng(9))[0]
    # E nu = n E(1/zeta) = 4n/3 for the balanced two-point law
    se = nu.std(ddof=1) / math.sqrt(nu.size)
    assert abs(nu.mean() - 4.0 * n / 3.0) < 4.0 * se


def test_random_threshold_exact_max_two_point():
    sys_ = RandomThresholdSystem(TwoPoint(0.5, 1.5))
    n = 1000
    # threshold mass is entirely below n, so the mixture is exact:
    # P(M <= 1 - w/n) = E (zeta - w)_+ / E zeta
    for w, want in ((0.3, 0.7), (0.9, 0.3), (1.2, 0.15), (1.6, 0.0)):
        assert float(sys_.exact_max_cdf(n, 1.0 - w / n)) == pytest.approx(want, abs=1e-12)
    assert float(sys_.exact_max_cdf(n, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_random_threshold_max_simulation():
    sys_ = RandomThresholdSystem(TwoPoint(0.5, 1.5))
    n = 1000
    _empirical_max_matches_exact(sys_, n, [1.0 - w / n for w in (0.3, 0.9, 1.2)],
                                 draws=100_000)


def test_random_threshold_size_pgf_two_point():
    sys_ = RandomThresholdSystem(TwoPoint(0.5, 1.5))
    n, u = 1000, 0.999
    want = 0.5 * sum(
        (z / n) * u / (1.0 - (1.0 - z / n) * u) for z in (0.5, 1.5)
    )
    assert float(sys_.size_laplace(n, -math.log(u))) == pytest.approx(want, rel=1e-12)


def test_random_threshold_degenerate_collapses_to_geometric():
    rt = RandomThresholdSystem(Degenerate(1.0))
    gt = GeometricThresholdSystem(eps=0.001)
    n = 1000
    for u in (0.9995, 0.9999):
        assert float(rt.exact_max_cdf(n, u)) == pytest.approx(
            float(gt.exact_max_cdf(n, u)), rel=1e-9
        )
        assert float(rt.size_laplace(n, -math.log(u))) == pytest.approx(
            float(gt.size_laplace(n, -math.log(u))), rel=1e-9
        )


def _z_scale_means(sf, n, c, w):
    """G_n = E[zeta/(c+zeta) | zeta < n] and E[(zeta-w)+ | zeta < n] / E[zeta | zeta < n].

    Both integrate the survival function on the z scale, split at fixed
    breakpoints: E[h(zeta); zeta < n] = int_0^n h'(z) (S(z) - S(n)) dz for
    h(0) = 0, and E[(zeta-w)+; zeta < n] = int_w^n (S(z) - S(n)) dz.
    """
    from scipy.integrate import quad

    tail = sf(n)

    def integral(fn, lo, marks):
        cuts = sorted({lo, n, *(x for x in marks if lo < x < n)})
        return sum(quad(fn, a, b, limit=400, epsabs=0.0, epsrel=1e-13)[0]
                   for a, b in zip(cuts, cuts[1:]))

    marks = [2.0 / 3.0, 1.0, 3.0, 10.0, 30.0, 100.0, 1000.0]
    pgf = integral(lambda z: c / (c + z) ** 2 * (sf(z) - tail), 0.0, marks + [c, 10.0 * c])
    excess = integral(lambda z: sf(z) - tail, w, marks + [w + 1.0])
    mean = integral(lambda z: sf(z) - tail, 0.0, marks)
    return pgf / (1.0 - tail), excess / mean


@pytest.mark.parametrize("law, sf", [
    (Pareto(3.0, 2.0 / 3.0), lambda z: (max(z, 2.0 / 3.0) * 1.5) ** -3.0),
    (Gamma(2.0, 0.5), lambda z: math.exp(-2.0 * z) * (1.0 + 2.0 * z)),
], ids=["pareto", "gamma"])
def test_random_threshold_means_match_z_scale_oracle(law, sf):
    sys_ = RandomThresholdSystem(law)
    n = 10_000
    u_grid = solve_curve(sys_, n, DEFAULT_GRID).u
    # the grid's thresholds, plus fixed ones on both sides of the Pareto floor 2/3
    u = np.concatenate([u_grid, 1.0 - np.array([0.05, 0.5, 2.0 / 3.0, 0.9, 3.0, 25.0]) / n])
    assert np.any(n * (1.0 - u_grid) > 2.0 / 3.0)
    pgf, cdf = sys_.size_laplace(n, -np.log(u)), sys_.exact_max_cdf(n, u)
    for k, uk in enumerate(u):
        want_pgf, want_cdf = _z_scale_means(sf, n, n * (1.0 - uk) / uk, n * (1.0 - uk))
        assert pgf[k] == pytest.approx(want_pgf, rel=1e-10, abs=0.0), (uk, "size_laplace")
        assert cdf[k] == pytest.approx(want_cdf, rel=1e-10, abs=0.0), (uk, "exact_max_cdf")
    # u near 1 holds n (1 - u) to ~1e-16 n / c relative, 2e-11 at c = 0.05
    assert np.allclose(pgf[:u_grid.size], DEFAULT_GRID, rtol=1e-11, atol=0.0)
    psi_n = RandomThresholdLimit(law, cap=n).psi(DEFAULT_GRID)  # the capped model's own curve
    assert np.allclose(psi_n, cdf[:u_grid.size], rtol=1e-10, atol=0.0)
    ends = sys_.size_laplace(n, np.array([math.inf, 0.0]))
    assert ends[0] == 0.0 and ends[1] == 1.0
    assert float(sys_.exact_max_cdf(n, 1.0)) == 1.0


def test_random_threshold_pareto_variant_runs():
    sys_ = RandomThresholdSystem(Pareto(3.0, 2.0 / 3.0))
    assert sys_.zeta_biased.a == pytest.approx(2.0)
    m = sys_.sample_batch(500, 20_000, _rng(11))
    nu = sample_threshold_pair(sys_, 500, 20_000, _rng(11))[0]
    assert np.all(nu >= 1) and np.all((m > 0.0) & (m < 1.0))
    got = float(np.mean(m <= 1.0 - 0.5 / 500))
    want = float(sys_.exact_max_cdf(500, 1.0 - 0.5 / 500))
    assert abs(got - want) < 4.0 * math.sqrt(want * (1 - want) / 20_000)


def test_threshold_draws_reaching_n_are_drawn_again():
    # Pareto(1.5) puts 1/27 of its mass at 3 and above: those draws, and only
    # those, are drawn again in draw order until none reaches n
    sys_, n, count = RandomThresholdSystem(Pareto(1.5, 1.0 / 3.0)), 3, 10_000
    z = sys_._draw(sys_.zeta, n, count, _rng(77))
    ref = _rng(77)
    want = sys_.zeta.sample(ref, count)
    while (bad := want >= n).any():
        want[bad] = sys_.zeta.sample(ref, int(bad.sum()))
    assert z.tobytes() == want.tobytes() and z.max() < n
    with pytest.raises(ConfigError, match="too much mass"):
        sys_._draw(Degenerate(5.0), n, 10, _rng(78))


@pytest.mark.parametrize("sys_", [RandomThresholdSystem(TwoPoint(0.5, 1.5)),
                                  RandomThresholdSystem(Pareto(3.0, 2.0 / 3.0)),
                                  GeometricThresholdSystem(eps=0.1),
                                  GeometricThresholdSystem(eps_exponent=0.5)], ids=repr)
def test_threshold_replicates_draw_the_maximum_alone(sys_):
    # the size-biased zeta, then one uniform: no plain zeta and no geometric size first
    for n, count, seed in ((3, 1, 74), (500, 20_000, 75), (10_000, 5000, 76)):
        rng, ref = _rng(seed), _rng(seed)
        got = sys_.sample_batch(n, count, rng)
        assert got.tobytes() == sample_threshold_max(sys_, n, count, ref).tobytes()
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


# ---------------------------------------------------------------------------
# stable size gumbel

def test_stable_size_distribution():
    sys_ = StableSizeGumbelSystem(beta=0.5, gamma=0.0)
    n = 10_000
    nu = sys_.sample_nu(n, 20_000, _rng(13))
    s = PositiveStable(0.5).sample(_rng(14), 20_000)
    assert stats.ks_2samp(nu / n, s).pvalue > 0.01


def test_stable_size_calibration_hits_target():
    sys_ = PooledStableSize(beta=0.5, gamma=math.log(2.0))
    n = 10_000
    cal = Calibrator(sys_, n, stream=RandomStream(seed=15, stream_id=0))
    for s in (0.3, 0.6, 0.9):
        u = float(sys_.threshold_at(n, sys_.closed_form_lam(n, s)))
        got = float(cal.value(np.array([u]))[0])
        se = float(cal.stderr_at(np.array([u]))[0])
        # rounding nu to integers costs O(tau/n) on top of the pool noise
        assert abs(got - s) < 4.0 * se + 2e-3


@pytest.mark.parametrize("beta", [0.1, 0.2])
def test_stable_sizes_keep_their_value_past_int64(beta):
    # n S is heavy-tailed: at n = 1e4 a few of 200k sizes pass 2^63, and none may wrap
    sys_ = StableSizeGumbelSystem(beta=beta, gamma=math.log(2.0))
    nu = sys_.sample_nu(10_000, 200_000, RandomStream(1).generator)
    assert nu.min() >= 1.0 and nu.max() >= 2.0**63
    assert np.array_equal(nu, np.rint(nu))


@pytest.mark.parametrize("n", [3, 16, 10_000])
@pytest.mark.parametrize("beta", [0.1, 0.2, 0.5, 0.7])
def test_stable_size_pgf_is_the_direct_sum(beta, n):
    # the Poisson sum (small lam) and the direct head (large lam) against
    # sum_k y^k P(nu = k) by quadrature; at beta = 0.7, n = 1e4, y = 0.3 G is subnormal
    sys_ = StableSizeGumbelSystem(beta=beta, gamma=0.5)
    y = np.array([1e-9, 1e-3, 0.3, 0.9])
    want = [stable_size_pgf_direct(beta, n, yi) for yi in y]
    np.testing.assert_allclose(sys_.size_laplace(n, -np.log(y)), want, rtol=1e-13, atol=1e-300)
    # E x^(r nu) is the law at r lam, lam = -ln x
    np.testing.assert_allclose(sys_.size_laplace(n, 2.0 * -np.log(np.sqrt(y))), want,
                               rtol=1e-13, atol=1e-300)


def test_stable_size_pgf_matches_sampled_sizes():
    # near y -> 1, where the thresholds sit: the law against the mean of 4M sampled sizes
    for beta, n, y, seed in ((0.5, 10_000, 1.0 - np.array([1e-3, 1e-4, 1e-5]), 16),
                             (0.2, 16, 1.0 - np.array([1e-2, 1e-3, 1e-5]), 17)):
        sys_ = StableSizeGumbelSystem(beta=beta, gamma=0.5)
        rng, total, squares, draws = _rng(seed), 0.0, 0.0, 4_000_000
        for _ in range(4):  # 1M sizes at a time
            v = y[:, None] ** sys_.sample_nu(n, draws // 4, rng)
            total, squares = total + v.sum(axis=1), squares + (v * v).sum(axis=1)
        mean = total / draws
        se = np.sqrt((squares / draws - mean**2) / draws)
        assert np.all(np.abs(mean - sys_.size_laplace(n, -np.log(y))) < 4.0 * se), (beta, mean, se)


def test_stable_size_law_is_built_on_first_use():
    # building and validating a system draws nothing and builds no table
    _stable_size_cdf.cache_clear()
    sys_ = build_system({"kind": "stable_size_gumbel", "beta": 0.5, "gamma": 0.5})
    sys_.validate_n(1000)
    assert _stable_size_cdf.cache_info().currsize == 0
    assert sys_.calibration_kind == "exact" and sys_.closed_form_lam(1000, 0.5) is None
    table = _stable_size_cdf(0.5, 1000)
    assert _stable_size_cdf.cache_info().currsize == 1 and not table.flags.writeable
    # P(S < 1/(2n)) at beta = 1/2, where S is Levy: erfc(sqrt(n/2))
    assert table[0] == pytest.approx(math.erfc(math.sqrt(500.0)), rel=1e-13)


def test_stable_size_validates_stage():
    sys_ = StableSizeGumbelSystem(beta=0.5, gamma=2.0)
    with pytest.raises(ConfigError):
        sys_.validate_n(2)
    with pytest.raises(ConfigError):
        sys_.validate_n(7)
    with pytest.raises(ConfigError):
        StableSizeGumbelSystem(beta=1.0, gamma=0.5)


# ---------------------------------------------------------------------------
# branching heredity

def test_branching_index_value():
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)
    assert sys_.reference().theta_def2 == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert sys_.mu == pytest.approx(2.0)
    assert sys_.b == pytest.approx(0.5)


def test_branching_validates_offspring():
    with pytest.raises(ConfigError):
        BranchingHereditySystem({1: 0.6, 3: 0.5}, gamma=1.0, a=0.5)
    with pytest.raises(ConfigError):
        BranchingHereditySystem({0: 0.5, 4: 0.5}, gamma=1.0, a=0.5)
    with pytest.raises(ConfigError):
        BranchingHereditySystem({1: 1.0}, gamma=1.0, a=0.5)
    with pytest.raises(ConfigError):
        BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=2.5, a=0.5)
    with pytest.raises(ConfigError):
        BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=1.0)


@pytest.mark.parametrize("law", [{2.5: 0.5, 3: 0.5}, {True: 0.5, 3: 0.5}, {"3": 0.5, 1: 0.5}],
                         ids=["fraction", "boolean", "string"])
def test_branching_refuses_a_size_that_is_not_an_integer(law):
    # int() would read 2.5 as 2 and draw on {2, 3}
    with pytest.raises(ConfigError, match="offspring size must be an integer"):
        BranchingHereditySystem(law, gamma=1.0, a=0.5)
    assert BranchingHereditySystem({1.0: 0.5, 3: 0.5}, gamma=1.0, a=0.5).mu == 2.0


def test_branching_budget_guard():
    sys_ = BranchingHereditySystem({2: 1.0}, gamma=1.0, a=0.5, particle_budget=1000)
    sys_.validate_n(9)  # 2^9 = 512
    with pytest.raises(ConfigError):
        sys_.validate_n(10)  # 2^10 = 1024
    with pytest.raises(ConfigError, match="10\\^602"):
        sys_.validate_n(2000)  # 2^2000 is past the float range
    with pytest.raises(ConfigError, match="particle budget"):
        BranchingHereditySystem({2: 1.0}, gamma=1.0, a=0.5, particle_budget=0)


def test_branching_deterministic_doubling():
    sys_ = BranchingHereditySystem({2: 1.0}, gamma=2.0, a=0.3)
    m = sys_.sample_batch(5, 300, _rng(17))
    nu = sample_branching_full_tree(sys_, 5, 300, _rng(17))[0]
    assert np.all(nu == 32)
    assert np.all(np.isfinite(m))
    assert np.array_equal(sys_.sample_nu(5, 10, _rng(18)), np.full(10, 32))


def test_branching_size_laws_agree():
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)
    n = 6
    # the full tree draws the system's sizes: the two part only at the last innovations
    nu_a = sample_branching_full_tree(sys_, n, 4000, _rng(19))[0]
    nu_b = sys_.sample_nu(n, 4000, _rng(20))
    se = math.hypot(nu_a.std(ddof=1) / math.sqrt(nu_a.size),
                    nu_b.std(ddof=1) / math.sqrt(nu_b.size))
    assert abs(nu_a.mean() - nu_b.mean()) < 4.0 * se
    for k in (1, 4, 16):
        pa, pb = float(np.mean(nu_a <= k)), float(np.mean(nu_b <= k))
        s = math.sqrt(pa * (1 - pa) / nu_a.size + pb * (1 - pb) / nu_b.size)
        assert abs(pa - pb) < 4.0 * s + 1e-9


def test_heredity_step_preserves_stable_marginal():
    # the b weight is chosen so a X + b X' is again standard stable
    gamma, a = 1.3, 0.6
    b = (1.0 - a**gamma) ** (1.0 / gamma)
    dist = SymmetricStable(gamma)
    x = dist.sample(_rng(21), 40_000)
    y = dist.sample(_rng(22), 40_000)
    z = dist.sample(_rng(23), 40_000)
    assert stats.ks_2samp(a * x + b * y, z).pvalue > 0.01


def test_branching_cauchy_root_marginal():
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)
    x = np.array([-1e6, -3.0, -0.5, 0.0, 0.7, 2.0, 1e6])
    assert np.allclose(sys_.marginal_cdf(4, x), stats.cauchy.cdf(x), rtol=1e-12, atol=1e-15)


def _branching_max_cdf_n1(sys_, x):
    """P(M_1 <= x) = sum_k p_k int G((x - a s)/b)^k dG(s), and its k = 1 term.

    A Stieltjes midpoint sum over a sinh grid reaching |s| ~ 1e6; G between
    grid points is interpolated from the same table.  The k = 1 term is G(x)
    itself, since a S + b S' is again standard stable.
    """
    z = np.sinh(np.linspace(-14.5, 14.5, 2001))
    gz = sys_._stable.cdf(z)
    mid, mass = 0.5 * (z[1:] + z[:-1]), np.diff(gz)
    h = np.interp((np.asarray(x)[:, None] - sys_.a * mid) / sys_.b, z, gz)
    law = sum(p * (h**k) @ mass for k, p in zip(sys_.offspring_vals, sys_.offspring_probs))
    return law, h @ mass


@pytest.mark.parametrize("gamma", [1.0, 2.0, 1.5])
def test_branching_one_generation_exact_law(gamma):
    # gamma 1 and 2 draw the generation as maxima, 1.5 draws every particle
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=gamma, a=0.5)
    draws = 20_000
    m = sys_.sample_batch(1, draws, _rng(60))
    nu, m_o = sample_branching_full_tree(sys_, 1, draws, _rng(60))
    replay = _rng(60)
    roots = sys_._stable.sample(replay, draws)  # the roots, then one offspring count per root
    assert np.array_equal(nu, sys_._offspring(replay, draws))
    if gamma == 1.5:
        assert np.array_equal(m, m_o)
    else:  # one maximal innovation per root, over its nu children
        assert np.array_equal(m, sys_.a * roots + sys_.b * sys_._max_innovation(nu, replay))
    xs = np.sinh(np.linspace(-12.0, 12.0, 1201))
    law, single = _branching_max_cdf_n1(sys_, xs)
    assert np.max(np.abs(single - sys_._stable.cdf(xs))) < 1e-4  # the quadrature itself
    assert stats.kstest(m, lambda x: np.interp(x, xs, law)).pvalue > 0.01


def test_branching_full_path_matches_full_tree_oracle_draw_for_draw():
    # off gamma 1 and 2 every particle is drawn, on the same uniforms as the
    # full-tree sampler; the zero-mass entries test the table inversion
    sys_ = BranchingHereditySystem({0: 0.0, 1: 0.2, 2: 0.5, 4: 0.0, 5: 0.3}, gamma=1.5, a=0.5)
    m = sys_.sample_batch(4, 300, _rng(61))
    m_o = sample_branching_full_tree(sys_, 4, 300, _rng(61))[1]
    assert np.array_equal(m, m_o)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_branching_maxima_last_generation_matches_full_tree_oracle(gamma):
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=gamma, a=0.5)
    m = sys_.sample_batch(5, 5000, _rng(62))
    nu = sample_branching_full_tree(sys_, 5, 5000, _rng(62))[0]  # the system's sizes
    nu_o, m_o = sample_branching_full_tree(sys_, 5, 5000, _rng(63))
    assert stats.ks_2samp(m, m_o).pvalue > 0.01
    assert stats.ks_2samp(nu, nu_o).pvalue > 0.01


def _avx512_skx_dispatched():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX"))


# A digest of bytes that come from numpy's array loops for pow, exp, log,
# expm1, log1p, sin or tan holds only where numpy dispatches the loops it was
# recorded with: numpy 2.4's AVX512_SKX loops.  Its AVX2 and baseline loops
# differ in the last bit on a few percent of values, so such rows skip there.
_SKX_LOOPS = pytest.mark.skipif(not _avx512_skx_dispatched(),
                                reason="digest recorded with numpy's AVX512_SKX loops")


@pytest.mark.parametrize("law, gamma, n, count, seed, digest", [
    ({1: 0.5, 3: 0.5}, 1.0, 10, 64, 11,
     "079f5fa3fdfca8bf08000a0e083508c704dfbba4de0930eb63585daa88d5b6c0"),
    pytest.param({1: 0.3, 2: 0.3, 4: 0.4}, 2.0, 8, 32, 12,
                 "29fccb6328f0054aaa98e9846b8621a9575c1cd08c7b8c0e5bde880691d3e13d",
                 marks=_SKX_LOOPS),
    ({2: 0.5, 500: 0.5}, 1.0, 2, 8, 13,
     "f3009e632938ebb5e9105f6a494a08862c24c950f1ff60fd7b90914ec7e63c61"),
    pytest.param({2: 0.5, 500: 0.5}, 1.5, 2, 8, 13,
                 "557fd4647d4aaee2dda716165341413db6f374cd686b5e60e525c61af43959f7",
                 marks=_SKX_LOOPS),
], ids=["cauchy", "gauss", "wide_gap_cauchy", "wide_gap_every_particle"])
def test_branching_draws_are_frozen(law, gamma, n, count, seed, digest):
    # the bytes of the update a * repeat(x) + b * eps, before it ran in place
    sys_ = BranchingHereditySystem(law, gamma=gamma, a=0.5)
    m = sys_.sample_batch(n, count, np.random.default_rng(seed))
    assert hashlib.sha256(m.tobytes()).hexdigest() == digest


_LN2 = math.log(2.0)
# (system, n, count, seed, SHA-256 of sample_batch(n, count, RandomStream(seed, 0).generator))
_FROZEN_DRAWS = {
    "clayton": (lambda: ExchangeableCopulaSystem(ClaytonGenerator(1.0)), 10_000, 4096, 21,
                "a4c2106b7147b7d9bf16d12a78abfdcb2eed15184e8bf63f5c5c9fbbd46dfa50"),
    "tilted_frank": (lambda: ExchangeableCopulaSystem(TiltedGenerator(FrankGenerator(2.0), _LN2)),
                     10_000, 4096, 22,
                     "fc5cfe4e30c9a79c4a2a1bfb40240c51518dd411cd3f1c9c954062c540d5ed77"),
    "frank_7": (lambda: ExchangeableCopulaSystem(FrankGenerator(7.0)), 100, 4096, 23,
                "ab7a439b9ee6d330d08617c9e3a475ae12cdb2261a52806d2093936d8894c5b2"),
    "gumbel_1.5": (lambda: ExchangeableCopulaSystem(GumbelHougaardGenerator(1.5)), 100, 4096, 24,
                   "58161aa2ad04f221b93531bbc9925e7314ae72e6d12a01448376b2224bb9b0c4"),
    "tilted_gumbel_1.5": (lambda: ExchangeableCopulaSystem(
                              TiltedGenerator(GumbelHougaardGenerator(1.5), _LN2)), 100, 4096, 25,
                          "53d31819e75c28e806404806ffa7aa98b6989a7e90a3ae3b937f32fb227a249d"),
    "independence": (lambda: ExchangeableCopulaSystem(IndependenceGenerator()), 100, 4096, 26,
                     "101a3de5639a84642392c61bac5a1df4637cf3ffb6a791fca331f0efe40cfa84"),
    "duplicated_iid": (lambda: DuplicatedIidSystem(3), 100, 4096, 27,
                       "d20de7755d5345e9d2f94c432a7c969889e8c0859f31b5b4be52c985ad10ae09"),
    "mixture_spike": (lambda: MixtureSpikeSystem(0.5), 10_000, 4096, 28,
                      "1b80c550a1cafcb31d89349562daba5d93cbae5f4aab118379cc9783503012d6"),
    "geometric_eps": (lambda: GeometricThresholdSystem(eps=0.01), 100, 4096, 29,
                      "ba5dbc8ca687bb903d0f091416cfc9251ecca9b58fee11fc33ab8f1861f04bf0"),
    "geometric_eps_exponent": (lambda: GeometricThresholdSystem(eps_exponent=0.5), 100, 4096, 30,
                               "535edb81131fc2d803bca244c23beea972a4ebfec8b935d44616649e81ab87da"),
    "two_point_threshold": (lambda: RandomThresholdSystem(TwoPoint(0.5, 1.5, 0.5)), 100, 4096, 31,
                            "1c197452544d11d81c972b0f18aca37f02d6e661631daf7df74603725977eb73"),
    "pareto_threshold": (lambda: RandomThresholdSystem(Pareto(3.0, 2.0 / 3.0)), 100, 4096, 32,
                         "9eff67c049d93229939d6497e4b7911f6bc4262b02916c80be9fc840465ff88a"),
    "gamma_threshold": (lambda: RandomThresholdSystem(Gamma(2.0, 0.5)), 100, 4096, 33,
                        "37f848e8deeb24270cfaa6d9435b28cbfe2e3238d3327d7fea1bd7ed6ce21668"),
    "stable_size": (lambda: StableSizeGumbelSystem(0.5, _LN2), 100, 4096, 34,
                    "4756844906cdfe4f125814f3b0dcf23e2257b5b2a40797f8a2f67261f34a9c9c"),
    "size_jitter": (lambda: SizeJitterSystem(ExchangeableCopulaSystem(ClaytonGenerator(1.0))),
                    100, 4096, 35,
                    "ddba2aa94fcb880b59007a05c0e70cebcd1302fa2c6477ab6bd1b9190e9ad8e6"),
    "power_law_graph": (lambda: PowerLawGraphSystem(3.5), 50, 16, 36,
                        "06d6cf4f75530d9c50d26428cec04c1da555d8a47190aca205e1487774f4f708"),
}


# Rows that run numpy's array loops for pow, exp, log, expm1 or log1p, and so
# hold only under _SKX_LOOPS; the other rows use only arithmetic, reciprocals
# and numpy's Generator (with the scalar libm calls inside it).
_SIMD_DRAWS = {"tilted_frank", "frank_7", "gumbel_1.5", "tilted_gumbel_1.5", "independence",
               "duplicated_iid", "mixture_spike", "stable_size", "power_law_graph"}


@pytest.mark.parametrize("name", [pytest.param(name, marks=_SKX_LOOPS) if name in _SIMD_DRAWS
                                  else name for name in _FROZEN_DRAWS])
def test_sampler_draws_are_frozen(name):
    # the bytes of each sampler before its arithmetic ran in place
    make, n, count, seed, digest = _FROZEN_DRAWS[name]
    m = make().sample_batch(n, count, RandomStream(seed, 0).generator)
    assert hashlib.sha256(m.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["clayton", "tilted_frank", "frank_7", "gumbel_1.5",
                                  "tilted_gumbel_1.5", "independence", "mixture_spike",
                                  "stable_size", "size_jitter"])
def test_in_place_samplers_match_their_expression_replay(name):
    # on any CPU: the in-place chains give the bytes of the plain expressions,
    # which run the same numpy loops on the same machine
    make, n, count, seed, _ = _FROZEN_DRAWS[name]
    system = make()
    m = system.sample_batch(n, count, RandomStream(seed, 0).generator)
    want = expression_sample_batch(system, n, count, RandomStream(seed, 0).generator)
    assert m.tobytes() == want.tobytes()


def test_branching_batch_working_set():
    # one batch of 16 trees to n = 16 (~730k parents in the last generation)
    # peaks at ~16.9 MiB of numpy data; four or five full-size temporaries per
    # generation took it to 25.9 MiB
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)
    sys_.sample_batch(4, 4, np.random.default_rng(1))
    tracemalloc.start()
    try:
        sys_.sample_batch(16, 16, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# ---------------------------------------------------------------------------
# power-law graph

def test_graph_mean_degree_against_series():
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    k = np.arange(1, 20_001, dtype=float)
    num = float(np.sum(k**-2.5)) + 20_000.5 ** (-1.5) / 1.5
    den = float(np.sum(k**-3.5)) + 20_000.5 ** (-2.5) / 2.5
    ek = sys_.reference().mean_degree
    assert ek == pytest.approx(num / den, abs=1e-9)
    assert ek == pytest.approx(
        float(scipy_zeta(2.5) / scipy_zeta(3.5)), rel=1e-12
    )


def test_graph_parameter_conditions():
    PowerLawGraphSystem(beta=3.5, a=1.2)
    PowerLawGraphSystem(beta=2.5, a=0.4)
    with pytest.raises(ConfigError):
        PowerLawGraphSystem(beta=3.5, a=3.0)
    with pytest.raises(ConfigError):
        PowerLawGraphSystem(beta=3.5, a=1.25)
    with pytest.raises(ConfigError):
        PowerLawGraphSystem(beta=2.5, a=0.5)
    with pytest.raises(ConfigError):
        PowerLawGraphSystem(beta=2.0, a=0.1)


def test_graph_picks_are_distinct_and_not_self():
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    rng = _rng(25)
    n = 50
    mixed = np.tile([1, 2, 5, 8, 1], n // 5)
    mixed[7] = 30
    # small-degree rejection path, permutation path, and both beside d = 1
    # groups, which skip the collision check
    for d in (np.full(n, 3), np.full(n, 30), mixed):
        src, pick = sys_._distinct_picks(n, d, rng)
        assert src.size == d.sum()
        assert np.all(pick != src)
        for v in range(n):
            grp = pick[src == v]
            assert grp.size == d[v]
            assert np.unique(grp).size == d[v]
            assert np.all((grp >= 0) & (grp < n))


def test_graph_picks_uniform_over_subsets():
    # n = 5, d = 2: each vertex's pair is uniform over the C(4, 2) = 6 pairs
    # of other vertices, collisions (one in four draws) redrawn whole
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    n, reps = 5, 4000
    rng = _rng(65)
    d = np.full(n, 2)
    counts = np.zeros((n, n, n), dtype=np.int64)  # vertex, smaller pick, larger pick
    for _ in range(reps):
        src, pick = sys_._distinct_picks(n, d, rng)
        pair = pick.reshape(n, 2)
        assert np.array_equal(src, np.repeat(np.arange(n), 2))
        assert np.all(pair[:, 0] != pair[:, 1]) and np.all(pair != src.reshape(n, 2))
        np.add.at(counts, (np.arange(n), pair.min(axis=1), pair.max(axis=1)), 1)
    hit = counts[counts > 0]
    assert hit.size == n * 6
    assert stats.chisquare(hit).pvalue > 0.01


@pytest.mark.parametrize("beta", [2.5, 3.5])
def test_graph_degree_law_truncated_zeta(beta):
    # D = min(K, n - 1): P(D = k) = k^-beta / zeta(beta) below n - 1, and the
    # atom at n - 1 carries the tail zeta(beta, n - 1) / zeta(beta)
    sys_ = PowerLawGraphSystem(beta=beta, a=0.4)
    draws = 200_000
    d = sys_._degrees(_degree_cdf(beta, 5), draws, _rng(66))
    assert d.min() >= 1 and d.max() <= 4
    want = np.r_[np.arange(1.0, 4.0) ** -beta, scipy_zeta(beta, 4.0)] / scipy_zeta(beta)
    got = np.bincount(d, minlength=5)[1:] / draws
    assert np.all(np.abs(got - want) < 4.0 * np.sqrt(want * (1.0 - want) / draws)), (got, want)
    assert np.all(sys_._degrees(_degree_cdf(beta, 2), 1000, _rng(67)) == 1)


class _GivenUniforms:
    """An rng whose uniforms are fixed in advance."""

    def __init__(self, u):
        self.u = u

    def random(self, count):
        assert count == self.u.size
        return self.u


class _SearchedDegrees(PowerLawGraphSystem):
    """The graph with its degrees drawn by one search over the whole table."""

    @staticmethod
    def _degrees(cdf, count, rng):
        return 1 + np.searchsorted(cdf, rng.random(count), side="right")


def test_graph_degrees_match_plain_inversion():
    # splitting off the first cell must give the searchsorted(side="right")
    # degree, ties at the table's own values included
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    for n in (2, 3, 10_000):
        cdf = _degree_cdf(3.5, n)
        u = np.r_[_rng(68).random(1_000_000), cdf, np.nextafter(cdf, 0.0),
                  np.nextafter(cdf, 1.0), 0.0]
        got = sys_._degrees(cdf, u.size, _GivenUniforms(u))
        want = _SearchedDegrees._degrees(cdf, u.size, _GivenUniforms(u))
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # and the draws built on them keep their bytes
    plain = _SearchedDegrees(beta=3.5, a=1.0)
    assert (sys_.sample_batch(500, 20, _rng(69)).tobytes()
            == plain.sample_batch(500, 20, _rng(69)).tobytes())
    assert (sys_.sample_marginal(500, 5000, _rng(70)).tobytes()
            == plain.sample_marginal(500, 5000, _rng(70)).tobytes())
    # one read-only table per (beta, n), shared by every batch and the marginal pool
    assert _degree_cdf(3.5, 500) is _degree_cdf(3.5, 500)
    assert not _degree_cdf(3.5, 500).flags.writeable


def test_graph_aggregates_bounded_below():
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0, x_min=2.0)
    x = sys_.sample_marginal(200, 5000, _rng(26))
    assert np.all(x >= 4.0)  # own activity plus at least one picked one
    m = sys_.sample_batch(60, 50, _rng(27))
    lam = math.log(2.0)
    assert float(sys_.size_laplace(60, lam)) == math.exp(-60 * lam)  # the size is the stage n
    assert np.all(m >= 4.0)


def test_graph_max_matches_its_three_vertex_law():
    # the only sampler without a closed-form max law gets one at n = 3 (oracles)
    draws = 50_000
    m = PowerLawGraphSystem(beta=3.5, a=1.0).sample_batch(3, draws, _rng(81))
    for x in (4.0, 6.0, 10.0, 20.0, 50.0, 200.0):
        want = graph_max_cdf_3(3.5, x)
        se = math.sqrt(want * (1.0 - want) / draws)
        assert abs(np.mean(m <= x) - want) < 4.0 * se, (x, want)


# ---------------------------------------------------------------------------
# wrappers

def test_monotone_transform_commutes_draw_by_draw():
    base = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    wrapped = MonotoneTransformSystem(base, 2.0)
    m_b = base.sample_batch(32, 500, _rng(28))
    m_w = wrapped.sample_batch(32, 500, _rng(28))
    assert np.allclose(m_w, m_b**2, rtol=1e-12)


def test_monotone_transform_delegates_exact_laws():
    base = GeometricThresholdSystem(eps=0.1)
    wrapped = MonotoneTransformSystem(base, 2.0)
    u = 0.95
    assert float(wrapped.exact_max_cdf(10, u**2)) == pytest.approx(
        float(base.exact_max_cdf(10, u)), rel=1e-12
    )
    assert float(wrapped.threshold_at(10, -math.log(u))) == pytest.approx(u**2, rel=1e-12)
    assert float(wrapped.closed_form_lam(10, 0.5)) == float(base.closed_form_lam(10, 0.5))
    assert wrapped.calibration_kind == base.calibration_kind == "exact"


def test_monotone_transform_rejects_unbounded_base():
    graph = PowerLawGraphSystem(beta=3.5, a=1.0)
    branching = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)
    for base in (graph, branching):
        with pytest.raises(ConfigError):
            MonotoneTransformSystem(base, 2.0)


def _jitter_sizes(n, count, rng):
    """The sizes behind SizeJitterSystem.sample_batch, from its leading normal draws."""
    return np.maximum(1, n + np.rint(math.sqrt(n) * rng.standard_normal(count))).astype(np.int64)


def test_size_jitter_moments_and_floor():
    # the sampler's sizes against the moments of the exact law
    base = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    sys_ = SizeJitterSystem(base)
    n = 400
    m = sys_.sample_batch(n, 20_000, _rng(29))
    replay = _rng(29)
    nu = _jitter_sizes(n, 20_000, replay)
    assert np.array_equal(m, base.max_inverse_given_size(nu, replay.random(20_000)))
    k, p = _jitter_pmf(n)
    mean = float(k @ p)
    sd = math.sqrt(float((k - mean) ** 2 @ p))
    assert nu.min() >= 1 and k[0] == 1
    se = nu.std(ddof=1) / math.sqrt(nu.size)
    assert abs(nu.mean() - mean) < 4.0 * se
    assert abs(nu.std(ddof=1) - sd) < 0.05 * sd
    assert mean == pytest.approx(n, rel=1e-12) and sd == pytest.approx(math.sqrt(n), rel=1e-3)


def _jitter_pmf_brute_force(n):
    # P(nu = k) cell by cell from scipy's normal law, out to 50 sqrt(n); nu = 1 takes the lower tail
    k = np.arange(1, n + math.ceil(50 * math.sqrt(n)) + 1)
    lo, hi = (k - n - 0.5) / math.sqrt(n), (k - n + 0.5) / math.sqrt(n)
    p = np.where(k < n, stats.norm.cdf(hi) - stats.norm.cdf(lo),
                 stats.norm.sf(lo) - stats.norm.sf(hi))
    p[0] = stats.norm.cdf(hi[0])
    return k, p


@pytest.mark.parametrize("n", [4, 400, 10_000])
def test_size_jitter_size_pgf_is_the_exact_law(n):
    sys_ = SizeJitterSystem(DuplicatedIidSystem(2))
    k, p = _jitter_pmf(n)
    w = math.ceil(40 * math.sqrt(n))
    assert max(1, n - w) <= k[0] and k[-1] <= n + w and np.all(np.diff(k) > 0)
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-15) and np.all(p > 0.0)
    # built once per n, and the cached arrays cannot be changed in place
    assert _jitter_pmf(n) is _jitter_pmf(n) and not (k.flags.writeable or p.flags.writeable)
    bk, bp = _jitter_pmf_brute_force(n)
    lam = np.array([0.05, 0.5, 1.0, 3.0, 10.0, 30.0]) / n  # G from ~0.95 down to ~1e-13
    for r in (1.0, 0.5):
        want = [math.fsum(bp * math.exp(-r * li) ** bk.astype(float)) for li in lam]
        np.testing.assert_allclose(sys_.size_laplace(n, r * lam), want, rtol=1e-12, atol=1e-300)
    assert float(Calibrator(sys_, n).laplace(0.0)) == 1.0


def test_size_jitter_size_pgf_matches_sampled_sizes():
    # the law's E x^nu against the mean over 200k sampled sizes, within 4 se
    sys_ = SizeJitterSystem(ExchangeableCopulaSystem(ClaytonGenerator(1.0)))
    nu = _jitter_sizes(400, 200_000, _rng(72))
    for xi in (0.99, 0.997, 0.999):
        y = xi ** nu.astype(float)
        se = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - float(sys_.size_laplace(400, -math.log(xi)))) < 4.0 * se, xi
    k, p = _jitter_pmf(400)
    assert abs(nu.mean() - float(k @ p)) < 4.0 * nu.std(ddof=1) / math.sqrt(nu.size)


def test_size_jitter_stage_bound():
    # the exact size law's 80 sqrt(n) cells, per calibration point, bound the stage
    sys_ = SizeJitterSystem(ExchangeableCopulaSystem(ClaytonGenerator(1.0)))
    sys_.validate_n(10**6)
    with pytest.raises(ConfigError, match="jitter bound"):
        sys_.validate_n(10**6 + 1)


def test_size_jitter_requires_conditional_inverse():
    with pytest.raises(ConfigError):
        SizeJitterSystem(GeometricThresholdSystem(eps=0.1))


def test_size_jitter_refuses_a_tilted_base():
    # the jitter reaches nu = 1, and the tilt is undefined at nu <= e^gamma
    tilted = ExchangeableCopulaSystem(TiltedGenerator(FrankGenerator(2.0), 0.7))
    with pytest.raises(ConfigError, match="tilted"):
        SizeJitterSystem(tilted)


# ---------------------------------------------------------------------------
# size laws: G_n(lam) = E e^(-lam nu_n)

def _geometric_sum(eps):
    # sum_(k >= 1) eps (1 - eps)^(k - 1) y^k
    return lambda lam: eps * math.exp(-lam) / (1.0 - (1.0 - eps) * math.exp(-lam))


def _jitter_sum(n):
    bk, bp = _jitter_pmf_brute_force(n)
    return lambda lam: math.fsum(bp * math.exp(-lam) ** bk.astype(float))


_GEOMETRIC = GeometricThresholdSystem(eps=0.1)

# id: system, stage n, lam grid, the law from an independent route, rtol
_SIZE_LAWS = {
    "copula": (ExchangeableCopulaSystem(ClaytonGenerator(1.0)), 10,
               [-math.log(0.9), 0.01, 0.3, 3.0], lambda lam: math.exp(-lam) ** 10, 1e-12),
    "geometric": (GeometricThresholdSystem(eps=0.01), 1000,
                  [1e-4, 0.01, 0.5, 3.0], _geometric_sum(0.01), 1e-12),
    # zeta = 1 < n: the geometric size with eps = 1/n
    "random_threshold": (RandomThresholdSystem(Degenerate(1.0)), 1000,
                         [-math.log(0.999), 1e-4, 0.01, 0.5], _geometric_sum(1e-3), 1e-12),
    "size_jitter": (SizeJitterSystem(DuplicatedIidSystem(2)), 400,
                    [0.05 / 400, 0.5 / 400, 3.0 / 400, 30.0 / 400], _jitter_sum(400), 1e-12),
    "stable_size": (StableSizeGumbelSystem(beta=0.5, gamma=0.5), 16,
                    list(-np.log([1e-9, 1e-3, 0.3, 0.9])),
                    lambda lam: stable_size_pgf_direct(0.5, 16, math.exp(-lam)), 1e-13),
    "monotone_transform": (MonotoneTransformSystem(_GEOMETRIC, 2.0), 10,
                           [-math.log(0.95), 0.01, 0.5, 3.0],
                           lambda lam: float(_GEOMETRIC.size_laplace(10, lam)), 1e-12),
}


@pytest.mark.parametrize("row", list(_SIZE_LAWS))
def test_size_laplace_is_the_exact_law(row):
    sys_, n, lam, law, rtol = _SIZE_LAWS[row]
    lam = np.array(lam)
    # E x^(r nu) is the law at r lam, lam = -ln x
    for r in (1.0, 0.5, 2.0):
        want = [law(r * li) for li in lam]
        np.testing.assert_allclose(sys_.size_laplace(n, r * lam), want, rtol=rtol, atol=1e-300)
    ends = sys_.size_laplace(n, np.array([0.0, math.inf, math.nan]))
    assert ends[0] == 1.0 and ends[1] == 0.0 and math.isnan(ends[2])
    assert np.shape(sys_.size_laplace(n, lam[0])) == ()
    block = sys_.size_laplace(n, np.full((2, 3), lam[0]))
    assert block.shape == (2, 3) and np.all(block == sys_.size_laplace(n, lam[:1])[0])


# ---------------------------------------------------------------------------
# calibration

def test_calibrator_exact_path():
    sys_ = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    cal = Calibrator(sys_, 50)
    u = np.array([0.9, 0.99])
    assert np.allclose(cal.laplace(0.5 * cal.lam_at(u)), u**25, rtol=1e-12)
    assert np.all(cal.stderr_at(u) == 0.0)
    assert cal.exact and float(cal.stderr_at([0.99])[0]) == 0.0
    assert float(cal.value([0.99])[0]) == pytest.approx(0.99**50, rel=1e-12)


def test_calibrator_pool_determinism():
    sys_ = PooledStableSize(beta=0.5, gamma=0.5)
    a = Calibrator(sys_, 1000, stream=RandomStream(seed=31, stream_id=0), pool_size=50_000)
    b = Calibrator(sys_, 1000, stream=RandomStream(seed=31, stream_id=0), pool_size=50_000)
    u = np.array([0.995, 0.999])
    assert np.array_equal(a.value(u), b.value(u))


class _PooledThreshold(RandomThresholdSystem):
    """A random-threshold system forced onto the nu-pool route."""

    calibration_kind = "nu_pool"

    def sample_nu(self, n, count, rng):
        return sample_threshold_pair(self, n, count, rng)[0]


def test_calibrator_nu_pool_matches_independent_mc():
    sys_ = _PooledThreshold(TwoPoint(0.5, 1.5))
    n = 1000
    # the pooled path cross-checked against the closed form
    cal = Calibrator(sys_, n, stream=RandomStream(seed=33, stream_id=0), pool_size=100_000)
    for u in (0.999, 0.9995):
        got = float(cal.value(np.array([u]))[0])
        se = float(cal.stderr_at(np.array([u]))[0])
        want = float(sys_.size_laplace(n, -math.log(u)))
        assert abs(got - want) < 4.0 * se


def _uncompressed_pool_mean(pool, f, r):
    # the mean and its stderr summed over every draw, with full-size masks
    nu = pool.astype(float)[:, None]
    f = np.atleast_1d(f)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.exp(r * nu * np.log(f))
    y = np.where(f >= 1.0, 1.0, y)
    y = np.where((f <= 0.0) & (nu > 0), 0.0, y)
    y = np.where(nu == 0, 1.0, y)
    return y.mean(axis=0), y.std(axis=0, ddof=1) / math.sqrt(pool.size)


@pytest.mark.parametrize("sys_, n, u", [
    (PooledStableSize(beta=0.7, gamma=0.5), 100,
     [-0.5, 0.0, 0.97, 0.99, 0.999, 1.0, 2.0, math.nan]),
    (PooledStableSize(beta=0.5, gamma=math.log(2.0)), 10_000,
     [-0.5, 0.0, 0.999, 0.9999, 0.99999, 1.0, 2.0, math.nan]),
    (BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5), 16,
     [-math.inf, 0.0, 2.0, 10.0, 100.0, math.inf, math.nan]),
], ids=["stable_size_n100", "stable_size", "branching"])
def test_calibrator_compressed_pool_matches_uncompressed_sum(sys_, n, u):
    cal = Calibrator(sys_, n, stream=RandomStream(seed=39, stream_id=0))
    pool = build_calibration_pool(sys_, n, RandomStream(seed=39, stream_id=0))  # the same draws
    assert cal.nu.size < cal.size == pool.size
    u = np.array(u)
    f = sys_.marginal_cdf(n, u)
    assert f[0] == 0.0 and f[-2] == 1.0 and math.isnan(f[-1])
    for r in (0.5, 1.0, 2.0):  # E F(u)^(r nu) = G(r lam)
        want = _uncompressed_pool_mean(pool, f, r)[0]
        got = cal.laplace(r * cal.lam_at(u))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert math.isnan(got[-1])
    got_se = cal.stderr_at(u)  # the pool's standard error of E F(u)^nu
    np.testing.assert_allclose(got_se, _uncompressed_pool_mean(pool, f, 1.0)[1], rtol=1e-10, atol=0.0)
    assert math.isnan(got_se[-1])


def _stable_size_calibrator():
    return Calibrator(PooledStableSize(beta=0.5, gamma=math.log(2.0)), 10_000,
                      stream=RandomStream(seed=1, stream_id=0), pool_size=50_000)


_POOL_X = 1.0 - np.logspace(-7.0, -2.0, 19)  # G from ~1 down to ~1e-4


def test_pooled_pgf_is_bit_identical_on_every_sub_slice():
    # each point is one fixed-order sum, whichever points share the call
    cal = _stable_size_calibrator()
    full, full_se = cal.value(_POOL_X), cal.stderr_at(_POOL_X)
    for i in range(_POOL_X.size):
        for j in range(i + 1, _POOL_X.size + 1):
            assert cal.value(_POOL_X[i:j]).tobytes() == full[i:j].tobytes()
            assert cal.stderr_at(_POOL_X[i:j]).tobytes() == full_se[i:j].tobytes()


_POOLED_VALUES = """
import math, numpy as np
from extlab.sampling import RandomStream
from extlab.systems import Calibrator
from oracles import PooledStableSize
cal = Calibrator(PooledStableSize(beta=0.5, gamma=math.log(2.0)), 10_000,
                 stream=RandomStream(seed=1, stream_id=0), pool_size=50_000)
x = 1.0 - np.logspace(-7.0, -2.0, 19)
print(cal.value(x).tobytes().hex(), cal.stderr_at(x).tobytes().hex())
"""


def test_pooled_pgf_does_not_depend_on_blas_threads():
    src = str(Path(extlab.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)  # the pooled system lives in the oracles
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, here, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _POOLED_VALUES], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    cal = _stable_size_calibrator()
    here = f"{cal.value(_POOL_X).tobytes().hex()} {cal.stderr_at(_POOL_X).tobytes().hex()}\n"
    assert outs == [here, here]


def test_calibrator_marginal_pool_edges():
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    cal = Calibrator(sys_, 100, stream=RandomStream(seed=35, stream_id=0), pool_size=20_000)
    assert float(cal.value(np.array([1.5]))[0]) == 0.0  # below every aggregate
    mid = float(cal.value(np.array([300.0]))[0])
    assert 0.0 < mid < 1.0
    assert float(cal.stderr_at(np.array([300.0]))[0]) > 0.0


def test_sample_batch_single_draw():
    sys_ = GeometricThresholdSystem(eps=0.2)
    m = sys_.sample_batch(10, 1, RandomStream(seed=37, stream_id=0).generator)
    nu = sample_threshold_pair(sys_, 10, 1, RandomStream(seed=37, stream_id=0).generator)[0]
    assert nu.dtype == np.int64 and m.dtype == np.float64
    assert nu.shape == m.shape == (1,)
    assert nu[0] >= 1 and 0.8 < m[0] < 1.0


# ---------------------------------------------------------------------------
# config plumbing

_VALID_CONFIGS = [
    {"kind": "exchangeable_copula", "generator": {"family": "frank", "alpha": 2.0}},
    {"kind": "exchangeable_copula",
     "generator": {"family": "gumbel_hougaard", "alpha": 1.0, "tilt_gamma": 0.7}},
    {"kind": "duplicated_iid", "m": 3},
    {"kind": "mixture_spike", "gamma": 2.0},
    {"kind": "geometric_threshold", "eps_exponent": 0.5},
    {"kind": "random_threshold", "law": {"kind": "two_point", "delta": 0.5}},
    {"kind": "random_threshold", "law": {"kind": "pareto", "a": 3.0}},
    {"kind": "random_threshold", "law": {"kind": "gamma", "shape": 2.0}},
    {"kind": "stable_size_gumbel", "beta": 0.5, "gamma": 0.7},
    {"kind": "branching_heredity", "offspring": {"1": 0.5, "3": 0.5}, "gamma": 1.0, "a": 0.5},
    {"kind": "power_law_graph", "beta": 3.5, "a": 1.0},
    {"kind": "monotone_transform", "power": 2.0,
     "base": {"kind": "duplicated_iid", "m": 2}},
    {"kind": "size_jitter",
     "base": {"kind": "exchangeable_copula",
              "generator": {"family": "clayton", "alpha": 1.0}}},
]


@pytest.mark.parametrize("cfg", _VALID_CONFIGS, ids=lambda c: c["kind"])
def test_build_system_valid(cfg):
    sys_ = build_system(cfg)
    sys_.validate_n(12)
    # a replicate batch is the maxima alone: one float64 per replicate
    for count, seed in ((64, 39), (1, 40)):
        m = sys_.sample_batch(12, count, _rng(seed))
        assert isinstance(m, np.ndarray) and m.dtype == np.float64 and m.shape == (count,)
    # a size law known only through draws is the one case without size_laplace
    if sys_.calibration_kind != "nu_pool":
        assert math.isfinite(float(sys_.size_laplace(12, 0.5)))
    else:
        with pytest.raises(NotImplementedError):
            sys_.size_laplace(12, 0.5)
    if cfg["kind"] == "power_law_graph":
        with pytest.raises(NotImplementedError):
            sys_.marginal_cdf(12, 2.0)


_NO_CLOSED_FORM = {"size_jitter", "stable_size_gumbel", "branching_heredity"}
# e^-lam from 0 to 1, through the near-1 levels where the spike's numeric inverse works hardest
_HOOK_LAM = np.r_[np.inf, -np.log([1e-6, 0.3, 0.99, 0.9997, 0.99999, 1.0 - 1e-12]), 0.0]


_HOOK_CASES = [(cfg, 10_000) for cfg in _VALID_CONFIGS + [{"kind": "mixture_spike", "gamma": 0.5}]]
# the spike's marginal inverse at stages where its spiked term sits within a few doubles of 1
_HOOK_CASES += [({"kind": "mixture_spike", "gamma": 2.0}, n) for n in (10**8, 10**12)]


@pytest.mark.parametrize("cfg, n", _HOOK_CASES, ids=[
    c["kind"] if n == 10_000 else f"{c['kind']}-1e{len(str(n)) - 1}" for c, n in _HOOK_CASES])
def test_threshold_hooks(cfg, n):
    # closed_form_lam inverts size_laplace wherever it is given, and threshold_at
    # inverts the marginal at e^-lam
    sys_ = build_system(cfg)
    s = np.array([0.05, 0.5, 0.95])
    for k in (7, 1000):
        lam = sys_.closed_form_lam(k, s)
        assert (lam is None) == (cfg["kind"] in _NO_CLOSED_FORM)
        if lam is not None:
            np.testing.assert_allclose(sys_.size_laplace(k, lam), s, rtol=1e-12, atol=0.0)
    if cfg["kind"] == "power_law_graph":  # no marginal: the asymptotic tail threshold
        lam = np.array([1e-4, 0.01, 1.0])
        scale = 1.0 + sys_.reference().mean_degree
        want = sys_.x_min * (scale / lam) ** (1.0 / sys_.a)
        np.testing.assert_allclose(sys_.threshold_at(n, lam), want, rtol=1e-12, atol=0.0)
        return
    u = sys_.threshold_at(n, _HOOK_LAM)
    assert np.all(np.diff(u) >= 0.0)
    if cfg["kind"] != "branching_heredity":  # thresholds in [0, 1] reach both ends exactly
        assert u[0] == 0.0 and u[-1] == 1.0
    err = np.abs(sys_.marginal_cdf(n, u) - np.exp(-_HOOK_LAM))
    assert np.max(err) <= 2.0 * np.finfo(float).eps


def test_marginal_pool_systems_never_reach_the_root_route():
    # solve_curve inverts a marginal only through threshold_at, so a marginal known
    # only through draws must come with its own threshold and a closed-form lam, and
    # refuse to be a base
    pooled = [sys_ for sys_ in map(build_system, _VALID_CONFIGS)
              if sys_.calibration_kind == "marginal_pool"]
    assert pooled
    for sys_ in pooled:
        assert sys_.closed_form_lam(100, DEFAULT_GRID) is not None
        assert type(sys_).threshold_at is not SeriesSystem.threshold_at
        with pytest.raises(ConfigError):
            MonotoneTransformSystem(sys_, 2.0)
        with pytest.raises(ConfigError):
            SizeJitterSystem(sys_)


def test_integral_float_fields_build_the_same_system():
    a = build_system({"kind": "duplicated_iid", "m": 3})
    b = build_system({"kind": "duplicated_iid", "m": 3.0})
    assert a.name == b.name and np.array_equal(a.sample_batch(12, 64, _rng(39)),
                                               b.sample_batch(12, 64, _rng(39)))


def test_registry_is_the_one_list_of_kinds(capsys):
    kinds = set(SYSTEMS)
    assert {cfg["kind"] for cfg in _VALID_CONFIGS} == kinds
    assert all(SYSTEMS[k].kind == k for k in kinds)
    assert cli.main(["list-systems"]) == 0
    listed = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()
              if ln and not ln[0].isspace()]
    assert sorted(listed) == sorted(kinds)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("## Systems", 1)[1].split("\n\n")[1]
    rows = [ln.split("`")[1] for ln in table.splitlines() if ln.startswith("| `")]
    assert sorted(rows) == sorted(kinds)


def test_public_names_exist():
    import extlab
    from extlab import copulas, estimator, normalizer, reference, sampling, systems

    for module in (cli, copulas, estimator, normalizer, reference, sampling, systems):
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    tree = ast.parse(Path(extlab.__file__).read_text())
    names = [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert len(names) > 40
    assert [n for n in names if not hasattr(extlab, n)] == []


@pytest.mark.parametrize(
    "cfg",
    [
        {"kind": "nope"},
        {"kind": "duplicated_iid"},
        {"kind": "duplicated_iid", "m": 2, "extra": 1},
        {"kind": "exchangeable_copula", "generator": {"family": "nope"}},
        {"kind": "exchangeable_copula", "generator": {"family": "clayton"}},
        {"kind": "random_threshold", "law": {"kind": "pareto", "a": 1.0}},
        {"kind": "random_threshold", "law": {"kind": "two_point", "delta": 1.5}},
        {"kind": "branching_heredity", "offspring": {"0": 1.0}, "gamma": 1.0, "a": 0.5},
        "not a dict",
        {"kind": "exchangeable_copula", "generator": {"family": "clayton", "alpha": "x"}},
        {"kind": "stable_size_gumbel", "beta": 0.5, "gamma": "abc"},
        {"kind": "branching_heredity", "offspring": [1, 2], "gamma": 1.0, "a": 0.5},
        {"kind": "duplicated_iid", "m": 2.7},
        {"kind": "size_jitter", "base": {"kind": "duplicated_iid", "m": 2.5}},
        {"kind": "monotone_transform", "base": {"kind": "duplicated_iid", "m": 2}, "power": 0},
        {"kind": "monotone_transform", "base": {"kind": "duplicated_iid", "m": 2}, "power": -1},
        {"kind": "monotone_transform", "base": {"kind": "duplicated_iid", "m": 2},
         "power": math.nan},
    ],
)
def test_build_system_invalid(cfg):
    with pytest.raises(ConfigError):
        build_system(cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        {"kind": "exchangeable_copula",
         "generator": {"family": "clayton", "alpha": 1.0, "tilt_gamma": 0.5}},
        {"kind": "random_threshold", "law": {"kind": "two_point", "delta": 0.5}},
        {"kind": "branching_heredity", "offspring": {"1": 0.5, "3": 0.5},
         "gamma": 1.0, "a": 0.5},
        {"kind": "power_law_graph", "beta": 3.5, "a": 1.0},
    ],
    ids=lambda c: c["kind"],
)
def test_systems_pickle_and_replay(cfg):
    sys_a = build_system(cfg)
    sys_b = pickle.loads(pickle.dumps(sys_a))
    m_a = sys_a.sample_batch(10, 50, _rng(41))
    m_b = sys_b.sample_batch(10, 50, _rng(41))
    assert np.array_equal(m_a, m_b)
