"""System-level laws: exact formulas vs simulation, wrappers, config plumbing."""

import ast
import math
import os
import pickle
import subprocess
import sys
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
    SizeJitterSystem,
    StableSizeGumbelSystem,
    _jitter_pmf,
    build_system,
)
from oracles import sample_branching_full_tree, sample_copula_max, sample_spike_max


def _rng(seed, sid=0):
    return RandomStream(seed=seed, stream_id=sid).generator


def _empirical_max_matches_exact(system, n, probes, draws=60_000, seed=42):
    _, m = system.sample_batch(n, draws, _rng(seed))
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
    assert float(sys_.size_pgf(10, 0.9, r=2.0)) == pytest.approx(0.9**20, rel=1e-12)
    assert float(sys_.closed_form_u(100, 0.5)) == pytest.approx(0.5**0.01, rel=1e-12)


@pytest.mark.parametrize("sys_", [ExchangeableCopulaSystem(FrankGenerator(2.0)),
                                  DuplicatedIidSystem(3)], ids=repr)
def test_inverted_max_closed_form_u_solves_uniform_marginal(sys_):
    # uniform marginals: F_n(u)^n = u^n = s, one formula for both systems
    s = np.array([0.05, 0.5, 0.95])
    for n in (1, 7, 1000):
        assert np.allclose(sys_.closed_form_u(n, s) ** n, s, rtol=1e-12, atol=0.0)


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
    _, m = sys_.sample_batch(n, 20_000, _rng(71, 0))
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
    _, got = DuplicatedIidSystem(m).sample_batch(n, 5000, _rng(9))
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
    _, m = MixtureSpikeSystem(gamma).sample_batch(n, 20_000, _rng(73, 0))
    m_o = sample_spike_max(gamma, n, 20_000, _rng(73, 1))
    assert stats.ks_2samp(m, m_o).pvalue > 1e-3
    for draws in (m, m_o):
        assert stats.kstest(draws, lambda u: u ** ((1.0 + gamma) * n - 1.0)).pvalue > 1e-3


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_mixture_spike_marginal_quantile_round_trip(gamma):
    sys_ = MixtureSpikeSystem(gamma)
    n = 10_000
    p = np.array([0.0, 1e-6, 0.3, 0.99, 0.9997, 0.99999, 1.0 - 1e-12, 1.0])
    x = sys_.marginal_quantile(n, p)
    assert x[0] == 0.0 and x[-1] == 1.0 and np.all(np.diff(x) >= 0.0)
    assert np.max(np.abs(sys_.marginal_cdf(n, x) - p)) <= 2.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# geometric threshold

def test_geometric_threshold_construction():
    sys_ = GeometricThresholdSystem(eps=0.1)
    nu, m = sys_.sample_batch(50, 100_000, _rng(7))
    assert np.all(m > 0.9)
    se = nu.std(ddof=1) / math.sqrt(nu.size)
    assert abs(nu.mean() - 10.0) < 4.0 * se


def test_geometric_threshold_exact_values():
    sys_ = GeometricThresholdSystem(eps=0.01)
    u = 0.5 / 0.505
    assert float(sys_.size_pgf(1000, u)) == pytest.approx(0.5, rel=1e-9)
    assert float(sys_.closed_form_u(1000, 0.5)) == pytest.approx(u, rel=1e-12)
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
    nu = sys_.sample_batch(n, 200_000, _rng(9))[0]
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
    assert float(sys_.size_pgf(n, u)) == pytest.approx(want, rel=1e-12)


def test_random_threshold_degenerate_collapses_to_geometric():
    rt = RandomThresholdSystem(Degenerate(1.0))
    gt = GeometricThresholdSystem(eps=0.001)
    n = 1000
    for u in (0.9995, 0.9999):
        assert float(rt.exact_max_cdf(n, u)) == pytest.approx(
            float(gt.exact_max_cdf(n, u)), rel=1e-9
        )
        assert float(rt.size_pgf(n, u)) == pytest.approx(
            float(gt.size_pgf(n, u)), rel=1e-9
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
    pgf, cdf = sys_.size_pgf(n, u), sys_.exact_max_cdf(n, u)
    for k, uk in enumerate(u):
        want_pgf, want_cdf = _z_scale_means(sf, n, n * (1.0 - uk) / uk, n * (1.0 - uk))
        assert pgf[k] == pytest.approx(want_pgf, rel=1e-10, abs=0.0), (uk, "size_pgf")
        assert cdf[k] == pytest.approx(want_cdf, rel=1e-10, abs=0.0), (uk, "exact_max_cdf")
    # u near 1 holds n (1 - u) to ~1e-16 n / c relative, 2e-11 at c = 0.05
    assert np.allclose(pgf[:u_grid.size], DEFAULT_GRID, rtol=1e-11, atol=0.0)
    psi_n = RandomThresholdLimit(law, cap=n).psi(DEFAULT_GRID)  # the capped model's own curve
    assert np.allclose(psi_n, cdf[:u_grid.size], rtol=1e-10, atol=0.0)
    ends = sys_.size_pgf(n, np.array([0.0, 1.0]))
    assert ends[0] == 0.0 and ends[1] == 1.0
    assert float(sys_.exact_max_cdf(n, 1.0)) == 1.0


def test_random_threshold_pareto_variant_runs():
    sys_ = RandomThresholdSystem(Pareto(3.0, 2.0 / 3.0))
    assert sys_.zeta_biased.a == pytest.approx(2.0)
    nu, m = sys_.sample_batch(500, 20_000, _rng(11))
    assert np.all(nu >= 1) and np.all((m > 0.0) & (m < 1.0))
    got = float(np.mean(m <= 1.0 - 0.5 / 500))
    want = float(sys_.exact_max_cdf(500, 1.0 - 0.5 / 500))
    assert abs(got - want) < 4.0 * math.sqrt(want * (1 - want) / 20_000)


# ---------------------------------------------------------------------------
# stable size gumbel

def test_stable_size_distribution():
    sys_ = StableSizeGumbelSystem(beta=0.5, gamma=0.0)
    n = 10_000
    nu = sys_.sample_nu(n, 20_000, _rng(13))
    s = PositiveStable(0.5).sample(_rng(14), 20_000)
    assert stats.ks_2samp(nu / n, s).pvalue > 0.01


def test_stable_size_calibration_hits_target():
    sys_ = StableSizeGumbelSystem(beta=0.5, gamma=math.log(2.0))
    n = 10_000
    cal = Calibrator(sys_, n, stream=RandomStream(seed=15, stream_id=0))
    for s in (0.3, 0.6, 0.9):
        u = float(sys_.closed_form_u(n, s))
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


def test_branching_budget_guard():
    sys_ = BranchingHereditySystem({2: 1.0}, gamma=1.0, a=0.5, particle_budget=1000)
    sys_.validate_n(9)  # 2^9 = 512
    with pytest.raises(ConfigError):
        sys_.validate_n(10)  # 2^10 = 1024


def test_branching_deterministic_doubling():
    sys_ = BranchingHereditySystem({2: 1.0}, gamma=2.0, a=0.3)
    nu, m = sys_.sample_batch(5, 300, _rng(17))
    assert np.all(nu == 32)
    assert np.all(np.isfinite(m))
    assert np.array_equal(sys_.sample_nu(5, 10, _rng(18)), np.full(10, 32))


def test_branching_size_laws_agree():
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)
    n = 6
    nu_a = sys_.sample_batch(n, 4000, _rng(19))[0]
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
    nu, m = sys_.sample_batch(1, draws, _rng(60))
    replay = _rng(60)
    sys_._stable.sample(replay, draws)  # the roots, then one offspring count per root
    assert np.array_equal(nu, sys_._offspring(replay, draws))
    xs = np.sinh(np.linspace(-12.0, 12.0, 1201))
    law, single = _branching_max_cdf_n1(sys_, xs)
    assert np.max(np.abs(single - sys_._stable.cdf(xs))) < 1e-4  # the quadrature itself
    assert stats.kstest(m, lambda x: np.interp(x, xs, law)).pvalue > 0.01


def test_branching_full_path_matches_full_tree_oracle_draw_for_draw():
    # off gamma 1 and 2 every particle is drawn, on the same uniforms as the
    # full-tree sampler; the zero-mass entries test the table inversion
    sys_ = BranchingHereditySystem({0: 0.0, 1: 0.2, 2: 0.5, 4: 0.0, 5: 0.3}, gamma=1.5, a=0.5)
    nu, m = sys_.sample_batch(4, 300, _rng(61))
    nu_o, m_o = sample_branching_full_tree(sys_, 4, 300, _rng(61))
    assert np.array_equal(nu, nu_o)
    assert np.array_equal(m, m_o)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_branching_maxima_last_generation_matches_full_tree_oracle(gamma):
    sys_ = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=gamma, a=0.5)
    nu, m = sys_.sample_batch(5, 5000, _rng(62))
    nu_o, m_o = sample_branching_full_tree(sys_, 5, 5000, _rng(63))
    assert stats.ks_2samp(m, m_o).pvalue > 0.01
    assert stats.ks_2samp(nu, nu_o).pvalue > 0.01


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
    d = sys_._degrees(sys_._degree_cdf(5), draws, _rng(66))
    assert d.min() >= 1 and d.max() <= 4
    want = np.r_[np.arange(1.0, 4.0) ** -beta, scipy_zeta(beta, 4.0)] / scipy_zeta(beta)
    got = np.bincount(d, minlength=5)[1:] / draws
    assert np.all(np.abs(got - want) < 4.0 * np.sqrt(want * (1.0 - want) / draws)), (got, want)
    assert np.all(sys_._degrees(sys_._degree_cdf(2), 1000, _rng(67)) == 1)


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
        cdf = sys_._degree_cdf(n)
        u = np.r_[_rng(68).random(1_000_000), cdf, np.nextafter(cdf, 0.0),
                  np.nextafter(cdf, 1.0), 0.0]
        got = sys_._degrees(cdf, u.size, _GivenUniforms(u))
        want = _SearchedDegrees._degrees(cdf, u.size, _GivenUniforms(u))
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # and the draws built on them keep their bytes
    plain = _SearchedDegrees(beta=3.5, a=1.0)
    for a, b in ((sys_.sample_batch(500, 20, _rng(69)), plain.sample_batch(500, 20, _rng(69))),
                 ((sys_.sample_marginal(500, 5000, _rng(70)),),
                  (plain.sample_marginal(500, 5000, _rng(70)),))):
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_graph_aggregates_bounded_below():
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0, x_min=2.0)
    x = sys_.sample_marginal(200, 5000, _rng(26))
    assert np.all(x >= 4.0)  # own activity plus at least one picked one
    nu, m = sys_.sample_batch(60, 50, _rng(27))
    assert np.all(nu == 60)
    assert np.all(m >= 4.0)


def test_graph_closed_form_u():
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    ek = sys_.reference().mean_degree
    got = float(sys_.closed_form_u(100, math.exp(-1.0)))
    assert got == pytest.approx(100.0 * (1.0 + ek), rel=1e-12)


# ---------------------------------------------------------------------------
# wrappers

def test_monotone_transform_commutes_draw_by_draw():
    base = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    wrapped = MonotoneTransformSystem(base, 2.0)
    nu_b, m_b = base.sample_batch(32, 500, _rng(28))
    nu_w, m_w = wrapped.sample_batch(32, 500, _rng(28))
    assert np.array_equal(nu_b, nu_w)
    assert np.allclose(m_w, m_b**2, rtol=1e-12)


def test_monotone_transform_delegates_exact_laws():
    base = GeometricThresholdSystem(eps=0.1)
    wrapped = MonotoneTransformSystem(base, 2.0)
    u = 0.95
    assert float(wrapped.exact_max_cdf(10, u**2)) == pytest.approx(
        float(base.exact_max_cdf(10, u)), rel=1e-12
    )
    # the size law is untouched: G_n is the same function on the x scale
    assert float(wrapped.size_pgf(10, u)) == pytest.approx(
        float(base.size_pgf(10, u)), rel=1e-12
    )
    assert float(wrapped.marginal_quantile(10, u)) == pytest.approx(u**2, rel=1e-12)
    assert float(wrapped.closed_form_u(10, 0.5)) == pytest.approx(
        float(base.closed_form_u(10, 0.5)) ** 2, rel=1e-12
    )
    assert wrapped.calibration_kind == base.calibration_kind == "exact"


def test_monotone_transform_rejects_unbounded_base():
    graph = PowerLawGraphSystem(beta=3.5, a=1.0)
    branching = BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5)
    for base in (graph, branching):
        with pytest.raises(ConfigError):
            MonotoneTransformSystem(base, 2.0)


def test_size_jitter_moments_and_floor():
    # the sampler's sizes against the moments of the exact law
    base = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    sys_ = SizeJitterSystem(base)
    n = 400
    nu = sys_.sample_batch(n, 20_000, _rng(29))[0]
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
    x = np.exp(-np.array([0.05, 0.5, 1.0, 3.0, 10.0, 30.0]) / n)  # G from ~0.95 down to ~1e-13
    for r in (1.0, 0.5):
        want = [math.fsum(bp * t ** bk.astype(float)) for t in x**r]
        np.testing.assert_allclose(sys_.size_pgf(n, x, r), want, rtol=1e-12, atol=1e-300)
    edges = sys_.size_pgf(n, np.array([0.0, -1.0, 1.0, 2.0, math.nan]))
    assert edges[0] == edges[1] == 0.0 and edges[2] == edges[3] == 1.0 and math.isnan(edges[4])
    assert float(Calibrator(sys_, n).pgf(1.0)) == 1.0
    assert sys_.size_pgf(n, 0.5).shape == ()
    assert sys_.size_pgf(n, np.full((2, 3), 0.5)).shape == (2, 3)


def test_size_jitter_size_pgf_matches_sampled_sizes():
    # the law's E x^nu against the mean over 200k sampled sizes, within 4 se
    sys_ = SizeJitterSystem(ExchangeableCopulaSystem(ClaytonGenerator(1.0)))
    nu = sys_.sample_batch(400, 200_000, _rng(72))[0]
    for xi in (0.99, 0.997, 0.999):
        y = xi ** nu.astype(float)
        se = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - float(sys_.size_pgf(400, xi))) < 4.0 * se, xi
    k, p = _jitter_pmf(400)
    assert abs(nu.mean() - float(k @ p)) < 4.0 * nu.std(ddof=1) / math.sqrt(nu.size)


def test_size_jitter_requires_conditional_inverse():
    with pytest.raises(ConfigError):
        SizeJitterSystem(GeometricThresholdSystem(eps=0.1))


def test_size_jitter_refuses_a_tilted_base():
    # the jitter reaches nu = 1, and the tilt is undefined at nu <= e^gamma
    tilted = ExchangeableCopulaSystem(TiltedGenerator(FrankGenerator(2.0), 0.7))
    with pytest.raises(ConfigError, match="tilted"):
        SizeJitterSystem(tilted)


# ---------------------------------------------------------------------------
# calibration

def test_calibrator_exact_path():
    sys_ = ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    cal = Calibrator(sys_, 50)
    u = np.array([0.9, 0.99])
    assert np.allclose(cal.value(u, r=0.5), u**25, rtol=1e-12)
    assert np.all(cal.stderr_at(u) == 0.0)
    assert cal.exact and float(cal.stderr_at([0.99])[0]) == 0.0
    assert float(cal.value([0.99])[0]) == pytest.approx(0.99**50, rel=1e-12)


def test_calibrator_pool_determinism():
    sys_ = StableSizeGumbelSystem(beta=0.5, gamma=0.5)
    a = Calibrator(sys_, 1000, stream=RandomStream(seed=31, stream_id=0), pool_size=50_000)
    b = Calibrator(sys_, 1000, stream=RandomStream(seed=31, stream_id=0), pool_size=50_000)
    u = np.array([0.995, 0.999])
    assert np.array_equal(a.value(u), b.value(u))


class _PooledThreshold(RandomThresholdSystem):
    """A random-threshold system forced onto the nu-pool route."""

    calibration_kind = "nu_pool"

    def sample_nu(self, n, count, rng):
        return self.sample_batch(n, count, rng)[0]


def test_calibrator_nu_pool_matches_independent_mc():
    sys_ = _PooledThreshold(TwoPoint(0.5, 1.5))
    n = 1000
    # the pooled path cross-checked against the closed form
    cal = Calibrator(sys_, n, stream=RandomStream(seed=33, stream_id=0), pool_size=100_000)
    for u in (0.999, 0.9995):
        got = float(cal.value(np.array([u]))[0])
        se = float(cal.stderr_at(np.array([u]))[0])
        want = float(sys_.size_pgf(n, u))
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
    (StableSizeGumbelSystem(beta=0.7, gamma=0.5), 100,
     [-0.5, 0.0, 0.97, 0.99, 0.999, 1.0, 2.0, math.nan]),
    (StableSizeGumbelSystem(beta=0.5, gamma=math.log(2.0)), 10_000,
     [-0.5, 0.0, 0.999, 0.9999, 0.99999, 1.0, 2.0, math.nan]),
    (BranchingHereditySystem({1: 0.5, 3: 0.5}, gamma=1.0, a=0.5), 16,
     [-math.inf, 0.0, 2.0, 10.0, 100.0, math.inf, math.nan]),
], ids=["stable_size_n100", "stable_size", "branching"])
def test_calibrator_compressed_pool_matches_uncompressed_sum(sys_, n, u):
    cal = Calibrator(sys_, n, stream=RandomStream(seed=39, stream_id=0))
    assert cal.nu.size < cal.pool.size
    u = np.array(u)
    f = sys_.marginal_cdf(n, u)
    assert f[0] == 0.0 and f[-2] == 1.0 and math.isnan(f[-1])
    for r in (0.5, 1.0, 2.0):
        want, want_se = _uncompressed_pool_mean(cal.pool, f, r)
        got, got_se = cal.value(u, r), cal.stderr_at(u, r)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got_se, want_se, rtol=1e-10, atol=0.0)
        assert math.isnan(got[-1]) and math.isnan(got_se[-1])


def _stable_size_calibrator():
    return Calibrator(StableSizeGumbelSystem(beta=0.5, gamma=math.log(2.0)), 10_000,
                      stream=RandomStream(seed=1, stream_id=0), pool_size=50_000)


_POOL_X = 1.0 - np.logspace(-7.0, -2.0, 19)  # G from ~1 down to ~1e-4


def test_pooled_pgf_is_bit_identical_on_every_sub_slice():
    # each point is one fixed-order sum, whichever points share the call
    cal = _stable_size_calibrator()
    full, full_se = cal.pgf(_POOL_X), cal.stderr_at(_POOL_X)
    for i in range(_POOL_X.size):
        for j in range(i + 1, _POOL_X.size + 1):
            assert cal.pgf(_POOL_X[i:j]).tobytes() == full[i:j].tobytes()
            assert cal.stderr_at(_POOL_X[i:j]).tobytes() == full_se[i:j].tobytes()


_POOLED_VALUES = """
import math, numpy as np
from extlab.sampling import RandomStream
from extlab.systems import Calibrator, StableSizeGumbelSystem
cal = Calibrator(StableSizeGumbelSystem(beta=0.5, gamma=math.log(2.0)), 10_000,
                 stream=RandomStream(seed=1, stream_id=0), pool_size=50_000)
x = 1.0 - np.logspace(-7.0, -2.0, 19)
print(cal.pgf(x).tobytes().hex(), cal.stderr_at(x).tobytes().hex())
"""


def test_pooled_pgf_does_not_depend_on_blas_threads():
    src = str(Path(extlab.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _POOLED_VALUES], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    cal = _stable_size_calibrator()
    here = f"{cal.pgf(_POOL_X).tobytes().hex()} {cal.stderr_at(_POOL_X).tobytes().hex()}\n"
    assert outs == [here, here]


def test_calibrator_marginal_pool_edges():
    sys_ = PowerLawGraphSystem(beta=3.5, a=1.0)
    cal = Calibrator(sys_, 100, stream=RandomStream(seed=35, stream_id=0), pool_size=20_000)
    assert float(cal.value(np.array([1.5]))[0]) == 0.0  # below every aggregate
    mid = float(cal.value(np.array([300.0]))[0])
    assert 0.0 < mid < 1.0
    assert float(cal.stderr_at(np.array([300.0]))[0]) > 0.0


def test_calibrator_rejects_negative_power():
    cal = Calibrator(ExchangeableCopulaSystem(ClaytonGenerator(1.0)), 10)
    with pytest.raises(ConfigError):
        cal.value(np.array([0.5]), r=-1.0)


def test_sample_batch_single_draw():
    nu, m = GeometricThresholdSystem(eps=0.2).sample_batch(
        10, 1, RandomStream(seed=37, stream_id=0).generator)
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
    nu, m = sys_.sample_batch(12, 64, _rng(39))
    assert nu.shape == m.shape == (64,)
    # a size law known only through draws is the one case without size_pgf
    if sys_.calibration_kind != "nu_pool":
        assert math.isfinite(float(sys_.size_pgf(12, 0.5)))
    else:
        with pytest.raises(NotImplementedError):
            sys_.size_pgf(12, 0.5)
    if cfg["kind"] == "power_law_graph":
        with pytest.raises(NotImplementedError):
            sys_.marginal_cdf(12, 2.0)
        with pytest.raises(NotImplementedError):
            sys_.marginal_quantile(12, 0.5)


def test_marginal_pool_systems_never_reach_the_root_route():
    # solve_curve inverts a marginal only through marginal_quantile, so a marginal known
    # only through draws must come with a closed-form threshold and refuse to be a base
    pooled = [sys_ for sys_ in map(build_system, _VALID_CONFIGS)
              if sys_.calibration_kind == "marginal_pool"]
    assert pooled
    for sys_ in pooled:
        assert sys_.closed_form_u(100, DEFAULT_GRID) is not None
        with pytest.raises(ConfigError):
            MonotoneTransformSystem(sys_, 2.0)
        with pytest.raises(ConfigError):
            SizeJitterSystem(sys_)


def test_integral_float_fields_build_the_same_system():
    a = build_system({"kind": "duplicated_iid", "m": 3})
    b = build_system({"kind": "duplicated_iid", "m": 3.0})
    assert a.name == b.name and np.array_equal(a.sample_batch(12, 64, _rng(39))[1],
                                               b.sample_batch(12, 64, _rng(39))[1])


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
    nu_a, m_a = sys_a.sample_batch(10, 50, _rng(41))
    nu_b, m_b = sys_b.sample_batch(10, 50, _rng(41))
    assert np.array_equal(nu_a, nu_b)
    assert np.array_equal(m_a, m_b)
