"""Closed forms and samplers that only the tests use, as independent references.

``TwoPointThresholdLimit`` inverts the two-atom threshold curve in closed
form, ``mixed_max_stable_cdf`` is the limit law of maxima under random
mixing, ``pin`` gives a tilted generator at one dimension by its
definition, the ``PinnedTilt`` phi_base^beta, where the library takes the
base at dimension d * exp(-gamma), ``sample_frailty`` draws the
Marshall-Olkin frailty of an Archimedean generator, ``sample_exchangeable``
draws a whole exchangeable vector through its frailty,
``sample_copula_max`` draws its maximum through the frailty, where the
systems invert the diagonal d.f. of the maximum,
``sample_spike_max`` draws the spiked series' maximum from its two blocks,
where the system inverts the product d.f.,
``sample_branching_full_tree`` grows every particle of a branching
population, where the system draws its last generation as maxima,
``graph_max_cdf_3`` integrates the three-vertex power-law graph's maximum
law over its pick patterns, where the system draws whole graphs,
``sample_threshold_pair`` draws (nu_n, M_n) of a threshold system, the size
first, where the system draws M_n alone, ``sample_threshold_max`` draws
that M_n by its construction, ``stable_size_pgf_direct`` sums the stable
size law term by term, where the system sums it by Poisson summation,
``PooledStableSize`` keeps the stable-size system on a frozen pool of
sampled sizes for the pooled-calibrator tests, and
``bisect_root`` is the plain 60-step bisection that the bracketed
superlinear root finder must reproduce, ``PROBES`` with ``probe_z``
checks each sampler against closed-form moments of its law, and
``expression_phi``, ``expression_f``, ``expression_diag_inverse`` and
``expression_sample_batch`` are the generator kernels, the inverse
diagonal and the closed-form samplers as plain numpy expressions, one new
array per step, which the library's in-place chains must match bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from extlab.copulas import (
    ClaytonGenerator,
    FrankGenerator,
    GumbelHougaardGenerator,
    IndependenceGenerator,
    TiltedGenerator,
    default_tilt_power,
)
from extlab.reference import ReferenceModel, _check_s
from extlab.sampling import (Degenerate, Distribution, Gamma, Pareto, PositiveStable,
                             SymmetricStable, TwoPoint)
from extlab.systems import (
    ExchangeableCopulaSystem,
    GeometricThresholdSystem,
    MixtureSpikeSystem,
    SizeJitterSystem,
    StableSizeGumbelSystem,
)


class TwoPointThresholdLimit(ReferenceModel):
    """Explicit two-atom threshold curve: zeta on {1-delta, 1+delta}.

    f inverts in closed form: f^{-1}(s) = (1 + sqrt(1 - 4 s (1-s) delta^2))
    / (2 s) - 1, and the curve ends at theta1 = 1 - delta^2.
    """

    def __init__(self, delta: float):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        self.delta = float(delta)
        self.name = f"two_point_threshold_limit(delta={self.delta:g})"

    def f_inv(self, s):
        s = np.asarray(s, dtype=float)
        d2 = self.delta**2
        return (1.0 + np.sqrt(1.0 - 4.0 * s * (1.0 - s) * d2)) / (2.0 * s) - 1.0

    def psi(self, s):
        s = _check_s(s)
        t = self.f_inv(s)
        lo, hi = 1.0 - self.delta, 1.0 + self.delta
        out = 0.5 * (np.maximum(lo - t, 0.0) + np.maximum(hi - t, 0.0))
        return out if out.ndim else float(out)

    def indices(self):
        t1 = 1.0 - self.delta**2
        return {
            "theta_minus": t1, "theta_plus": math.inf,
            "theta0": math.inf, "theta1": t1, "theta_def2": None,
        }


# ---------------------------------------------------------------------------
# mixed max-stable laws

@dataclass
class MaxStableLaw:
    """One of the three max-stable families with affine norming."""

    family: str          # "gumbel" | "frechet" | "weibull"
    alpha: float | None = None
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in ("gumbel", "frechet", "weibull"):
            raise ValueError(f"unknown max-stable family {self.family!r}")
        if self.family in ("frechet", "weibull"):
            if self.alpha is None or self.alpha <= 0:
                raise ValueError(f"{self.family} needs a positive alpha, got {self.alpha}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def log_cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        if self.family == "gumbel":
            return -np.exp(-z)
        if self.family == "frechet":
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(z > 0.0, -np.maximum(z, 1e-300) ** (-self.alpha), -np.inf)
        return np.where(z < 0.0, -((-np.minimum(z, 0.0)) ** self.alpha), 0.0)

    def cdf(self, x):
        return np.exp(self.log_cdf(x))


def mixed_max_stable_cdf(law: MaxStableLaw, zeta: Distribution, theta: float, x):
    """H(x) = E G(x)^(theta zeta): the limit law of maxima under random mixing.

    Uses the frailty's Laplace transform in closed form: the positive stable
    law's own, or Gamma's (1 + scale u)^-shape; otherwise the frailty must be
    a law with an exact ``expect`` (the atomic ``TwoPoint`` and ``Degenerate``).
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    x = np.asarray(x, dtype=float)
    u = -theta * law.log_cdf(x)  # >= 0, possibly +inf
    v = np.where(np.isinf(u), 0.0, u)
    try:
        lt = (1.0 + zeta.scale * v) ** -zeta.shape if isinstance(zeta, Gamma) else zeta.laplace(v)
        out = np.where(np.isinf(u), 0.0, lt)
    except NotImplementedError:
        flat = np.atleast_1d(u)
        vals = np.array([
            0.0 if math.isinf(ui) else float(zeta.expect(lambda z: np.exp(-ui * z)))
            for ui in flat
        ])
        out = vals.reshape(u.shape) if u.ndim else vals[0]
    out = np.asarray(out)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# exchangeable vectors

@dataclass(frozen=True)
class PinnedTilt:
    """A tilt pinned at one dimension by its definition: phi_base^beta, f_base(u^(1/beta))."""

    base: object
    beta: float

    def phi(self, t):
        return self.base.phi(t) ** self.beta

    def f(self, u):
        return self.base.f(np.asarray(u, dtype=float) ** (1.0 / self.beta))


def expression_phi(gen, t):
    """phi of a plain generator as one numpy expression."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        if isinstance(gen, IndependenceGenerator):
            return -np.log(t)
        if isinstance(gen, ClaytonGenerator):
            return t ** (-gen.alpha) - 1.0
        if isinstance(gen, FrankGenerator):
            a = gen.alpha
            return -np.log(-np.expm1(-a * t) / -np.expm1(-a))
        if isinstance(gen, GumbelHougaardGenerator):
            return (-np.log(t)) ** gen.alpha
    raise TypeError(f"no expression for {gen!r}")


def expression_f(gen, u):
    """f, the inverse generator, of a plain generator as one numpy expression."""
    u = np.asarray(u, dtype=float)
    if isinstance(gen, IndependenceGenerator):
        return np.exp(-u)
    if isinstance(gen, ClaytonGenerator):
        return (1.0 + u) ** (-1.0 / gen.alpha)
    if isinstance(gen, FrankGenerator):
        a = gen.alpha
        return -np.log1p(np.expm1(-a) * np.exp(-u)) / a
    if isinstance(gen, GumbelHougaardGenerator):
        return np.exp(-u ** (1.0 / gen.alpha))
    raise TypeError(f"no expression for {gen!r}")


def _plain(gen, d):
    d = np.asarray(d, dtype=float)
    if isinstance(gen, TiltedGenerator):
        return gen.base, d * math.exp(-gen.gamma)
    return gen, d


def expression_diag_inverse(gen, d, v):
    """f(phi(v) / d) clipped to [0, 1], with 1 at v >= 1, one new array per step."""
    g, d = _plain(gen, d)
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        out = expression_f(g, expression_phi(g, v) / d)
    out = np.where(v >= 1.0, 1.0, np.clip(out, 0.0, 1.0))
    return out if out.ndim else float(out)


def expression_sample_batch(system, n, count, rng):
    """sample_batch of a closed-form system as plain numpy expressions, one new array per step.

    It draws from rng in the system's order, so on one machine it gives the
    system's bytes: the copula diagonal, the spike, the stable size, and
    the size jitter over a copula.
    """
    if isinstance(system, ExchangeableCopulaSystem):
        return expression_diag_inverse(system.gen, n, rng.random(count))
    if isinstance(system, MixtureSpikeSystem):
        return rng.random(count) ** (1.0 / system._max_power(n))
    if isinstance(system, StableSizeGumbelSystem):
        nu = np.maximum(1.0, np.rint(n * system._stable.sample(rng, count)))
        return rng.random(count) ** (nu ** (-1.0 / default_tilt_power(n, system.gamma)))
    if isinstance(system, SizeJitterSystem) and isinstance(system.base, ExchangeableCopulaSystem):
        z = rng.standard_normal(count)
        nu = np.maximum(1, n + np.rint(math.sqrt(n) * z)).astype(np.int64)
        return expression_diag_inverse(system.base.gen, nu, rng.random(count))
    raise TypeError(f"no expression for {system.name}")


def pin(gen, d):
    """The generator at dimension d: a tilt's phi_base^beta_d, beta_d = ln d / (ln d - gamma).

    A plain generator, and a tilt at gamma = 0, is its base.
    """
    if not isinstance(gen, TiltedGenerator):
        return gen
    beta = math.log(d) / (math.log(d) - gen.gamma)
    return gen.base if beta == 1.0 else PinnedTilt(gen.base, beta)


def sample_frailty(gen, rng, size: int) -> np.ndarray:
    """size draws of the frailty zeta of a fixed generator: E exp(-u zeta) = f(u).

    Clayton: Gamma(1/alpha, 1); Frank: logarithmic series with
    p = 1 - exp(-alpha); Gumbel-Hougaard with alpha > 1: positive
    stable(1/alpha); independence and Gumbel-Hougaard at alpha = 1: the
    constant 1.  A ``PinnedTilt`` phi_base^beta has frailty
    S * zeta_base^beta with S positive stable(1/beta), drawn first.
    """
    if isinstance(gen, PinnedTilt):
        s = PositiveStable(1.0 / gen.beta).sample(rng, size)
        return s * np.asarray(sample_frailty(gen.base, rng, size), dtype=float) ** gen.beta
    if isinstance(gen, ClaytonGenerator):
        return rng.gamma(1.0 / gen.alpha, 1.0, size)
    if isinstance(gen, FrankGenerator):
        return rng.logseries(-math.expm1(-gen.alpha), size)
    if isinstance(gen, GumbelHougaardGenerator) and gen.alpha > 1.0:
        return PositiveStable(1.0 / gen.alpha).sample(rng, size)
    return np.ones(size)


def sample_exchangeable(gen, d: int, stream, size=None):
    """Exact draw of the d exchangeable terms via the frailty: f(E_i / zeta).

    Returns shape (d,) when size is None, else (size, d).
    """
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    g = pin(gen, d)
    rng = stream.generator
    m = 1 if size is None else int(size)
    zeta = np.asarray(sample_frailty(g, rng, m), dtype=float)
    e = rng.standard_exponential((m, d))
    u = g.f(e / zeta[:, None])
    return u[0] if size is None else u


def sample_copula_max(gen, n: int, count: int, rng):
    """count maxima of n exchangeable terms via the frailty: M = f(E / (n zeta)).

    The minimum of the n exponentials in the frailty representation is
    Exp(n), so one exponential E and one frailty draw zeta give the maximum.
    """
    g = pin(gen, n)
    zeta = np.asarray(sample_frailty(g, rng, count), dtype=float)
    e = rng.standard_exponential(count)
    return g.f(e / (n * zeta))


def sample_spike_max(gamma: float, n: int, count: int, rng):
    """count maxima of the spiked series by construction, from two uniforms each.

    The n - 1 plain terms have maximum V1^(1/(n-1)) and the spiked term is
    V2^(1/(gamma n)); the series maximum is the larger of the two.
    """
    v1 = rng.random(count)
    v2 = rng.random(count)
    return np.maximum(v1 ** (1.0 / (n - 1)), v2 ** (1.0 / (gamma * n)))


# ---------------------------------------------------------------------------
# branching populations

def sample_branching_full_tree(system, n: int, count: int, rng):
    """(nu_n, M_n) of ``BranchingHereditySystem`` with every particle drawn.

    Each generation draws its offspring counts by a search in the cdf table,
    repeats every score once per child, adds a fresh stable innovation to
    each, and carries the tree of each particle along as an owner index.
    """
    cum = np.cumsum(system.offspring_probs)
    scores = system._stable.sample(rng, count)  # stationary roots
    owner = np.arange(count)
    for _ in range(n):
        idx = np.searchsorted(cum, rng.random(scores.size), side="right")
        k = system.offspring_vals[np.minimum(idx, len(cum) - 1)]
        fresh = system._stable.sample(rng, int(k.sum()))
        scores = system.a * np.repeat(scores, k) + system.b * fresh
        owner = np.repeat(owner, k)
    nu = np.bincount(owner, minlength=count).astype(np.int64)
    m = np.full(count, -np.inf)
    if scores.size:
        # owners are sorted; segment boundaries give per-tree maxima
        starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        m[owner[starts]] = np.maximum.reduceat(scores, starts)
    return nu, m


# ---------------------------------------------------------------------------
# threshold systems

def sample_threshold_max(system, n: int, count: int, rng):
    """count maxima of a random or geometric threshold system: the size-biased
    zeta (none at the fixed threshold 1 - eps), then one uniform above the threshold."""
    if isinstance(system, GeometricThresholdSystem):
        eps = system.eps_at(n)
        return 1.0 - eps + eps * rng.random(count)
    x = 1.0 - system._draw(system.zeta_biased, n, count, rng) / n
    return x + (1.0 - x) * rng.random(count)


def sample_threshold_pair(system, n: int, count: int, rng):
    """(nu_n, M_n) of a random or geometric threshold system, the size drawn first.

    nu is geometric with success probability zeta/n for a plain zeta (eps at
    the fixed threshold), drawn before the maximum from the same generator.
    """
    if isinstance(system, GeometricThresholdSystem):
        p = system.eps_at(n)
    else:
        p = np.clip(system._draw(system.zeta, n, count, rng) / n, 1e-300, 1.0)
    nu = rng.geometric(p, count).astype(np.int64)
    return nu, sample_threshold_max(system, n, count, rng)


def graph_max_cdf_3(beta: float, x: float) -> float:
    """P(M_3 <= x) for the power-law graph at n = 3 with Pareto(1) activities X_0, X_1, X_2.

    D = min(K, 2) and q = P(D = 1) = 1/zeta(beta).  A vertex with D = 2 sums
    all three activities, the largest aggregate, so M = X_0 + X_1 + X_2 unless
    every vertex picks one other.  Of those 2^3 pick patterns, 2 cover all
    three pairs, so M is the largest pair sum, and 6 cover two pairs sharing a
    vertex, so M = X_0 + max(X_1, X_2):
    P(M <= x) = q^3 [P(every pair sum <= x)/4 + 3 E F(x - X_0)^2 / 4]
    + (1 - q^3) P(X_0 + X_1 + X_2 <= x), with F(y) = 1 - 1/y on y >= 1.
    Each term is one quadrature over X_0 = t of a closed-form inner law.
    """
    from scipy.special import zeta

    def cdf(y):
        return max(0.0, 1.0 - 1.0 / y) if y > 0.0 else 0.0

    def pair_sum_cdf(y):  # P(X_1 + X_2 <= y)
        return (y - 2.0) / y - 2.0 * math.log(y - 1.0) / y**2 if y > 2.0 else 0.0

    def mixed(s):  # an antiderivative of F(x - s) / s^2 on 1 <= s <= x - 1
        return (1.0 / x - 1.0) / s + (math.log(x - s) - math.log(s)) / x**2

    def pairs_given(t):  # P(X_1, X_2 <= x - t and X_1 + X_2 <= x)
        c = x - t
        if t >= c:
            return cdf(c) ** 2
        return cdf(c) * cdf(t) + mixed(c) - mixed(t)

    def quad(fn, hi, points=None):
        return integrate.quad(lambda t: fn(t) / t**2, 1.0, hi, points=points, epsabs=0.0,
                              epsrel=1e-12, limit=200)[0] if hi > 1.0 else 0.0

    q3 = zeta(beta) ** -3.0
    every_pair = quad(pairs_given, x - 1.0, points=[x / 2.0] if x > 2.0 else None)
    shared = quad(lambda t: cdf(x - t) ** 2, x - 1.0)
    triple = quad(lambda t: pair_sum_cdf(x - t), x - 2.0)
    return q3 * (0.25 * every_pair + 0.75 * shared) + (1.0 - q3) * triple


# ---------------------------------------------------------------------------
# root finding

def stable_size_pgf_direct(beta: float, n: int, y: float) -> float:
    """E y^nu for nu = max(1, rint(n S)), S positive stable(beta), as sum_k y^k P(nu = k).

    Kanter's representation S = (a(phi)/W)^((1-beta)/beta) gives
    P(nu = k) = (1/pi) int_0^pi [exp(-a t_k) - exp(-a t_(k-1))] dphi with
    t_k = ((k + 1/2)/n)^(-beta/(1-beta)), and nu = 1 takes all of [0, 3/2).
    The sum runs inside one adaptive quadrature over phi (scipy's quad),
    each cell by expm1 so that no difference cancels.  G >= y^(3/2)
    e^(-(n lam)^beta) with lam = -ln y, so stopping at the K with
    K lam >= (n lam)^beta + 40 leaves out less than e^-40 of G.
    """
    lam = -math.log(y)
    k = np.arange(1.0, math.ceil(((n * lam) ** beta + 40.0) / lam) + 2.0)
    t = ((k + 0.5) / n) ** (-beta / (1.0 - beta))
    gap = np.r_[np.inf, t[:-1]] - t  # t_(k-1) - t_k; nu = 1 has no lower edge
    weights = y**k

    def summed(phi):
        a = (np.sin((1.0 - beta) * phi) * np.sin(beta * phi) ** (beta / (1.0 - beta))
             / np.sin(phi) ** (1.0 / (1.0 - beta)))
        return float(weights @ (np.exp(-a * t) * -np.expm1(-a * gap)))

    return integrate.quad(summed, 0.0, math.pi, epsabs=0.0, epsrel=5e-14, limit=400)[0] / math.pi


class PooledStableSize(StableSizeGumbelSystem):
    """The stable-size system calibrated on a frozen pool of sampled sizes.

    The pool is drawn by the system's own ``sample_nu``.  Its lam is the
    asymptotic closed form (-ln s)^(1/beta) / n, which matches
    E e^(-lam nu) = s only as n -> infinity, so the pool shows its bias and noise.
    """

    calibration_kind = "nu_pool"

    def closed_form_lam(self, n, s):
        return (-np.log(np.asarray(s, dtype=float))) ** (1.0 / self.beta) / n


def bisect_root(fn, s, steps: int = 60):
    """Per-point x in [0, 1] with fn(x) = s by `steps` plain halvings of [0, 1].

    fn(lo) <= s < fn(hi) throughout (NaN counts as above), taking
    fn(0) <= s < fn(1) as given; returns the midpoint of the last bracket.
    """
    s = np.asarray(s, dtype=float)
    lo, hi = np.zeros(s.shape), np.ones(s.shape)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = fn(mid) <= s
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# sampler probes

# (law type, label, statistic of the draws x, E statistic in closed form): Laplace
# transforms, E cos(tX) = exp(-|t|^gamma), point masses, tail probabilities and means
PROBES = [
    (Gamma, "mean", lambda d, x: x, lambda d: d.shape * d.scale),
    (Gamma, "laplace(1)", lambda d, x: np.exp(-x), lambda d: (1.0 + d.scale) ** -d.shape),
    (Gamma, "laplace(1/2)", lambda d, x: np.exp(-0.5 * x),
     lambda d: (1.0 + d.scale * 0.5) ** -d.shape),
    *[(PositiveStable, f"laplace({u})", lambda d, x, u=u: np.exp(-u * x),
       lambda d, u=u: np.exp(-u ** d.beta)) for u in (0.5, 1.0, 2.0)],
    *[(SymmetricStable, f"E cos({t}X)", lambda d, x, t=t: np.cos(t * x),
       lambda d, t=t: np.exp(-t ** d.gamma)) for t in (0.5, 1.0)],
    (SymmetricStable, "P(X<=0)", lambda d, x: x <= 0, lambda d: 0.5),
    (Pareto, "P(X>2*x_min)", lambda d, x: x > 2.0 * d.x_min, lambda d: 2.0**-d.a),
    (Pareto, "P(X>4*x_min)", lambda d, x: x > 4.0 * d.x_min, lambda d: 4.0**-d.a),
    # the mean's z needs a finite variance, a > 2; None drops the row
    (Pareto, "mean", lambda d, x: x, lambda d: d.a * d.x_min / (d.a - 1.0) if d.a > 2.0 else None),
    (TwoPoint, "P(X=lo)", lambda d, x: x == d.lo, lambda d: d.p_lo),
    (TwoPoint, "mean", lambda d, x: x, lambda d: d.p_lo * d.lo + (1.0 - d.p_lo) * d.hi),
    (Degenerate, "mean", lambda d, x: x, lambda d: d.c),
]


def probe_z(dist, stream, draws: int):
    """(label, observed, expected, z) for each probe row of dist's law on `draws` samples.

    z = (observed - expected) / stderr, with the ddof=1 standard deviation; for an
    exact sampler |z| behaves like a standard normal draw.  A row with zero sample
    variance gives z = 0 on exact agreement and z = inf otherwise.
    """
    x = dist.sample(stream.generator, draws)
    out = []
    for _, label, stat, expect in (row for row in PROBES if type(dist) is row[0]):
        if (expected := expect(dist)) is None:
            continue
        y = np.asarray(stat(dist, x), dtype=float)
        observed, sd = float(y.mean()), float(y.std(ddof=1))
        if sd == 0.0:
            z = 0.0 if observed == expected else math.inf
        else:
            z = (observed - expected) / (sd / math.sqrt(draws))
        out.append((label, observed, float(expected), z))
    return out
