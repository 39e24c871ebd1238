"""Closed forms and samplers that only the tests use, as independent references.

``TwoPointThresholdLimit`` inverts the two-atom threshold curve in closed
form, ``mixed_max_stable_cdf`` is the limit law of maxima under random
mixing, ``sample_frailty`` draws the Marshall-Olkin frailty of an
Archimedean generator, ``sample_exchangeable`` draws a whole exchangeable
vector through its frailty, ``sample_copula_max`` draws its maximum through the
frailty, where the systems invert the diagonal d.f. of the maximum,
``sample_spike_max`` draws the spiked series' maximum from its two blocks,
where the system inverts the product d.f.,
``sample_branching_full_tree`` grows every particle of a branching
population, where the system draws its last generation as maxima, and
``bisect_root`` is the plain 60-step bisection that the bracketed
superlinear root finder must reproduce.
"""

import math
from dataclasses import dataclass

import numpy as np

from extlab.copulas import ClaytonGenerator, FrankGenerator, GumbelHougaardGenerator, _FixedTilt
from extlab.reference import ReferenceModel, _check_s
from extlab.sampling import Distribution, PositiveStable


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

    Uses the frailty's Laplace transform when it has one in closed form;
    otherwise the frailty must be a law with an exact ``expect`` (the atomic
    ``TwoPoint`` and ``Degenerate``).
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    x = np.asarray(x, dtype=float)
    u = -theta * law.log_cdf(x)  # >= 0, possibly +inf
    try:
        out = np.where(np.isinf(u), 0.0, zeta.laplace(np.where(np.isinf(u), 0.0, u)))
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

def sample_frailty(gen, rng, size: int) -> np.ndarray:
    """size draws of the frailty zeta of a fixed generator: E exp(-u zeta) = f(u).

    Clayton: Gamma(1/alpha, 1); Frank: logarithmic series with
    p = 1 - exp(-alpha); Gumbel-Hougaard with alpha > 1: positive
    stable(1/alpha); independence and Gumbel-Hougaard at alpha = 1: the
    constant 1.  A tilt phi_base^beta has frailty S * zeta_base^beta with
    S positive stable(1/beta), drawn first.
    """
    if isinstance(gen, _FixedTilt):
        s = PositiveStable(1.0 / float(gen.beta)).sample(rng, size)
        return s * np.asarray(sample_frailty(gen.base, rng, size), dtype=float) ** float(gen.beta)
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
    g = gen.fixed(d)
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
    g = gen.fixed(n)
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
# root finding

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
