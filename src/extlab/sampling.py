"""Counter-based random streams and the sampler toolbox.

Streams are addressed by a 64-bit ``seed`` plus a 64-bit ``stream_id`` on
top of the Philox counter-based bit generator, so any batch layout that
assigns work by substream index reproduces the same draws no matter how
many workers execute it.  Substream ids are derived by a splitmix-style
hash of the parent id and the index path.

Every distribution used by the series systems lives here as a small class
with a ``sample`` method plus whatever analytic hooks the laboratory needs
(mean, Laplace transform, cdf, quantile).  ``validate_sampler`` checks a
sampler against analytic probes: Laplace transforms, characteristic
function values, point masses, tail probabilities.  Samplers with no
closed-form density (positive stable, symmetric stable) are exact
transformation samplers, not approximations, so the probes are the
ground truth for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # splitmix64 finalizer: bijective on 64-bit words, avalanches all bits
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class RandomStream:
    """A reproducible random source identified by (seed, stream_id).

    ``substream(*index)`` derives a child stream whose id is a hash of the
    parent id and the index path.  Children with distinct paths are
    independent Philox keys; the derivation is deterministic, so replicate
    batch j of a run always sees the same draws regardless of scheduling.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        for label, value in (("seed", seed), ("stream_id", stream_id)):
            if not isinstance(value, (int, np.integer)):
                raise TypeError(f"{label} must be an integer, got {type(value).__name__}")
            if not 0 <= value < (1 << 64):
                raise ValueError(f"{label} must be in [0, 2**64), got {value}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def substream(self, *index: int) -> "RandomStream":
        h = self.stream_id
        for ix in index:
            if not isinstance(ix, (int, np.integer)) or ix < 0:
                raise ValueError(f"substream indices must be non-negative integers, got {ix!r}")
            h = _mix64((h ^ int(ix)) + _GOLDEN)
        return RandomStream(self.seed, h)

    def __getstate__(self):
        return (self.seed, self.stream_id)

    def __setstate__(self, state):
        self.seed, self.stream_id = state
        self._gen = None

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


# ---------------------------------------------------------------------------
# distributions

def float_root(fn, lo: float, hi: float) -> float:
    """The root of fn on the bracket [lo, hi] to float resolution (brentq, rtol = 4 eps).

    xtol is the least normal double: 2100 steps cover bisection over the whole double range."""
    from scipy.optimize import brentq

    return brentq(fn, lo, hi, xtol=np.finfo(float).tiny, rtol=4.0 * np.finfo(float).eps,
                  maxiter=2100)


class Distribution:
    """Base class: a sampler plus whatever analytic structure it has."""

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no implemented mean")

    def laplace(self, u):
        """E exp(-u X) where available in closed form."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form Laplace transform")

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """P(X > x); laws with an upper tail override it to keep its relative precision."""
        return 1.0 - self.cdf(x)

    def quantile(self, p):
        raise NotImplementedError

    def size_biased(self) -> "Distribution":
        """The law reweighted by x / E x (positive support, finite mean)."""
        raise NotImplementedError(f"{type(self).__name__} has no size-biased form")

    def probes(self):
        """(label, transform, expected value) triples for validate_sampler."""
        raise NotImplementedError

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Gamma(Distribution):
    def __init__(self, shape: float, scale: float = 1.0):
        if shape <= 0 or scale <= 0:
            raise ValueError(f"shape and scale must be positive, got {shape}, {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size)

    def mean(self):
        return self.shape * self.scale

    def laplace(self, u):
        return (1.0 + self.scale * u) ** (-self.shape)

    def cdf(self, x):
        from scipy.special import gammainc

        return gammainc(self.shape, np.maximum(x, 0.0) / self.scale)

    def sf(self, x):
        from scipy.special import gammaincc

        return gammaincc(self.shape, np.maximum(x, 0.0) / self.scale)

    def size_biased(self):
        return Gamma(self.shape + 1.0, self.scale)

    def quantile(self, p):
        from scipy.special import gammaincinv

        return self.scale * gammaincinv(self.shape, p)

    def probes(self):
        return [
            ("mean", lambda x: x, self.mean()),
            ("laplace(1)", lambda x: np.exp(-x), self.laplace(1.0)),
            ("laplace(1/2)", lambda x: np.exp(-0.5 * x), self.laplace(0.5)),
        ]


class PositiveStable(Distribution):
    """Positive stable law with E exp(-u X) = exp(-u^beta), 0 < beta < 1.

    Sampled by Kanter's exact transformation of a uniform angle and an
    exponential divisor.  The mean is infinite for every beta in (0, 1).
    """

    def __init__(self, beta: float):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        self.beta = float(beta)

    def sample(self, rng, size=None):
        b = self.beta
        u = rng.uniform(0.0, np.pi, size)
        w = rng.standard_exponential(size)
        a = (
            np.sin((1.0 - b) * u)
            * np.sin(b * u) ** (b / (1.0 - b))
            / np.sin(u) ** (1.0 / (1.0 - b))
        )
        return (a / w) ** ((1.0 - b) / b)

    def laplace(self, u):
        return np.exp(-np.asarray(u, dtype=float) ** self.beta)

    def probes(self):
        return [
            (f"laplace({u})", (lambda x, u=u: np.exp(-u * x)), float(self.laplace(u)))
            for u in (0.5, 1.0, 2.0)
        ]


class SymmetricStable(Distribution):
    """Standard symmetric stable law, E cos(tX) = exp(-|t|^gamma), 0 < gamma <= 2.

    Chambers-Mallows-Stuck sampler.  gamma=1 is the standard Cauchy law and
    gamma=2 the centered normal with variance 2.
    """

    def __init__(self, gamma: float):
        if not 0.0 < gamma <= 2.0:
            raise ValueError(f"gamma must lie in (0, 2], got {gamma}")
        self.gamma = float(gamma)

    def sample(self, rng, size=None):
        g = self.gamma
        u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
        if g == 1.0:
            return np.tan(u)
        w = rng.standard_exponential(size)
        cu = np.cos(u)
        return (
            np.sin(g * u)
            / cu ** (1.0 / g)
            * (np.cos((1.0 - g) * u) / w) ** ((1.0 - g) / g)
        )

    def char(self, t):
        """E cos(tX) = exp(-|t|^gamma); the imaginary part vanishes."""
        return np.exp(-np.abs(t) ** self.gamma)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.gamma == 1.0:
            return 0.5 + np.arctan(x) / np.pi
        if self.gamma == 2.0:
            from scipy.special import ndtr

            return ndtr(x / np.sqrt(2.0))
        from scipy.special import gamma as gamma_fn
        from scipy.stats import levy_stable

        # scipy drifts in the far tails, to exactly 0 or 1 past |x| ~ 1e3 when
        # 1 < gamma < 2.  From |x| = 20, where the two agree to ~1e-12, P(X > |x|)
        # is Bergstrom's series (Zolotarev 1986; Nolan 2020), 12 terms of
        # (1/pi) (-1)^(k+1) Gamma(k gamma)/k! sin(k pi gamma/2) |x|^(-k gamma).
        g, k = self.gamma, np.arange(1.0, 13.0)
        coef = (-1.0) ** (k + 1.0) * gamma_fn(k * g) / gamma_fn(k + 1.0) * np.sin(np.pi * g * k / 2)
        flat = np.atleast_1d(x).ravel()
        far = np.abs(flat) >= 20.0
        out = np.empty(flat.shape)
        out[~far] = levy_stable.cdf(flat[~far], g, 0.0)
        tail = np.power.outer(np.abs(flat[far]), -k * g) @ coef / np.pi
        out[far] = np.where(flat[far] > 0.0, 1.0 - tail, tail)
        return out.reshape(x.shape)

    def quantile(self, p):
        """Closed form at gamma = 1 and 2; elsewhere the root of cdf(x) = p."""
        p = np.asarray(p, dtype=float)
        if self.gamma == 1.0:
            return np.tan(np.pi * (p - 0.5))
        if self.gamma == 2.0:
            from scipy.special import ndtri

            return np.sqrt(2.0) * ndtri(p)
        return np.vectorize(self._invert_cdf, otypes=[float])(p)

    def _invert_cdf(self, p: float) -> float:
        if not 0.0 < p < 1.0:  # the ends of the support, or nan off [0, 1]
            return {0.0: -math.inf, 1.0: math.inf}.get(p, math.nan)
        edge = 1.0 if p > 0.5 else -1.0  # doubles on the root's side of 0 until it brackets
        while (float(self.cdf(edge)) - p) * edge < 0.0:
            edge *= 2.0
        return float_root(lambda x: float(self.cdf(x)) - p, min(0.0, edge), max(0.0, edge))

    def probes(self):
        checks = [
            (f"E cos({t}X)", (lambda x, t=t: np.cos(t * x)), float(self.char(t)))
            for t in (0.5, 1.0)
        ]
        checks.append(("P(X<=0)", lambda x: (x <= 0).astype(float), 0.5))
        return checks


class Pareto(Distribution):
    """Pareto law: P(X > x) = (x / x_min)^(-a) for x >= x_min."""

    def __init__(self, a: float, x_min: float = 1.0):
        if a <= 0 or x_min <= 0:
            raise ValueError(f"a and x_min must be positive, got {a}, {x_min}")
        self.a = float(a)
        self.x_min = float(x_min)

    def sample(self, rng, size=None):
        return self.x_min * (1.0 + rng.pareto(self.a, size))

    def mean(self):
        if self.a <= 1.0:
            return math.inf
        return self.a * self.x_min / (self.a - 1.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.x_min, 0.0, 1.0 - self.sf(x))

    def sf(self, x):
        return (np.maximum(x, self.x_min) / self.x_min) ** (-self.a)

    def quantile(self, p):
        return self.x_min * (1.0 - np.asarray(p)) ** (-1.0 / self.a)

    def size_biased(self):
        # density ~ x * x^(-a-1) = x^(-(a-1)-1), so the exponent drops by one
        if self.a <= 1.0:
            raise ValueError(f"size bias needs a finite mean, got a={self.a}")
        return Pareto(self.a - 1.0, self.x_min)

    def probes(self):
        checks = [
            (
                "P(X>2*x_min)",
                lambda x: (x > 2.0 * self.x_min).astype(float),
                2.0**-self.a,
            ),
            (
                "P(X>4*x_min)",
                lambda x: (x > 4.0 * self.x_min).astype(float),
                4.0**-self.a,
            ),
        ]
        if self.a > 2.0:
            checks.append(("mean", lambda x: x, self.mean()))
        return checks


class TwoPoint(Distribution):
    """Law on two atoms {lo, hi} with P(X=lo) = p_lo."""

    def __init__(self, lo: float, hi: float, p_lo: float = 0.5):
        if not lo < hi:
            raise ValueError(f"need lo < hi, got {lo}, {hi}")
        if not 0.0 < p_lo < 1.0:
            raise ValueError(f"p_lo must lie in (0, 1), got {p_lo}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.p_lo = float(p_lo)

    def sample(self, rng, size=None):
        pick = rng.random(size) < self.p_lo
        return np.where(pick, self.lo, self.hi)

    def mean(self):
        return self.p_lo * self.lo + (1.0 - self.p_lo) * self.hi

    def expect(self, fn):
        """E fn(X), exact: the two atoms' weighted sum."""
        return self.p_lo * float(fn(self.lo)) + (1.0 - self.p_lo) * float(fn(self.hi))

    def size_biased(self):
        if self.lo <= 0:
            raise ValueError(f"size bias needs positive support, got lo={self.lo}")
        return TwoPoint(self.lo, self.hi, self.p_lo * self.lo / self.mean())

    def probes(self):
        return [
            ("P(X=lo)", lambda x: (x == self.lo).astype(float), self.p_lo),
            ("mean", lambda x: x, self.mean()),
        ]


class Degenerate(Distribution):
    """Point mass at c."""

    def __init__(self, c: float):
        self.c = float(c)

    def sample(self, rng, size=None):
        if size is None:
            return self.c
        return np.full(size, self.c)

    def mean(self):
        return self.c

    def laplace(self, u):
        return np.exp(-np.asarray(u, dtype=float) * self.c)

    def expect(self, fn):
        """E fn(X) = fn(c), exact."""
        return float(fn(self.c))

    def size_biased(self):
        if self.c <= 0:
            raise ValueError(f"size bias needs positive support, got c={self.c}")
        return self

    def probes(self):
        return [("mean", lambda x: x, self.c)]


@dataclass
class ProbeCheck:
    label: str
    observed: float
    expected: float
    z: float


def validate_sampler(dist: Distribution, stream: RandomStream, draws: int = 1_000_000):
    """Run a sampler against its analytic probes.

    Returns one ProbeCheck per probe with the normalized deviation
    z = (observed - expected) / stderr; for an exact sampler |z| should
    behave like a standard normal draw.  Degenerate probes (zero sample
    variance) report z = 0 on exact agreement and z = inf otherwise.
    """
    x = dist.sample(stream.generator, draws)
    checks = []
    for label, fn, expected in dist.probes():
        y = np.asarray(fn(x), dtype=float)
        observed = float(y.mean())
        sd = float(y.std(ddof=1))
        if sd == 0.0:
            z = 0.0 if observed == expected else math.inf
        else:
            z = (observed - expected) / (sd / math.sqrt(draws))
        checks.append(ProbeCheck(label, observed, expected, z))
    return checks
