"""Counter-based random streams and the sampler toolbox.

Streams are addressed by a 64-bit ``seed`` plus a 64-bit ``stream_id`` on
top of the Philox counter-based bit generator, so any batch layout that
assigns work by substream index reproduces the same draws no matter how
many workers execute it.  Substream ids are derived by a splitmix-style
hash of the parent id and the index path.

Every distribution used by the series systems lives here as a small class
with a ``sample`` method plus its analytic hooks (mean, Laplace transform,
cdf, quantile).  Samplers with no closed-form density (positive stable,
symmetric stable) are exact transformation samplers, not approximations; the
analytic checks of every sampler are one table in the test suite's oracles.
``_root`` is the bracketed root behind every numeric inverse of the lab,
``_integral`` its quadrature rule and ``_hurwitz_zeta`` the graph's degree law.
"""

from __future__ import annotations

import math

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
# the bracketed root

_ROOT_STEPS = 60          # bisection's 60 halvings of [0, 1]; a root closes in at most 61 steps
_TRUNCATION = 0.2         # ITP's kappa1 on [0, 1]: a secant moves 0.2 w^2 toward the midpoint


def _sum_rounded(x, y, up: bool):
    """x + y rounded toward +inf (up) or -inf, from the exact error of the sum."""
    s = x + y
    z = s - x
    err = (x - (s - z)) + (y - z)
    if up:
        return np.where(err > 0.0, np.nextafter(s, np.inf), s)
    return np.where(err < 0.0, np.nextafter(s, -np.inf), s)


def _root(fn, s, exact: bool = False):
    """Per-point x in [0, 1] with fn(x, idx) = s, for fn nondecreasing on [0, 1].

    fn(x, idx) reads x[k] at point idx[k] of s, so each point may map its
    bracket onto [0, 1] in its own way.  The bracket keeps fn(lo) <= s <
    fn(hi), NaN counting as above, and takes fn(0) <= s < fn(1) as given.  It
    stops at two adjacent doubles or at width 2^-60 and returns its midpoint.
    A nondecreasing fn crosses s between one pair of adjacent doubles, so a
    root of at least 2^-8 is the one 60 bisection steps find, bit for bit,
    and a smaller one lies within 2^-60 of it.  With exact=True a point
    stops at the first x where fn(x) = s exactly, and returns that x.

    Each step is an ITP step (Oliveira & Takahashi 2021, ACM TOMS 47(1)):
    the secant through the last two points, moved toward the midpoint by
    0.2 w^2 (w the bracket width), then projected into the window that
    leaves the bracket at most 2^-j wide after step j.  So no point takes
    more than 61 steps, and on a smooth fn the secant converges
    superlinearly.  fn(0) and fn(1) start the secant; after that fn sees
    only the points whose bracket is still open.  Every numeric inverse of
    the lab maps its bracket onto [0, 1] and calls it.
    """
    s = np.asarray(s, dtype=float)
    lo, hi = np.zeros(s.shape), np.ones(s.shape)
    todo = np.arange(s.size)
    x0, y0, x1, y1 = lo, fn(lo, todo), hi, fn(hi, todo)
    if exact:  # a hit closes its bracket on itself: lo = hi = x
        hi = np.where(y0 == s, lo, hi)
    out = np.empty(s.shape)
    for j in range(_ROOT_STEPS + 1):
        done = (hi - lo <= 2.0**-_ROOT_STEPS) | (np.nextafter(lo, 1.0) >= hi)
        out[todo[done]] = 0.5 * (lo[done] + hi[done])
        todo, s, lo, hi, x0, y0, x1, y1 = (
            v[~done] for v in (todo, s, lo, hi, x0, y0, x1, y1))
        if not todo.size:
            return out
        mid, trunc = 0.5 * (lo + hi), _TRUNCATION * (hi - lo) ** 2
        with np.errstate(all="ignore"):
            x = x1 + (s - y1) * (x1 - x0) / (y1 - y0)
            x += np.clip(mid - x, -trunc, trunc)
        x = np.where(np.isfinite(x), x, mid)
        w = 2.0**-j  # the largest bracket this step may leave
        x = np.clip(x, np.maximum(_sum_rounded(hi, -w, up=True), np.nextafter(lo, 1.0)),
                    np.minimum(_sum_rounded(lo, w, up=False), np.nextafter(hi, 0.0)))
        y = fn(x, todo)
        above = ~(y <= s)
        lo, hi = np.where(above, lo, x), np.where(above | (exact & (y == s)), x, hi)
        x0, y0, x1, y1 = x1, y1, x, y
    out[todo] = 0.5 * (lo + hi)  # each bracket is now at most 2^-60 wide
    return out


# ---------------------------------------------------------------------------
# the quadrature rule

def _tanh_sinh(h: float, j):
    """tau = h j, and the tanh-sinh node 1/d on [0, 1] and weight w (Takahasi & Mori 1974)."""
    tau = h * j
    z = 0.5 * np.pi * np.sinh(tau)
    return tau, z, 1.0 + np.exp(-2.0 * z), (0.25 * np.pi * h) * np.cosh(tau) / np.cosh(z) ** 2


def _integral(fn, *cuts) -> float:
    """int fn(y) dy over [cuts[0], cuts[-1]], fn vectorized: tanh-sinh on each piece, exp-sinh
    (node b - e^z) on one from -inf.  The step halves from 1/8 until two levels' sums agree to
    1e-14 relative or to the least normal double, else ArithmeticError."""
    if cuts[0] == -math.inf:  # exp-sinh stops 2e-19 short of its end: tanh-sinh takes the last 1
        cuts = (-math.inf, cuts[1] - 1.0, *cuts[1:])
    total = 0.0
    for level in range(10):  # steps 1/8 down to 2^-12, over |tau| <= 4
        h, m = 2.0 ** -(3 + level), 2 ** (level + 5)
        tau, z, d, w = _tanh_sinh(h, np.arange(-m, m + 1) if level == 0 else np.arange(1 - m, m, 2))
        prev, total = total, 0.5 * total
        for a, b in zip(cuts, cuts[1:]):
            if a == -math.inf:
                e = np.exp(z)
                total += float(np.dot((0.5 * np.pi * h) * np.cosh(tau) * e, fn(b - e)))
            else:  # each node from its nearer end, so that it keeps its distance to it
                y = np.where(z < 0.0, a + (b - a) / d, b - (b - a) * np.exp(-2.0 * z) / d)
                total += float(np.dot((b - a) * w, fn(y)))
        if level and abs(total - prev) <= 1e-14 * abs(total) + np.finfo(float).tiny:
            return total
    raise ArithmeticError("the integral did not settle by step 2^-12")


# B_2j / (2j)! for j = 1..8, the Euler-Maclaurin corrections
_EM_COEF = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
            -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)


def _hurwitz_zeta(s: float, q):
    """Hurwitz zeta(s, q) = sum_{k>=0} (q + k)^-s for s > 1, q >= 1, vectorized over q.

    Twelve head terms, then the Euler-Maclaurin tail at x = q + 12 (DLMF 2.10.1),
    x^(1-s) [1/(s-1) + (1/2 + P/x)/x] with P the B_2..B_16 terms in 1/x^2: the
    first term left out is below 1e-19 of the sum, and the result within ~4e-16 relative.
    """
    q = np.asarray(q, dtype=float)
    x = q + 12.0
    inv2, poly = 1.0 / (x * x), 0.0
    for j in range(7, -1, -1):  # B_(2j+2)/(2j+2)! times the rising factorial (s)_(2j+1)
        poly = poly * inv2 + _EM_COEF[j] * math.prod(s + i for i in range(2 * j + 1))
    head = sum((q + k) ** -s for k in range(11, -1, -1))  # smallest first
    return head + x ** (1.0 - s) * (1.0 / (s - 1.0) + (0.5 + poly / x) / x)


# ---------------------------------------------------------------------------
# distributions

class Distribution:
    """Base class: a sampler plus whatever analytic structure it has."""

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no implemented mean")

    def laplace(self, u):
        """E exp(-u X) where available in closed form."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form Laplace transform")

    def size_biased(self) -> "Distribution":
        """The law reweighted by x / E x (positive support, finite mean)."""
        raise NotImplementedError(f"{type(self).__name__} has no size-biased form")

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

    def size_biased(self):
        return Gamma(self.shape + 1.0, self.scale)


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
        """exp(-u^beta), on the principal branch for complex u with Re u >= 0."""
        return np.exp(-np.asarray(u) ** self.beta)

    def cdf(self, x):
        """P(X <= x) by Kanter's integral, for x >= 0.

        The sampler's X = (a(phi)/W)^((1-beta)/beta), W standard
        exponential, gives P(X <= x) = (1/pi) int_0^pi exp(-a(phi) t) dphi
        with t = x^(-beta/(1-beta)).  The tanh-sinh nodes (``_tanh_sinh``, step
        1/64) crowd at both ends, where the integrand peaks (small x) or
        vanishes to every order (phi -> pi); a is written through sin(z)/z
        ratios, so it stays finite as phi -> 0.  Against the closed form at
        beta = 1/2 and a rule of step 1/256, the relative error is about 1e-16
        for beta <= 1/2 at every x, past the a t eps that the rounding of t
        costs deep in the lower tail, and for larger beta at x <= 1/2; at
        beta = 0.9 it is 6e-11 at x = 3 and 4e-8 at x = 100.
        """
        _, _, d, w = _tanh_sinh(1.0 / 64.0, np.arange(-211, 212))  # |tau| <= 3.3, end w < 1e-18
        phi = np.pi / d  # w is dphi / pi
        b, p = self.beta, self.beta / (1.0 - self.beta)
        with np.errstate(divide="ignore", over="ignore"):
            a = ((1.0 - b) * b**p * (np.sin((1.0 - b) * phi) / ((1.0 - b) * phi))
                 * (np.sin(b * phi) / (b * phi)) ** p / (np.sin(phi) / phi) ** (1.0 / (1.0 - b)))
            t = np.asarray(x, dtype=float) ** -p
        return (np.exp(-np.multiply.outer(t, a)) * w).sum(axis=-1)


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
            return np.tan(u, out=None if size is None else u)
        w = rng.standard_exponential(size)
        cu = np.cos(u)
        return (
            np.sin(g * u)
            / cu ** (1.0 / g)
            * (np.cos((1.0 - g) * u) / w) ** ((1.0 - g) / g)
        )

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
        """Closed form at gamma = 1 and 2; elsewhere per point the bracketed root of cdf = p."""
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
        lo, width = min(0.0, edge), abs(edge)
        return float(lo + width * _root(lambda t, _: self.cdf(lo + width * t), [p])[0])


class Pareto(Distribution):
    """Pareto law: P(X > x) = (x / x_min)^(-a) for x >= x_min."""

    def __init__(self, a: float, x_min: float = 1.0):
        if a <= 0 or x_min <= 0:
            raise ValueError(f"a and x_min must be positive, got {a}, {x_min}")
        self.a = float(a)
        self.x_min = float(x_min)

    def sample(self, rng, size=None):
        x = rng.pareto(self.a, size)
        x += 1.0
        x *= self.x_min
        return x

    def mean(self):
        if self.a <= 1.0:
            return math.inf
        return self.a * self.x_min / (self.a - 1.0)

    def cdf(self, x):
        return 1.0 - self.sf(x)  # sf is 1 below x_min

    def sf(self, x):
        return (np.maximum(x, self.x_min) / self.x_min) ** (-self.a)

    def quantile(self, p):
        return self.x_min * (1.0 - np.asarray(p)) ** (-1.0 / self.a)

    def size_biased(self):
        # density ~ x * x^(-a-1) = x^(-(a-1)-1), so the exponent drops by one
        if self.a <= 1.0:
            raise ValueError(f"size bias needs a finite mean, got a={self.a}")
        return Pareto(self.a - 1.0, self.x_min)


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
        # hi's bit pattern, xor lo ^ hi where a draw picks lo: both atoms exact, in one array
        lo, hi = np.array([self.lo, self.hi]).view(np.uint64)
        x = np.asarray(rng.random(size) < self.p_lo, dtype=np.uint64)
        x *= lo ^ hi
        x ^= hi
        return x.view(float)

    def mean(self):
        return self.p_lo * self.lo + (1.0 - self.p_lo) * self.hi

    def expect(self, fn):
        """E fn(X), exact: the two atoms' weighted sum."""
        return self.p_lo * float(fn(self.lo)) + (1.0 - self.p_lo) * float(fn(self.hi))

    def size_biased(self):
        if self.lo <= 0:
            raise ValueError(f"size bias needs positive support, got lo={self.lo}")
        return TwoPoint(self.lo, self.hi, self.p_lo * self.lo / self.mean())


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

    def expect(self, fn):
        """E fn(X) = fn(c), exact."""
        return float(fn(self.c))

    def size_biased(self):
        if self.c <= 0:
            raise ValueError(f"size bias needs positive support, got c={self.c}")
        return self
