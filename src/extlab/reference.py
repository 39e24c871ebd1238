"""Closed-form limit curves and index values the estimates are checked against.

Each model packages the exact limit behaviour of one system family: the
curve psi(s) = lim P(M_n <= u_n(s)) where one exists, the partial indices
(extrema of log_s psi), the tail exponents at s -> 0 and s -> 1, and the
Definition-2 matching index where the model has one.  Everything here is
deterministic; Monte Carlo enters only on the estimation side.  A system
hands out its own model through ``SeriesSystem.reference()``.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .copulas import (
    ArchimedeanGenerator,
    IndependenceGenerator,
    TiltedGenerator,
)
from .sampling import Degenerate, Distribution, Pareto, TwoPoint, _hurwitz_zeta, _integral, _root

__all__ = [
    "ReferenceModel",
    "ArchimedeanLimit",
    "DuplicatedIidLimit",
    "SpikeMixtureLimit",
    "RandomThresholdLimit",
    "StableSizeGumbelLimit",
    "GraphActivityLimit",
    "BranchingHeredityIndex",
]


class ReferenceModel:
    """Base: a named limit model with optional curve and index values."""

    name = "reference"

    def psi(self, s):
        raise NotImplementedError(f"{self.name} has no closed-form limit curve")

    def indices(self) -> dict:
        """theta_minus/theta_plus/theta0/theta1/theta_def2; None where unknown."""
        return {
            "theta_minus": None, "theta_plus": None,
            "theta0": None, "theta1": None, "theta_def2": None,
        }

    def __repr__(self):
        return self.name


def _check_s(s):
    s = np.asarray(s, dtype=float)
    if np.any((s <= 0.0) | (s >= 1.0)):
        raise ValueError("s must lie strictly inside (0, 1)")
    return s


class ArchimedeanLimit(ReferenceModel):
    """Limit curve f(-ln s * exp(-gamma) / mu) of an exchangeable series, finite frailty mean.

    gamma is the power tilt of a tilted generator, 0 for an untilted one.
    """

    def __init__(self, gen: ArchimedeanGenerator | TiltedGenerator):
        gen, gamma = (gen.base, gen.gamma) if isinstance(gen, TiltedGenerator) else (gen, 0.0)
        if not math.isfinite(gen.mu):
            raise ValueError(f"{gen.name}: infinite frailty mean, no finite-mean limit curve")
        self.gen = gen
        self.gamma = gamma
        self.name = (f"archimedean_limit({gen.name})" if self.gamma == 0.0
                     else f"tilted_limit({gen.name}, gamma={self.gamma:g})")

    def psi(self, s):
        out = self.gen.f(-np.log(_check_s(s)) * math.exp(-self.gamma) / self.gen.mu)
        return out if out.ndim else float(out)

    def indices(self):
        # theta_plus = exp(-gamma) and theta_minus = (x0 / mu) exp(-gamma)
        tp = math.exp(-self.gamma)
        tm = self.gen.x0 / self.gen.mu * tp
        return {
            "theta_minus": tm, "theta_plus": tp,
            # the slope attains theta_minus in the deep tail and theta_plus near s = 1
            "theta0": tm, "theta1": tp,
            "theta_def2": tp if isinstance(self.gen, IndependenceGenerator) else None,
        }


class _PowerLimit(ReferenceModel):
    """psi(s) = s^theta: every partial index is theta; the subclass sets theta_def2."""

    theta: float
    theta_def2: float

    def psi(self, s):
        return _check_s(s) ** self.theta

    def indices(self):
        t = self.theta
        return {"theta_minus": t, "theta_plus": t, "theta0": t, "theta1": t,
                "theta_def2": self.theta_def2}


class DuplicatedIidLimit(_PowerLimit):
    """psi(s) = s^(1/m): both index notions agree at 1/m."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError(f"m must be at least 2, got {m}")
        self.m = int(m)
        self.theta = self.theta_def2 = 1.0 / self.m
        self.name = f"duplicated_iid_limit(m={self.m})"


_SPIKE_STEPS = 16


def _spike_w(g, big_l):
    """The root w of h(w) = w + 1 - exp(-g w) - L, elementwise over L = -ln s > 0.

    h is increasing and concave, so Newton's method climbs to the root from a
    lower bound until no point moves up: at most 8 steps for g in [1e-8, 1e12]
    from the largest of L - 1, L/(1 + g) and -ln(U/g + max(1 - L, 0))/g, U =
    max(ln g, 1), the last near L = 1 where g w ~ ln g.  From L = 1/2 up, h is read
    as (w + (1 - L)) - exp(-g w), since the root can lie far below exp(-g w) and
    1 - L is exact to L = 2; below, as (w - L) - expm1(-g w).
    """
    u = max(math.log(g), 1.0) / g
    w = np.maximum(np.maximum(big_l - 1.0, big_l / (1.0 + g)),
                   -np.log(u + np.maximum(1.0 - big_l, 0.0)) / g)
    near_one = big_l >= 0.5
    for _ in range(_SPIKE_STEPS):
        e = np.exp(-g * w)
        h = np.where(near_one, w + (1.0 - big_l) - e, w - big_l - np.expm1(-g * w))
        up = np.maximum(w, w - h / (1.0 + g * e))
        if np.array_equal(up, w):
            return w
        w = up
    raise ArithmeticError(f"the spike's curve did not settle in {_SPIKE_STEPS} Newton steps")


class SpikeMixtureLimit(ReferenceModel):
    """Limit curve of the spiked series, given implicitly by its inverse.

    With w >= 0 solving w + 1 - exp(-gamma w) = -ln s, the curve is
    psi = exp(-(1 + gamma) w); equivalently the inverse map is
    s(psi) = psi^(1/(1+gamma)) exp(psi^(gamma/(1+gamma)) - 1).  The slope
    runs from 1 near s = 1 up to 1 + gamma in the deep tail.
    """

    def __init__(self, gamma: float):
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)
        self.name = f"spike_mixture_limit(gamma={self.gamma:g})"

    def inverse(self, v):
        """s such that psi(s) = v."""
        v = np.asarray(v, dtype=float)
        g = self.gamma
        return v ** (1.0 / (1.0 + g)) * np.exp(v ** (g / (1.0 + g)) - 1.0)

    def psi(self, s):
        # in the deep tail psi is about (e s)^(1 + gamma) and underflows to 0 once
        # that drops below 1e-308
        g = self.gamma
        w = _spike_w(g, -np.log(_check_s(s)))
        out = np.exp(-(1.0 + g) * w)
        return out if out.ndim else float(out)

    def indices(self):
        return {
            "theta_minus": 1.0, "theta_plus": 1.0 + self.gamma,
            "theta0": 1.0 + self.gamma, "theta1": 1.0, "theta_def2": None,
        }


def _cap_excess(c: float, big_l: float) -> float:
    """h(L) = expm1(c L)/c + expm1(-L).  Its two terms cancel to first order at
    small L, where it takes the series sum_{k>=2} [c^(k-1) + (-1)^k] L^k / k!."""
    if max(1.0, c) * big_l >= 0.5:
        return math.expm1(c * big_l) / c + math.expm1(-big_l)
    total, term = 0.0, big_l
    for k in range(2, 20):  # the first term left out is below 1e-23 of the sum
        term *= big_l / k
        total += (c ** (k - 1) + (-1.0) ** k) * term
    return total


def _pareto_h(a: float, t: float, scale: float, h2: float | None = None) -> float:
    """H(y) = 2F1(1, a; a+1; -y) = a int_0^1 w^(a-1)/(1 + y w) dw at y = t/scale.

    y <= 2 sums Pfaff's series (DLMF 15.8.1), (1+y)^-1 sum_k k!/(a+1)_k x^k with
    x = y/(1+y) <= 2/3.  y > 2 splits the integral at q = 2/y into the head
    q^a H(2), H(2) = h2 when the caller holds it, and a tail expanded in
    1/(y w) <= 1/2: (a/y) sum_k (-1)^k 2^-k T_k,
    T_k = int_q^1 (q/w)^k w^(a-2) dw = q^m (1 - q^d)/d with m = min(k, a-1) and
    d = |a-1-k|, so no term cancels near an integer a.  y is never formed past 2;
    where q is subnormal its powers come from ln t - ln(2 scale).
    """
    if t <= 2.0 * scale:
        y = t / scale
        x, total, term, k = y / (1.0 + y), 1.0, 1.0, 0
        while total + term != total:
            k += 1
            term *= k / (a + k) * x
            total += term
        return total / (1.0 + y)
    q = 2.0 * scale / t
    normal = q >= sys.float_info.min
    big_l = math.log(q) if normal else math.log(2.0 * scale) - math.log(t)

    def pw(p):  # q^p
        return q**p if normal else math.exp(p * big_l)

    total, k = 0.0, 0
    while True:
        d = abs(a - 1.0 - k)
        term = pw(min(k, a - 1.0)) * (-math.expm1(d * big_l) / d if d else -big_l) / 2.0**k
        if total + term == total:
            break
        total += -term if k % 2 else term
        k += 1
    return pw(a) * (_pareto_h(a, 2.0, 1.0) if h2 is None else h2) + 0.5 * a * pw(1.0) * total


class RandomThresholdLimit(ReferenceModel):
    """psi(s) = g(f^{-1}(s)) with f(t) = E zeta/(t+zeta), g(t) = E (zeta-t)+.

    With a finite ``cap`` every mean is taken given zeta < cap.  The random
    threshold system at stage n is this model at cap = n: its threshold is
    u_n(s) = n / (n + f_n^{-1}(s)), its size law G_n(lam) = f_n(n expm1(lam)) and
    its maximum law P(M_n <= u) = g_n(n(1 - u)) / m_n with m_n = E[zeta |
    zeta < n], so its curve is g_n(t u_n) / m_n at t = f_n^{-1}(s).

    The law fixes one of three routes for f, g, m and theta1:
    - atomic laws sum their atoms exactly;
    - Pareto(a, x_m) takes closed forms.  w = x_m/zeta has density a w^(a-1)
      on [w0, 1], w0 = x_m/cap, so f is Euler's integral (DLMF 15.6.1):
      f(t) = [H(t/x_m) - w0^a H(t/cap)] / mass, H(y) = 2F1(1, a; a+1; -y),
      which ``_pareto_h`` sums to ~1e-15 relative (~1e-13 as y nears overflow).
      g integrates S(z) - S(cap) over [max(t, x_m), cap] in closed form;
    - Gamma(k, 1/k) integrates with ``_integral`` the density of y = k ln zeta, exp(y - k
      expm1(y/k) + c), bounded and smooth at every shape (Gamma(0.01) has half its mass below
      zeta = 1e-30); g and the tail anchor at t or the cap; theta1 = 0 for k <= 1.
    """

    def __init__(self, zeta: Distribution, cap: float = math.inf):
        m = zeta.mean()
        if not math.isfinite(m) or abs(m - 1.0) > 1e-9:
            raise ValueError(f"threshold law must have mean 1, got {m}")
        self.zeta = zeta
        self.cap = float(cap)
        self._route = ("atoms" if isinstance(zeta, (TwoPoint, Degenerate))
                       else "pareto" if isinstance(zeta, Pareto) else "gamma")
        # P(zeta < cap), P(zeta >= cap) apart for its relative precision, E[zeta | zeta < cap]
        if self._route == "atoms":
            self.mass = zeta.expect(lambda z: z < cap)
        elif self._route == "pareto":  # H(2) is the head of every H(y > 2) that f reads
            self._tail, self.mass = float(zeta.sf(cap)), float(zeta.cdf(cap))
            self._h2 = _pareto_h(zeta.a, 2.0, 1.0)
        else:  # Gamma: p < e^-745 past zeta = 1 + d/k, d^2 = 1490 (k + d); c makes the total 1
            k, self._c = zeta.shape, 0.0
            self._y_top = k * math.log1p((745.0 + math.sqrt(745.0 * (745.0 + 2.0 * k))) / k)
            self._c = -math.log(self._by_density(lambda x: 1.0, hi=self._y_top))
            self._tail = self._by_density(lambda x: 1.0, 0.0, self._y_top - self._y(cap), cap)
            self.mass = self._by_density(lambda x: 1.0)
        self.m = 1.0 if math.isinf(self.cap) else self.g(0.0)
        self.name = f"random_threshold_limit({type(zeta).__name__.lower()})"

    def _y(self, t: float) -> float:
        """y = k ln(t / mean), the logs apart as t / mean may overflow, and -inf at t = 0."""
        return self.zeta.shape * (math.log(t) - math.log(self.zeta.mean())) if t else -math.inf

    def _by_density(self, fn, lo=-math.inf, hi=None, z0=None, cut=math.nan) -> float:
        """int fn(x) p(y0 + x) dx over [lo, hi or the cap], y0 = k ln(z0/mean), cut at the mode
        x = -y0 and at cut; r = z0/mean writes p(y0 + x) = exp(y0 + x - k (r e^(x/k) - 1) + c)."""
        k, z0 = self.zeta.shape, z0 or self.zeta.mean()
        r, y0 = z0 / self.zeta.mean(), self._y(z0)
        if hi is None:  # k ln(cap/z0), exact as z0 nears the cap
            hi = min(k * math.log1p((self.cap - z0) / z0), self._y_top - y0)

        def integrand(x):
            p = np.exp(y0 + x - k * (r * np.expm1(x / k) + (r - 1.0)) + self._c)
            return np.where(p > 0.0, fn(x) * p, 0.0)  # fn may be inf where p underflows

        cuts = sorted({lo, max(hi, lo), *(x for x in (-y0, cut) if lo < x < hi)})
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return _integral(integrand, *cuts)

    def expect(self, fn) -> float:
        """E[fn(zeta) | zeta < cap], fn vectorized over zeta on the Gamma route."""
        if self._route == "atoms":
            return self.zeta.expect(lambda z: fn(z) * (z < self.cap)) / self.mass
        if self._route == "pareto":
            raise NotImplementedError("the Pareto threshold law is read through its closed forms")
        k, mean = self.zeta.shape, self.zeta.mean()
        return self._by_density(lambda y: fn(mean * np.exp(y / k))) / self.mass

    def f(self, t: float) -> float:
        if t == 0.0 or math.isinf(t):  # the limits f(0) = 1 and f(inf) = 0
            return float(t == 0.0)
        if self._route == "pareto":
            a = self.zeta.a
            return (_pareto_h(a, t, self.zeta.x_min, self._h2)
                    - self._tail * _pareto_h(a, t, self.cap, self._h2)) / self.mass
        if self._route == "atoms":
            return self.expect(lambda z: z / (t + z))
        k, y_t = self.zeta.shape, self._y(t)  # zeta/(t + zeta) = 1/(1 + e^((y_t - y)/k))
        return self._by_density(lambda y: 1.0 / (1.0 + np.exp((y_t - y) / k)), cut=y_t) / self.mass

    def g(self, t: float) -> float:
        if self._route == "atoms":
            return self.expect(lambda z: np.maximum(z - t, 0.0))
        if t >= self.cap:
            return 0.0
        cap = self.cap
        if self._route == "pareto":
            # x_m^a (lo^(1-a) - cap^(1-a))/(a-1) - (cap - lo) (x_m/cap)^a over the
            # support lo >= x_m, as x_m^a cap^(1-a) h(ln(cap/lo)): the two terms
            # cancel to first order near the cap.  Below x_m the rest is x_m - t.
            a, xm = self.zeta.a, self.zeta.x_min
            lo = max(t, xm)
            if math.isinf(cap):
                excess = xm * (xm / lo) ** (a - 1.0) / (a - 1.0)
            else:
                big_l = -math.log1p((lo - cap) / cap) if lo > 0.5 * cap else math.log(cap / lo)
                excess = xm * (xm / cap) ** (a - 1.0) * _cap_excess(a - 1.0, big_l)
            return excess / self.mass + max(xm - t, 0.0)
        k, z0 = self.zeta.shape, max(t, self.zeta.mean())  # anchored at t right of the mode
        return self._by_density(lambda x: z0 * np.expm1(x / k) + (z0 - t),
                                self._y(t) - self._y(z0), z0=z0) / self.mass

    def f_inv(self, s):
        """The root t of f(t) = s at each s, at the relative precision of t however deep.

        z/(t+z) is concave in z and m <= 1, so f(t) <= 1/(1+t), with equality
        (up to rounding) only at one atom: the root is at most (1-s)/s, and inf
        where that overflows.  Per point, [hi/2, hi] halves down until it holds
        the root (lo = 0 past the least subnormal), on Python floats; then one
        bracketed root of -f runs over every open point, each on its own linear
        map.  f is read once per t, and f(t) = s exactly ends a point there."""
        f = functools.lru_cache(maxsize=None)(self.f)
        flat = np.ravel(s).astype(float)
        lo, hi, todo = np.zeros(flat.size), np.empty(flat.size), np.zeros(flat.size, bool)
        for i, si in enumerate(flat.tolist()):
            hi[i] = top = (1.0 - si) / si
            if not (math.isinf(top) or f(top) >= si):
                bottom = 0.5 * top
                while f(bottom) < si:
                    bottom, top = 0.5 * bottom, bottom
                lo[i], hi[i], todo[i] = bottom, top, True
        lo, width = lo[todo], hi[todo] - lo[todo]

        def neg_f(x, idx):  # t = lo at x = 0 and hi at x = 1, exactly
            return -np.array([f(t) for t in (lo[idx] + width[idx] * x).tolist()])

        hi[todo] = lo + width * _root(neg_f, -flat[todo], exact=True)
        return hi.reshape(np.shape(s)) if np.ndim(s) else float(hi[0])

    def psi(self, s):
        s = _check_s(s)
        out = np.array([self.g(ti / (1.0 + ti / self.cap)) if ti < math.inf else 0.0  # g(inf) = 0
                        for ti in np.ravel(self.f_inv(s))]) / self.m
        return out.reshape(s.shape) if np.ndim(s) else float(out[0])

    def theta1(self) -> float:
        """1 / E[1/zeta]: the slope of the curve at s -> 1."""
        if self._route == "pareto":  # E[1/zeta | zeta < cap] = a (1 - w0^(a+1)) / ((a+1) x_m mass)
            a, xm = self.zeta.a, self.zeta.x_min
            return (a + 1.0) * xm * self.mass / (a * (1.0 - xm / self.cap * self._tail))
        gamma_k_le_1 = self._route == "gamma" and self.zeta.shape <= 1.0  # E[1/zeta] = inf
        return 0.0 if gamma_k_le_1 else 1.0 / self.expect(lambda z: 1.0 / z)

    def indices(self):
        out = {**super().indices(), "theta1": self.theta1()}
        if self._route == "atoms":
            # bounded thresholds: the curve hits zero, so the sup slope blows up
            out["theta_plus"] = math.inf
            out["theta0"] = math.inf
            out["theta_minus"] = out["theta1"]
        elif self._route == "pareto":
            out["theta0"] = self.zeta.a - 1.0
        return out


class StableSizeGumbelLimit(_PowerLimit):
    """The two-index split model: curve s^exp(-gamma beta), matching at exp(-gamma)."""

    def __init__(self, beta: float, gamma: float):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.theta = math.exp(-gamma * beta)
        self.theta_def2 = math.exp(-gamma)
        self.name = f"stable_size_limit(beta={self.beta:g}, gamma={self.gamma:g})"


class GraphActivityLimit(_PowerLimit):
    """Aggregate-activity maxima on the power-law graph.

    The index is theta = 1/(1 + EK) with EK = zeta(beta-1)/zeta(beta); the
    aggregate tail carries the factor 1 + EK, and the two cancel in the max
    law: M_n / v(n) converges to the standard Frechet law exp(-x^-a), while
    the independent comparator built from n copies of the aggregate
    marginal converges to exp(-(1+EK) x^-a).
    """

    def __init__(self, beta: float, a: float = 1.0, x_min: float = 1.0):
        if beta <= 2.0:
            raise ValueError(f"beta must exceed 2, got {beta}")
        self.beta = float(beta)
        self.a = float(a)
        self.x_min = float(x_min)
        self.mean_degree = float(_hurwitz_zeta(self.beta - 1.0, 1.0)
                                 / _hurwitz_zeta(self.beta, 1.0))
        self.frechet_scale = 1.0 + self.mean_degree
        self.theta = self.theta_def2 = 1.0 / self.frechet_scale
        self.name = f"graph_activity_limit(beta={self.beta:g}, a={self.a:g})"

    def max_limit_cdf(self, x):
        """Limit law of M_n / v(n), v(n) = x_min n^(1/a)."""
        return self._frechet_cdf(x, 1.0)

    def comparator_limit_cdf(self, x):
        """Limit law of the max of n independent aggregate marginals, same norming."""
        return self._frechet_cdf(x, self.frechet_scale)

    def _frechet_cdf(self, x, scale: float):
        """exp(-scale x^-a) for x > 0, else 0."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(x > 0.0, np.exp(-scale * np.maximum(x, 1e-300) ** (-self.a)), 0.0)
        return out if out.ndim else float(out)


class BranchingHeredityIndex(ReferenceModel):
    """Definition-2 index of the hereditary-score branching model.

    No closed-form limit curve: the population mixing law has no explicit
    density, so verification compares psi_hat against E F(u)^(theta Z_n)
    directly at theta = (1 - a^gamma)/(1 - a^gamma / mu).
    """

    def __init__(self, a: float, gamma: float, mu: float):
        if not 0.0 < a < 1.0:
            raise ValueError(f"a must lie in (0, 1), got {a}")
        if not 0.0 < gamma <= 2.0:
            raise ValueError(f"gamma must lie in (0, 2], got {gamma}")
        if mu <= 1.0:
            raise ValueError(f"mu must exceed 1, got {mu}")
        self.a = float(a)
        self.gamma = float(gamma)
        self.mu = float(mu)
        ag = self.a**self.gamma
        self.theta_def2 = (1.0 - ag) / (1.0 - ag / self.mu)
        self.name = f"branching_index(a={self.a:g}, gamma={self.gamma:g}, mu={self.mu:g})"

    def indices(self):
        return {**super().indices(), "theta_def2": self.theta_def2}
