"""Closed-form limit curves and index values the estimates are checked against.

Each model packages the exact limit behaviour of one system family: the
curve psi(s) = lim P(M_n <= u_n(s)) where one exists, the partial indices
(extrema of log_s psi), the tail exponents at s -> 0 and s -> 1, and the
Definition-2 matching index where the model has one.  Everything here is
deterministic; Monte Carlo enters only on the estimation side.  A system
hands out its own model through ``SeriesSystem.reference()``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .copulas import (
    ArchimedeanGenerator,
    IndependenceGenerator,
    TiltedGenerator,
)
from .sampling import Degenerate, Distribution, Pareto, TwoPoint, float_root

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
        # with L = -ln s and w = L - 1 + x/gamma the equation becomes
        # x e^x = gamma e^(gamma (1 - L)), so x = W0(gamma e^(gamma (1 - L)));
        # the Wright omega function gives W0(e^z) without forming e^z, which
        # keeps large gamma from overflowing.  In the deep tail psi is about
        # (e s)^(1 + gamma) and underflows to 0 once that drops below 1e-308.
        from scipy.special import wrightomega

        g = self.gamma
        big_l = -np.log(_check_s(s))
        w = big_l - 1.0 + wrightomega(math.log(g) + g * (1.0 - big_l)) / g
        out = np.exp(-(1.0 + g) * w)
        return out if out.ndim else float(out)

    def indices(self):
        return {
            "theta_minus": 1.0, "theta_plus": 1.0 + self.gamma,
            "theta0": 1.0 + self.gamma, "theta1": 1.0, "theta_def2": None,
        }


def _quad(fn, a: float, b: float) -> float:
    """Adaptive quadrature of fn over [a, b] at relative tolerance 1e-12.

    quad warns when it cannot certify 1e-12; the warning is dropped when its
    own error estimate is within 1e-9 of the value, the tolerance the
    threshold solver holds its residuals to.  Every other warning passes.
    """
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val, err = quad(fn, a, b, limit=300, epsabs=0.0, epsrel=1e-12)
    for w in caught:
        if not (issubclass(w.category, IntegrationWarning) and err <= 1e-9 * abs(val)):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return val


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


class RandomThresholdLimit(ReferenceModel):
    """psi(s) = g(f^{-1}(s)) with f(t) = E zeta/(t+zeta), g(t) = E (zeta-t)+.

    With a finite ``cap`` every mean is taken given zeta < cap.  The random
    threshold system at stage n is this model at cap = n: its threshold is
    u_n(s) = n / (n + f_n^{-1}(s)), its size pgf G_n(x) = f_n(n(1 - x)/x) and
    its maximum law P(M_n <= u) = g_n(n(1 - u)) / m_n with m_n = E[zeta |
    zeta < n], so its curve is g_n(t u_n) / m_n at t = f_n^{-1}(s).

    The law fixes one of three routes for f, g, m and theta1:
    - atomic laws sum their atoms exactly;
    - Pareto(a, x_m) takes closed forms.  w = x_m/zeta has density a w^(a-1)
      on [w0, 1], w0 = x_m/cap, so f is Euler's integral (DLMF 15.6.1):
      f(t) = [H(t/x_m) - w0^a H(t/cap)] / mass, H(y) = 2F1(1, a; a+1; -y).
      g integrates S(z) - S(cap) over [max(t, x_m), cap] in closed form;
    - any other law takes adaptive quadrature: f on the quantile scale over
      [0, F(cap)], g as the integral of S(z) - S(cap) over [t, cap] on the z
      scale, which has no kink; both keep ~1e-13.
    """

    def __init__(self, zeta: Distribution, cap: float = math.inf):
        m = zeta.mean()
        if not math.isfinite(m) or abs(m - 1.0) > 1e-9:
            raise ValueError(f"threshold law must have mean 1, got {m}")
        self.zeta = zeta
        self.cap = float(cap)
        self._route = ("atoms" if isinstance(zeta, (TwoPoint, Degenerate))
                       else "pareto" if isinstance(zeta, Pareto) else "quad")
        # P(zeta < cap) and E[zeta | zeta < cap], which is the law's mean 1 when uncapped
        if self._route == "atoms":
            self.mass = zeta.expect(lambda z: z < cap)
        else:  # P(zeta >= cap) apart from 1 - mass, which would lose its relative precision
            self._tail = float(zeta.sf(cap))
            self.mass = float(zeta.cdf(cap))
        self.m = 1.0 if math.isinf(self.cap) else self.g(0.0)
        self.name = f"random_threshold_limit({type(zeta).__name__.lower()})"

    def expect(self, fn) -> float:
        """E[fn(zeta) | zeta < cap]."""
        if self._route == "atoms":
            return self.zeta.expect(lambda z: fn(z) * (z < self.cap)) / self.mass
        return _quad(lambda p: float(fn(self.zeta.quantile(p))), 0.0, self.mass) / self.mass

    def f(self, t: float) -> float:
        if t == 0.0 or math.isinf(t):  # f(inf) = 0, where 2F1 at -inf is NaN
            return float(t == 0.0)
        if self._route == "pareto":
            from scipy.special import hyp2f1

            a = self.zeta.a
            return float(hyp2f1(1.0, a, a + 1.0, -t / self.zeta.x_min)
                         - self._tail * hyp2f1(1.0, a, a + 1.0, -t / self.cap)) / self.mass
        return self.expect(lambda z: z / (t + z))

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
        # z = t + k x / (1 - x) maps [t, cap] onto [0, top], the cap = inf tail included
        k = 1.0 + t
        top = 1.0 if math.isinf(cap) else (cap - t) / (k + cap - t)
        return _quad(lambda x: (float(self.zeta.sf(t + k * x / (1.0 - x))) - self._tail)
                     * k / (1.0 - x) ** 2, 0.0, top) / self.mass

    def f_inv(self, s: float) -> float:
        """The root t of f(t) = s, bracketed by [0, (1-s)/s]: z/(t+z) is concave in z
        and m <= 1, so f(t) <= 1/(1+t), with equality (up to rounding) only at one atom."""
        hi = (1.0 - s) / s
        if self.f(hi) >= s:
            return hi
        return float_root(lambda t: self.f(t) - s, 0.0, hi)

    def psi(self, s):
        s = _check_s(s)
        t = np.array([self.f_inv(float(si)) for si in np.atleast_1d(s)])
        out = np.array([self.g(ti / (1.0 + ti / self.cap)) for ti in t]) / self.m
        return out if np.ndim(s) else float(out[0])

    def theta1(self) -> float:
        """1 / E[1/zeta]: the slope of the curve at s -> 1."""
        if self._route == "pareto":  # E[1/zeta | zeta < cap] = a (1 - w0^(a+1)) / ((a+1) x_m mass)
            a, xm = self.zeta.a, self.zeta.x_min
            return (a + 1.0) * xm * self.mass / (a * (1.0 - xm / self.cap * self._tail))
        return 1.0 / self.expect(lambda z: 1.0 / z)

    def indices(self):
        out = {"theta_minus": None, "theta_plus": None, "theta0": None,
               "theta1": self.theta1(), "theta_def2": None}
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
        from scipy.special import zeta

        self.mean_degree = float(zeta(self.beta - 1.0) / zeta(self.beta))
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
        return {"theta_minus": None, "theta_plus": None, "theta0": None, "theta1": None,
                "theta_def2": self.theta_def2}
