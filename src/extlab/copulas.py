"""Archimedean dependence structures for exchangeable series.

A generator ``phi`` maps (0, 1] onto [0, infinity) with phi(1) = 0, and its
inverse ``f`` is the Laplace transform of a positive *frailty* variable
``zeta`` (Marshall & Olkin 1988).  The copula diagonal of a d-variate
exchangeable vector with this structure is f(d * phi(y)).  The frailty is
analytic only here: its mean ``mu`` (possibly infinite) and its essential
infimum ``x0`` drive all the limit behaviour downstream, and nothing in the
library draws it.  Maxima are sampled by inverting the diagonal,
``diag_inverse``, one uniform per maximum.

``TiltedGenerator`` raises a base generator to a size-dependent power
beta_d > 1.  The tilted structure at dimension d is again Archimedean with
frailty S * zeta^beta_d, where S is positive stable of exponent 1/beta_d.
The default power schedule is

    beta_d = ln d / (ln d - gamma),      requires ln d > gamma,

which satisfies (beta_d - 1) ln d -> gamma and additionally makes the
independent-comparator exponent d^(1/beta_d - 1) equal exp(-gamma) at every
size, not just in the limit, so finite-size runs sit on the limiting curve
rather than approaching it at a logarithmic crawl.  The same identity,
d^(1/beta_d) = d * exp(-gamma), makes a tilt its base at dimension
d * exp(-gamma), which is how the diagonal helpers compute it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ArchimedeanGenerator",
    "IndependenceGenerator",
    "ClaytonGenerator",
    "FrankGenerator",
    "GumbelHougaardGenerator",
    "TiltedGenerator",
    "default_tilt_power",
    "diag_cdf",
    "diag_inverse",
]


def _out(y):
    """out= for a chain's next step: y itself, or None where y is a numpy scalar.

    A scalar step returns a new scalar, as the plain expression's does, so a
    scalar keeps numpy's scalar arithmetic (its pow is libm's, not the loop's).
    """
    return y if isinstance(y, np.ndarray) else None


def _pow(x, p, out):
    """x ** p: a new array where out is None, else written over x (out is x).

    It uses the ** operator, which numpy may route through a fast path for
    some exponents (a square root at 0.5) that np.power skips; **= takes the
    same path, so both are bit-equal to x ** p.
    """
    if out is None:
        return x ** p
    x **= p
    return x


class ArchimedeanGenerator:
    """Base class: phi, its inverse f, and the frailty behind them.

    ``phi(t, out=None)`` and ``f(u, out=None)`` are ufunc chains.  ``out`` is
    None or the input itself, a float64 array: the first step writes a new
    array or over the input, and every later step writes into that array,
    so a call makes at most one array.  The steps are the ufuncs of the
    plain expression, in its order, so every value is bit-equal to it; the
    input is only read unless it is ``out``, and a scalar in gives a float out.
    """

    name: str = "archimedean"

    def phi(self, t, out=None):
        raise NotImplementedError

    def f(self, u, out=None):
        """Inverse generator; equals the Laplace transform of the frailty."""
        raise NotImplementedError

    @property
    def mu(self) -> float:
        """Frailty mean; may be infinite."""
        raise NotImplementedError

    @property
    def x0(self) -> float:
        """Essential infimum of the frailty."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


class IndependenceGenerator(ArchimedeanGenerator):
    """phi(t) = -ln t; the d-diagonal is y^d."""

    name = "independence"

    def phi(self, t, out=None):
        with np.errstate(divide="ignore"):
            y = np.log(np.asarray(t, dtype=float), out=out)
        return np.negative(y, out=_out(y))

    def f(self, u, out=None):
        y = np.negative(np.asarray(u, dtype=float), out=out)
        return np.exp(y, out=_out(y))

    @property
    def mu(self):
        return 1.0

    @property
    def x0(self):
        return 1.0


class ClaytonGenerator(ArchimedeanGenerator):
    """phi(t) = t^(-alpha) - 1 with gamma-distributed frailty, alpha > 0."""

    def __init__(self, alpha: float):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)
        self.name = f"clayton(alpha={self.alpha:g})"

    def phi(self, t, out=None):
        with np.errstate(divide="ignore"):
            y = _pow(np.asarray(t, dtype=float), -self.alpha, out)
        y -= 1.0
        return y

    def f(self, u, out=None):
        y = np.add(np.asarray(u, dtype=float), 1.0, out=out)
        y **= -1.0 / self.alpha
        return y

    @property
    def mu(self):
        return 1.0 / self.alpha

    @property
    def x0(self):
        return 0.0


class FrankGenerator(ArchimedeanGenerator):
    """Frank structure with logarithmic-series frailty, alpha > 0."""

    def __init__(self, alpha: float):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)
        self.name = f"frank(alpha={self.alpha:g})"
        # expm1(-alpha) rounds towards -1 as alpha grows, and f(0) drifts off 1
        with np.errstate(divide="ignore"):
            f0 = float(self.f(0.0))
        if not abs(f0 - 1.0) <= 1e-9:
            raise ValueError(f"alpha is too large for floating point: f(0) = {f0!r}, "
                             f"not 1 to within 1e-9, at alpha = {alpha}")

    def phi(self, t, out=None):
        # -ln(-expm1(-a t) / -expm1(-a))
        a = self.alpha
        y = np.multiply(np.asarray(t, dtype=float), -a, out=out)
        y = np.expm1(y, out=_out(y))
        y = np.negative(y, out=_out(y))
        y /= -np.expm1(-a)
        with np.errstate(divide="ignore"):
            y = np.log(y, out=_out(y))
        return np.negative(y, out=_out(y))

    def f(self, u, out=None):
        # -log1p(expm1(-a) e^-u) / a
        a = self.alpha
        y = np.negative(np.asarray(u, dtype=float), out=out)
        y = np.exp(y, out=_out(y))
        y *= np.expm1(-a)
        y = np.log1p(y, out=_out(y))
        y = np.negative(y, out=_out(y))
        y /= a
        return y

    @property
    def mu(self):
        # mean of the logarithmic-series frailty
        return math.expm1(self.alpha) / self.alpha

    @property
    def x0(self):
        return 1.0


class GumbelHougaardGenerator(ArchimedeanGenerator):
    """phi(t) = (-ln t)^alpha with positive stable frailty, alpha >= 1.

    alpha = 1 degenerates to independence.  For alpha > 1 the frailty mean
    is infinite, so the finite-mean closed form for the limit curve does
    not apply; the structure still has an exact diagonal.
    """

    def __init__(self, alpha: float):
        if alpha < 1.0:
            raise ValueError(f"alpha must be at least 1, got {alpha}")
        self.alpha = float(alpha)
        self.name = f"gumbel_hougaard(alpha={self.alpha:g})"

    def phi(self, t, out=None):
        with np.errstate(divide="ignore"):
            y = np.log(np.asarray(t, dtype=float), out=out)
        y = np.negative(y, out=_out(y))
        y **= self.alpha
        return y

    def f(self, u, out=None):
        y = _pow(np.asarray(u, dtype=float), 1.0 / self.alpha, out)
        y = np.negative(y, out=_out(y))
        return np.exp(y, out=_out(y))

    @property
    def mu(self):
        return 1.0 if self.alpha == 1.0 else math.inf

    @property
    def x0(self):
        return 1.0 if self.alpha == 1.0 else 0.0


# ---------------------------------------------------------------------------
# size-dependent tilt

def default_tilt_power(n, gamma: float):
    """beta_n = ln n / (ln n - gamma); needs ln n > gamma."""
    logn = np.log(n)
    if np.any(logn <= gamma):
        raise ValueError(
            f"tilt power undefined: need ln n > gamma, got n={n!r} with gamma={gamma}"
        )
    return logn / (logn - gamma)


class TiltedGenerator:
    """Size-dependent power tilt of an Archimedean generator.

    At dimension d the tilt is phi_base^beta_d, beta_d =
    ``default_tilt_power(d, gamma)``, with diagonal
    f_base(d^(1/beta_d) * phi_base(y)); d^(1/beta_d) = d * exp(-gamma), so
    that is the base diagonal at dimension d * exp(-gamma).
    """

    def __init__(self, base: ArchimedeanGenerator, gamma: float):
        if isinstance(base, TiltedGenerator):
            raise ValueError("cannot tilt an already tilted generator")
        if not isinstance(base, ArchimedeanGenerator):
            raise TypeError(f"base must be an ArchimedeanGenerator, got {type(base).__name__}")
        if not (math.isfinite(gamma) and gamma >= 0.0):
            raise ValueError(f"gamma must be a finite non-negative number, got {gamma}")
        self.base = base
        self.gamma = float(gamma)
        self.name = f"tilted({base.name}, gamma={self.gamma:g})"

    def __repr__(self):
        return self.name


# ---------------------------------------------------------------------------
# diagonal operations

def _effective(gen, d):
    """(generator, dimension) of the plain diagonal: a tilt is its base at d * exp(-gamma)."""
    d = np.asarray(d, dtype=float)
    if not isinstance(gen, TiltedGenerator):
        return gen, d
    if np.any(np.log(d) <= gen.gamma):
        raise ValueError(f"tilt undefined: need ln d > gamma, got d={d!r} with gamma={gen.gamma}")
    return gen.base, d * math.exp(-gen.gamma)


def diag_cdf(gen, d, y):
    """P(max of the d exchangeable terms <= y) = f(d * phi(y))."""
    g, d = _effective(gen, d)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = g.f(d * g.phi(y))
    out = np.where(y <= 0.0, 0.0, np.where(y >= 1.0, 1.0, out))
    return out if out.ndim else float(out)


def diag_inverse(gen, d, v):
    """Inverse of diag_cdf in y: f(phi(v) / d), with v = 0 -> 0 and v = 1 -> 1.

    One chain over one array: phi makes it, and the division, f, the clip
    and the pin write into it, so v is only read and every value is the one
    the plain expression gives.  Some inverse generators round an ulp past
    [0, 1] (Frank's f(0) is 1 +- 6e-16 for many alpha), so the result is
    clipped to [0, 1] and v = 1 is pinned to 1, as diag_cdf pins y = 1.  A
    NaN passes through as NaN; a value below 0 or above 1 raises ValueError.
    """
    g, d = _effective(gen, d)
    v = np.asarray(v, dtype=float)
    # fmin and fmax skip NaN, and the initial values make an empty v pass
    if (np.fmin.reduce(v, axis=None, initial=0.0) < 0.0
            or np.fmax.reduce(v, axis=None, initial=1.0) > 1.0):
        raise ValueError("diagonal values must lie in [0, 1]")
    with np.errstate(divide="ignore", over="ignore"):  # phi(0) = inf
        y = g.phi(v)
        y /= d
        y = g.f(y, out=_out(y))
    if not isinstance(y, np.ndarray):  # a scalar in: a float out
        return 1.0 if v >= 1.0 else float(np.clip(y, 0.0, 1.0))
    np.clip(y, 0.0, 1.0, out=y)
    y[v >= 1.0] = 1.0
    return y
