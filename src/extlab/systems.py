"""Series-scheme models: what gets simulated.

A system describes one triangular-array model: at stage n a series holds
nu_n terms (possibly random) with common marginal d.f. F_n, and M_n is the
maximum over the terms.  Each system knows how to draw M_n exactly, and
exposes its size law as the Laplace transform G_n(lam) = E e^(-lam nu_n)
(``size_laplace``) and its marginal F_n.  Both indices read one functional,
E F_n(u)^(theta nu_n) = G_n(theta lam) at lam = -ln F_n(u) (``Calibrator``,
with G_n and F_n each exact or pooled): theta = 1 calibrates the thresholds,
and general theta > 0 is the comparand used when matching against maxima of
a theta-fraction of independent terms.  ``closed_form_lam`` solves G_n = s
where the size law inverts in closed form; ``threshold_at`` maps lam to u.

Systems are immutable, picklable descriptions; all randomness flows through
the generator handed to the sampling methods, so replicate batches can be
farmed out to workers without changing results.

Each system class is its own registry entry: ``kind`` names it in configs,
``fields`` maps each config field to the parser that turns the JSON value
into the constructor argument of the same name, the first docstring line
is its catalog blurb, and ``reference()`` gives its closed-form limit model.
``SYSTEMS`` maps kinds to classes; ``build_system`` reads nothing else.
"""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from .copulas import (
    ArchimedeanGenerator,
    ClaytonGenerator,
    FrankGenerator,
    GumbelHougaardGenerator,
    IndependenceGenerator,
    TiltedGenerator,
    default_tilt_power,
    diag_cdf,
    diag_inverse,
)
from .reference import (
    ArchimedeanLimit,
    BranchingHeredityIndex,
    DuplicatedIidLimit,
    GraphActivityLimit,
    RandomThresholdLimit,
    ReferenceModel,
    SpikeMixtureLimit,
    StableSizeGumbelLimit,
)
from .sampling import (
    Degenerate,
    Distribution,
    Gamma,
    Pareto,
    PositiveStable,
    SymmetricStable,
    TwoPoint,
    _hurwitz_zeta,
    _root,
)

__all__ = [
    "ConfigError",
    "SeriesSystem",
    "ExchangeableCopulaSystem",
    "DuplicatedIidSystem",
    "MixtureSpikeSystem",
    "GeometricThresholdSystem",
    "RandomThresholdSystem",
    "StableSizeGumbelSystem",
    "BranchingHereditySystem",
    "PowerLawGraphSystem",
    "MonotoneTransformSystem",
    "SizeJitterSystem",
    "Calibrator",
    "POOL_SIZE",
    "build_calibration_pool",
    "SYSTEMS",
    "build_system",
]


class ConfigError(ValueError):
    """Invalid system or run configuration."""


POOL_SIZE = 200_000  # draws in a frozen calibration pool


# ---------------------------------------------------------------------------
# config field parsers: JSON value -> constructor argument

def _integral(value) -> int:
    """An int64 field; integral floats pass, strings, fractions, booleans and |x| >= 2^63 fail."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    out = int(value)
    if not -2**63 <= out < 2**63:
        raise ValueError(f"must be an integer within int64, got {value!r}")
    return out


def _real(value) -> float:
    """A float field; strings, booleans, and the NaN and infinities JSON readers accept fail."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"must be a finite number, got {value!r}")
    return x


def _offspring_size(key) -> int:
    """A JSON object key as an offspring size: ASCII digits only, no sign, space or '_'."""
    if isinstance(key, str) and key.isascii() and key.isdigit():
        key = int(key)
    return _integral(key)


_GEN_FAMILIES = {
    "independence": lambda p: IndependenceGenerator(),
    "clayton": lambda p: ClaytonGenerator(_real(p["alpha"])),
    "frank": lambda p: FrankGenerator(_real(p["alpha"])),
    "gumbel_hougaard": lambda p: GumbelHougaardGenerator(_real(p["alpha"])),
}


def _build_generator(cfg: dict):
    cfg = dict(cfg)
    family = cfg.pop("family", None)
    if family not in _GEN_FAMILIES:
        raise ConfigError(f"unknown generator family {family!r}; know {sorted(_GEN_FAMILIES)}")
    tilt = cfg.pop("tilt_gamma", None)
    allowed = {"alpha"} if family != "independence" else set()
    extra = set(cfg) - allowed
    if extra:
        raise ConfigError(f"unknown generator fields {sorted(extra)} for family {family!r}")
    missing = allowed - set(cfg)
    if missing:
        raise ConfigError(f"generator family {family!r} needs fields {sorted(missing)}")
    gen = _GEN_FAMILIES[family](cfg)
    if tilt is not None:
        gen = TiltedGenerator(gen, _real(tilt))
    return gen


def _build_zeta(cfg: dict) -> Distribution:
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    try:
        if kind == "two_point":
            delta = _real(cfg.pop("delta"))
            if not 0.0 < delta < 1.0:
                raise ConfigError(f"delta must lie in (0, 1), got {delta}")
            law = TwoPoint(1.0 - delta, 1.0 + delta, 0.5)
        elif kind == "pareto":
            a = _real(cfg.pop("a"))
            if a <= 1.0:
                raise ConfigError(f"pareto threshold law needs a > 1, got {a}")
            law = Pareto(a, (a - 1.0) / a)  # x_min chosen so the mean is 1
        elif kind == "gamma":
            shape = _real(cfg.pop("shape"))
            law = Gamma(shape, 1.0 / shape)
        elif kind == "degenerate":
            law = Degenerate(1.0)
        else:
            raise ConfigError(f"unknown threshold law {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"threshold law {kind!r} is missing field {exc}") from None
    if cfg:
        raise ConfigError(f"unknown threshold law fields {sorted(cfg)}")
    return law


class SeriesSystem:
    """Base class for series-scheme models."""

    name = "series"
    kind: str | None = None     # config kind of a registered system
    fields: dict = {}           # config field -> parser, named as in __init__
    calibration_kind = "exact"  # size_laplace; or "nu_pool" / "marginal_pool": a pool's draws

    def validate_n(self, n: int) -> None:
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ConfigError(f"{self.name}: stage n must be an integer >= 2, got {n!r}")

    def sample_batch(self, n: int, count: int, rng) -> np.ndarray:
        """count exact draws of M_n, a float64 array; the size enters through size_laplace."""
        raise NotImplementedError

    def marginal_cdf(self, n: int, x):
        """Common per-term d.f. F_n; uniform on [0, 1] unless overridden."""
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def threshold_at(self, n: int, lam):
        """The u with F_n(u) = e^-lam; e^-lam itself for the uniform marginal."""
        return np.exp(-np.asarray(lam, dtype=float))

    def size_laplace(self, n: int, lam):
        """G_n(lam) = E e^(-lam nu_n) for lam in [0, inf]; a deterministic size n unless overridden."""
        if self.calibration_kind == "nu_pool":
            raise NotImplementedError(f"{self.name}: the size law is known only through draws")
        return np.exp(-n * np.asarray(lam, dtype=float))

    def exact_max_cdf(self, n: int, u):
        raise NotImplementedError

    def closed_form_lam(self, n: int, s):
        """lam with G_n(lam) = s where the size law inverts in closed form, else None."""
        cls = type(self)
        if cls.size_laplace is not SeriesSystem.size_laplace or cls.calibration_kind == "nu_pool":
            return None
        return -np.log(np.asarray(s, dtype=float)) / n

    def reference(self) -> ReferenceModel | None:
        """The closed-form limit model of this system, where one exists."""
        return None

    def __repr__(self):
        return self.name


# ---------------------------------------------------------------------------
# exchangeable copula series

class _InvertedMaxSystem(SeriesSystem):
    """Deterministic size n, uniform marginals, a closed-form inverse of the max d.f.

    Each replicate costs one uniform V: M_n = max_inverse_given_size(n, V),
    the exact inversion draw.  G_n(lam) = e^(-n lam) inverts to lam = -ln s / n.
    """

    def sample_batch(self, n, count, rng):
        return self.max_inverse_given_size(n, rng.random(count))


def _check_tilt_stage(name: str, n: int, gamma: float) -> None:
    """A stage of the power-tilt schedule needs n >= 3 and ln n > gamma."""
    if n < 3:
        raise ConfigError(f"{name}: the power tilt needs n >= 3")
    try:
        default_tilt_power(n, gamma)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


class ExchangeableCopulaSystem(_InvertedMaxSystem):
    """Deterministic size n, uniform marginals, Archimedean dependence.

    The max has the exact d.f. f(n phi(u)), and sampling inverts that
    diagonal in closed form: M = f(phi(V) / n) for one uniform V.
    """

    kind = "exchangeable_copula"
    fields = {"generator": _build_generator}

    def __init__(self, generator):
        if not isinstance(generator, (ArchimedeanGenerator, TiltedGenerator)):
            raise ConfigError(
                f"generator must be an Archimedean structure, got {type(generator).__name__}")
        self.gen = generator
        self.name = f"exchangeable_copula({generator.name})"

    def validate_n(self, n):
        super().validate_n(n)
        if isinstance(self.gen, TiltedGenerator):
            _check_tilt_stage(self.name, n, self.gen.gamma)

    def exact_max_cdf(self, n, u):
        return diag_cdf(self.gen, n, u)

    def max_inverse_given_size(self, d, v):
        return diag_inverse(self.gen, d, v)

    def reference(self):
        try:
            return ArchimedeanLimit(self.gen)
        except ValueError:  # infinite frailty mean: no finite-mean limit curve
            return None


class DuplicatedIidSystem(_InvertedMaxSystem):
    """Series of n terms built from ceil(n/m) iid uniforms, each repeated m times.

    The classical clustered-maxima sanity model: P(M_n <= u) = u^ceil(n/m)
    exactly, so the limit curve is s^(1/m).
    """

    kind = "duplicated_iid"
    fields = {"m": _integral}

    def __init__(self, m: int):
        if not isinstance(m, (int, np.integer)) or m < 2:
            raise ConfigError(f"duplication factor m must be an integer >= 2, got {m!r}")
        self.m = int(m)
        self.name = f"duplicated_iid(m={self.m})"

    @staticmethod
    def _groups(n, m):
        return -(-n // m)

    def exact_max_cdf(self, n, u):
        return np.clip(np.asarray(u, dtype=float), 0.0, 1.0) ** self._groups(n, self.m)

    def max_inverse_given_size(self, d, v):
        return np.asarray(v, dtype=float) ** (1.0 / self._groups(np.asarray(d), self.m))

    def reference(self):
        return DuplicatedIidLimit(self.m)


class MixtureSpikeSystem(SeriesSystem):
    """n - 1 iid uniforms plus one spiked term with d.f. x^(gamma n).

    The common (exchangeable-position) marginal is the mixture
    F_n(x) = x (1 + (x^(gamma n - 1) - 1)/n) while the max d.f. is the
    exact product x^((1+gamma) n - 1).  The gap between F_n^n and the max
    law is the point of the model: the limit curve has theta_minus = 1 but
    theta_plus = 1 + gamma.
    """

    kind = "mixture_spike"
    fields = {"gamma": _real}

    def __init__(self, gamma: float):
        if not gamma > 0:
            raise ConfigError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)
        self.name = f"mixture_spike(gamma={self.gamma:g})"

    def _max_power(self, n):
        """p with P(M_n <= x) = x^p: n - 1 uniform terms and the spiked x^(gamma n)."""
        return (1.0 + self.gamma) * n - 1.0

    def sample_batch(self, n, count, rng):
        # the max d.f. x^p inverts in closed form: M = V^(1/p), one uniform V per replicate
        u = rng.random(count)
        u **= 1.0 / self._max_power(n)
        return u

    def marginal_cdf(self, n, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = x * (1.0 + (x ** (self.gamma * n - 1.0) - 1.0) / n)
        return np.where(x == 0.0, 0.0, out)

    def threshold_at(self, n, lam):
        """F_n^-1(e^-lam): one bracketed root over the grid; F_n(0) = 0 and F_n(1) = 1 exactly."""
        p = np.exp(-np.asarray(lam, dtype=float))
        u, inside = p.copy(), (0.0 < p) & (p < 1.0)
        u[inside] = _root(lambda x: self.marginal_cdf(n, x), p[inside])
        return u

    def exact_max_cdf(self, n, u):
        return np.clip(np.asarray(u, dtype=float), 0.0, 1.0) ** self._max_power(n)

    def reference(self):
        return SpikeMixtureLimit(self.gamma)


class GeometricThresholdSystem(SeriesSystem):
    """Fixed threshold 1 - eps: the series runs until a term exceeds it.

    nu is geometric with success probability eps and M = 1 - eps + eps U
    independently of nu, so a replicate draws U alone.  eps is pinned or
    n^(-q); the limit curve 0 v (2 - 1/s), the random-threshold limit at
    zeta = 1, is reached as eps -> 0 and carries no index of either kind.
    """

    kind = "geometric_threshold"
    fields = {"eps": _real, "eps_exponent": _real}

    def __init__(self, eps: float | None = None, eps_exponent: float | None = None):
        if (eps is None) == (eps_exponent is None):
            raise ConfigError("give exactly one of eps, eps_exponent")
        if eps is not None and not 0.0 < eps < 1.0:
            raise ConfigError(f"eps must lie in (0, 1), got {eps}")
        if eps_exponent is not None and not eps_exponent > 0:
            raise ConfigError(f"eps_exponent must be positive, got {eps_exponent}")
        self.eps = None if eps is None else float(eps)
        self.eps_exponent = None if eps_exponent is None else float(eps_exponent)
        if self.eps is not None:
            self.name = f"geometric_threshold(eps={self.eps:g})"
        else:
            self.name = f"geometric_threshold(eps=n^-{self.eps_exponent:g})"

    def validate_n(self, n):
        super().validate_n(n)
        if not self.eps_at(n) > 0.0:
            raise ConfigError(f"{self.name}: eps = n^-{self.eps_exponent:g} is 0 at n = {n}")

    def eps_at(self, n) -> float:
        if self.eps is not None:
            return self.eps
        return float(n) ** (-self.eps_exponent)

    def sample_batch(self, n, count, rng):
        eps = self.eps_at(n)
        return 1.0 - eps + eps * rng.random(count)

    def size_laplace(self, n, lam):
        # E e^(-lam nu) = eps e^-lam / (1 - (1 - eps) e^-lam), with no 1 - eps to round away;
        # past lam = 709 expm1 overflows to inf, where G is 0
        eps = self.eps_at(n)
        with np.errstate(over="ignore"):
            return eps / (np.expm1(np.asarray(lam, dtype=float)) + eps)

    def exact_max_cdf(self, n, u):
        eps = self.eps_at(n)
        return np.clip((np.asarray(u, dtype=float) - (1.0 - eps)) / eps, 0.0, 1.0)

    def closed_form_lam(self, n, s):
        # (1 - s)/s overflows at a subnormal s, where lam = inf reads G = 0
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):
            return np.log1p(self.eps_at(n) * (1.0 - s) / s)

    def reference(self):
        return RandomThresholdLimit(Degenerate(1.0))


class RandomThresholdSystem(SeriesSystem):
    """Random threshold 1 - zeta/n with E zeta = 1; series ends at first exceedance.

    Given zeta the size machinery is the geometric-threshold one with
    eps = zeta/n.  The recorded maximum is the exceedant observation, so
    as a (threshold, value) pair it carries the law of a draw conditioned
    on the exceedance event; that conditioning reweights the threshold by
    its exceedance probability zeta/n, i.e. the maximum sees the
    size-biased zeta while the size keeps the plain one.  Mixing the two
    expectations bends the limit curve away from any single power of s
    and splits the partial indices.  A replicate draws the maximum alone:
    the size-biased zeta, then one uniform.  Draws with zeta >= n are
    rejected and resampled (their probability is negligible at the stage
    sizes of interest and they carry no threshold), so every exact mean
    here is the limit model's, given zeta < n: ``RandomThresholdLimit``
    at cap = n.
    """

    kind = "random_threshold"
    fields = {"law": _build_zeta}

    def __init__(self, law: Distribution):
        try:
            RandomThresholdLimit(law)  # refuses a law whose mean is not 1
            self.zeta_biased = law.size_biased()
        except (NotImplementedError, ValueError) as exc:
            raise ConfigError(f"unusable threshold law {law!r}: {exc}") from None
        self.zeta = law
        self.name = f"random_threshold({type(law).__name__.lower()})"

    def _draw(self, dist, n, count, rng):
        z = np.asarray(dist.sample(rng, count), dtype=float)
        for _ in range(100):
            bad = z >= n
            k = int(bad.sum())
            if k == 0:
                return z
            z[bad] = dist.sample(rng, k)
        raise ConfigError(f"{self.name}: threshold law puts too much mass above n={n}")

    def sample_batch(self, n, count, rng):
        # x + (1 - x) U with x = 1 - zeta/n: in place on the draws and the uniforms
        x = self._draw(self.zeta_biased, n, count, rng)
        x /= n
        np.subtract(1.0, x, out=x)
        w = 1.0 - x
        u = rng.random(count)
        u *= w
        u += x
        return u

    def _capped(self, n):
        return RandomThresholdLimit(self.zeta, cap=n)

    def size_laplace(self, n, lam):
        # E[(zeta/n) t / (1 - (1 - zeta/n) t) | zeta < n] = f_n(n (1 - t) / t), t = e^-lam;
        # f_n(inf) = 0 where expm1 overflows, and a NaN lam passes through f_n as NaN
        with np.errstate(over="ignore", invalid="ignore"):
            c = n * np.expm1(np.asarray(lam, dtype=float))
            return np.vectorize(self._capped(n).f, otypes=[float])(c)

    def exact_max_cdf(self, n, u):
        # size-biased mixture: E[zeta * clip((u-x)/(1-x))] / E[zeta] with
        # x = 1 - zeta/n collapses to E (zeta - n(1-u))_+ / E zeta, given zeta < n
        lim = self._capped(n)
        w = n * (1.0 - np.clip(np.asarray(u, dtype=float), 0.0, 1.0))
        return np.vectorize(lim.g, otypes=[float])(w) / lim.m

    def closed_form_lam(self, n, s):
        return np.log1p(np.vectorize(self._capped(n).f_inv, otypes=[float])(s) / n)

    def reference(self):
        return RandomThresholdLimit(self.zeta)


class StableSizeGumbelSystem(SeriesSystem):
    """Positive stable size nu = max(1, round(n S)) over a power-tilted structure.

    Given nu the terms form a Gumbel-Hougaard vector of exponent
    alpha_n = ln n / (ln n - gamma), the same power schedule as the tilt,
    so the conditional max is V^(nu^(-1/alpha_n)).  The model splits the
    two index notions: the limit curve is s to the power exp(-gamma beta)
    while matching E F^(theta nu) holds at theta = exp(-gamma).
    """

    kind = "stable_size_gumbel"
    fields = {"beta": _real, "gamma": _real}

    def __init__(self, beta: float, gamma: float):
        if not 0.0 < beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {beta}")
        if not (math.isfinite(gamma) and gamma >= 0.0):
            raise ConfigError(f"gamma must be finite and non-negative, got {gamma}")
        self.beta = float(beta)
        self.gamma = float(gamma)
        self._stable = PositiveStable(self.beta)
        self.name = f"stable_size_gumbel(beta={self.beta:g}, gamma={self.gamma:g})"

    def validate_n(self, n):
        super().validate_n(n)
        _check_tilt_stage(self.name, n, self.gamma)

    def sample_nu(self, n, count, rng):
        """Sizes as integer-valued float64, not int64: n S is heavy-tailed and can pass 2^63."""
        s = self._stable.sample(rng, count)
        s *= n
        np.rint(s, out=s)
        return np.maximum(s, 1.0, out=s)

    def sample_batch(self, n, count, rng):
        # V^(nu^(-1/alpha_n)): the exponents overwrite the sizes, the maxima the uniforms
        e = self.sample_nu(n, count, rng)
        e **= -1.0 / default_tilt_power(n, self.gamma)
        u = rng.random(count)
        u **= e
        return u

    def size_laplace(self, n, lam):
        """E e^(-lam nu), exact: Poisson summation of the rounding of T = n S.

        e^(-lam rint T) = e^(-lam T) g(T) for the 1-periodic
        g(t) = e^(lam (t - rint t)), whose Fourier coefficients are
        c_m = (-1)^m 2 sinh(lam/2) / (lam - 2 pi i m).  The Laplace transform
        of S holds on Re z >= 0, so E e^(-lam rint T) = sum_m c_m L(n (lam - 2 pi i m)).
        The m and -m terms pair into a real alternating series, summed by
        Cohen, Rodriguez Villegas & Zagier's acceleration.  The clamp nu >= 1
        adds (y - 1) P(T < 1/2), y = e^-lam.  Past lam of a few units the
        modes cancel far below their size, and the acceleration loses digits
        where their phase turns fast.  There the direct sum
        (1 - y) sum_k y^k P(nu <= k) takes over, over k <= K = 16 with
        P(nu <= K) for the rest, wherever its error bound
        y^(K+1) (1 - P(nu <= K)) is below 2^-53 of it.  lam = 0 gives 1 and
        lam = inf gives 0.
        """
        lam = np.asarray(lam, dtype=float)
        out = np.exp(-lam, out=np.empty(lam.shape))  # the ends, and NaN
        inner = (lam > 0.0) & (lam < np.inf)
        if np.any(inner):
            out[inner] = self._summed_law(n, lam[inner])
        return out

    def _summed_law(self, n, lam):
        """size_laplace at 0 < lam < inf, a 1-d array."""
        cdf = _stable_size_cdf(self.beta, n)  # P(T <= k + 1/2), k = 0 .. cells
        y = np.exp(-lam)
        m = np.arange(1, _STABLE_PAIRS + 1)
        z = lam[:, None] - 2j * np.pi * m
        with np.errstate(invalid="ignore", over="ignore"):
            sh = 2.0 * np.sinh(0.5 * lam)
            head = sh / lam * self._stable.laplace(n * lam)
            modes = 2.0 * (sh[:, None] / z * self._stable.laplace(n * z)).real
            modes *= _alternating_weights()
            poisson = head + modes.sum(axis=1) + (y - 1.0) * cdf[0]
        k = np.arange(1, cdf.size)
        terms = y[:, None] ** k * cdf[1:]
        direct = (1.0 - y) * terms.sum(axis=1) + y * terms[:, -1]
        bound = y ** cdf.size * (1.0 - cdf[-1])
        return np.where(bound <= 2.0**-53 * direct, direct, poisson)

    def reference(self):
        return StableSizeGumbelLimit(self.beta, self.gamma)


class BranchingHereditySystem(SeriesSystem):
    """Galton-Watson tree with inherited stable scores.

    Each particle's score is a times the parent score plus b times a fresh
    standard symmetric stable(gamma) innovation, with a^gamma + b^gamma = 1
    so the stationary marginal is again standard stable.  The series at
    stage n is generation n: nu = Z_n, M = max score in the generation.
    Offspring laws must put no mass at 0 (no extinction) and have mean > 1.
    """

    kind = "branching_heredity"
    fields = {"offspring": lambda law: {_offspring_size(k): _real(v) for k, v in dict(law).items()},
              "gamma": _real, "a": _real, "particle_budget": _integral}
    calibration_kind = "nu_pool"

    def __init__(self, offspring: dict, gamma: float, a: float, particle_budget: int = 1_000_000):
        vals, probs = [], []
        try:
            law = sorted((_integral(k), p) for k, p in offspring.items())
        except ValueError as exc:
            raise ConfigError(f"offspring size {exc}") from None
        for k, p in law:
            if k < 0 or p < 0:
                raise ConfigError(f"bad offspring entry {k}: {p}")
            vals.append(k)
            probs.append(float(p))
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError(f"offspring probabilities must sum to 1, got {sum(probs)}")
        if vals and vals[0] == 0 and probs[0] > 0:
            raise ConfigError("offspring law must put no mass at 0 (extinction excluded)")
        self.offspring_vals = np.array(vals, dtype=np.int64)
        self.offspring_probs = np.array(probs, dtype=float)
        self.mu = float(self.offspring_vals @ self.offspring_probs)
        if self.mu <= 1.0:
            raise ConfigError(f"offspring mean must exceed 1, got {self.mu}")
        if not 0.0 < a < 1.0:
            raise ConfigError(f"heredity weight a must lie in (0, 1), got {a}")
        if not 0.0 < gamma <= 2.0:
            raise ConfigError(f"stable exponent gamma must lie in (0, 2], got {gamma}")
        self.a = float(a)
        self.gamma = float(gamma)
        self.b = (1.0 - self.a**self.gamma) ** (1.0 / self.gamma)
        if particle_budget < 1:
            raise ConfigError(f"particle budget must be at least 1, got {particle_budget}")
        self.particle_budget = int(particle_budget)
        self._stable = SymmetricStable(self.gamma)
        self.name = f"branching_heredity(a={self.a:g}, gamma={self.gamma:g}, mu={self.mu:g})"

    def validate_n(self, n):
        super().validate_n(n)
        if n * math.log10(self.mu) > math.log10(self.particle_budget):  # mu^n overflows at n ~ 1e3
            raise ConfigError(
                f"{self.name}: mean generation size 10^{n * math.log10(self.mu):.1f} exceeds "
                f"the particle budget {self.particle_budget}; lower n or raise the budget"
            )

    def _offspring(self, rng, count):
        """Offspring sizes by inversion on the cdf table, without a search: j counts
        the cdf steps that u passes, in the smallest integer type, then vals[j]."""
        u = rng.random(count)
        j = np.zeros(count, dtype=np.min_scalar_type(self.offspring_vals.size))
        for c in np.cumsum(self.offspring_probs)[:-1]:
            j += u >= c
        del u
        return self.offspring_vals[j]

    def _max_innovation(self, k, rng):
        """Largest of k[i] iid innovations for each i, by inversion: G^-1(U^(1/k))."""
        q = rng.random(k.size)  # becomes 1 - U^(1/k) in place, precise in the upper tail
        np.log(q, out=q)
        q /= k
        np.negative(np.expm1(q, out=q), out=q)
        if self.gamma == 1.0:
            q *= np.pi
            return np.divide(1.0, np.tan(q, out=q), out=q)
        from scipy.special import ndtri

        ndtri(q, out=q)
        q *= -math.sqrt(2.0)
        return q

    def sample_batch(self, n, count, rng):
        # vectorized over all live particles of all trees in the batch; children
        # follow their parent, so tree j's particles are one run from starts[j]
        scores = self._stable.sample(rng, count)  # stationary roots
        starts = np.arange(count)
        hard_cap = max(64 * self.particle_budget, 100_000_000)
        # a * repeat(x) is repeat(a * x) bit for bit, so each update runs in place
        for gen in range(n):
            k = self._offspring(rng, scores.size)
            nu = np.add.reduceat(k, starts)
            total = int(nu.sum())
            if total > hard_cap:
                raise ConfigError(f"{self.name}: population blew past the hard particle cap")
            scores *= self.a
            if gen == n - 1 and self.gamma in (1.0, 2.0):
                # the last generation as one maximum per parent, where G^-1 is closed
                fresh = self._max_innovation(k, rng)
            else:
                scores = np.repeat(scores, k)
                fresh = self._stable.sample(rng, total)
                starts = np.cumsum(nu) - nu
            del k
            fresh *= self.b
            scores += fresh
            del fresh
        return np.maximum.reduceat(scores, starts)

    def sample_nu(self, n, count, rng):
        # population recursion only: multinomial split per generation
        z = np.ones(count, dtype=np.int64)
        for _ in range(n):
            picks = rng.multinomial(z, self.offspring_probs)
            z = picks @ self.offspring_vals
        return z

    def marginal_cdf(self, n, x):
        return self._stable.cdf(x)

    def threshold_at(self, n, lam):
        return self._stable.quantile(np.exp(-np.asarray(lam, dtype=float)))

    def reference(self):
        return BranchingHeredityIndex(self.a, self.gamma, self.mu)


# far above any shipped graph (n = 1e4); a graph draw holds a few n-long arrays
_GRAPH_MAX_N = 10**7
# a size jitter calibration call holds (points) x (80 sqrt(n) cells) doubles: 0.64 GB at 1000 points
_JITTER_MAX_N = 10**6


class PowerLawGraphSystem(SeriesSystem):
    """Directed power-law graph with aggregated heavy-tailed activities.

    Each of the n vertices draws K ~ Zipf(beta) and receives edges from
    D = min(K, n-1) distinct uniformly chosen other vertices; its aggregate
    is its own Pareto(a) activity plus those of the chosen vertices.  The
    series is the n aggregates; the aggregate tail is (1 + EK) times the
    single-activity tail, which is what drags the index below 1.
    """

    kind = "power_law_graph"
    fields = {"beta": _real, "a": _real, "x_min": _real}
    calibration_kind = "marginal_pool"

    def __init__(self, beta: float, a: float = 1.0, x_min: float = 1.0):
        if beta <= 2.0:
            raise ConfigError(f"degree exponent beta must exceed 2, got {beta}")
        if a <= 0 or x_min <= 0:
            raise ConfigError(f"activity parameters must be positive, got a={a}, x_min={x_min}")
        # regular-variation conditions for the aggregate-tail factorization
        if beta < 3.0:
            if not a < beta - 2.0:
                raise ConfigError(f"need a < beta - 2 when beta < 3, got a={a}, beta={beta}")
        elif not a < (beta - 1.0) / 2.0:
            raise ConfigError(f"need a < (beta - 1)/2 when beta >= 3, got a={a}, beta={beta}")
        self.beta = float(beta)
        self.a = float(a)
        self.x_min = float(x_min)
        self._activity = Pareto(self.a, self.x_min)
        self.name = f"power_law_graph(beta={self.beta:g}, a={self.a:g})"

    def validate_n(self, n):
        super().validate_n(n)
        if n > _GRAPH_MAX_N:
            raise ConfigError(f"{self.name}: stage n = {n} exceeds the graph bound "
                              f"{_GRAPH_MAX_N:.0e}; every draw holds n-long arrays")

    @staticmethod
    def _degrees(cdf, count, rng):
        """count draws of D = min(K, n-1) by inversion on its cdf table.

        Most draws fall in the first cell (89% at beta = 3.5), which one
        comparison settles; only the rest search the table.
        """
        u = rng.random(count)
        d = np.ones(count, dtype=np.intp)
        if cdf.size:
            rest = u >= cdf[0]
            d[rest] = 2 + np.searchsorted(cdf[1:], u[rest], side="right")
        return d

    def _distinct_picks(self, n, d, rng):
        """src/pick arrays with per-vertex distinct picks, self excluded.

        Uniform distinct sets: big groups (collision-prone) go through a
        partial permutation, the rest through whole-group redraw rejection.
        Both paths draw uniformly among d-subsets of the other vertices.
        """
        big_bound = max(8, int(math.isqrt(n)))
        big = np.flatnonzero(d > big_bound)
        big_src_parts, big_pick_parts = [], []
        for v in big:
            picks = rng.permutation(n - 1)[: d[v]]
            picks += picks >= v
            big_src_parts.append(np.full(d[v], v))
            big_pick_parts.append(picks)
        d_small = d.copy()
        d_small[big] = 0
        src = np.repeat(np.arange(n), d_small)
        pick = rng.integers(0, n - 1, src.size)
        pick += pick >= src
        check = np.flatnonzero(d_small[src] >= 2)  # a single pick cannot collide
        for _ in range(200):
            key = np.sort(src[check] * n + pick[check])
            bad = np.unique(key[1:][key[1:] == key[:-1]] // n)
            if not bad.size:
                break
            redraw = np.zeros(n, dtype=bool)
            redraw[bad] = True
            check = np.flatnonzero(redraw[src])  # only redrawn groups can collide anew
            fresh = rng.integers(0, n - 1, check.size)
            fresh += fresh >= src[check]
            pick[check] = fresh
        else:
            raise ConfigError(f"{self.name}: in-neighbor rejection failed to converge")
        if big.size:
            src = np.concatenate([src] + big_src_parts)
            pick = np.concatenate([pick] + big_pick_parts)
        return src, pick

    def _one_graph_max(self, n, cdf, rng) -> float:
        d = self._degrees(cdf, n, rng)
        src, pick = self._distinct_picks(n, d, rng)
        act = self._activity.sample(rng, n)
        agg = act + np.bincount(src, weights=act[pick], minlength=n)
        return float(agg.max())

    def sample_batch(self, n, count, rng):
        cdf = _degree_cdf(self.beta, n)
        return np.array([self._one_graph_max(n, cdf, rng) for _ in range(count)])

    def marginal_cdf(self, n, x):
        raise NotImplementedError(f"{self.name}: the aggregate marginal has no closed form")

    def threshold_at(self, n, lam):
        # asymptotic tail threshold: F_n(u) = e^-lam where (1 + EK) (u/x_min)^(-a) = lam
        scale = self.reference().frechet_scale
        return self.x_min * (scale / np.asarray(lam, dtype=float)) ** (1.0 / self.a)

    def sample_marginal(self, n, count, rng):
        # aggregate of one vertex: own activity + D iid picked activities;
        # picks land on distinct vertices, so their activities are iid
        d = self._degrees(_degree_cdf(self.beta, n), count, rng)
        out = self._activity.sample(rng, count)
        total = int(d.sum())
        if total:
            picked = self._activity.sample(rng, total)
            starts = np.r_[0, np.cumsum(d)[:-1]]
            out += np.add.reduceat(picked, starts)
        return out

    def reference(self):
        return GraphActivityLimit(self.beta, self.a, self.x_min)


@functools.lru_cache(maxsize=4)
def _degree_cdf(beta: float, n: int):
    """P(D <= k) for k = 1..n-2, as 1 - zeta(beta, k+1)/zeta(beta) (Hurwitz zeta).

    Taking the tail, not a sum of the head, keeps the relative precision
    of the atom P(D = n-1) = zeta(beta, n-1)/zeta(beta).  zeta is the lab's
    Euler-Maclaurin sum, so the graph loads no scipy.  The table is read-only.
    """
    cdf = 1.0 - _hurwitz_zeta(beta, np.arange(2.0, n)) / _hurwitz_zeta(beta, 1.0)
    cdf.flags.writeable = False
    return cdf


# ---------------------------------------------------------------------------
# wrappers

class _WrappedSystem(SeriesSystem):
    """A system built on a base system: the base's stages and limit model."""

    def validate_n(self, n):
        self.base.validate_n(n)

    def reference(self):
        return self.base.reference()


class MonotoneTransformSystem(_WrappedSystem):
    """Raises every series member to a power: g(x) = x^power with power > 0.

    g is strictly increasing on [0, 1], and maxima commute with monotone
    maps, so every summary of the base system transports through g draw by
    draw; this wrapper exists to test exactly that invariance.
    """

    kind = "monotone_transform"
    fields = {"base": lambda cfg: build_system(cfg), "power": _real}

    def __init__(self, base: SeriesSystem, power: float):
        if not isinstance(base, SeriesSystem):
            raise ConfigError(f"base must be a SeriesSystem, got {type(base).__name__}")
        if not power > 0:
            raise ConfigError(f"power must be positive, got {power}")
        # an exact law with thresholds in [0, 1]: F_n(0) = 0 and F_n(1) = 1, probed at the
        # smallest stage; the only pooled kinds (branching, the graph) fail it
        if not (base.calibration_kind == "exact"
                and np.array_equal(base.marginal_cdf(2, [0.0, 1.0]), [0.0, 1.0])):
            raise ConfigError("power transform needs a base with thresholds in (0, 1)")
        self.base = base
        self.power = float(power)
        self.name = f"monotone_transform({base.name}, power({self.power:g}))"

    def _apply(self, x):
        return np.asarray(x, dtype=float) ** self.power

    def _invert(self, y):
        return np.asarray(y, dtype=float) ** (1.0 / self.power)

    def sample_batch(self, n, count, rng):
        return self._apply(self.base.sample_batch(n, count, rng))

    def marginal_cdf(self, n, x):
        return self.base.marginal_cdf(n, self._invert(x))

    def threshold_at(self, n, lam):
        return self._apply(self.base.threshold_at(n, lam))

    def size_laplace(self, n, lam):
        return self.base.size_laplace(n, lam)

    def exact_max_cdf(self, n, u):
        return self.base.exact_max_cdf(n, self._invert(u))

    def closed_form_lam(self, n, s):
        return self.base.closed_form_lam(n, s)


class SizeJitterSystem(_WrappedSystem):
    """Randomizes a deterministic series size: nu = max(1, n + round(sqrt(n) Z)).

    nu/n -> 1 in probability, which must leave the limit curve untouched.
    The base must expose the conditional max inverse by size with a
    size-free uniform marginal, at every size from 1 up.
    """

    kind = "size_jitter"
    fields = {"base": lambda cfg: build_system(cfg)}

    def __init__(self, base: SeriesSystem):
        if not isinstance(base, _InvertedMaxSystem):
            raise ConfigError(
                "size jitter needs a deterministic-size base with a conditional "
                f"max inverse (exchangeable copula or duplicated iid), got {base!r}"
            )
        if isinstance(getattr(base, "gen", None), TiltedGenerator):
            raise ConfigError(f"size jitter reaches nu = 1, where the tilted structure "
                              f"of {base.name} is undefined")
        self.base = base
        self.name = f"size_jitter({base.name})"

    def sample_batch(self, n, count, rng):
        z = rng.standard_normal(count)
        z *= math.sqrt(n)
        np.rint(z, out=z)
        z += n
        nu = np.maximum(z, 1, out=z).astype(np.int64)
        return self.base.max_inverse_given_size(nu, rng.random(count))

    def validate_n(self, n):
        super().validate_n(n)
        if n > _JITTER_MAX_N:
            raise ConfigError(f"{self.name}: n = {n} exceeds the jitter bound {_JITTER_MAX_N:.0e}")

    def size_laplace(self, n, lam):
        lam = np.asarray(lam, dtype=float)
        return _weighted_laplace(*_jitter_pmf(n), lam.ravel()).reshape(lam.shape)


_STABLE_PAIRS = 32  # accelerated mode pairs of the stable size law's Poisson sum
_STABLE_CELLS = 16  # sizes of its direct sum, where the modes cancel


@functools.lru_cache(maxsize=8)
def _stable_size_cdf(beta: float, n: int):
    """P(n S <= k + 1/2) for k = 0 .. _STABLE_CELLS, S positive stable(beta); read-only.

    The first entry is P(rint(n S) = 0), the mass the clamp nu >= 1 moves
    to 1; the rest are P(nu <= k) for k >= 1.
    """
    cdf = PositiveStable(beta).cdf((np.arange(_STABLE_CELLS + 1) + 0.5) / n)
    cdf.flags.writeable = False
    return cdf


@functools.cache
def _alternating_weights():
    """w with sum_(m = 1 .. _STABLE_PAIRS) w_m a_m close to sum_(m >= 1) (-1)^m a_m; read-only.

    Algorithm 1 of Cohen, Rodriguez Villegas & Zagier (Exp. Math. 9, 2000):
    for a_m the moments of a positive measure on [0, 1] the error is about
    5.8^-32 of the series' size.
    """
    terms = _STABLE_PAIRS
    d = (3.0 + math.sqrt(8.0)) ** terms
    d = 0.5 * (d + 1.0 / d)
    b, c, w = -1.0, -d, np.empty(terms)
    for k in range(terms):
        c = b - c
        w[k] = -c / d  # w_(k+1): the series starts at (-1)^1
        b *= (k + terms) * (k - terms) / ((k + 0.5) * (k + 1.0))
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=8)
def _jitter_pmf(n: int):
    """(k, P(nu = k)) of the jittered size on [max(1, n - w), n + w], w = ceil(40 sqrt(n)).

    nu = k >= 2 where n + sqrt(n) Z falls within 1/2 of k; nu = 1 takes the
    lower tail.  Each cell is a difference of stdlib erfc tails on its own
    side of the mean, which keeps their relative precision (and no scipy in
    the run).  The mass outside the window is below e^-800, 0 in double
    precision; cells that underflow to 0 are dropped.  The arrays are read-only.
    """
    w = math.ceil(40.0 * math.sqrt(n))
    k = np.arange(max(1, n - w), n + w + 1)
    # P(Z > |z|) at the cell edges z = (j - n - 1/2)/sqrt(n), j = k[0] .. k[-1] + 1
    scale = math.sqrt(2.0 * n)
    tail = 0.5 * np.array([math.erfc(abs(j - n - 0.5) / scale)
                           for j in range(int(k[0]), int(k[-1]) + 2)])
    p = np.where(k < n, tail[1:] - tail[:-1], tail[:-1] - tail[1:])
    mid = n - int(k[0])  # the cell that holds the mean
    p[mid] = 1.0 - tail[mid] - tail[mid + 1]
    if k[0] == 1:
        p[0] = tail[1]
    keep = p > 0.0
    k, p = k[keep].astype(float), p[keep]
    k.flags.writeable = p.flags.writeable = False
    return k, p


# ---------------------------------------------------------------------------
# module operations

def build_calibration_pool(system: SeriesSystem, n: int, stream, size: int = POOL_SIZE):
    """Frozen pool backing Monte Carlo calibration: nu draws or marginal draws."""
    kind = system.calibration_kind
    draw = {"nu_pool": "sample_nu", "marginal_pool": "sample_marginal"}.get(kind)
    if draw is None:
        raise ConfigError(f"{system.name}: no calibration pool for calibration kind {kind!r}")
    return getattr(system, draw)(n, size, stream.generator)


def _size_terms(lam, nu):
    # e^(-lam nu), (points) x (sizes), exponentiated in place; every size is at least 1,
    # so lam = 0 gives 1 and lam = inf gives 0.  Points-major, so each point's pairwise
    # sum along its own row depends on that row alone, not on the other points of the
    # call or on BLAS threads.
    y = np.multiply.outer(-np.atleast_1d(np.asarray(lam, dtype=float)), nu)
    return np.exp(y, out=y)


def _weighted_laplace(nu, weights, lam):
    """sum_k w_k e^(-lam nu_k) / sum_k w_k per point: lam = 0 gives the weights' own sum, so 1."""
    y = _size_terms(lam, nu)
    y *= weights
    return y.sum(axis=1) / weights.sum()


class Calibrator:
    """G_n(lam) = E e^(-lam nu_n) at one stage n, read at a threshold u as E F_n(u)^nu_n.

    G_n is the system's size_laplace, or for "nu_pool" systems the mean over
    a frozen pool of sizes, compressed once into distinct sizes `nu` and
    their `counts`.  A threshold u enters at lam = -ln F_n(u), F_n the
    system's marginal d.f., or for "marginal_pool" systems the edf of a
    frozen, sorted pool of marginal draws.  E F_n(u)^(theta nu_n) is
    G_n(theta lam).  Pools are built once and reused for every threshold,
    theta and root step, so a Monte Carlo functional is still a fixed
    function.
    """

    def __init__(self, system: SeriesSystem, n: int, stream=None, pool_size: int = POOL_SIZE):
        system.validate_n(n)
        self.system = system
        self.n = n
        self.kind = system.calibration_kind
        self.exact = self.kind == "exact"
        self.size = 0  # draws in the pool
        if self.exact:
            return
        if stream is None:
            raise ConfigError(f"{system.name}: calibration needs a stream")
        pool = np.asarray(build_calibration_pool(system, n, stream, pool_size)).astype(float)
        self.size = pool.size
        if self.kind == "marginal_pool":
            self.pool = np.sort(pool)
        else:  # integral counts: a constant column averages to itself
            self.nu, self.counts = np.unique(pool, return_counts=True)

    def marginal(self, u):
        """F_n(u): the system's marginal d.f., or the sorted pool's edf."""
        if self.kind == "marginal_pool":
            return np.searchsorted(self.pool, np.asarray(u), side="right") / self.size
        return self.system.marginal_cdf(self.n, u)

    def lam_at(self, u):
        """lam = -ln F_n(u), where G_n reads the threshold u: inf where F_n(u) = 0."""
        with np.errstate(divide="ignore"):
            return -np.log(self.marginal(u))

    def laplace(self, lam):
        """G_n(lam) = E e^(-lam nu_n) for lam in [0, inf]."""
        if self.kind == "nu_pool":
            return _weighted_laplace(self.nu, self.counts, lam)
        return np.asarray(self.system.size_laplace(self.n, lam), dtype=float)

    def value(self, u):
        """E F_n(u)^nu_n = G_n(-ln F_n(u))."""
        return self.laplace(self.lam_at(u))

    def stderr_at(self, u):
        """The pool's standard error of value(u); 0 for an exact law."""
        u = np.asarray(u, dtype=float)
        if self.exact:
            return np.zeros_like(u)
        if self.kind == "marginal_pool":
            p = self.marginal(u)
            se_p = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / self.size)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = self.n * p ** (self.n - 1.0) * se_p
            return np.where(p > 0.0, out, 0.0)
        y = _size_terms(self.lam_at(u), self.nu)
        for row in y:  # one row at a time, so no second (points x distinct nu) array
            row -= (row * self.counts).sum() / self.size
        y *= y  # the pool's std(ddof=1) / sqrt(size), in place
        y *= self.counts
        return np.sqrt(y.sum(axis=1) / (self.size * (self.size - 1.0)))


# ---------------------------------------------------------------------------
# registry

SYSTEMS: dict[str, type[SeriesSystem]] = {cls.kind: cls for cls in (
    ExchangeableCopulaSystem, DuplicatedIidSystem, MixtureSpikeSystem,
    GeometricThresholdSystem, RandomThresholdSystem, StableSizeGumbelSystem,
    BranchingHereditySystem, PowerLawGraphSystem, MonotoneTransformSystem,
    SizeJitterSystem,
)}


def build_system(cfg: dict) -> SeriesSystem:
    """Construct a system from a plain configuration mapping (JSON-friendly)."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"system config must be a mapping, got {type(cfg).__name__}")
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    cls = SYSTEMS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown system kind {kind!r}")
    params = inspect.signature(cls).parameters
    args = {}
    for name, parse in cls.fields.items():
        value = cfg.pop(name, None)  # null means "use the default"
        if value is not None:
            try:
                args[name] = parse(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"system kind {kind!r} field {name!r}: {exc}") from None
        elif params[name].default is inspect.Parameter.empty:
            raise ConfigError(f"system kind {kind!r} is missing field {name!r}")
    if cfg:
        raise ConfigError(f"unknown system fields {sorted(cfg)} for kind {kind!r}")
    return cls(**args)
