"""Simulation laboratory for extremal indices of series schemes.

A *series scheme* is a triangular array: at stage n a series holds a random
number nu_n of terms and M_n is the running maximum of the terms that count.
The laboratory estimates the limiting curve psi(s) = lim P(M_n <= u_n(s))
along normalizing thresholds calibrated so that E F_n(u_n(s))^{nu_n} = s,
extracts the associated extremal indices from the curve, and checks both
against closed-form limit models.
"""

from .sampling import (
    RandomStream,
    Gamma,
    PositiveStable,
    SymmetricStable,
    Pareto,
    TwoPoint,
    Degenerate,
)
from .copulas import (
    IndependenceGenerator,
    ClaytonGenerator,
    FrankGenerator,
    GumbelHougaardGenerator,
    TiltedGenerator,
    diag_cdf,
    diag_inverse,
)
from .systems import (
    ConfigError,
    SeriesSystem,
    ExchangeableCopulaSystem,
    DuplicatedIidSystem,
    MixtureSpikeSystem,
    GeometricThresholdSystem,
    RandomThresholdSystem,
    StableSizeGumbelSystem,
    BranchingHereditySystem,
    PowerLawGraphSystem,
    MonotoneTransformSystem,
    SizeJitterSystem,
    Calibrator,
    build_calibration_pool,
    build_system,
)
from .normalizer import SolverError, NormalizingCurve, solve_curve
from .estimator import (
    PsiEstimate,
    estimate_psi,
    mean_log_slope,
    partial_indices,
    tail_indices,
    Def2Fit,
    def2_fit,
    isotonic_fit,
    IndexReport,
    index_report,
)

__version__ = "0.1.0"
