"""The benchmark's workloads: fixed experiment configs run through `extlab run`.

Each workload is a list of experiments and the worker count they run at.
An experiment is an `extlab run` config without a seed (the benchmark's
--seed is passed on the command line) and, where the config asks for
`compare`, the largest |z| the result may show against its reference curve.

Sizes are chosen so that one pass (every experiment once) takes a few
seconds on a 2-CPU machine, which leaves room for a warm-up pass and
several measured passes inside one benchmark run: run time on a shared
machine drifts by 10-20% over seconds, and only a median over several
passes is steady.  Pool calibration costs pool size (200k, fixed) times
grid points per call, so the pool-bound workloads use a 7-point grid.
Why each workload exists, and which layer it should move, is written in
README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

CLAYTON = {"family": "clayton", "alpha": 1.0}
GRID7 = {"start": 0.05, "stop": 0.95, "count": 7}
GRID19 = {"start": 0.05, "stop": 0.95, "count": 19}


@dataclass(frozen=True)
class Experiment:
    name: str
    config: dict
    max_abs_z: float | None = None   # bound checked where `compare` runs

    @property
    def replicates(self) -> int:
        return int(self.config["replicates"])


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    experiments: tuple[Experiment, ...]

    @property
    def replicates(self) -> int:
        return sum(e.replicates for e in self.experiments)


WORKLOADS = {
    # Frozen-pool calibration: two nu pools with few (size_jitter) and many
    # (stable_size) distinct values.
    "calibration": Workload("calibration", 0, (
        Experiment("size_jitter", {
            "system": {"kind": "size_jitter",
                       "base": {"kind": "exchangeable_copula", "generator": CLAYTON}},
            "n": 10000, "replicates": 100000, "s_grid": GRID7,
            "analyses": ["psi", "compare", "def2_fit"],
        }, max_abs_z=6.0),
        # the shipped scripts/configs/stable_size.json on the 7-point grid
        Experiment("stable_size", {
            "system": {"kind": "stable_size_gumbel", "beta": 0.5,
                       "gamma": 0.6931471805599453},
            "n": 10000, "replicates": 50000, "s_grid": GRID7,
            "analyses": ["psi", "partial_indices", "tail_indices", "compare", "def2_fit"],
        }, max_abs_z=15.0),   # curve sits ~0.012 from its limit at n=1e4: z ~ 8-11
    )),
    # The two heavy exact samplers, over the estimator's process pool.
    # branching_heredity leaves out `compare`: its reference model has no
    # curve, and `extlab run` fails on it.
    "samplers": Workload("samplers", 2, (
        Experiment("branching_heredity", {
            "system": {"kind": "branching_heredity", "offspring": {"1": 0.5, "3": 0.5},
                       "gamma": 1.0, "a": 0.5},
            "n": 16, "replicates": 1000, "s_grid": GRID7,
            "analyses": ["psi", "partial_indices", "tail_indices"],
        }),
        Experiment("power_law_graph", {
            "system": {"kind": "power_law_graph", "beta": 3.5},
            "n": 10000, "replicates": 1000, "s_grid": GRID7,
            "analyses": ["psi", "partial_indices", "compare"],
        }, max_abs_z=6.0),
    )),
    # Closed-form or exact-mean calibration (no pool): frailty samplers,
    # sort-and-count over millions of maxima, and reference quadrature.
    "closed_forms": Workload("closed_forms", 0, (
        Experiment("clayton", {
            "system": {"kind": "exchangeable_copula", "generator": CLAYTON},
            "n": 10000, "replicates": 5000000, "s_grid": GRID19,
            "analyses": ["psi", "compare"],
        }, max_abs_z=6.0),
        Experiment("tilted_frank", {
            "system": {"kind": "exchangeable_copula",
                       "generator": {"family": "frank", "alpha": 2.0,
                                     "tilt_gamma": 0.6931471805599453}},
            "n": 10000, "replicates": 5000000, "s_grid": GRID19,
            "analyses": ["psi", "compare", "def2_fit"],
        }, max_abs_z=6.0),
        Experiment("two_point_threshold", {
            "system": {"kind": "random_threshold", "law": {"kind": "two_point", "delta": 0.5}},
            "n": 10000, "replicates": 5000000, "s_grid": GRID19,
            "analyses": ["psi", "compare"],
        }, max_abs_z=6.0),
        Experiment("mixture_spike", {
            "system": {"kind": "mixture_spike", "gamma": 0.5},
            "n": 10000, "replicates": 5000000, "s_grid": GRID19,
            "analyses": ["psi", "compare"],
        }, max_abs_z=6.0),
        Experiment("pareto_threshold", {
            "system": {"kind": "random_threshold", "law": {"kind": "pareto", "a": 3.0}},
            "n": 10000, "replicates": 200000, "s_grid": GRID19,
            "analyses": ["psi", "compare"],
        }, max_abs_z=6.0),
    )),
}
