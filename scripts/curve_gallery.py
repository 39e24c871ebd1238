#!/usr/bin/env python3
"""Estimate the limiting curve psi(s) for a gallery of series schemes and
compare each against its closed-form limit model.

For every scheme the script calibrates normalizing thresholds u_n(s) on a
common grid, runs the Monte Carlo maximum, and prints psi_hat next to the
reference value with a z-score.  Schemes without a closed-form reference
report the curve alone.
"""

import argparse
import math

import numpy as np

from extlab import (
    ClaytonGenerator,
    DuplicatedIidSystem,
    ExchangeableCopulaSystem,
    FrankGenerator,
    GumbelHougaardGenerator,
    MixtureSpikeSystem,
    RandomStream,
    RandomThresholdSystem,
    TiltedGenerator,
    TwoPoint,
    estimate_psi,
    index_report,
)


def gallery():
    return [
        ("clayton(1.0)", ExchangeableCopulaSystem(ClaytonGenerator(1.0))),
        ("frank(2.0)", ExchangeableCopulaSystem(FrankGenerator(2.0))),
        ("tilted gumbel-hougaard(1.0), gamma=ln 2",
         ExchangeableCopulaSystem(
             TiltedGenerator(GumbelHougaardGenerator(1.0), math.log(2.0)))),
        ("duplicated iid, m=2", DuplicatedIidSystem(2)),
        ("mixture spike, gamma=1.0", MixtureSpikeSystem(1.0)),
        ("two-point random threshold, delta=0.5",
         RandomThresholdSystem(TwoPoint(0.5, 1.5))),
    ]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=10_000, help="series length scale")
    ap.add_argument("--replicates", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--workers", type=int, default=0)
    ap.add_argument("--grid", type=float, nargs="+",
                    default=[0.1, 0.3, 0.5, 0.7, 0.9])
    args = ap.parse_args()

    grid = np.asarray(args.grid, dtype=float)
    for sid, (label, system) in enumerate(gallery()):
        stream = RandomStream(seed=args.seed, stream_id=sid)
        est = estimate_psi(system, args.n, s_grid=grid,
                           replicates=args.replicates, stream=stream,
                           workers=args.workers)
        ref = system.reference()
        print(f"\n{label}  (n={args.n}, R={args.replicates})")
        header = f"  {'s':>6} {'u_n(s)':>12} {'psi_hat':>9} {'stderr':>9}"
        if ref is not None:
            header += f" {'psi_ref':>9} {'z':>7}"
        print(header)
        for j, s in enumerate(est.s):
            row = (f"  {s:6.2f} {est.u[j]:12.8f} {est.psi_hat[j]:9.5f}"
                   f" {est.stderr[j]:9.5f}")
            if ref is not None:
                pr = float(ref.psi(s))
                se = max(est.stderr[j], 1e-12)
                row += f" {pr:9.5f} {(est.psi_hat[j] - pr) / se:7.2f}"
            print(row)
        rep = index_report(est)
        print(f"  indices: theta- = {rep.theta_minus:.4f}"
              f"  theta+ = {rep.theta_plus:.4f}"
              f"  theta0 = {rep.theta0:.4f}  theta1 = {rep.theta1:.4f}"
              f"  mean slope = {rep.grid_mean_slope:.4f}"
              f" +- {rep.grid_mean_slope_se:.4f}")


if __name__ == "__main__":
    main()
