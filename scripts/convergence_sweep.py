#!/usr/bin/env python3
"""Track how fast an estimated curve approaches its limit as n grows.

Runs one scheme at a ladder of series lengths with a fixed replicate
budget and reports the worst absolute deviation from the closed-form
limit over the grid, split into the part explained by Monte Carlo noise
and the residual finite-n bias.
"""

import argparse
import math

import numpy as np

from extlab import (
    ClaytonGenerator,
    ExchangeableCopulaSystem,
    FrankGenerator,
    GumbelHougaardGenerator,
    RandomStream,
    TiltedGenerator,
    estimate_psi,
)


def make_system(name: str):
    if name == "clayton":
        return ExchangeableCopulaSystem(ClaytonGenerator(1.0))
    if name == "frank":
        return ExchangeableCopulaSystem(FrankGenerator(2.0))
    if name == "tilted":
        return ExchangeableCopulaSystem(
            TiltedGenerator(GumbelHougaardGenerator(1.0), math.log(2.0)))
    raise SystemExit(f"unknown scheme {name!r}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scheme", choices=("clayton", "frank", "tilted"),
                    default="tilted")
    ap.add_argument("--replicates", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--workers", type=int, default=0)
    ap.add_argument("--decades", type=int, default=4,
                    help="n runs over 10^2 .. 10^(1+decades)")
    args = ap.parse_args()

    system = make_system(args.scheme)
    ref = system.reference()
    grid = np.round(np.linspace(0.1, 0.9, 9), 10)
    psi_ref = np.array([ref.psi(s) for s in grid])

    print(f"{args.scheme}: max |psi_hat - psi| over s in [0.1, 0.9],"
          f" R = {args.replicates}")
    print(f"  {'n':>9} {'max dev':>10} {'3*stderr':>10} {'bias part':>10}")
    for k in range(args.decades):
        n = 10 ** (2 + k)
        est = estimate_psi(system, n, s_grid=grid,
                           replicates=args.replicates,
                           stream=RandomStream(seed=args.seed, stream_id=k),
                           workers=args.workers)
        dev = np.abs(est.psi_hat - psi_ref)
        j = int(np.argmax(dev))
        noise = 3.0 * est.stderr[j]
        print(f"  {n:>9} {dev[j]:>10.5f} {noise:>10.5f}"
              f" {max(dev[j] - noise, 0.0):>10.5f}   (worst at s = {grid[j]:.2f})")


if __name__ == "__main__":
    main()
