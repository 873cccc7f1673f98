"""Cross-check the quadrature engine against brute-force simulation.

Draws a grid of (procedure, rho, f0) points, computes the exact rejection
probability and a seeded Monte Carlo estimate at each, and reports the worst
z-score.  A healthy run stays within ~3 sigma everywhere.
"""

import argparse
import math

from tfiv.cli import _SIZE_PROCEDURES, _build_procedure
from tfiv.mc_oracle import McConfig, mc_rejection
from tfiv.size_engine import NuisancePoint, rejection_prob


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=20260501)
    args = ap.parse_args()

    # The procedures of `tfiv size` at the 5% level, built as the CLI builds them.
    procs = {name: _build_procedure(name, 0.05) for name in _SIZE_PROCEDURES}
    points = [(0.0, 1.0), (0.5, 2.0), (0.9, 4.0), (-0.7, 1.5), (1.0, 3.0)]

    worst = 0.0
    for name, proc in procs.items():
        for k, (rho, f0) in enumerate(points):
            pt = NuisancePoint(rho, f0)
            exact = rejection_prob(proc, pt).prob
            cfg = McConfig(n_draws=args.n, seed=args.seed + k, point=pt)
            est, _ = mc_rejection(proc, cfg)
            # Binomial se at the exact p, floored so p ~ 0 cells stay finite.
            se = max(math.sqrt(exact * (1.0 - exact) / args.n), 1e-7)
            z = (est - exact) / se
            worst = max(worst, abs(z))
            print(f"{name:13s} rho={rho:+.1f} f0={f0:.1f}  "
                  f"exact={exact:.6f} mc={est:.6f} z={z:+.2f}")
    print(f"worst |z| = {worst:.2f}")


if __name__ == "__main__":
    main()
