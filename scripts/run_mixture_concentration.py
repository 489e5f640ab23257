"""Influence-weight posteriors for the two-module normal mixture.

Builds the posterior over the module-2 influence weight from held-out
calibration data, for a ladder of calibration sizes J, under both the
pointwise (product) and joint (pooled) calibration losses.  Reports

  * the log-log slope of posterior sd against J for the product loss
    (expected near -1/2: the posterior concentrates like 1/sqrt(J)),
  * the sup-norm distance between the pooled posterior at the largest J and
    its non-concentrating limit, the training-posterior density evaluated at
    the calibration mean,
  * point estimators at each J.

Outputs one CSV row per (loss, J) pair.

Example:
    python3 scripts/run_mixture_concentration.py --out results/mixture.csv
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import norm

from gbcal.datasets import MixtureTruth, simulate_mixture
from gbcal.evaluation import concentration_diagnostics
from gbcal.hypercal import SGrid, compute_estimator_set
from gbcal.oracles import (MixtureStats, mixture_gamma_smi,
                           mixture_grid_posterior)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n1", type=int, default=25)
    ap.add_argument("--n2", type=int, default=10000)
    ap.add_argument("--lambda-star", type=float, default=0.9)
    ap.add_argument("--J-ladder", type=int, nargs="+",
                    default=[100, 1000, 10000])
    ap.add_argument("--grid-points", type=int, default=41)
    ap.add_argument("--seed", type=int, default=10)
    ap.add_argument("--out", type=Path, default=Path("results/mixture.csv"))
    args = ap.parse_args(argv)

    t0 = time.time()
    truth = MixtureTruth(lambda_star=args.lambda_star)
    train = simulate_mixture(truth, args.n1, args.n2, args.seed)
    stats = MixtureStats.from_data(train)
    rng = np.random.default_rng(args.seed + 1)
    J_max = max(args.J_ladder)
    calib_pool = simulate_mixture(truth, J_max, 0,
                                  int(rng.integers(2 ** 31))).x1.points
    grid = SGrid.regular([(0.0, 1.0)], ["gamma"], args.grid_points)

    rows = []
    posts_product = {}
    pooled_big = None
    for kind in ("product", "pooled"):
        for J in sorted(args.J_ladder):
            gp = mixture_grid_posterior(kind, stats, calib_pool[:J], grid)
            est = compute_estimator_set(gp)
            rows.append((kind, J, est.mean.gamma, est.mode.gamma,
                         float(gp.sd()[0])))
            if kind == "product":
                posts_product[J] = gp
            elif J == J_max:
                pooled_big = gp

    phibar = float(np.mean(calib_pool))

    def pooled_limit_log_density(g):
        mu, var = mixture_gamma_smi(stats, np.asarray(g, dtype=float))
        return norm.logpdf(phibar, loc=mu, scale=np.sqrt(var))

    report = concentration_diagnostics(
        posts_product, pooled_reference=(pooled_big, pooled_limit_log_density))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write("loss,J,mean,mode,sd\n")
        for kind, J, mean, mode, sd in rows:
            fh.write(f"{kind},{J},{mean:.6g},{mode:.6g},{sd:.6g}\n")

    print(f"wrote {args.out} ({time.time() - t0:.0f}s)", file=sys.stderr)
    print(f"product-loss sd slope in log J: {report.slope:.4f} "
          "(1/sqrt(J) concentration gives -0.5)")
    print(f"pooled posterior vs non-concentrating limit, sup distance: "
          f"{report.sup_distance:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
