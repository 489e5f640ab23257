"""Replicate risk-ratio study for the state-space example.

For each misspecification level of the interior emission scale, repeatedly:
simulate blocked data, split into training and calibration blocks, build the
learning-rate posterior from the calibration predictive, refit at the
posterior-mean rate on all blocks, and score fresh test sets against the
plain (rate 1) and anchor-only (rate 0) updates.  Writes one JSONL file and
one quantile summary CSV per level.

Example:
    python3 scripts/run_ssm_risk_study.py --levels 0.5 0.7 1.0 \
        --replicates 20 --jobs 4 --out results/ssm_study
"""

import argparse
import sys
import time
from pathlib import Path

from gbcal.datasets import SsmTruth
from gbcal.evaluation import SsmStudyConfig, ssm_replicate_study


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", type=float, nargs="+", default=[0.5, 0.7, 1.0],
                    help="interior emission scale of the generating process")
    ap.add_argument("--replicates", type=int, default=20)
    ap.add_argument("--test-sets", type=int, default=300)
    ap.add_argument("--test-blocks", type=int, default=100)
    ap.add_argument("--total-blocks", type=int, default=60)
    ap.add_argument("--train-blocks", type=int, default=10)
    ap.add_argument("--loss", choices=["product", "pooled"], default="product")
    ap.add_argument("--risk-method", choices=["simulate", "exact"],
                    default="simulate",
                    help="estimate risk ratios from simulated test sets or "
                         "compute the test-set expectation by quadrature")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("results/ssm_study"))
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    for level in args.levels:
        t0 = time.time()
        cfg = SsmStudyConfig(truth=SsmTruth(phi_M_star=level),
                             n_total_blocks=args.total_blocks,
                             n_train_blocks=args.train_blocks,
                             n_replicates=args.replicates,
                             n_test_sets=args.test_sets,
                             test_blocks=args.test_blocks,
                             kind=args.loss, risk_method=args.risk_method,
                             seed=args.seed)
        study = ssm_replicate_study(cfg, jobs=args.jobs)
        tag = f"level{level:g}"
        study.write_jsonl(args.out / f"study_{tag}.jsonl")
        study.write_summary_csv(args.out / f"summary_{tag}.csv")
        rows = study.quantile_rows()
        print(f"emission scale {level:g} ({time.time() - t0:.0f}s):",
              file=sys.stderr)
        for name, vals in rows.items():
            print(f"  {name}: median risk ratio {vals[2]:.4f} "
                  f"(IQR {vals[1]:.4f}-{vals[3]:.4f})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
