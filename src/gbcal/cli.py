"""Command-line front end.

Subcommands: simulate, calibrate, study, oracle-check, risk-ratio.  Options
come from a JSON config file overridden by flags; the fully resolved config
is always written next to the outputs so a run can be replayed exactly.
Each command runs from that resolved config; of the flags, it reads only
the output directory and study's --jobs.

Exit codes: 0 success, 1 tolerance failure, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import datasets, evaluation, hypercal, ssm
from .datasets import MixtureTruth, ParameterError, SsmTruth
from .oracles import conjugate as conj_oracle
from .oracles import mixture as mix_oracle

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# The config keys each command reads, with their defaults, per kind
# (simulate and calibrate) or suite (oracle-check); study and risk-ratio
# have one kind, None.  A (full, fast) pair of defaults is chosen by --fast.
# seed and the kind key itself are accepted everywhere they apply; any other
# key exits 2 rather than being dropped.
_SSM_DATA = {"phi_M_star": 1.0, "n_total_blocks": 60, "d_x": 6}
_ETA_GRID = {"eta_upper": 1.0, "grid_points": 41}
_CONFIG_KEYS = {
    "simulate": ("kind", "mixture", {
        "mixture": {"lambda_star": 0.9, "n1": 30, "n2": 60},
        "ssm": {"phi_M_star": 1.0, "n_blocks": 60, "d_x": 6},
        "conjugate": {"mu_star": 0.0, "n": 10},
    }),
    "calibrate": ("kind", "ssm", {
        "ssm": {**_SSM_DATA, **_ETA_GRID, "loss": "product",
                "n_train_blocks": 10},
        "mixture": {**_ETA_GRID, "loss": "product", "lambda_star": 0.9,
                    "n1": 30, "n2": 60, "J": 1000, "family": "gamma"},
    }),
    "study": (None, None, {
        None: {**_SSM_DATA, **_ETA_GRID, "n_train_blocks": 10,
               "n_replicates": (100, 20), "n_test_sets": (30, 10),
               "test_blocks": 100, "loss": "product", "risk_method": "simulate"},
    }),
    "risk_ratio": (None, None, {
        None: {**_SSM_DATA, "test_blocks": 100, "n_test_sets": 30,
               "eta1": 0.5, "eta2": 1.0},
    }),
    "oracle_check": ("suite", "conjugate", {
        "conjugate": {}, "mixture": {}, "laplace-aghq": {},
        "table-f1": {"table_n_rep": (10 ** 4, 2000)},
    }),
}


def _load_config(args) -> dict:
    """The config file, then the --seed flag (and oracle-check's suite),
    then the defaults of every key the command and kind read, --fast
    choosing from each (full, fast) pair; seed defaults to 0.  A resolved
    config written by another command, an unknown kind, a key the command
    and kind do not read, a value whose type does not fit its key's default
    and a negative seed are rejected; no value is coerced."""
    cfg = {}
    name = args.command.replace("-", "_")
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(_fail(EXIT_CONFIG, f"cannot read config: {exc}"))
        if not isinstance(cfg, dict):
            raise SystemExit(_fail(EXIT_CONFIG, "config must be a JSON object"))
        written_for = cfg.pop("command", name)
        if written_for != name:
            raise SystemExit(_fail(EXIT_CONFIG, f"config was resolved for "
                                   f"{written_for!r}, not {name!r}"))
    for key in ("seed", "suite"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    kind_key, default, kinds = _CONFIG_KEYS[name]
    kind = cfg.get(kind_key, default)
    try:
        keys = kinds[kind]
    except (KeyError, TypeError):
        raise SystemExit(_fail(EXIT_CONFIG, f"unknown {args.command} "
                               f"{kind_key} {kind!r}")) from None
    unknown = set(cfg) - set(keys) - {"seed", kind_key}
    if unknown:
        what = f"{args.command} {kind}" if kind_key else args.command
        raise SystemExit(_fail(EXIT_CONFIG, f"config keys not read by "
                               f"{what}: {sorted(unknown)}"))
    defaults = {"seed": 0, **{k: v[args.fast] if isinstance(v, tuple) else v
                              for k, v in keys.items()}}
    for key, value in cfg.items():
        want = type(defaults.get(key, kind))   # the kind key: a known kind
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if want is float else want):
            raise SystemExit(_fail(EXIT_CONFIG, f"{key} must be of type "
                                   f"{want.__name__}, got {value!r}"))
    if cfg.get("seed", 0) < 0:
        raise SystemExit(_fail(EXIT_CONFIG, f"seed must be non-negative, "
                               f"got {cfg['seed']}"))
    if kind_key:
        cfg[kind_key] = kind
    return {**defaults, **cfg}


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _write_resolved(cfg: dict, args) -> Path | None:
    """Write the resolved config as <command>_config.json and return the
    output directory; oracle-check writes files only with --out, and
    returns None without it."""
    if args.command == "oracle-check" and not args.out:
        return None
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    name = args.command.replace("-", "_")
    with open(out / f"{name}_config.json", "w") as fh:
        json.dump(dict(cfg, command=name), fh, indent=2, sort_keys=True)
    return out


def cmd_simulate(cfg: dict, out: Path, args) -> int:
    kind, seed = cfg["kind"], cfg["seed"]
    meta = {"seed": seed, "kind": kind}
    if kind == "mixture":
        truth = MixtureTruth(lambda_star=cfg["lambda_star"])
        data = datasets.simulate_mixture(truth, cfg["n1"], cfg["n2"], seed)
        datasets.write_modular_csv(out / "mixture.csv", data, meta)
    elif kind == "ssm":
        truth = SsmTruth(phi_M_star=cfg["phi_M_star"])
        data = datasets.simulate_ssm(truth, cfg["n_blocks"], cfg["d_x"], seed)
        datasets.write_ssm_csv(out / "ssm.csv", data, meta)
    else:                                       # conjugate
        data = datasets.simulate_conjugate_normal(cfg["mu_star"], cfg["n"],
                                                  seed)
        with open(out / "conjugate.csv", "w") as fh:
            fh.write("block,pos,value,role\n")
            for i, v in enumerate(data.points):
                fh.write(f"{i},0,{float(v)!r},x1\n")
    print(f"wrote {kind} dataset to {out}", file=sys.stderr)
    return EXIT_OK


def cmd_calibrate(cfg: dict, out: Path, args) -> int:
    seed, loss = cfg["seed"], cfg["loss"]
    if cfg["kind"] == "ssm":
        truth = SsmTruth(phi_M_star=cfg["phi_M_star"])
        full = datasets.simulate_ssm(truth, cfg["n_total_blocks"], cfg["d_x"],
                                     seed)
        train, calib = datasets.split_ssm_blocks(full, cfg["n_train_blocks"],
                                                 seed + 1)
        grid = hypercal.SGrid.regular([(0.0, cfg["eta_upper"])], ["eta"],
                                      cfg["grid_points"])
        gp = evaluation._ssm_eta_posterior(train, calib, truth, grid, loss)
    else:                                       # mixture
        truth = MixtureTruth(lambda_star=cfg["lambda_star"])
        data = datasets.simulate_mixture(truth, cfg["n1"], cfg["n2"], seed)
        calib = datasets.simulate_mixture(truth, cfg["J"], 0, seed + 1).x1
        stats = mix_oracle.MixtureStats.from_data(data)
        grid = hypercal.SGrid.regular([(0.0, cfg["eta_upper"])],
                                      [cfg["family"]], cfg["grid_points"])
        gp = mix_oracle.mixture_grid_posterior(loss, stats, calib.points, grid)
    gp.export_csv(out / "posterior.csv")
    est = hypercal.compute_estimator_set(gp)
    with open(out / "estimators.json", "w") as fh:
        json.dump(est.as_dict(), fh, indent=2, sort_keys=True)
    print(f"calibration written to {out}", file=sys.stderr)
    return EXIT_OK


def cmd_study(cfg: dict, out: Path, args) -> int:
    config = evaluation.SsmStudyConfig(
        truth=SsmTruth(phi_M_star=cfg["phi_M_star"]),
        n_total_blocks=cfg["n_total_blocks"],
        n_train_blocks=cfg["n_train_blocks"], d_x=cfg["d_x"],
        n_replicates=cfg["n_replicates"], n_test_sets=cfg["n_test_sets"],
        test_blocks=cfg["test_blocks"], eta_upper=cfg["eta_upper"],
        grid_points=cfg["grid_points"], kind=cfg["loss"],
        risk_method=cfg["risk_method"], seed=cfg["seed"])
    study = evaluation.ssm_replicate_study(config, jobs=args.jobs)
    study.write_jsonl(out / "study.jsonl")
    study.write_summary_csv(out / "study_summary.csv")
    print(f"study written to {out}", file=sys.stderr)
    return EXIT_OK


def cmd_risk_ratio(cfg: dict, out: Path, args) -> int:
    seed, eta1, eta2 = cfg["seed"], cfg["eta1"], cfg["eta2"]
    truth = SsmTruth(phi_M_star=cfg["phi_M_star"])
    full = datasets.simulate_ssm(truth, cfg["n_total_blocks"], cfg["d_x"], seed)
    lattice = ssm.build_ssm_phi_lattice(full, truth, [eta1, eta2])
    tests = [datasets.simulate_ssm(truth, cfg["test_blocks"], cfg["d_x"],
                                   seed + 7000 + k)
             for k in range(cfg["n_test_sets"])]
    rep = evaluation.risk_ratio_product(
        eta1, eta2, *lattice.test_set_log_predictive(tests))
    with open(out / "risk_ratio.json", "w") as fh:
        json.dump({"s1": rep.s1, "s2": rep.s2, "value": rep.value,
                   "mean_log_ratio": rep.mean_log_ratio,
                   "mc_se": rep.mc_se, "n_test_sets": rep.n_test_sets}, fh,
                  indent=2)
    print(f"risk ratio {rep.value:.4f} (se {rep.mc_se:.4f})", file=sys.stderr)
    return EXIT_OK


def cmd_oracle_check(cfg: dict, out: Path | None, args) -> int:
    suite, seed = cfg["suite"], cfg["seed"]
    failures = []

    def check(name, ok, detail=""):
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {name} {detail}", file=sys.stderr)
        if not ok:
            failures.append(name)

    if suite == "table-f1":
        expected = {(0.5, 0.1): (0.62, 0.73), (1.0, 0.1): (0.72, 0.94),
                    (4.0, 0.1): (0.62, 0.71), (1.0, 1.0): (0.60, 0.77),
                    (2.0, 4.0): (0.59, 0.71)}
        # about four Monte Carlo SEs of a probability near 0.7 at
        # either budget
        tol = 0.02 if cfg["table_n_rep"] >= 10 ** 4 else 0.04
        rows = conj_oracle.interior_probability_table(
            list(expected), 10, 10, cfg["table_n_rep"], seed)
        for row in rows:
            mu, v = row[0], row[1]
            p1, p2 = row[4], row[5]
            e1, e2 = expected[(mu, v)]
            check(f"finite-optimum probabilities ({mu},{v})",
                  abs(p1 - e1) <= tol and abs(p2 - e2) <= tol,
                  f"got ({p1:.3f},{p2:.3f}) want ({e1},{e2}) +-{tol}")
        if out is not None:
            conj_oracle.write_interior_table_csv(out / "interior_table.csv",
                                                 rows)
    elif suite == "conjugate":
        stats = conj_oracle.ConjStats.from_data(
            datasets.simulate_conjugate_normal(0.0, 10, seed), 2.0, 1.0)
        y = datasets.simulate_conjugate_normal(0.0, 3, seed + 1)
        theta, sig2 = conj_oracle.conj_power_sample(stats, 5.0, 10 ** 5,
                                                    seed + 2)
        from scipy.stats import norm

        mat = norm.logpdf(y.points[None, :], loc=theta[:, None],
                          scale=np.sqrt(sig2)[:, None])
        from scipy.special import logsumexp

        mc = float(np.sum(logsumexp(mat, axis=0) - np.log(len(theta))))
        exact = conj_oracle.conj_product_log_predictive(y, stats, 5.0)
        check("product predictive, MC vs closed form",
              abs(mc - exact) < 0.05, f"|{mc:.4f} - {exact:.4f}|")
        d = conj_oracle.conj_pooled_target_deriv(7.0, stats)
        h = 1e-5
        fd = (conj_oracle.conj_pooled_target(7.0 + h, stats)
              - conj_oracle.conj_pooled_target(7.0 - h, stats)) / (2 * h)
        check("target derivative vs finite difference",
              abs(d - fd) < 1e-6 * max(1, abs(d)))
    elif suite == "mixture":
        truth = MixtureTruth()
        data = datasets.simulate_mixture(truth, 30, 60, seed)
        stats = mix_oracle.MixtureStats.from_data(data)
        m0, v0 = mix_oracle.mixture_gamma_smi(stats, 0.0)
        check("cut posterior matches module-1-only update",
              abs(m0 - np.mean(data.x1.points)) < 1e-12
              and abs(v0 - 16.0 / 30) < 1e-12)
        m1g, v1g = mix_oracle.mixture_gamma_smi(stats, 1.0)
        m1e, v1e = mix_oracle.mixture_eta_smi(stats, 1.0)
        check("gamma=1 equals eta=1",
              abs(m1g - m1e) < 1e-12 and abs(v1g - v1e) < 1e-12)
    else:                                   # laplace-aghq
        truth = MixtureTruth()
        errs = []
        for n2 in (50, 100, 200):
            data = datasets.simulate_mixture(truth, 30, n2, seed)
            x2 = data.x2.points
            # evaluating at the conditional mean isolates the curvature
            # part of the error, which decays cleanly at rate 1/n2
            exact, lap = mix_oracle.mixture_module2_log_marginal(
                x2, phi=float(np.mean(x2)))
            errs.append(abs(lap - exact))
        check("error halving in n2",
              all(1.5 < errs[i] / errs[i + 1] < 2.7 for i in range(2)),
              f"errors {['%.2e' % e for e in errs]}")
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return EXIT_TOLERANCE
    print("all checks passed", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gbcal",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int,
                        help="overrides the config's seed (default 0)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--dry-run", action="store_true",
                        help="echo the resolved config and exit")
    # only the commands that read --fast or --jobs accept them; the others
    # resolve their config as without --fast
    common.set_defaults(fast=False)
    fast = argparse.ArgumentParser(add_help=False)
    fast.add_argument("--fast", action="store_true",
                      help="reduced budgets for quick runs")

    for name, fn in [("simulate", cmd_simulate), ("calibrate", cmd_calibrate),
                     ("risk-ratio", cmd_risk_ratio)]:
        sub.add_parser(name, parents=[common]).set_defaults(func=fn)
    p = sub.add_parser("study", parents=[common, fast])
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_study)
    p = sub.add_parser("oracle-check", parents=[common, fast])
    p.add_argument("suite", nargs="?", default=None,
                   choices=["conjugate", "mixture", "laplace-aghq", "table-f1"])
    p.set_defaults(func=cmd_oracle_check)

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.dry_run:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return EXIT_OK
        return args.func(cfg, _write_resolved(cfg, args), args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    except ParameterError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except Exception as exc:  # noqa: BLE001
        return _fail(EXIT_RUNTIME, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
