"""Command-line front end.

Subcommands: simulate, calibrate, study, oracle-check, risk-ratio.  Options
come from a JSON config file overridden by flags; the fully resolved config
is always written next to the outputs so a run can be replayed exactly.

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
from .oracles import quadrature as quad_oracle

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# The config keys each command reads, per kind (simulate and calibrate) or
# suite (oracle-check); study and risk-ratio have one kind, None.  seed and
# the kind key itself are accepted everywhere they apply; any other key
# exits 2 rather than being dropped.
_SSM_DATA = {"phi_M_star", "n_total_blocks", "d_x"}
_CONFIG_KEYS = {
    "simulate": ("kind", "mixture", {
        "mixture": {"lambda_star", "n1", "n2"},
        "ssm": {"phi_M_star", "n_blocks", "d_x"},
        "conjugate": {"mu_star", "n"},
    }),
    "calibrate": ("kind", "ssm", {
        "ssm": _SSM_DATA | {"loss", "n_train_blocks", "eta_upper",
                            "grid_points"},
        "mixture": {"loss", "lambda_star", "n1", "n2", "J", "family",
                    "eta_upper", "grid_points"},
    }),
    "study": (None, None, {
        None: _SSM_DATA | {"n_train_blocks", "n_replicates", "n_test_sets",
                           "test_blocks", "eta_upper", "grid_points", "loss",
                           "risk_method"},
    }),
    "risk_ratio": (None, None, {
        None: _SSM_DATA | {"test_blocks", "n_test_sets", "eta1", "eta2"},
    }),
    "oracle_check": ("suite", "conjugate", {
        "conjugate": set(), "mixture": set(), "laplace-aghq": set(),
        "table-f1": {"table_n_rep"},
    }),
}


def _load_config(args) -> dict:
    """The config file, then the --seed flag (and oracle-check's suite);
    seed defaults to 0.  A resolved config written by another command, an
    unknown kind and a key the command and kind do not read are rejected."""
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
    unknown = set(cfg) - keys - {"seed", kind_key}
    if unknown:
        what = f"{args.command} {kind}" if kind_key else args.command
        raise SystemExit(_fail(EXIT_CONFIG, f"config keys not read by "
                               f"{what}: {sorted(unknown)}"))
    cfg.setdefault("seed", 0)
    return cfg


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _outdir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved(cfg: dict, args) -> Path | None:
    """Echo the resolved config and return None on --dry-run; otherwise
    write it as <command>_config.json and return the output directory."""
    if args.dry_run:
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return None
    out = _outdir(args)
    name = args.command.replace("-", "_")
    with open(out / f"{name}_config.json", "w") as fh:
        json.dump(dict(cfg, command=name), fh, indent=2, sort_keys=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    kind = cfg.get("kind", "mixture")
    out = _write_resolved(cfg, args)
    if out is None:
        return EXIT_OK
    seed = cfg["seed"]
    meta = {"seed": seed, "kind": kind}
    if kind == "mixture":
        truth = MixtureTruth(lambda_star=cfg.get("lambda_star", 0.9))
        data = datasets.simulate_mixture(truth, cfg.get("n1", 30),
                                         cfg.get("n2", 60), seed)
        datasets.write_modular_csv(out / "mixture.csv", data, meta)
    elif kind == "ssm":
        truth = SsmTruth(phi_M_star=cfg.get("phi_M_star", 1.0))
        data = datasets.simulate_ssm(truth, cfg.get("n_blocks", 60),
                                     cfg.get("d_x", 6), seed)
        datasets.write_ssm_csv(out / "ssm.csv", data, meta)
    else:                                       # conjugate
        data = datasets.simulate_conjugate_normal(cfg.get("mu_star", 0.0),
                                                  cfg.get("n", 10), seed)
        with open(out / "conjugate.csv", "w") as fh:
            fh.write("block,pos,value,role\n")
            for i, v in enumerate(data.points):
                fh.write(f"{i},0,{float(v)!r},x1\n")
    print(f"wrote {kind} dataset to {out}", file=sys.stderr)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    kind = cfg.get("kind", "ssm")
    loss = cfg.get("loss", "product")
    out = _write_resolved(cfg, args)
    if out is None:
        return EXIT_OK
    seed = cfg["seed"]
    if kind == "ssm":
        truth = SsmTruth(phi_M_star=cfg.get("phi_M_star", 1.0))
        full = datasets.simulate_ssm(truth, cfg.get("n_total_blocks", 60),
                                     cfg.get("d_x", 6), seed)
        train, calib = datasets.split_ssm_blocks(
            full, cfg.get("n_train_blocks", 10), seed + 1)
        grid = hypercal.SGrid.regular([(0.0, cfg.get("eta_upper", 1.0))],
                                      ["eta"], cfg.get("grid_points", 41))
        gp = evaluation._ssm_eta_posterior(train, calib, truth, grid, loss)
    else:                                       # mixture
        truth = MixtureTruth(lambda_star=cfg.get("lambda_star", 0.9))
        data = datasets.simulate_mixture(truth, cfg.get("n1", 30),
                                         cfg.get("n2", 60), seed)
        calib = datasets.simulate_mixture(truth, cfg.get("J", 1000),
                                          0, seed + 1).x1
        stats = mix_oracle.MixtureStats.from_data(data)
        grid = hypercal.SGrid.regular([(0.0, cfg.get("eta_upper", 1.0))],
                                      [cfg.get("family", "gamma")],
                                      cfg.get("grid_points", 41))
        gp = mix_oracle.mixture_grid_posterior(loss, stats, calib.points, grid)
    gp.export_csv(out / "posterior.csv")
    est = hypercal.compute_estimator_set(gp)
    with open(out / "estimators.json", "w") as fh:
        json.dump(est.as_dict(), fh, indent=2, sort_keys=True)
    print(f"calibration written to {out}", file=sys.stderr)
    return EXIT_OK


def cmd_study(args) -> int:
    cfg = _load_config(args)
    cfg.setdefault("n_replicates", 20 if args.fast else 100)
    cfg.setdefault("n_test_sets", 10 if args.fast else 30)
    out = _write_resolved(cfg, args)
    if out is None:
        return EXIT_OK
    config = evaluation.SsmStudyConfig(
        truth=SsmTruth(phi_M_star=cfg.get("phi_M_star", 1.0)),
        n_total_blocks=cfg.get("n_total_blocks", 60),
        n_train_blocks=cfg.get("n_train_blocks", 10),
        d_x=cfg.get("d_x", 6),
        n_replicates=cfg["n_replicates"], n_test_sets=cfg["n_test_sets"],
        test_blocks=cfg.get("test_blocks", 100),
        eta_upper=cfg.get("eta_upper", 1.0),
        grid_points=cfg.get("grid_points", 41),
        kind=cfg.get("loss", "product"),
        risk_method=cfg.get("risk_method", "simulate"), seed=cfg["seed"])
    study = evaluation.ssm_replicate_study(config, jobs=args.jobs)
    study.write_jsonl(out / "study.jsonl")
    study.write_summary_csv(out / "study_summary.csv")
    print(f"study written to {out}", file=sys.stderr)
    return EXIT_OK


def cmd_risk_ratio(args) -> int:
    cfg = _load_config(args)
    out = _write_resolved(cfg, args)
    if out is None:
        return EXIT_OK
    seed = cfg["seed"]
    truth = SsmTruth(phi_M_star=cfg.get("phi_M_star", 1.0))
    full = datasets.simulate_ssm(truth, cfg.get("n_total_blocks", 60),
                                 cfg.get("d_x", 6), seed)
    posts = {}

    def block_pred(eta, z):
        if eta not in posts:
            posts[eta] = ssm.build_ssm_phi_posterior(full, truth, eta)
        return posts[eta].block_log_predictive(z)

    tests = [datasets.simulate_ssm(truth, cfg.get("test_blocks", 100),
                                   cfg.get("d_x", 6), seed + 7000 + k)
             for k in range(cfg.get("n_test_sets", 30))]
    rep = evaluation.risk_ratio_product(cfg.get("eta1", 0.5),
                                        cfg.get("eta2", 1.0), tests, block_pred)
    with open(out / "risk_ratio.json", "w") as fh:
        json.dump({"s1": rep.s1, "s2": rep.s2, "value": rep.value,
                   "mean_log_ratio": rep.mean_log_ratio,
                   "mc_se": rep.mc_se, "n_test_sets": rep.n_test_sets}, fh,
                  indent=2)
    print(f"risk ratio {rep.value:.4f} (se {rep.mc_se:.4f})", file=sys.stderr)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    cfg = _load_config(args)
    suite = cfg.setdefault("suite", "conjugate")
    if suite == "table-f1":
        cfg.setdefault("table_n_rep", 2000 if args.fast else 10 ** 4)
    # echoed on --dry-run, written only with --out: no stray files otherwise
    if args.dry_run or args.out:
        if _write_resolved(cfg, args) is None:
            return EXIT_OK
    seed = cfg["seed"]
    failures = []

    def check(name, ok, detail=""):
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {name} {detail}", file=sys.stderr)
        if not ok:
            failures.append(name)

    try:
        if suite == "table-f1":
            expected = {(0.5, 0.1): (0.62, 0.73), (1.0, 0.1): (0.72, 0.94),
                        (4.0, 0.1): (0.62, 0.71), (1.0, 1.0): (0.60, 0.77),
                        (2.0, 4.0): (0.59, 0.71)}
            tol = 0.02 + (0.02 if args.fast else 0.0)
            rows = conj_oracle.interior_probability_table(
                list(expected), 10, 10, cfg["table_n_rep"], seed)
            for row in rows:
                mu, v = row[0], row[1]
                p1, p2 = row[4], row[5]
                e1, e2 = expected[(mu, v)]
                check(f"finite-optimum probabilities ({mu},{v})",
                      abs(p1 - e1) <= tol and abs(p2 - e2) <= tol,
                      f"got ({p1:.3f},{p2:.3f}) want ({e1},{e2}) +-{tol}")
            if args.out:
                conj_oracle.write_interior_table_csv(
                    _outdir(args) / "interior_table.csv", rows)
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
                exact, lap = _mixture_marginal_pair(x2, phi=float(np.mean(x2)))
                errs.append(abs(lap - exact))
            check("error halving in n2",
                  all(1.5 < errs[i] / errs[i + 1] < 2.7 for i in range(2)),
                  f"errors {['%.2e' % e for e in errs]}")
    except ParameterError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except Exception as exc:  # noqa: BLE001
        return _fail(EXIT_RUNTIME, f"{type(exc).__name__}: {exc}")
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return EXIT_TOLERANCE
    print("all checks passed", file=sys.stderr)
    return EXIT_OK


def _mixture_marginal_pair(x2: np.ndarray, phi: float,
                           s2: float = 1.0, st2: float = 0.33 ** 2):
    """(exact, laplace) log marginal of the suspect module at a given phi.

    x2 | phi, theta ~ N(phi + theta, s2) with theta ~ N(0, st2); the exact
    marginal is multivariate normal with a rank-one covariance bump.
    """
    from scipy.stats import norm

    x2 = np.asarray(x2, dtype=float)
    n2 = len(x2)
    xbar2 = float(np.mean(x2))
    scatter = float(np.sum((x2 - xbar2) ** 2))
    var_marg = s2 + n2 * st2
    exact = (-0.5 * n2 * np.log(2 * np.pi)
             - 0.5 * ((n2 - 1) * np.log(s2) + np.log(var_marg))
             - 0.5 * (scatter / s2 + n2 * (xbar2 - phi) ** 2 / var_marg))

    def r(theta):
        th = float(theta) if np.ndim(theta) == 0 else float(theta[0])
        return (0.5 * np.log(2 * np.pi * s2)
                + np.mean((x2 - phi - th) ** 2) / (2 * s2))

    mode = xbar2 - phi  # likelihood maximizer in theta
    lap = quad_oracle.laplace_marginal(
        r, mode, 1.0 / s2, n2, float(norm.logpdf(mode, scale=np.sqrt(st2))))
    return float(exact), float(lap)


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
    # only the commands that read --fast or --jobs accept them
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
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    except ParameterError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except Exception as exc:  # noqa: BLE001
        return _fail(EXIT_RUNTIME, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
