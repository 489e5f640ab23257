"""Command-line front end.

Subcommands: simulate, calibrate, study, oracle-check, risk-ratio.  Options
come from a JSON config file overridden by flags; the fully resolved config
is always written next to the outputs so a run can be replayed exactly.
Each command runs from that resolved config; of the flags, it reads only
the output directory and study's --jobs.  study has three kinds: the SSM
replicate risk study (ssm), the mixture posteriors along a ladder of
calibration sizes (mixture-concentration), and the nested sampler against
the (eta, b) lattice (nested-check).  --fast and --jobs exit 2 where they
would change nothing.

Exit codes: 0 success, 1 tolerance failure, 2 config error, 3 runtime error.
A config error is a ParameterError, raised while the config is resolved or
where a value is checked; main prints it and returns 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
import time
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
# (simulate, calibrate and study) or suite (oracle-check); risk-ratio has
# one kind, None.  A (full, fast) pair of defaults is chosen by --fast.
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
    "study": ("kind", "ssm", {
        "ssm": {**_SSM_DATA, **_ETA_GRID, "n_train_blocks": 10,
                "n_replicates": (100, 20), "n_test_sets": (30, 10),
                "test_blocks": 100, "loss": "product",
                "risk_method": "simulate"},
        "mixture-concentration": {"n1": 25, "n2": 10000, "lambda_star": 0.9,
                                  "J_ladder": [100, 1000, 10000],
                                  "grid_points": 41},
        "nested-check": {"n_train_blocks": 10, "d_x": 6, "phi_M_star": 0.7,
                         "J_ladder": ([10, 20, 40], [10]),
                         "eta_bounds": [0.05, 1.0], "b_bounds": [0.25, 1.0],
                         "grid_points": 9, "n_outer": (4000, 250),
                         "inner_len": (200, 5)},
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
# the only values these keys take, wherever a command reads them
_CHOICES = {"loss": ("product", "pooled"), "family": ("gamma", "eta"),
            "risk_method": ("simulate", "exact")}
# the bounds on these keys' values, wherever a command reads them; a bound
# that names a key is that key's value, where the command reads it
_BOUNDS = {
    **dict.fromkeys(("n_replicates", "n_test_sets", "test_blocks",
                     "n_total_blocks", "n_blocks", "J", "table_n_rep",
                     "inner_len"), ((">=", 1),)),
    **dict.fromkeys(("n1", "n2", "n"), ((">=", 0),)),
    **dict.fromkeys(("eta1", "eta2"), ((">=", 0),)),
    "grid_points": ((">=", 4),), "eta_upper": ((">", 0),),
    "n_outer": ((">", hypercal.NESTED_BURN_IN),),
    "n_train_blocks": ((">=", 1), ("<", "n_total_blocks")),
    "lambda_star": ((">=", 0), ("<=", 1)), "phi_M_star": ((">", 0),),
    "d_x": ((">=", 2),),                # two anchors per block
}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<": operator.lt,
            "<=": operator.le}


def _load_config(args) -> dict:
    """The config file, then the --seed flag (and oracle-check's suite),
    then the defaults of every key the command and kind read, --fast
    choosing from each (full, fast) pair; seed defaults to 0.  A resolved
    config written by another command, an unknown kind, --fast for a kind
    without such a pair, --jobs for a study kind other than ssm, a key the
    command and kind do not read (n_test_sets under exact risk), a value
    whose type does not fit its key's default or that is not one of its
    key's _CHOICES or _BOUNDS, an eta_upper above 1 under family gamma, a
    negative seed, --jobs below 1 and data the weight cannot act on raise
    a ParameterError; no value is coerced."""
    cfg = {}
    name = args.command.replace("-", "_")
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot read config: {exc}") from None
        if not isinstance(cfg, dict):
            raise ParameterError("config must be a JSON object")
        written_for = cfg.pop("command", name)
        if written_for != name:
            raise ParameterError(f"config was resolved for {written_for!r}, "
                                 f"not {name!r}")
    for key in ("seed", "suite"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    kind_key, default, kinds = _CONFIG_KEYS[name]
    kind = cfg.get(kind_key, default)
    try:
        keys = kinds[kind]
    except (KeyError, TypeError):
        raise ParameterError(f"unknown {args.command} {kind_key} "
                             f"{kind!r}") from None
    what = f"{args.command} {kind}" if kind_key else args.command
    if args.fast and not any(isinstance(v, tuple) for v in keys.values()):
        raise ParameterError(f"--fast changes nothing for {what}")
    jobs = getattr(args, "jobs", None)
    if jobs is not None and kind != "ssm":
        raise ParameterError(f"--jobs is not read by {what}")
    if jobs is not None and jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {jobs}")
    if cfg.get("risk_method") == "exact":    # which draws no test set
        keys = {k: v for k, v in keys.items() if k != "n_test_sets"}
        what += " under exact risk"
    unknown = set(cfg) - set(keys) - {"seed", kind_key}
    if unknown:
        raise ParameterError(f"config keys not read by {what}: "
                             f"{sorted(unknown)}")
    defaults = {"seed": 0, **{k: v[args.fast] if isinstance(v, tuple) else v
                              for k, v in keys.items()}}
    for key, value in cfg.items():
        want = type(defaults.get(key, kind))   # the kind key: a known kind
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if want is float else want):
            raise ParameterError(f"{key} must be of type {want.__name__}, "
                                 f"got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{key} must be finite, got {value}")
    for key, choices in _CHOICES.items():
        if cfg.get(key, choices[0]) not in choices:
            alts = " or ".join(map(repr, choices))
            raise ParameterError(f"{key} must be {alts}, got {cfg[key]!r}")
    if cfg.get("seed", 0) < 0:
        raise ParameterError(f"seed must be non-negative, got {cfg['seed']}")
    if kind_key:
        cfg[kind_key] = kind
    cfg = {**defaults, **cfg}
    # eta tempers only interior emissions, the mixture weight only module 2;
    # the looser _BOUNDS below are what simulate needs
    for key, least in (("d_x", 3), ("n2", 1)):
        if name != "simulate" and cfg.get(key, least) < least:
            raise ParameterError(f"{key} must be >= {least} for the calibrated "
                                 f"weight to change anything, got {cfg[key]}")
    for key, bounds in _BOUNDS.items():
        for op, bound in bounds if key in cfg else ():
            limit, named = bound, bound
            if isinstance(bound, str):
                limit = cfg.get(bound)
                named = f"{bound} ({limit})"
            if limit is not None and not _COMPARE[op](cfg[key], limit):
                raise ParameterError(f"{key} must be {op} {named}, got "
                                     f"{cfg[key]}")
    if cfg.get("family") == "gamma" and cfg["eta_upper"] > 1:
        raise ParameterError("eta_upper must be <= 1 under family gamma, "
                             f"whose weight lies in [0, 1], got "
                             f"{cfg['eta_upper']}")
    if "J_ladder" in cfg:                    # the study kinds' own checks
        _check_study(cfg, kind)
    return cfg


def _check_study(cfg: dict, kind: str) -> None:
    """The J ladder of mixture-concentration and nested-check, and the
    (eta, b) bounds of nested-check: values that a type does not settle."""
    ladder = cfg["J_ladder"]
    least = 2 if kind == "mixture-concentration" else 1   # a slope needs two
    if not (len(ladder) >= least
            and all(type(J) is int and J >= 1 for J in ladder)
            and len(set(ladder)) == len(ladder)):
        raise ParameterError(f"J_ladder must hold at least {least} distinct "
                             f"ints >= 1, got {ladder}")
    if kind != "nested-check":
        return
    for key, lo_positive in (("eta_bounds", False), ("b_bounds", True)):
        lohi = cfg[key]
        if not (len(lohi) == 2
                and all(type(v) in (int, float) and np.isfinite(v)
                        for v in lohi)
                and lohi[0] < lohi[1] and (lohi[0] > 0 if lo_positive
                                           else lohi[0] >= 0)):
            raise ParameterError(f"{key} must be two finite numbers lo < hi "
                                 f"with lo {'>' if lo_positive else '>='} 0, "
                                 f"got {lohi}")


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _write_resolved(cfg: dict, args) -> Path | None:
    """Write the resolved config as <command>_config.json and return the
    output directory; oracle-check writes files only with --out, and
    returns None without it.  An output directory that cannot be made or
    written (--out names a file, say) is a config error."""
    if args.command == "oracle-check" and not args.out:
        return None
    out = Path(args.out or ".")
    name = args.command.replace("-", "_")
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{name}_config.json", "w") as fh:
            json.dump(dict(cfg, command=name), fh, indent=2, sort_keys=True)
    except OSError as exc:
        raise ParameterError(f"cannot write to --out {str(out)!r}: "
                             f"{exc.strerror or exc}") from None
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
        # one module: the points are x1 and x2 is empty; no meta file
        datasets.write_modular_csv(
            out / "conjugate.csv",
            datasets.ModularDataset(data, datasets.SimpleDataset(np.empty(0))))
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
    if cfg["kind"] == "mixture-concentration":
        return _mixture_concentration(cfg, out)
    if cfg["kind"] == "nested-check":
        return _nested_check(cfg, out)
    # exact risk resolves no n_test_sets: the dataclass default keeps
    # config_hash the same with and without --fast
    sizes = {"n_test_sets": cfg["n_test_sets"]} if "n_test_sets" in cfg else {}
    config = evaluation.SsmStudyConfig(
        truth=SsmTruth(phi_M_star=cfg["phi_M_star"]),
        n_total_blocks=cfg["n_total_blocks"],
        n_train_blocks=cfg["n_train_blocks"], d_x=cfg["d_x"],
        n_replicates=cfg["n_replicates"], **sizes,
        test_blocks=cfg["test_blocks"], eta_upper=cfg["eta_upper"],
        grid_points=cfg["grid_points"], kind=cfg["loss"],
        risk_method=cfg["risk_method"], seed=cfg["seed"])
    study = evaluation.ssm_replicate_study(
        config, jobs=1 if args.jobs is None else args.jobs)
    study.write_jsonl(out / "study.jsonl")
    study.write_summary_csv(out / "study_summary.csv")
    print(f"study written to {out}", file=sys.stderr)
    return EXIT_OK


def _mixture_concentration(cfg: dict, out: Path) -> int:
    """Product and pooled influence-weight posteriors of the two-module
    mixture along a ladder of calibration sizes J: writes mean, mode and sd
    per (loss, J), and prints the product loss's sd slope in log J and the
    sup distance of the pooled posterior at the largest J from its
    non-concentrating limit."""
    from scipy.stats import norm

    ladder = sorted(cfg["J_ladder"])
    t0, seed = time.time(), cfg["seed"]
    truth = MixtureTruth(lambda_star=cfg["lambda_star"])
    stats = mix_oracle.MixtureStats.from_data(
        datasets.simulate_mixture(truth, cfg["n1"], cfg["n2"], seed))
    rng = np.random.default_rng(seed + 1)
    pool = datasets.simulate_mixture(truth, ladder[-1], 0,
                                     int(rng.integers(2 ** 31))).x1.points
    grid = hypercal.SGrid.regular([(0.0, 1.0)], ["gamma"], cfg["grid_points"])
    rows, product_sds = [], []
    for loss in ("product", "pooled"):
        for J in ladder:
            gp = mix_oracle.mixture_grid_posterior(loss, stats, pool[:J], grid)
            est = hypercal.compute_estimator_set(gp)
            sd = float(gp.sd()[0])
            rows.append(f"{loss},{J},{est.mean.gamma:.6g},"
                        f"{est.mode.gamma:.6g},{sd:.6g}\n")
            if loss == "product":
                product_sds.append(sd)
    slope = np.polyfit(np.log(np.array(ladder, dtype=float)),
                       np.log(product_sds), 1)[0]
    phibar = float(np.mean(pool))

    def pooled_limit_log_density(g):
        mu, var = mix_oracle.mixture_gamma_smi(stats,
                                               np.asarray(g, dtype=float))
        return norm.logpdf(phibar, loc=mu, scale=np.sqrt(var))

    # gp is the pooled posterior at the largest J
    sup = evaluation.pooled_limit_distance(gp, pooled_limit_log_density)
    with open(out / "mixture.csv", "w") as fh:
        fh.write("loss,J,mean,mode,sd\n")
        fh.writelines(rows)
    print(f"wrote {out / 'mixture.csv'} ({time.time() - t0:.0f}s)",
          file=sys.stderr)
    print(f"product-loss sd slope in log J: {slope:.4f} "
          "(1/sqrt(J) concentration gives -0.5)")
    print(f"pooled posterior vs non-concentrating limit, sup distance: "
          f"{sup:.4f}")
    return EXIT_OK


def _nested_check(cfg: dict, out: Path) -> int:
    """The (eta, b) posterior of the state-space example built two ways,
    the splined lattice and the nested sampler, for each calibration size
    J: writes both, and prints the two-sample KS distance per axis."""
    ladder = cfg["J_ladder"]
    bounds = [cfg["eta_bounds"], cfg["b_bounds"]]
    seed = cfg["seed"]
    truth = SsmTruth(phi_M_star=cfg["phi_M_star"])
    train = datasets.simulate_ssm(truth, cfg["n_train_blocks"], cfg["d_x"],
                                  seed)
    pool = datasets.simulate_ssm(truth, max(ladder), cfg["d_x"], seed + 1)
    grid = hypercal.SGrid.regular(bounds, ["eta", "b"], cfg["grid_points"])
    for J in ladder:
        t0 = time.time()
        calib = pool.subset(np.arange(J))
        gp = ssm.ssm_eta_b_grid_posterior(train, calib, truth, grid,
                                          seed=seed + 10 + J)
        gsamp = gp.sample(6000, seed=seed + 20 + J)
        nd, acc = ssm.ssm_eta_b_nested_draws(
            train, calib, truth, bounds, n_outer=cfg["n_outer"],
            inner_len=cfg["inner_len"], seed=seed + 30 + J)
        np.savetxt(out / f"nested_J{J}.csv", nd, delimiter=",",
                   header="eta,b", comments="")
        gp.export_csv(out / f"grid_J{J}.csv")
        print(f"J={J} ({time.time() - t0:.0f}s, outer accept {acc:.2f}):",
              file=sys.stderr)
        for ax, name in enumerate(("eta", "b")):
            ks = _ks_distance(nd[:, ax], gsamp[:, ax])
            print(f"  {name}: KS distance {ks:.4f} "
                  f"(nested mean {nd[:, ax].mean():.3f}, "
                  f"grid mean {gsamp[:, ax].mean():.3f})")
    return EXIT_OK


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b| of non-empty
    samples, as scipy 1.17's ks_2samp(a, b).statistic computes it: both
    empirical CDFs at every pooled value, and, in its exact mode (neither
    sample above 10,000), rounded to a multiple of 1 / lcm(n1, n2)."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = len(a), len(b)
    pooled = np.concatenate([a, b])
    diff = (np.searchsorted(a, pooled, side="right") / n1
            - np.searchsorted(b, pooled, side="right") / n2)
    d = max(min(max(-diff.min(), 0.0), 1.0), diff.max())
    if max(n1, n2) <= 10000:
        lcm = n1 // math.gcd(n1, n2) * n2
        d = round(d * lcm) / lcm
    return float(d)


def cmd_risk_ratio(cfg: dict, out: Path, args) -> int:
    """Expected predictive ratio of the posteriors at eta1 and eta2, refit
    on one simulated dataset, over n_test_sets test sets of test_blocks
    fresh anchor residuals, scored by evaluation.fresh_block_reports."""
    seed = cfg["seed"]
    truth = SsmTruth(phi_M_star=cfg["phi_M_star"])
    full = datasets.simulate_ssm(truth, cfg["n_total_blocks"], cfg["d_x"], seed)
    u = np.random.default_rng(seed + 7000).standard_exponential(
        (cfg["n_test_sets"], cfg["test_blocks"]))
    rep = evaluation.fresh_block_reports(
        full, truth, [cfg["eta1"], cfg["eta2"]], {"eta1_vs_eta2": (0, 1)},
        cfg["test_blocks"], u)["eta1_vs_eta2"]
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every
    call in the process; it holds no per-call state, since parse_args
    returns a fresh Namespace each time."""
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
    p.add_argument("--jobs", type=int,
                   help="worker processes for study ssm (default 1)")
    p.set_defaults(func=cmd_study)
    p = sub.add_parser("oracle-check", parents=[common, fast])
    p.add_argument("suite", nargs="?", default=None,
                   choices=["conjugate", "mixture", "laplace-aghq", "table-f1"])
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.dry_run:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return EXIT_OK
        return args.func(cfg, _write_resolved(cfg, args), args)
    except ParameterError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except Exception as exc:  # noqa: BLE001
        return _fail(EXIT_RUNTIME, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
