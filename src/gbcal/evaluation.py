"""Test-set evaluation: risk ratios, replicate studies, and the distance of
a pooled posterior from its non-concentrating limit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .datasets import ParameterError, SsmTruth, simulate_ssm, split_ssm_blocks
from .hypercal import (GridPosterior, SGrid, compute_estimator_set,
                       grid_posterior_from_values, prior_uniform)
from .ssm import build_ssm_phi_lattice
# kept importable here: perfbench/spans.py wraps it at this module by name
from .ssm import build_ssm_phi_posterior  # noqa: F401


@dataclass(frozen=True)
class RiskRatioReport:
    s1: float | tuple
    s2: float | tuple
    value: float                 # expected predictive ratio per test set
    mean_log_ratio: float        # expected log ratio (ELPPD difference)
    n_test_sets: int
    per_set_log_ratios: np.ndarray
    mc_se: float


def risk_ratio_product(s1, s2, scores1, scores2) -> RiskRatioReport:
    """Mean over test sets of the product of pointwise predictive ratios.

    scores1 and scores2, shape (n_test_sets, blocks), are the per-block log
    predictive densities of each test set under the posteriors refit at s1
    and s2 on the pooled training and calibration data.  All arithmetic
    stays in log space until the final per-set exponentiation; a test set
    whose log ratio is not finite is dropped with a warning.
    """
    with np.errstate(invalid="ignore"):
        log_ratios = np.sum(scores1, axis=1) - np.sum(scores2, axis=1)
    ok = np.isfinite(log_ratios)
    if not np.all(ok):
        warnings.warn(f"{int((~ok).sum())} test sets dropped (non-finite ratio)")
        log_ratios = log_ratios[ok]
    ratios = np.exp(log_ratios)
    se = float(np.std(ratios, ddof=1) / np.sqrt(len(ratios))) if len(ratios) > 1 else 0.0
    return RiskRatioReport(s1=s1, s2=s2, value=float(np.mean(ratios)),
                           mean_log_ratio=float(np.mean(log_ratios)),
                           n_test_sets=len(ratios),
                           per_set_log_ratios=log_ratios, mc_se=se)


@functools.cache
def _laguerre_rule():
    """64-node Gauss-Laguerre rule for integrals against exp(-u) on
    [0, inf): (nodes, weights)."""
    return np.polynomial.laguerre.laggauss(64)


def _ssm_exact_block_integrals(scores1, scores2) -> tuple[float, float]:
    """(log E[p1/p2], E[log p1 - log p2]) per fresh block, by quadrature,
    from the block log predictive densities of two posteriors at the anchor
    residual sums r = 2 anchor_var u, u the _laguerre_rule nodes.

    The block score of an anchor-pair predictive depends on the data only
    through the anchor residual sum of squares r, which for a fresh block
    is anchor_var times a chi-square with 2 degrees of freedom, so
    u = r / (2 anchor_var) is a standard exponential.  Both expectations
    are then integrals against exp(-u) on [0, inf), done by a 64-node
    Gauss-Laguerre rule: 32, 64 and 128 nodes agree to about 1e-13.
    """
    w = _laguerre_rule()[1]
    log_diff = scores1 - scores2
    return float(logsumexp(log_diff, b=w)), float(w @ log_diff)


def ssm_exact_block_log_ratio(post1, post2, anchor_var: float = 1.0) -> float:
    """log of the expected per-block predictive ratio for fresh anchor pairs.

    The expected ratio E[p1(block)/p2(block)] is a one-dimensional integral
    over the chi-square(2) anchor residual (see _ssm_exact_block_integrals);
    the expected product over a test set of j independent blocks is this
    expectation raised to the power j.

    This sidesteps the heavy right tail of the simulation estimator: near
    equal predictive quality the expected ratio is 1 + c with c far below
    the Monte Carlo error of any affordable number of simulated test sets.
    """
    r = 2.0 * anchor_var * _laguerre_rule()[0]
    return _ssm_exact_block_integrals(post1.scores(r), post2.scores(r))[0]


# --- state-space replicate study ------------------------------------------

@dataclass(frozen=True)
class SsmStudyConfig:
    truth: SsmTruth = SsmTruth()
    n_total_blocks: int = 60
    n_train_blocks: int = 10
    d_x: int = 6
    n_replicates: int = 100
    n_test_sets: int = 30
    test_blocks: int = 100
    eta_upper: float = 1.0
    grid_points: int = 41
    kind: str = "product"
    risk_method: str = "simulate"   # "simulate" | "exact"
    seed: int = 0

    def __post_init__(self):
        for name in ("n_replicates", "n_test_sets", "test_blocks"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if self.risk_method not in ("simulate", "exact"):
            raise ParameterError("risk_method must be 'simulate' or 'exact', "
                                 f"got {self.risk_method!r}")

    def config_hash(self) -> str:
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


@dataclass
class ReplicateStudy:
    config: SsmStudyConfig
    estimator_sets: list
    risk_reports: list  # list of dicts: name -> RiskRatioReport

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (est, reps) in enumerate(zip(self.estimator_sets,
                                                self.risk_reports)):
                rec = {"replicate": i,
                       "config_hash": self.config.config_hash(),
                       "seed": self.config.seed,
                       "estimators": est.as_dict(),
                       "risk_ratios": {k: v.value for k, v in reps.items()},
                       "mean_log_ratios": {k: v.mean_log_ratio
                                           for k, v in reps.items()}}
                fh.write(json.dumps(rec) + "\n")

    def write_summary_csv(self, path):
        """(min, q25, median, q75, max, mean) of the risk ratios per
        comparison."""
        with open(path, "w") as fh:
            fh.write("comparison,min,q25,median,q75,max,mean\n")
            for name in self.risk_reports[0]:
                vals = np.array([rep[name].value for rep in self.risk_reports])
                row = (vals.min(), *np.percentile(vals, [25, 50, 75]),
                       vals.max(), vals.mean())
                fh.write(name + "," + ",".join(f"{v:.6g}" for v in row) + "\n")


def _ssm_eta_posterior(train, calib, truth, grid: SGrid, kind: str) -> GridPosterior:
    if train.n_blocks == 0 or calib.n_blocks == 0:
        raise ParameterError("the eta lattice needs at least one training "
                             "and one calibration block")
    etas = grid.axes[0]
    log_pred = build_ssm_phi_lattice(train, truth, etas).log_predictive(calib,
                                                                        kind)
    log_prior = prior_uniform(etas[-1])(etas)
    return grid_posterior_from_values(grid, log_pred, log_prior)


def run_ssm_replicate(config: SsmStudyConfig, r: int):
    """One replicate of the state-space study; safe to run in a worker.

    A fresh block is scored only through its anchor residual sum
    r = 2 phi_A*^2 u, u a standard exponential (see
    _ssm_exact_block_integrals).  Exact risk scores the refit rows at the
    Laguerre nodes u; simulated risk at (n_test_sets, test_blocks) draws
    of u, so no test set is built.
    """
    rs = np.random.SeedSequence(config.seed, spawn_key=(r,)).generate_state(4)
    grid = SGrid.regular([(0.0, config.eta_upper)], ["eta"], config.grid_points)
    full = simulate_ssm(config.truth, config.n_total_blocks, config.d_x,
                        int(rs[0]))
    train, calib = split_ssm_blocks(full, config.n_train_blocks, int(rs[1]))
    gp = _ssm_eta_posterior(train, calib, config.truth, grid, config.kind)
    est = compute_estimator_set(gp)
    eta_hat = est.mean.eta
    # refit at eta-hat and at each reference eta on the pooled data (all
    # blocks), as the rows of one lattice; row i + 1 is refs[i]
    refs = (("mean_vs_bayes", 1.0), ("mean_vs_cut", 0.0))
    refits = build_ssm_phi_lattice(full, config.truth,
                                   [eta_hat] + [e for _, e in refs])

    if config.risk_method == "exact":
        u = _laguerre_rule()[0]

        def report(s1, s2, scores1, scores2):
            log_r, mean_log_r = _ssm_exact_block_integrals(scores1, scores2)
            j = config.test_blocks
            return RiskRatioReport(
                s1=s1, s2=s2, value=float(np.exp(j * log_r)),
                mean_log_ratio=j * mean_log_r, n_test_sets=0,
                per_set_log_ratios=np.empty(0), mc_se=0.0)
    else:
        u = np.random.default_rng(int(rs[2])).standard_exponential(
            (config.n_test_sets, config.test_blocks))
        report = risk_ratio_product
    # every row's block scores: (3, 64) exact, (3, n_sets, blocks) simulated
    scores = refits.scores(2.0 * config.truth.phi_A_star ** 2 * u)
    return est, {name: report(eta_hat, eta_ref, scores[0], scores[i])
                 for i, (name, eta_ref) in enumerate(refs, 1)}


def ssm_replicate_study(config: SsmStudyConfig, jobs: int = 1) -> ReplicateStudy:
    """Simulate, split, calibrate eta, refit on pooled data, and score
    predictive risk against the plain and fully cut updates.

    Risk ratios use the posterior mean of the chosen calibration kind as
    the data-driven estimate, compared against eta=1 (ordinary update) and
    eta=0 (anchors only).  Test sets are fresh anchor residuals drawn from
    the truth's law; with risk_method "exact" the test-set expectation is
    computed by quadrature over that law instead.
    Replicates are independently seeded, so jobs > 1 changes nothing but
    wall time.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_ssm_replicate,
                                    [config] * config.n_replicates,
                                    range(config.n_replicates)))
    else:
        results = [run_ssm_replicate(config, r)
                   for r in range(config.n_replicates)]
    est_sets = [r[0] for r in results]
    reports = [r[1] for r in results]
    return ReplicateStudy(config=config, estimator_sets=est_sets,
                          risk_reports=reports)


# --- asymptotic diagnostics -----------------------------------------------

def pooled_limit_distance(gp: GridPosterior, log_target_fn) -> float:
    """Sup distance between the normalized pooled posterior and the
    normalized limiting density exp(log_target_fn(s)); fold the s-prior into
    log_target_fn when it is not flat."""
    x, dens = gp.marginal(0)
    ref = np.asarray(log_target_fn(x), dtype=float)
    ref = np.exp(ref - np.max(ref))
    ref /= np.trapezoid(ref, x)
    return float(np.max(np.abs(dens - ref)))
