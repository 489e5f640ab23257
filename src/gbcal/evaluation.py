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
    s1: float
    s2: float
    value: float                 # expected predictive ratio per test set
    mean_log_ratio: float        # expected log ratio (ELPPD difference)
    per_set_log_ratios: np.ndarray   # finite ones; empty under exact risk

    @property
    def n_test_sets(self) -> int:
        return len(self.per_set_log_ratios)

    @property
    def mc_se(self) -> float:    # of value; 0.0 below two test sets
        n = self.n_test_sets
        return float(np.std(np.exp(self.per_set_log_ratios), ddof=1)
                     / np.sqrt(n)) if n > 1 else 0.0


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
    return RiskRatioReport(s1=s1, s2=s2,
                           value=float(np.mean(np.exp(log_ratios))),
                           mean_log_ratio=float(np.mean(log_ratios)),
                           per_set_log_ratios=log_ratios)


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
    """log E[p1/p2] per fresh block of anchor variance anchor_var (see
    _ssm_exact_block_integrals)."""
    r = 2.0 * anchor_var * _laguerre_rule()[0]
    return _ssm_exact_block_integrals(post1.scores(r), post2.scores(r))[0]


def fresh_block_reports(full, truth: SsmTruth, etas, comparisons: dict,
                        test_blocks: int, u) -> dict:
    """RiskRatioReport of each named pair (i, j) of comparisons: the
    posteriors refit on full at etas[i] and etas[j], as rows of one lattice,
    scored in one call at r = 2 phi_A*^2 u over test sets of test_blocks
    fresh blocks.  u holds (n_test_sets, test_blocks) standard exponential
    draws, or is None for exact risk: u the Laguerre nodes (see
    _ssm_exact_block_integrals), and a set's expected ratio that of a block
    to the power test_blocks.  This sidesteps the heavy right tail of the
    simulated ratio, whose Monte Carlo error near equal predictive quality
    is far above the expected ratio's distance from 1."""
    exact = u is None
    scores = build_ssm_phi_lattice(full, truth, etas).scores(
        2.0 * truth.phi_A_star ** 2 * (_laguerre_rule()[0] if exact else u))
    reports = {}
    for name, (i, j) in comparisons.items():
        if exact:
            log_r, mean_log_r = _ssm_exact_block_integrals(scores[i], scores[j])
            reports[name] = RiskRatioReport(
                etas[i], etas[j], float(np.exp(test_blocks * log_r)),
                test_blocks * mean_log_r, np.empty(0))
        else:
            reports[name] = risk_ratio_product(etas[i], etas[j], scores[i],
                                               scores[j])
    return reports


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
    Simulated risk draws its u from the replicate's third seed."""
    rs = np.random.SeedSequence(config.seed, spawn_key=(r,)).generate_state(4)
    grid = SGrid.regular([(0.0, config.eta_upper)], ["eta"], config.grid_points)
    full = simulate_ssm(config.truth, config.n_total_blocks, config.d_x,
                        int(rs[0]))
    train, calib = split_ssm_blocks(full, config.n_train_blocks, int(rs[1]))
    gp = _ssm_eta_posterior(train, calib, config.truth, grid, config.kind)
    est = compute_estimator_set(gp)
    u = None if config.risk_method == "exact" else np.random.default_rng(
        int(rs[2])).standard_exponential((config.n_test_sets,
                                          config.test_blocks))
    return est, fresh_block_reports(
        full, config.truth, [est.mean.eta, 1.0, 0.0],
        {"mean_vs_bayes": (0, 1), "mean_vs_cut": (0, 2)}, config.test_blocks,
        u)


def ssm_replicate_study(config: SsmStudyConfig, jobs: int = 1) -> ReplicateStudy:
    """Simulate, split, calibrate eta, refit on pooled data, and score
    predictive risk against the plain and fully cut updates.

    Risk ratios use the posterior mean of the chosen calibration kind as
    the data-driven estimate, compared against eta=1 (ordinary update) and
    eta=0 (anchors only), over fresh blocks (see fresh_block_reports).
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
