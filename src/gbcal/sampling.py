"""MCMC machinery: adaptive random-walk Metropolis (one batched chain loop
and one accept-and-adapt step), two-stage semi-modular sampling, and exact
Gaussian conditionals for the state-space missing latents.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .datasets import ParameterError, SsmTruth


@dataclass(frozen=True)
class ChainConfig:
    n_iter: int = 10000
    burn_in: int = 2000
    thin: int = 10
    target_accept: float | None = None  # default 0.44 in 1-d, 0.234 otherwise
    init: np.ndarray | float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.burn_in < self.n_iter:
            raise ParameterError("burn_in must be smaller than n_iter")
        if self.thin < 1:
            raise ParameterError("thin must be >= 1")
        if self.target_accept is not None and not 0 < self.target_accept < 1:
            raise ParameterError("target_accept must be in (0,1)")


@dataclass(frozen=True)
class Chain:
    draws: np.ndarray             # (n_draws, d)
    accept_rate: float
    log_density_trace: np.ndarray
    seed: int
    ess_estimate: np.ndarray      # per coordinate

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def dump_csv(self, path):
        d = self.draws.shape[1]
        header = "iter," + ",".join(f"coord_{k}" for k in range(d)) + ",log_density"
        body = np.column_stack([np.arange(self.n_draws), self.draws,
                                self.log_density_trace])
        np.savetxt(path, body, delimiter=",", header=header, comments="")


def ess_initial_positive(x: np.ndarray) -> float:
    """Effective sample size by the initial-positive-sequence rule on
    autocovariance pair sums."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    if m < 4 or np.var(x) == 0:
        return float(m)
    xc = x - x.mean()
    nfft = int(2 ** np.ceil(np.log2(2 * m)))
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:m].real / m
    rho = acov / acov[0]
    tau = -1.0
    for k in range(0, m - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
    tau = max(tau, 1.0)
    return float(min(m, m / tau))


def adaptive_rwm(log_target, config: ChainConfig) -> Chain:
    """Random-walk Metropolis on one chain: rwm_batch with a batch of one.

    log_target takes a scalar in 1-d and a vector otherwise.  The proposal
    scale adapts during burn-in and is frozen after it, so the retained
    draws come from a fixed Markov kernel.
    """
    init = np.atleast_1d(np.asarray(config.init, dtype=float))
    d = len(init)
    one = log_target if d > 1 else (lambda x: log_target(x[0]))
    draws, acc = rwm_batch(lambda st: [one(st[0])], init[None, :],
                           config.n_iter, config.burn_in, config.thin,
                           config.seed, config.target_accept)
    draws = draws[0]
    lp_trace = np.array([float(one(x)) for x in draws])
    ess = np.array([ess_initial_positive(draws[:, j]) for j in range(d)])
    return Chain(draws=draws, accept_rate=float(acc[0]),
                 log_density_trace=lp_trace, seed=config.seed,
                 ess_estimate=ess)


def metropolis_accept(log_alpha, log_s, t: int, burn_in: int, target: float,
                      rng):
    """Accept where a uniform falls below alpha = min(1, exp(log_alpha)),
    one per entry; during burn-in move the log proposal scale log_s by
    (t+1)^-0.6 (alpha - target), the Robbins-Monro rule of Andrieu & Thoms
    (2008).  Shared by every Metropolis loop here.  An array log_alpha is
    overwritten and an array log_s is updated in place.  Returns
    (accepted, log_s).
    """
    if isinstance(log_alpha, np.ndarray):
        alpha = np.minimum(log_alpha, 0.0, out=log_alpha)
        np.exp(alpha, out=alpha)
    else:
        alpha = np.exp(np.minimum(0.0, log_alpha))
    # alpha lies in [0, 1] unless log_alpha held a NaN
    if math.isnan(alpha.sum()):
        raise ParameterError("log target or calibration score returned NaN")
    accepted = rng.random(np.shape(alpha)) < alpha
    if t < burn_in:
        alpha -= target
        alpha *= (t + 1.0) ** -0.6
        log_s += alpha
    return accepted, log_s


def rwm_batch(log_target_batch, init: np.ndarray, n_iter: int, burn_in: int,
              thin: int, seed: int, target_accept: float | None = None,
              scale_init: float = 1.0):
    """Many independent Metropolis chains advanced in lockstep.

    log_target_batch maps a (B, d) state matrix to B log densities; each row
    has its own adapted scale.  Used for per-lattice-point chains and for the
    inner refreshes of the nested sampler, where the chains share structure
    and vectorize well.  Returns (draws (B, n_keep, d), accept_rate (B,)).
    """
    init = np.asarray(init, dtype=float)
    B, d = init.shape
    target = target_accept or (0.44 if d == 1 else 0.234)
    rng = np.random.default_rng(seed)
    cur = init.copy()
    cur_lp = np.asarray(log_target_batch(cur), dtype=float)
    if not np.all(np.isfinite(cur_lp)):
        raise ParameterError("log_target not finite at some initial state")
    log_s = np.full(B, np.log(scale_init))
    n_keep = (n_iter - burn_in) // thin
    draws = np.empty((B, n_keep, d))
    n_acc = np.zeros(B)
    kept = 0
    for t in range(n_iter):
        if t <= burn_in:            # the scale last moves at t = burn_in - 1
            scale = np.exp(log_s)[:, None]
        prop = rng.standard_normal((B, d))
        prop *= scale
        prop += cur
        prop_lp = np.asarray(log_target_batch(prop), dtype=float)
        acc, log_s = metropolis_accept(prop_lp - cur_lp, log_s, t, burn_in,
                                       target, rng)
        np.copyto(cur, prop, where=acc[:, None])
        np.copyto(cur_lp, prop_lp, where=acc)
        n_acc += acc
        if t >= burn_in and (t - burn_in) % thin == 0 and kept < n_keep:
            draws[:, kept] = cur
            kept += 1
    return draws, n_acc / n_iter


def smi_two_stage_sample(smi_log_target, cond_theta, config: ChainConfig):
    """Sample (phi, theta', theta) for a semi-modular posterior.

    Stage 1 runs a Metropolis chain on the joint (phi, theta') Gibbs target;
    stage 2 draws theta from the exact conditional posterior given phi (the
    untempered module-2 update), one per retained draw.  The conditional
    never depends on the tempering, only on (x2, phi).
    """
    chain = adaptive_rwm(smi_log_target, config)
    rng = np.random.default_rng(config.seed + 10 ** 9)
    thetas = []
    keep = np.ones(chain.n_draws, dtype=bool)
    for i, row in enumerate(chain.draws):
        try:
            thetas.append(cond_theta(row[0], rng))
        except Exception:
            keep[i] = False
    if not np.all(keep):
        warnings.warn(f"{int((~keep).sum())} conditional draws failed and were dropped")
    theta = np.asarray(thetas)
    return chain.draws[keep], theta, chain


def ar1_bridge(truth: SsmTruth, d_x: int):
    """Conditional law of the interior chain positions of one block given its
    two endpoints.

    Returns (w_left, w_right, Q, V): mean = w_left*theta_left +
    w_right*theta_right, precision Q (tridiagonal, dense storage), covariance
    V = Q^{-1}, all for the k = d_x - 2 interior positions.
    """
    k = d_x - 2
    if k < 1:
        raise ParameterError("block has no interior positions")
    nu, s2 = truth.nu, truth.sigma_ar ** 2
    Q = np.zeros((k, k))
    idx = np.arange(k)
    Q[idx, idx] = (1.0 + nu ** 2) / s2
    Q[idx[:-1], idx[:-1] + 1] = -nu / s2
    Q[idx[:-1] + 1, idx[:-1]] = -nu / s2
    # linear terms: first interior sees nu*theta_left, the endpoint factor
    # N(theta_right; nu*theta_last_interior, s2) feeds nu*theta_right
    e_left = np.zeros(k); e_left[0] = nu / s2
    e_right = np.zeros(k); e_right[-1] = nu / s2
    V = np.linalg.inv(Q)
    w_left = V @ e_left
    w_right = V @ e_right
    return w_left, w_right, Q, V


def ssm_conditional_theta(x_M: np.ndarray, theta_anchor: np.ndarray, phi: float,
                          truth: SsmTruth, seed: int) -> np.ndarray:
    """Exact draw of the missing latents given anchors and interior emissions.

    x_M: (n_blocks, d_x-2) interior emissions; theta_anchor: (n_blocks, 2).
    The posterior is Gaussian per block with precision Q + I/phi^2.
    """
    x_M = np.atleast_2d(np.asarray(x_M, dtype=float))
    theta_anchor = np.atleast_2d(np.asarray(theta_anchor, dtype=float))
    n_blocks, k = x_M.shape
    w_left, w_right, Q, _ = ar1_bridge(truth, k + 2)
    prior_mean = (theta_anchor[:, :1] * w_left + theta_anchor[:, 1:] * w_right)
    P = Q + np.eye(k) / phi ** 2
    L = np.linalg.cholesky(P)
    rhs = (prior_mean @ Q.T) + x_M / phi ** 2
    mean = np.linalg.solve(P, rhs.T).T
    z = np.random.default_rng(seed).standard_normal((n_blocks, k))
    noise = np.linalg.solve(L.T, z.T).T
    return mean + noise
