"""MCMC machinery: adaptive random-walk Metropolis (one batched chain loop,
adaptive then frozen, one accept and one Robbins-Monro scale move, both
shared with the nested sampler), an effective-sample-size estimate, and the
AR(1) bridge that conditions a block's interior latents on its anchors.
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import ParameterError, SsmTruth


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


def metropolis_accept(log_alpha, log_u):
    """Metropolis decisions, one per entry: accept where the log uniform
    log_u falls below log_alpha capped at 0.  An array log_alpha is capped
    in place; a NaN raises ParameterError.  Returns (accepted, capped
    log_alpha).  The one accept of rwm_batch and nested_mcmc.
    """
    out = log_alpha if isinstance(log_alpha, np.ndarray) else None
    log_alpha = np.minimum(log_alpha, 0.0, out=out)
    # capped at 0, log alpha is NaN-free exactly when its sum is
    if math.isnan(log_alpha.sum()):
        raise ParameterError("log target or calibration score returned NaN")
    return log_u < log_alpha, log_alpha


def adapt_log_scale(log_s, log_alpha, t: int, target: float):
    """The Robbins-Monro move of a log proposal scale after step t, with
    log_alpha capped at 0: log_s + (alpha - target) (t+1)^-0.6 (Andrieu &
    Thoms 2008).  The one adaptation of rwm_batch and nested_mcmc."""
    return log_s + (np.exp(log_alpha) - target) * (t + 1.0) ** -0.6


# frozen-phase steps whose proposal noise and uniforms are drawn in one call
# each: enough to amortise the call, few enough that an 81-chain,
# 41-dimensional lattice's block (0.4 MB) does not raise peak memory
_CHUNK = 16


def rwm_batch(log_target_batch, init: np.ndarray, n_iter: int, burn_in: int,
              thin: int, seed: int, scale_init=1.0):
    """Many independent Metropolis chains advanced in lockstep.

    log_target_batch maps a (B, d) state matrix to B log densities; each row
    has its own proposal scale, starting at scale_init (a scalar or one per
    chain) and adapted during burn-in towards acceptance 0.44 in 1-d and
    0.234 otherwise, then frozen.  The proposal noise and the uniforms are
    drawn in blocks, normals first: one step per block while the scale
    adapts, _CHUNK steps once it is frozen.  Used for per-lattice-point
    chains and the nested sampler's side chains; a single chain is a batch
    of one.  The state after every thin-th step past burn-in is kept.
    Returns (draws (B, n_keep, d), accept_rate (B,), scale (B,)), the last
    being the frozen scale; with burn_in = 0 it is scale_init.
    """
    init = np.asarray(init, dtype=float)
    B, d = init.shape
    target = 0.44 if d == 1 else 0.234
    rng = np.random.default_rng(seed)
    cur = init.copy()
    cur_lp = np.asarray(log_target_batch(cur), dtype=float)
    if not np.all(np.isfinite(cur_lp)):
        raise ParameterError("log_target not finite at some initial state")
    scale = np.full(B, scale_init, dtype=float)
    log_s = np.log(scale)
    n_keep = (n_iter - burn_in) // thin
    draws = np.empty((B, n_keep, d))
    n_acc = np.zeros(B)
    prop = np.empty_like(cur)
    for t in range(n_iter):
        f = t - burn_in
        j = max(f, 0) % _CHUNK
        if j == 0:           # one step while adapting, _CHUNK once frozen
            m = 1 if f < 0 else min(_CHUNK, n_iter - t)
            noise = rng.standard_normal((m, B, d))
            noise *= (np.exp(log_s) if f < 0 else scale)[:, None]
            log_u = np.log(rng.random((m, B)))
        np.add(cur, noise[j], out=prop)
        prop_lp = np.asarray(log_target_batch(prop), dtype=float)
        acc, log_alpha = metropolis_accept(prop_lp - cur_lp, log_u[j])
        if f < 0:
            log_s = adapt_log_scale(log_s, log_alpha, t, target)
            if f == -1:              # the scale's last move: freeze it
                scale = np.exp(log_s)
        np.copyto(cur, prop, where=acc[:, None])
        np.copyto(cur_lp, prop_lp, where=acc)
        n_acc += acc
        if f >= 0 and (f + 1) % thin == 0:
            draws[:, f // thin] = cur
    return draws, n_acc / n_iter, scale


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
