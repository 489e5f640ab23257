"""MCMC machinery: adaptive random-walk Metropolis (one batched chain loop
and one accept-and-adapt step), an effective-sample-size estimate, and the
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
              thin: int, seed: int, scale_init: float = 1.0):
    """Many independent Metropolis chains advanced in lockstep.

    log_target_batch maps a (B, d) state matrix to B log densities; each row
    has its own scale, adapted during burn-in towards acceptance 0.44 in
    1-d and 0.234 otherwise, then frozen.  Used for per-lattice-point chains
    and the nested sampler's inner refreshes; a single chain is a batch of
    one.  Returns (draws (B, n_keep, d), accept_rate (B,)).
    """
    init = np.asarray(init, dtype=float)
    B, d = init.shape
    target = 0.44 if d == 1 else 0.234
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
