"""Deterministic marginalization: Laplace approximation and adaptive
Gauss-Hermite quadrature.

Both operate in log space.  The Laplace approximation is the one-node
special case of the adaptive rule, which recentres and rescales the Hermite
nodes at the integrand's mode and curvature.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from ..datasets import ParameterError


def _chol_or_raise(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvalsh(mat)
        raise ParameterError(
            f"matrix is not positive definite (eigenvalues {eig})")


def laplace_marginal(neg_log_joint, theta_mode, hessian, n_obs: int,
                     log_prior_at_mode: float) -> float:
    """Log of the Laplace approximation to int pi(theta) exp(-n r(theta)) dtheta.

    neg_log_joint is the per-observation average loss r(theta); hessian is
    its second derivative matrix at the supplied mode.  Relative error decays
    like 1/n_obs.
    """
    mode = np.atleast_1d(np.asarray(theta_mode, dtype=float))
    H = np.atleast_2d(np.asarray(hessian, dtype=float))
    d = len(mode)
    L = _chol_or_raise(H)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    r = float(neg_log_joint(mode if d > 1 else mode[0]))
    return float(log_prior_at_mode + 0.5 * d * np.log(2.0 * np.pi)
                 - n_obs * r - 0.5 * d * np.log(n_obs) - 0.5 * logdet)


def aghq_marginal(log_integrand, dim: int, k_points: int = 5,
                  mode=None, hessian=None) -> float:
    """Log of int exp(log_integrand(theta)) dtheta by adaptive Gauss-Hermite.

    When mode/hessian are omitted they are found by numerical optimization
    (hessian = negative log-integrand curvature at the mode).  Exact for
    Gaussian integrands at any k; k=1 reproduces the Laplace approximation.
    """
    if k_points < 1:
        raise ParameterError("k_points must be >= 1")
    if mode is None or hessian is None:
        from scipy.optimize import minimize
        x0 = np.zeros(dim) if mode is None else np.atleast_1d(mode)
        res = minimize(lambda t: -log_integrand(t if dim > 1 else t[0]),
                       x0, method="BFGS")
        if not res.success and not np.isfinite(res.fun):
            raise ParameterError(f"mode search failed: {res.message}")
        mode = res.x
        if hessian is None:
            hessian = _numeric_hessian(
                lambda t: -log_integrand(t if dim > 1 else t[0]), res.x)
    mode = np.atleast_1d(np.asarray(mode, dtype=float))
    H = np.atleast_2d(np.asarray(hessian, dtype=float))
    Lh = _chol_or_raise(H)
    # A = H^{-1/2} so that theta = mode + sqrt(2) A z maps the Hermite weight
    A = np.linalg.inv(Lh.T)
    logdetA = -np.sum(np.log(np.diag(Lh)))
    nodes, weights = np.polynomial.hermite.hermgauss(k_points)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=1)            # (k^d, d)
    wgrids = np.meshgrid(*([weights] * dim), indexing="ij")
    logw = np.sum([np.log(w.ravel()) for w in wgrids], axis=0)  # (k^d,)
    theta = mode + np.sqrt(2.0) * z @ A.T
    logf = np.array([log_integrand(t if dim > 1 else t[0]) for t in theta])
    return float(0.5 * dim * np.log(2.0) + logdetA
                 + logsumexp(logf + logw + np.sum(z * z, axis=1)))


def _numeric_hessian(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    d = len(x)
    H = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros(d); ei[i] = h
            ej = np.zeros(d); ej[j] = h
            H[i, j] = H[j, i] = (f(x + ei + ej) - f(x + ei - ej)
                                 - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
    return H
