"""Exact posteriors for the two-module normal example.

Module 1: x1 ~ N(phi, sigma1^2), flat prior on phi.
Module 2: x2 ~ N(phi + theta, sigma2^2), theta ~ N(0, s_theta^2).

Because everything is Gaussian, every semi-modular posterior for phi is
normal with parameters in closed form, and so are the calibration losses,
so the lattice posterior of the module-2 weight needs no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .. import hypercal
from ..datasets import ModularDataset, ParameterError
from .quadrature import laplace_marginal


@dataclass(frozen=True)
class MixtureStats:
    """Sufficient statistics of the two data modules; the fitted model's
    variances are constants."""

    n1: int
    n2: int
    sum_x1: float
    sum_x2: float
    sigma1_sq: ClassVar[float] = 16.0
    sigma2_sq: ClassVar[float] = 1.0
    s_theta_sq: ClassVar[float] = 0.33 ** 2

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise ParameterError("sample sizes must be nonnegative")

    @classmethod
    def from_data(cls, data: ModularDataset) -> "MixtureStats":
        return cls(n1=data.x1.n, n2=data.x2.n,
                   sum_x1=float(np.sum(data.x1.points)),
                   sum_x2=float(np.sum(data.x2.points)))


def _check_proper(stats: MixtureStats, weight2: float):
    if stats.n1 == 0 and weight2 <= 0:
        raise ParameterError("posterior improper: no module-1 data and zero "
                             "module-2 weight under a flat phi prior")


def _smi_posterior(stats: MixtureStats, weight: np.ndarray, theta_weight):
    """Gaussian phi-posterior (mean, variance) when module 2 adds
    weight * n2 / denom2 to the phi precision, where denom2 = sigma2_sq +
    n2 * theta_weight * s_theta_sq: theta_weight is 1 for gamma (a weighted
    marginal) and the weight itself for eta (a tempered joint likelihood)."""
    _check_proper(stats, float(np.min(weight)) * stats.n2)
    denom2 = stats.sigma2_sq + stats.n2 * theta_weight * stats.s_theta_sq
    prec = weight * stats.n2 / denom2 + stats.n1 / stats.sigma1_sq
    var = 1.0 / prec
    mean = var * (weight * stats.sum_x2 / denom2 + stats.sum_x1 / stats.sigma1_sq)
    if mean.ndim == 0:
        return float(mean), float(var)
    return mean, var


def mixture_gamma_smi(stats: MixtureStats, gamma):
    """Gaussian phi-posterior (mean, variance) when module 2 enters through
    its theta-marginal likelihood raised to weight gamma.

    Vectorized over gamma.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all((gamma >= 0) & (gamma <= 1)):       # NaN fails too
        raise ParameterError("gamma must lie in [0,1]")
    return _smi_posterior(stats, gamma, 1.0)


def mixture_eta_smi(stats: MixtureStats, eta):
    """Gaussian phi-posterior (mean, variance) when the module-2 likelihood
    (joint in the auxiliary theta') is tempered by eta.  Vectorized over eta.
    """
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta) & (eta >= 0)):
        raise ParameterError("eta must be finite and nonnegative")
    return _smi_posterior(stats, eta, eta)


def _pooled_loss_from_posterior(mu_phi, var_phi, sigma1_sq, y1):
    """Negative log joint predictive of y1 under phi ~ N(mu_phi, var_phi).

    The joint predictive is N(mu_phi * 1, var_phi * 11' + sigma1_sq * I);
    the rank-one structure reduces it to sample-mean and scatter terms.
    Broadcasts over arrays of posterior moments; a float for scalars.
    """
    y1 = np.asarray(y1, dtype=float)
    J = len(y1)
    ybar = float(np.mean(y1))
    scatter = float(np.sum((y1 - ybar) ** 2))
    total = J * var_phi + sigma1_sq
    out = (J / 2.0 * np.log(2.0 * np.pi * sigma1_sq)
           - 0.5 * np.log(sigma1_sq / total)
           + scatter / (2.0 * sigma1_sq)
           + J * (ybar - mu_phi) ** 2 / (2.0 * total))
    return out if np.ndim(out) else float(out)


def mixture_pooled_loss_gamma(stats: MixtureStats, y1, gamma):
    mu, var = mixture_gamma_smi(stats, gamma)
    return _pooled_loss_from_posterior(mu, var, stats.sigma1_sq, y1)


def mixture_pooled_loss_eta(stats: MixtureStats, y1, eta):
    mu, var = mixture_eta_smi(stats, eta)
    return _pooled_loss_from_posterior(mu, var, stats.sigma1_sq, y1)


def _product_loss_from_posterior(mu_phi, var_phi, sigma1_sq, y1):
    """Negative sum of pointwise log predictives, each N(mu_phi, var_phi+sigma1_sq).

    Broadcasts over arrays of posterior moments, one row of y1 residuals
    per posterior; a float for scalars."""
    y1 = np.asarray(y1, dtype=float)
    v = var_phi + sigma1_sq
    sq = np.sum((y1 - np.asarray(mu_phi)[..., None]) ** 2, axis=-1)
    out = len(y1) / 2.0 * np.log(2.0 * np.pi * v) + sq / (2.0 * v)
    return out if np.ndim(out) else float(out)


def mixture_product_loss_gamma(stats: MixtureStats, y1, gamma):
    mu, var = mixture_gamma_smi(stats, gamma)
    return _product_loss_from_posterior(mu, var, stats.sigma1_sq, y1)


def mixture_product_loss_eta(stats: MixtureStats, y1, eta):
    mu, var = mixture_eta_smi(stats, eta)
    return _product_loss_from_posterior(mu, var, stats.sigma1_sq, y1)


def mixture_grid_posterior(kind: str, stats: MixtureStats, y1,
                           grid) -> hypercal.GridPosterior:
    """Lattice posterior of the module-2 weight from calibration data y1.

    The axis name of the 1-d grid picks the family: "gamma" (the weight on
    the module-2 marginal) or "eta" (the tempering of the module-2
    likelihood).  kind is "product" or "pooled"; the prior is uniform on
    the grid range.  One loss call scores the whole grid.
    """
    losses = {("gamma", "product"): mixture_product_loss_gamma,
              ("gamma", "pooled"): mixture_pooled_loss_gamma,
              ("eta", "product"): mixture_product_loss_eta,
              ("eta", "pooled"): mixture_pooled_loss_eta}
    loss = losses.get((grid.names[0], kind))
    if loss is None:
        raise ParameterError(f"no mixture loss for family {grid.names[0]!r} "
                             f"and kind {kind!r}")
    if len(y1) == 0:
        raise ParameterError("no calibration data")
    s = grid.axes[0]
    log_pred = -loss(stats, y1, s)
    return hypercal.grid_posterior_from_values(
        grid, log_pred, hypercal.prior_uniform(s[-1])(s))


def mixture_optimal_gamma(kind: str, stats: MixtureStats) -> float:
    """Large-J optimal gamma under a well-specified module 1 centred at 0.

    kind "pooled_limit" minimizes the negative log posterior density at the
    true phi; "product_limit" minimizes the dominant quadratic term of the
    expected pointwise loss (the slowly varying log-variance term is dropped,
    it is negligible because var_phi << sigma1_sq here).
    """
    if kind == "pooled_limit":
        def obj(g):
            mu, var = mixture_gamma_smi(stats, g)
            return np.log(var) + mu ** 2 / var
    elif kind == "product_limit":
        def obj(g):
            mu, var = mixture_gamma_smi(stats, g)
            return (stats.sigma1_sq + mu ** 2) / (2.0 * (var + stats.sigma1_sq))
    else:
        raise ParameterError(f"unknown kind {kind!r}")
    g = hypercal.golden_max(lambda x: -obj(x), 0.0, 1.0)
    # the search never lands exactly on an endpoint; snap when flat
    best = obj(g)
    for edge in (0.0, 1.0):
        if obj(edge) <= best:
            g = edge
    return g


def mixture_module2_log_marginal(x2, phi: float) -> tuple[float, float]:
    """(exact, laplace) log marginal of the suspect module at a given phi.

    x2 | phi, theta ~ N(phi + theta, sigma2_sq) with theta ~ N(0,
    s_theta_sq), the variances of MixtureStats; the exact marginal is
    multivariate normal with a rank-one covariance bump.
    """
    s2, st2 = MixtureStats.sigma2_sq, MixtureStats.s_theta_sq
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
    log_prior = -0.5 * np.log(2 * np.pi * st2) - mode ** 2 / (2 * st2)
    lap = laplace_marginal(r, mode, 1.0 / s2, n2, float(log_prior))
    return float(exact), float(lap)
