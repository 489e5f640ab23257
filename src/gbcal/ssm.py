"""State-space example: tempered posteriors for the emission scale phi.

Fitted model: every emission is N(theta_pos, phi^2) with a single unknown
phi and an InvGamma(a, b) prior on phi^2; the latent chain is the true AR(1).
Anchor latents (block endpoints) are observed, interior ones are not.  The
tempered update raises the interior-emission likelihood (or its beta-loss
analogue) to the power eta, with the interior latents as auxiliary
variables.

For the plain likelihood case the auxiliaries integrate out exactly: the
interior emissions given the anchors are Gaussian with an AR(1)-bridge
covariance inflated by phi^2/eta, leaving a one-dimensional phi^2 posterior
that we evaluate on an adaptive grid.  The beta-loss case has no closed form
and is sampled by MCMC over (log phi^2, interior latents).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .datasets import ParameterError, SsmDataset, SsmTruth
from .sampling import ar1_bridge

_LOG_2PI = np.log(2.0 * np.pi)
# log grid on which each phi^2 posterior is first located
_COARSE = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 500))
# log-spaced nodes on which each located posterior is then refined.  The
# trapezoid rule in log phi^2 converges geometrically on the window, whose
# ends sit 45 nats under the peak: at eta in [0, 2] it reaches round-off
# by 81 nodes.
_FINE = 101
# initial Metropolis proposal scale of the (eta, b) lattice chains and of the
# nested sampler's side-chain tuning run, which then freezes one per chain
_SCALE_INIT = 0.3


def _bridge_prior_mean(data: SsmDataset, w_left, w_right) -> np.ndarray:
    """Prior mean of the interior latents given each block's anchor
    latents, (n_blocks, k), from ar1_bridge's weights."""
    return (data.theta_anchor[:, :1] * w_left
            + data.theta_anchor[:, 1:] * w_right)


def _interior_residuals(data: SsmDataset, truth: SsmTruth):
    """Interior emissions minus their prior conditional mean, rotated into
    the eigenbasis of the bridge covariance.  Returns (R, D): residuals
    (n_blocks, k) and the bridge covariance eigenvalues (k,)."""
    w_left, w_right, _, V = ar1_bridge(truth, data.d_x)
    D, U = np.linalg.eigh(V)
    return (data.x_missing - _bridge_prior_mean(data, w_left, w_right)) @ U, D


def anchor_residuals(y: SsmDataset) -> np.ndarray:
    """Per-block anchor residual sum of squares, shape (n_blocks,)."""
    return np.sum((y.x_anchor - y.theta_anchor) ** 2, axis=1)


def anchor_pair_log_predictive(r, t, log_w, n_pairs: int = 1) -> np.ndarray:
    """log sum_g w_g (2 pi t_g)^-n exp(-r / (2 t_g)), reduced over the last
    axis of t.

    This is the log predictive density of n anchor pairs with residual sum
    of squares r under a mixture, with log weights log_w, of N(0, t_g I)
    emission laws; n = 1 is one block.  r broadcasts against the leading
    axes of t: r (J,) with t (G,) gives (J,), a scalar r with t (E, G)
    gives (E,), and r (J,) with t (E, 1, G) gives (E, J).  One (..., G)
    array is built and reduced in place.
    """
    out = np.asarray(r, dtype=float)[..., None] * (-0.5 / t)
    out += log_w - n_pairs * np.log(2.0 * np.pi * t)
    m = np.max(out, axis=-1, keepdims=True)
    out -= m
    np.exp(out, out=out)
    return m[..., 0] + np.log(np.sum(out, axis=-1))


def _tempered_log_marginal(data: SsmDataset, truth: SsmTruth):
    """f(t, etas): unnormalized log posterior of phi^2 at t (E, G) for the
    etas (E,) row by row, with the interior latents integrated out.  A t of
    one row (1, G) is shared by all etas, and its eta-free terms are
    computed once; with no interior emissions the result keeps t's shape.
    The data summaries, the bridge eigendecomposition among them, are
    computed once here.  Valid for the plain (likelihood) loss."""
    a, b = truth.invgamma_a, truth.invgamma_b
    const = a * np.log(b) - gammaln(a)
    nA = 2 * data.n_blocks
    SA = float(np.sum(anchor_residuals(data)))
    interior = data.d_x > 2
    if interior:
        R, D = _interior_residuals(data, truth)
        S = np.sum(R ** 2, axis=0)                       # (k,)
        nM = R.size

    def f(t, etas):
        etas = np.asarray(etas, dtype=float)[:, None]
        log_2pi_t = np.log(2.0 * np.pi * t)
        lp = (const - (a + 1.0) * np.log(t) - b / t
              - 0.5 * nA * log_2pi_t - SA / (2.0 * t))
        if interior:
            # tempering the interior emissions and reintegrating the latents
            # leaves (2 pi t)^{-(eta-1)nM/2} eta^{-nM/2} N(x_M; m, Sigma + (t/eta)I);
            # at eta = 0 they drop out and only the anchors remain
            on = etas > 0
            eta = np.where(on, etas, 1.0)
            # eigenvalue axis first, so the log-determinant adds k
            # contiguous (E, G) planes; for k < 8 that is the order of a
            # sum over a last axis too.  The quadratic form keeps BLAS's
            # order on a (E, G, k) copy.
            ridge = D[:, None, None] + t / eta
            logdet = data.n_blocks * np.sum(np.log(ridge), axis=0)
            np.reciprocal(ridge, out=ridge)
            quad = np.ascontiguousarray(np.moveaxis(ridge, 0, -1)) @ S
            lp = lp + np.where(on, (-0.5 * (eta - 1.0) * nM * log_2pi_t
                                    - 0.5 * nM * np.log(eta)
                                    - 0.5 * nM * np.log(2.0 * np.pi)
                                    - 0.5 * logdet - 0.5 * quad), 0.0)
        return lp

    return f


def ssm_log_posterior_phi2(phi2, data: SsmDataset, truth: SsmTruth,
                           eta: float):
    """Unnormalized log posterior of phi^2 with interior latents integrated
    out, vectorized over phi2.  Valid for the plain (likelihood) loss."""
    if not 0 <= eta < np.inf:
        raise ParameterError("eta must be finite and nonnegative")
    t = np.atleast_1d(np.asarray(phi2, dtype=float))
    lp = _tempered_log_marginal(data, truth)(t[None, :], [eta])[0]
    return lp if np.ndim(phi2) else float(lp[0])


@dataclass(frozen=True)
class SsmPhiPosterior:
    """Normalized phi^2 posteriors of one dataset, each on its own log grid
    of _FINE points: row i of phi2 and log_weights, shape (E, _FINE), is the
    posterior at etas[i].  A single posterior, row(i), drops the eta axis.
    This class alone scores held-out anchor pairs against them."""

    etas: np.ndarray          # (E,), or a scalar for a single posterior
    phi2: np.ndarray          # C-ordered grids, increasing along the last axis
    log_weights: np.ndarray   # log quadrature weights; each row sums to ~1

    def row(self, i: int) -> SsmPhiPosterior:
        return SsmPhiPosterior(etas=self.etas[i], phi2=self.phi2[i],
                               log_weights=self.log_weights[i])

    def scores(self, r, n_pairs: int = 1) -> np.ndarray:
        """Log predictive density of n_pairs anchor pairs with residual sum
        of squares r under each row, shape (E, *r.shape), or r.shape for a
        single posterior; a row reduces its own nodes, bitwise as alone."""
        shape = self.phi2.shape[:-1] + (1,) * np.ndim(r) + (-1,)
        return anchor_pair_log_predictive(r, self.phi2.reshape(shape),
                                          self.log_weights.reshape(shape),
                                          n_pairs)

    def block_log_predictive(self, y: SsmDataset) -> np.ndarray:
        """Per-block log predictive density of y's anchor pairs under each
        row, shape (E, J), or (J,) for a single posterior."""
        return self.scores(anchor_residuals(y))

    def log_predictive(self, y: SsmDataset, kind: str) -> np.ndarray:
        """Calibration log predictive of y under each row, shape (E,):
        "pooled" scores the joint density of all anchor pairs, "product"
        sums the per-block densities."""
        if kind == "pooled":
            r = anchor_residuals(y)
            return self.scores(np.sum(r), len(r))
        if kind != "product":
            raise ParameterError(f"kind must be pooled or product, got {kind!r}")
        return np.sum(self.block_log_predictive(y), axis=-1)


def build_ssm_phi_lattice(data: SsmDataset, truth: SsmTruth,
                          etas) -> SsmPhiPosterior:
    """Locate each eta's phi^2 posterior on a coarse log grid, then refine
    it on its own log grid of _FINE points; all etas at once."""
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    if not np.all(np.isfinite(etas) & (etas >= 0)):
        raise ParameterError("eta must be finite and nonnegative")
    log_post = _tempered_log_marginal(data, truth)
    n = len(_COARSE)
    lp = np.broadcast_to(log_post(_COARSE[None, :], etas), (len(etas), n))
    keep = lp > np.max(lp, axis=1, keepdims=True) - 45.0
    first = np.argmax(keep, axis=1)
    last = n - 1 - np.argmax(keep[:, ::-1], axis=1)
    lo = _COARSE[np.maximum(first - 1, 0)]
    hi = _COARSE[np.minimum(last + 1, n - 1)]
    # C order: each score reduces over a row's contiguous _FINE nodes
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), _FINE, axis=1),
                  order="C")
    lp = log_post(grid, etas)
    lp -= np.max(lp, axis=1, keepdims=True)
    norm = np.trapezoid(np.exp(lp), grid, axis=1)
    # np.gradient doubles the trapezoid weight at the two ends, which sit
    # 45 nats or more under the peak (unless the window reaches an end of
    # _COARSE), so each row's weights still sum to ~1
    log_w = lp - np.log(norm)[:, None] + np.log(np.gradient(grid, axis=1))
    return SsmPhiPosterior(etas=etas, phi2=grid, log_weights=log_w)


def build_ssm_phi_posterior(data: SsmDataset, truth: SsmTruth,
                            eta: float) -> SsmPhiPosterior:
    """The phi^2 posterior at one eta: a lattice of one row."""
    return build_ssm_phi_lattice(data, truth, [eta]).row(0)


def ssm_eta_b_grid_posterior(train: SsmDataset, calib: SsmDataset,
                             truth: SsmTruth, grid, n_iter: int = 30000,
                             burn_in: int = 10000, thin: int = 20,
                             seed: int = 0):
    """Lattice posterior over (eta, b) from the robust-loss update.

    One Metropolis chain per lattice point, advanced as a single batched
    sweep with per-row hyperparameters, then the per-block calibration
    predictive is averaged over the phi^2 draws and splined into a density.
    """
    from .hypercal import grid_posterior_from_values
    from .sampling import rwm_batch

    target = SsmJointTarget(train, truth)
    pts = grid.points()
    etas = pts[:, 0]
    betas = 1.0 / pts[:, 1]
    init = np.tile(target.init_state(), (len(pts), 1))
    draws, _, _ = rwm_batch(lambda st: target(st, etas, beta=betas), init,
                            n_iter=n_iter, burn_in=burn_in, thin=thin,
                            seed=seed, scale_init=_SCALE_INIT)
    phi2 = np.exp(draws[:, :, 0])                                # (P, T)
    r = anchor_residuals(calib)
    log_w = -np.log(phi2.shape[1])
    # per lattice point to keep the (J, T) predictive matrix small
    log_pred = np.array([np.sum(anchor_pair_log_predictive(r, t, log_w))
                         for t in phi2])
    return grid_posterior_from_values(grid, log_pred, np.zeros(len(pts)))


def ssm_eta_b_nested_draws(train: SsmDataset, calib: SsmDataset,
                           truth: SsmTruth, bounds, n_outer: int = 4000,
                           inner_len: int = 200, seed: int = 0):
    """(eta, b) draws from the nested sampler matching the lattice target.

    The side chains (one per calibration block) live on the training
    posterior at the proposed hyperparameters and are refreshed by inner_len
    batched Metropolis steps per outer proposal.  Their kernel is fixed:
    before the outer loop one adaptive run of 10 inner_len steps at the
    centre of the bounds, where the outer chain starts, tunes a proposal
    scale per side chain and supplies their starting states (Andrieu &
    Thoms 2008); every refresh then uses those scales unchanged.  Returns
    (draws (n_kept, 2), accept_rate).
    """
    from .hypercal import nested_mcmc
    from .sampling import rwm_batch

    if inner_len < 1:
        raise ParameterError(f"inner_len must be >= 1, got {inner_len}")
    target = SsmJointTarget(train, truth)
    r = anchor_residuals(calib)

    def side_chains(s, phis, n_iter, burn_in, seed, scale):
        # keep only the final state: one draw, thinned by the frozen steps
        eta, beta = float(s[0]), 1.0 / float(s[1])
        draws, _, scale = rwm_batch(lambda st: target(st, eta, beta=beta),
                                    phis, n_iter=n_iter, burn_in=burn_in,
                                    thin=n_iter - burn_in, seed=seed,
                                    scale_init=scale)
        return draws[:, 0, :], scale

    # tuning run on its own stream: burn_in adaptive steps, then one step
    # under the frozen scale whose state starts the side chains
    n_tune = 10 * inner_len
    phi0, scale = side_chains(np.mean(np.asarray(bounds, dtype=float), axis=1),
                              np.tile(target.init_state(), (calib.n_blocks, 1)),
                              n_tune + 1, n_tune, [seed, 1], _SCALE_INIT)

    def inner_refresh(s, phis, sd):
        return side_chains(s, phis, inner_len, 0, sd, scale)[0]

    def log_calib(phis):
        # each block under its own side-chain draw: a mixture of one
        return float(np.sum(anchor_pair_log_predictive(r, np.exp(phis[:, :1]),
                                                       0.0)))

    return nested_mcmc(bounds, phi0, inner_refresh, log_calib,
                       n_outer=n_outer, seed=seed)


class SsmJointTarget:
    """Batched log density over states [log phi^2, interior latents].

    eta (and, for the beta-loss variant, beta) may differ per batch row,
    which lets a whole hyperparameter lattice advance as one vectorized
    Metropolis sweep.  The beta-loss data term uses an expm1 form that is
    smooth through beta = 1, where it reduces to the log score (the shift is
    constant in the parameters, so the posterior is unaffected).  It is
    evaluated in one pass from log phi^2, turning the squared residuals into
    (beta-1) log p in place.
    """

    def __init__(self, data: SsmDataset, truth: SsmTruth):
        self.k = data.d_x - 2
        if self.k < 1:
            raise ParameterError("need interior positions for the joint target")
        w_left, w_right, self.Q, _ = ar1_bridge(truth, data.d_x)
        self.prior_mean = _bridge_prior_mean(data, w_left, w_right).ravel()
        self.x_M = data.x_missing.ravel()
        self.SA = float(np.sum((data.x_anchor - data.theta_anchor) ** 2))
        self.nA = 2 * data.n_blocks
        self.nM = data.n_blocks * self.k
        a, b = truth.invgamma_a, truth.invgamma_b
        # phi^2 prior, log-scale Jacobian and anchor emissions, written as
        # const - c_logt * log t - c_inv2t / (2t)
        self._const = a * np.log(b) - gammaln(a) - 0.5 * self.nA * _LOG_2PI
        self._c_logt = a + 0.5 * self.nA
        self._c_inv2t = 2.0 * b + self.SA

    def init_state(self) -> np.ndarray:
        return np.concatenate([[0.0], self.prior_mean])

    def __call__(self, states: np.ndarray, eta, beta=None) -> np.ndarray:
        if not (isinstance(states, np.ndarray) and states.ndim == 2):
            states = np.atleast_2d(np.asarray(states, dtype=float))
        B = states.shape[0]
        if not isinstance(eta, (float, np.ndarray)):
            eta = np.asarray(eta, dtype=float)
        logt = states[:, 0]
        inv2t = np.exp(-logt)
        inv2t *= 0.5
        th = states[:, 1:]
        lp = logt * -self._c_logt
        lp += self._const
        lp -= self._c_inv2t * inv2t
        # AR(1) bridge prior on the latents
        res = th - self.prior_mean
        rq = res.reshape(B, -1, self.k) @ self.Q
        quad = np.vecdot(rq.reshape(B, -1), res)
        quad *= 0.5
        lp -= quad
        # tempered interior-emission term
        d2 = np.subtract(self.x_M, th, out=res)
        d2 *= d2
        l2pt = logt + _LOG_2PI
        # log p_i = -l2pt/2 - d2_i/(2t); the log score is -sum_i log p_i
        if beta is None:
            data_term = d2.sum(axis=1)
            data_term *= inv2t
            data_term += 0.5 * self.nM * l2pt
            data_term *= eta
            lp -= data_term
            return lp
        # beta loss: -sum_i expm1((beta-1) log p_i)/(beta-1) plus the power
        # integral nM beta^-1.5 (2 pi t)^((1-beta)/2); at beta = 1 the data
        # term is the log score.  d2 becomes (beta-1) log p_i in place.
        if isinstance(beta, (int, float)):
            bm1 = float(beta) - 1.0
            near_one = any_near = abs(bm1) < 1e-10
        else:
            bm1 = np.asarray(beta, dtype=float) - 1.0
            near_one = np.abs(bm1) < 1e-10
            any_near = near_one.any()
        if any_near:
            log_score = 0.5 * self.nM * l2pt + d2.sum(axis=1) * inv2t
        bm1_c = (-0.5 * bm1) * l2pt          # (beta-1) times log p's constant
        with np.errstate(over="ignore"):
            d2 *= (-bm1 * inv2t)[:, None]
            d2 += bm1_c[:, None]
            np.expm1(d2, out=d2)
            integral = self.nM * (bm1 + 1.0) ** -1.5 * np.exp(bm1_c)
        data_term = d2.sum(axis=1)
        if any_near:
            data_term /= np.where(near_one, -1.0, -bm1)
            data_term = np.where(near_one, log_score, data_term)
        else:
            data_term /= -bm1
        data_term += integral
        data_term *= eta
        lp -= data_term
        return lp
