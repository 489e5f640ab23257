"""Closed forms for the conjugate normal model under a tempered likelihood.

Model: observations iid N(theta, sigma^2) with a flat prior on theta and an
InvGamma(a, b) prior on sigma^2.  Raising the likelihood to a power eta is
equivalent to replacing the sample size n by r = n*eta, so everything here is
parameterized by r.  The tempered posterior stays conjugate:

    theta | sigma^2 ~ N(xbar, sigma^2 / r)
    sigma^2        ~ InvGamma(alpha_r, B_r)

with alpha_r = a + (r-1)/2 and B_r = b + r*u/2, where u is the sample
variance with divisor n.  Predictive densities for held-out points are
Student-t and are used as exact references for the Monte Carlo machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ..datasets import ParameterError, SimpleDataset
from ..hypercal import golden_max


@dataclass(frozen=True)
class ConjStats:
    """Sufficient statistics of the training data plus prior parameters."""

    n: int
    xbar: float
    u: float        # sample variance, divisor n
    a: float
    b: float
    mu_star: float = 0.0

    def __post_init__(self):
        if self.u <= 0:
            raise ParameterError("u must be positive (need n >= 2 distinct points)")
        if self.a <= 0 or self.b <= 0:
            raise ParameterError("inverse-gamma prior parameters must be positive")

    @classmethod
    def from_data(cls, x, a: float, b: float, mu_star: float = 0.0) -> "ConjStats":
        pts = x.points if isinstance(x, SimpleDataset) else np.asarray(x, dtype=float)
        return cls(n=len(pts), xbar=float(np.mean(pts)), u=float(np.var(pts)),
                   a=a, b=b, mu_star=mu_star)

    @property
    def Delta(self) -> float:
        return self.xbar - self.mu_star

    @property
    def r0(self) -> float:
        """Lower edge of the r-domain; the posterior is improper at or below it."""
        return max(0.0, 1.0 - 2.0 * self.a)


def _check_r(stats_: ConjStats, r: float):
    if r <= stats_.r0:
        raise ParameterError(
            f"r={r} gives an improper posterior (need r > {stats_.r0})")


def _invgamma_r(stats_: ConjStats, r):
    """(alpha_r, B_r) of the tempered sigma^2 posterior; r may be an array."""
    return stats_.a + (r - 1.0) / 2.0, stats_.b + r * stats_.u / 2.0


def conj_power_posterior(stats_: ConjStats, r: float):
    """Posterior parameters (theta_loc, theta_scale_factor, alpha_r, B_r).

    theta | sigma^2 is N(theta_loc, sigma^2 * theta_scale_factor) and
    sigma^2 is InvGamma(alpha_r, B_r).
    """
    _check_r(stats_, r)
    return (stats_.xbar, 1.0 / r, *_invgamma_r(stats_, r))


def conj_pointwise_predictive(stats_: ConjStats, r):
    """(df, loc, scale) of the Student-t predictive of one held-out point:
    (2 alpha_r, xbar, sqrt((1 + 1/r) B_r / alpha_r)).  r may be an array."""
    if np.any(np.asarray(r) <= stats_.r0):
        raise ParameterError(f"r must exceed {stats_.r0}")
    alpha, B = _invgamma_r(stats_, r)
    return 2.0 * alpha, stats_.xbar, np.sqrt((1.0 + 1.0 / r) * B / alpha)


def conj_power_sample(stats_: ConjStats, r: float, size: int, seed: int):
    """Exact joint draws (theta, sigma2) from the tempered posterior."""
    loc, scale_factor, alpha, B = conj_power_posterior(stats_, r)
    rng = np.random.default_rng(seed)
    sigma2 = B / rng.gamma(alpha, size=size)
    theta = loc + np.sqrt(sigma2 * scale_factor) * rng.standard_normal(size)
    return theta, sigma2


def conj_pooled_log_predictive(y, stats_: ConjStats, r: float) -> float:
    """Exact log density of the joint predictive for a held-out vector y.

    The predictive is a J-variate Student-t with 2*alpha_r degrees of
    freedom, location xbar*1 and scale matrix (B_r/alpha_r)(I + (1/r)11').
    The determinant and inverse of the scale matrix have rank-one closed
    forms, so the density costs O(J).
    """
    pts = y.points if isinstance(y, SimpleDataset) else np.asarray(y, dtype=float)
    pts = np.atleast_1d(pts)
    J = len(pts)
    _, _, alpha, B = conj_power_posterior(stats_, r)
    nu = 2.0 * alpha
    d = pts - stats_.xbar
    sum_d = float(np.sum(d))
    sum_d2 = float(np.sum(d * d))
    # quadratic form under the rank-one inverse
    quad = (alpha / B) * (sum_d2 - sum_d ** 2 / (r + J))
    logdet = J * np.log(B / alpha) + np.log1p(J / r)
    return float(special.gammaln((nu + J) / 2.0) - special.gammaln(nu / 2.0)
                 - (J / 2.0) * np.log(nu * np.pi) - 0.5 * logdet
                 - ((nu + J) / 2.0) * np.log1p(quad / nu))


def conj_product_log_predictive(y, stats_: ConjStats, r) -> float | np.ndarray:
    """Sum of pointwise log predictive densities (univariate Student-t).

    r may be an array, in which case an array of sums is returned.
    """
    from scipy import stats

    pts = y.points if isinstance(y, SimpleDataset) else np.asarray(y, dtype=float)
    pts = np.atleast_1d(pts)
    r_arr = np.asarray(r, dtype=float)
    out = stats.t.logpdf(pts[..., None] if r_arr.ndim else pts,
                         *conj_pointwise_predictive(stats_, r_arr)).sum(axis=0)
    return out if r_arr.ndim else float(out)


def conj_pooled_target(r, stats_: ConjStats):
    """Log of the tempered posterior density evaluated at the truth (mu*, 1).

    This is the large-J limit objective for the pooled calibration loss.
    Vectorized over r.
    """
    r = np.asarray(r, dtype=float)
    alpha, B = _invgamma_r(stats_, r)
    g = (0.5 * np.log(r) - 0.5 * np.log(2.0 * np.pi) - r * stats_.Delta ** 2 / 2.0
         + alpha * np.log(B) - special.gammaln(alpha) - B)
    return g if g.ndim else float(g)


def conj_pooled_target_deriv(r, stats_: ConjStats):
    r = np.asarray(r, dtype=float)
    alpha, B = _invgamma_r(stats_, r)
    d = 0.5 * (1.0 / r + np.log(B) + alpha * stats_.u / B
               - special.digamma(alpha) - stats_.u - stats_.Delta ** 2)
    return d if d.ndim else float(d)


def _log_normal_ref(y: np.ndarray, stats_: ConjStats) -> float:
    """Log of prod_j N(y_j; xbar, u), the r -> infinity predictive limit."""
    from scipy import stats

    return float(np.sum(stats.norm.logpdf(y, loc=stats_.xbar, scale=np.sqrt(stats_.u))))


def _tail_terms(D, Delta2, u, a: float, b: float):
    """(A_J1, Abar_inf) of conj_tail_coefficients, vectorized over leading
    axes: D (..., J) are the squared calibration residuals over u, the
    training variance (...), and Delta2 (...) is the squared offset of the
    training mean from the truth."""
    lin = np.asarray(2.0 - 4.0 * a + 4.0 * b / u)[..., None]
    A_J1 = 0.25 * (np.sum(D * D + lin * D, axis=-1)
                   + D.shape[-1] * (4.0 * a - 5.0 - 4.0 * b / u))
    Abar = ((3.0 + 6.0 * Delta2 + Delta2 * Delta2) / (4.0 * u * u)
            + (0.5 - a + b / u) * (1.0 + Delta2) / u + a - 1.25 - b / u)
    return A_J1, Abar


def _invgamma_from_moments(mu: float, var: float) -> tuple[float, float]:
    """InvGamma(a, b) with mean mu and variance var: a = 2 + mu^2/var and
    b = mu(a-1)."""
    a = 2.0 + mu ** 2 / var
    return a, mu * (a - 1.0)


def conj_tail_coefficients(stats_: ConjStats, y) -> tuple[float, float, float]:
    """Leading 1/r coefficients of the two calibration objectives.

    Returns (A_1J, A_J1, Abar_inf):
      A_1J  — pooled objective, extracted numerically by fitting c1/r + c2/r^2
              to the gap between the pooled log predictive and its normal limit;
      A_J1  — product objective, closed form in the standardized residuals;
      Abar_inf — per-point limit of A_J1/J under the true data distribution,
              which decides whether the population-optimal r is finite.
    """
    pts = y.points if isinstance(y, SimpleDataset) else np.asarray(y, dtype=float)
    pts = np.atleast_1d(pts)
    A_J1, Abar = _tail_terms((pts - stats_.xbar) ** 2 / stats_.u,
                             stats_.Delta ** 2, stats_.u, stats_.a, stats_.b)
    # pooled coefficient: no closed form at finite J, fit the 1/r decay
    ref = _log_normal_ref(pts, stats_)
    rs = np.array([2e3, 4e3, 8e3, 1.6e4, 3.2e4])
    gaps = np.array([conj_pooled_log_predictive(pts, stats_, r) - ref for r in rs])
    X = np.column_stack([1.0 / rs, 1.0 / rs ** 2])
    coef, *_ = np.linalg.lstsq(X, gaps, rcond=None)
    A_1J = float(coef[0])
    return A_1J, float(A_J1), Abar


@dataclass(frozen=True)
class OptimalR:
    r: float
    finite: bool
    objective: float


_R_MAX = 1e6
_GH_NODES = 61


def _elppd_objective(stats_: ConjStats):
    """Expected pointwise log predictive under the truth N(mu*, 1)."""
    from scipy import stats

    nodes, weights = np.polynomial.hermite_e.hermegauss(_GH_NODES)
    y = stats_.mu_star + nodes
    w = weights / np.sqrt(2.0 * np.pi)

    def f(r):
        return float(np.sum(w * stats.t.logpdf(y, *conj_pointwise_predictive(stats_, r))))

    return f


def conj_optimal_r(kind: str, stats_: ConjStats, y=None) -> OptimalR:
    """Maximize the chosen calibration objective over r in (r0, 1e6].

    kind is one of "pooled", "product", "pooled_target", "elppd".  The
    optimum is reported as not finite when the objective is still climbing
    at the top of the bracket and the relevant tail coefficient is
    nonpositive (the objective then increases all the way out).
    """
    if kind in ("pooled", "product") and y is None:
        raise ParameterError(f"kind={kind!r} needs calibration data y")
    if kind == "pooled":
        f = lambda r: conj_pooled_log_predictive(y, stats_, r)
    elif kind == "product":
        f = lambda r: conj_product_log_predictive(y, stats_, r)
    elif kind == "pooled_target":
        f = lambda r: conj_pooled_target(r, stats_)
    elif kind == "elppd":
        f = _elppd_objective(stats_)
    else:
        raise ParameterError(f"unknown objective kind {kind!r}")

    lo = stats_.r0 + 1e-6
    hi = _R_MAX

    if kind == "elppd":
        tail = conj_tail_coefficients(stats_, np.array([stats_.xbar]))[2]
    elif kind in ("pooled", "product"):
        A_1J, A_J1, _ = conj_tail_coefficients(stats_, y)
        tail = A_1J if kind == "pooled" else A_J1
    else:
        # the target objective decays linearly at large r unless the data
        # sit exactly at the zero-divergence configuration
        tail = -(stats_.Delta ** 2 + stats_.u - 1.0 - np.log(stats_.u))

    increasing_at_top = f(hi) > f(hi * (1.0 - 1e-4))
    if increasing_at_top and tail <= 0:
        return OptimalR(r=np.inf, finite=False, objective=f(hi))

    # multi-start guards against flat shoulders fooling a single bracket
    starts = np.exp(np.linspace(np.log(lo + 1e-9), np.log(hi), 7))[1:-1]
    best_r, best_f = hi, f(hi)
    if f(lo * (1 + 1e-6) if lo > 0 else 1e-6) > best_f:
        best_r = lo * (1 + 1e-6) if lo > 0 else 1e-6
        best_f = f(best_r)
    for s_lo, s_hi in zip([lo] + list(starts), list(starts) + [hi]):
        # golden-section search in log r
        cand = float(np.exp(golden_max(lambda x: f(np.exp(x)),
                                       np.log(max(s_lo, stats_.r0 + 1e-9)),
                                       np.log(s_hi), tol=1e-8)))
        fc = f(cand)
        if fc > best_f:
            best_r, best_f = cand, fc
    boundary = best_r > 0.99 * hi
    return OptimalR(r=best_r, finite=not boundary, objective=best_f)


def conj_interior_probability(mu_prior: float, var_prior: float, n: int, J: int,
                              n_rep: int, seed: int) -> tuple[float, float]:
    """Monte Carlo probability that the optimal r is finite.

    The prior mean/variance of sigma^2 map to inverse-gamma parameters via
    a = 2 + mu^2/v and b = mu(a-1).  For each replicate of (x, y) drawn from
    the standard normal truth the finite-optimum events are {A_J1 > 0}
    (empirical product objective) and {Abar_inf > 0} (its population limit).
    """
    if n_rep < 1:
        raise ParameterError("n_rep must be >= 1")
    a, b = _invgamma_from_moments(mu_prior, var_prior)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_rep, n))
    y = rng.standard_normal((n_rep, J))
    xbar = x.mean(axis=1)
    u = x.var(axis=1)
    A_J1, Abar = _tail_terms((y - xbar[:, None]) ** 2 / u[:, None], xbar ** 2,
                             u, a, b)
    return float(np.mean(A_J1 > 0)), float(np.mean(Abar > 0))


def interior_probability_table(columns, n: int, J: int, n_rep: int, seed: int):
    """Rows (mu, v, a, b, p_product_finite, p_elppd_finite, se) per prior column."""
    rows = []
    for i, (mu, v) in enumerate(columns):
        a, b = _invgamma_from_moments(mu, v)
        p_prod, p_elppd = conj_interior_probability(mu, v, n, J, n_rep, seed + i)
        se = float(np.sqrt(0.25 / n_rep))
        rows.append((mu, v, a, b, p_prod, p_elppd, se))
    return rows


def write_interior_table_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("mu_sigma2,var_sigma2,a,b,p_product_finite,p_elppd_finite,se\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
