import numpy as np
import pytest

from gbcal.datasets import MixtureTruth, ParameterError, simulate_mixture
from gbcal.hypercal import SGrid
from gbcal.oracles import (
    MixtureStats,
    mixture_eta_smi,
    mixture_gamma_smi,
    mixture_optimal_gamma,
    mixture_pooled_loss_gamma,
    mixture_product_loss_gamma,
)
from gbcal.oracles import mixture as mix


def make_stats(n1=25, n2=50, seed=0):
    data = simulate_mixture(MixtureTruth(), n1, n2, seed=seed)
    return MixtureStats.from_data(data)


def test_gamma_zero_is_cut_posterior():
    s = make_stats()
    mu, var = mixture_gamma_smi(s, 0.0)
    assert mu == pytest.approx(s.sum_x1 / s.n1)
    assert var == pytest.approx(s.sigma1_sq / s.n1)


def test_gamma_one_equals_eta_one():
    s = make_stats(seed=1)
    assert mixture_gamma_smi(s, 1.0) == pytest.approx(mixture_eta_smi(s, 1.0))


def test_eta_zero_is_cut_posterior():
    s = make_stats(seed=2)
    assert mixture_eta_smi(s, 0.0) == pytest.approx(mixture_gamma_smi(s, 0.0))


def test_gamma_posterior_matches_brute_force_quadrature():
    """Integrate module-2 marginal^gamma * module-1 likelihood numerically."""
    s = make_stats(n1=8, n2=12, seed=3)
    gamma = 0.6
    phi = np.linspace(-15, 15, 20001)
    denom2 = s.sigma2_sq + s.n2 * s.s_theta_sq
    # module-2 theta-marginal: x2_i iid N(phi, sigma2^2 + s_theta^2) is wrong
    # (common theta correlates them); use the exact phi-quadratic exponent
    log_m2 = (-s.n2 / (2 * denom2) * phi ** 2 + s.sum_x2 / denom2 * phi)
    log_m1 = (-s.n1 / (2 * s.sigma1_sq) * phi ** 2 + s.sum_x1 / s.sigma1_sq * phi)
    lp = gamma * log_m2 + log_m1
    w = np.exp(lp - lp.max())
    w /= np.trapezoid(w, phi)
    mu_num = np.trapezoid(w * phi, phi)
    var_num = np.trapezoid(w * (phi - mu_num) ** 2, phi)
    mu, var = mixture_gamma_smi(s, gamma)
    assert mu == pytest.approx(mu_num, abs=1e-6)
    assert var == pytest.approx(var_num, rel=1e-6)


def test_vectorized_gamma_grid():
    s = make_stats(seed=4)
    g = np.linspace(0, 1, 11)
    mu, var = mixture_gamma_smi(s, g)
    for i, gi in enumerate(g):
        mi, vi = mixture_gamma_smi(s, float(gi))
        assert mu[i] == pytest.approx(mi)
        assert var[i] == pytest.approx(vi)


def test_influence_shrinks_variance():
    s = make_stats(seed=5)
    _, v0 = mixture_gamma_smi(s, 0.0)
    _, v1 = mixture_gamma_smi(s, 1.0)
    assert v1 < v0


def test_improper_configuration_raises():
    s = MixtureStats(n1=0, n2=10, sum_x1=0.0, sum_x2=3.0)
    with pytest.raises(ParameterError):
        mixture_gamma_smi(s, 0.0)
    mixture_gamma_smi(s, 0.5)  # fine with positive weight


@pytest.mark.parametrize("smi,bad", [(mixture_gamma_smi, 1.5),
                                     (mixture_gamma_smi, np.nan),
                                     (mixture_eta_smi, -0.5),
                                     (mixture_eta_smi, np.nan),
                                     (mixture_eta_smi, np.inf)])
def test_weight_outside_domain_rejected(smi, bad):
    with pytest.raises(ParameterError):
        smi(make_stats(), [0.5, bad])


def test_pooled_loss_matches_dense_gaussian():
    s = make_stats(seed=7)
    rng = np.random.default_rng(8)
    y1 = 4.0 * rng.standard_normal(6)
    gamma = 0.3
    mu, var = mixture_gamma_smi(s, gamma)
    J = len(y1)
    Sigma = var * np.ones((J, J)) + s.sigma1_sq * np.eye(J)
    d = y1 - mu
    ref = 0.5 * (J * np.log(2 * np.pi) + np.linalg.slogdet(Sigma)[1]
                 + d @ np.linalg.solve(Sigma, d))
    assert mixture_pooled_loss_gamma(s, y1, gamma) == pytest.approx(ref, abs=1e-10)


def test_product_loss_matches_pointwise_gaussian():
    s = make_stats(seed=9)
    y1 = np.array([1.0, -3.0, 0.5])
    gamma = 0.8
    mu, var = mixture_gamma_smi(s, gamma)
    v = var + s.sigma1_sq
    ref = float(np.sum(0.5 * np.log(2 * np.pi * v) + (y1 - mu) ** 2 / (2 * v)))
    assert mixture_product_loss_gamma(s, y1, gamma) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("family,upper", [("gamma", 1.0), ("eta", 3.0)])
@pytest.mark.parametrize("kind", ["product", "pooled"])
def test_grid_posterior_scores_grid_in_one_call(family, upper, kind):
    """The lattice scores every weight in one broadcast loss call, bit for
    bit as one scalar call per weight; a scalar call returns a float."""
    s = make_stats(seed=12)
    y1 = simulate_mixture(MixtureTruth(), 37, 0, seed=13).x1.points
    grid = SGrid.regular([(0.0, upper)], [family], 41)
    loss = getattr(mix, f"mixture_{kind}_loss_{family}")
    scalar = [loss(s, y1, float(v)) for v in grid.axes[0]]
    assert all(type(v) is float for v in scalar)
    gp = mix.mixture_grid_posterior(kind, s, y1, grid)
    assert np.array_equal(gp.log_pred, -np.array(scalar))
    with pytest.raises(ParameterError):
        mix.mixture_grid_posterior(kind, s, y1[:0], grid)


def test_optimal_gamma_contaminated_data_is_interior():
    # module 2 is contaminated; with few trusted points its influence should
    # be reduced but not cut entirely
    truth = MixtureTruth()
    data = simulate_mixture(truth, 25, 10 ** 4, seed=10)
    s = MixtureStats.from_data(data)
    for kind in ("pooled_limit", "product_limit"):
        g = mixture_optimal_gamma(kind, s)
        assert 0.0 < g < 1.0


def test_optimal_gamma_grows_with_trusted_sample():
    # a large trusted module swamps the bias, so more influence is tolerable
    truth = MixtureTruth()
    gs = []
    for n1 in (10, 25, 100):
        data = simulate_mixture(truth, n1, 10 ** 4, seed=10)
        gs.append(mixture_optimal_gamma("pooled_limit",
                                        MixtureStats.from_data(data)))
    assert gs[0] < gs[1] < gs[2]


def test_optimal_gamma_clean_data_prefers_full_influence():
    truth = MixtureTruth(lambda_star=1.0)
    data = simulate_mixture(truth, 10 ** 4, 10 ** 4, seed=11)
    s = MixtureStats.from_data(data)
    g = mixture_optimal_gamma("pooled_limit", s)
    assert g > 0.9
