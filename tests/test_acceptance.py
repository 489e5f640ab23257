"""End-to-end checks of the calibration engine against frozen references.

Each test pins an exact configuration (seeds, sizes, grids) and checks a
qualitative or quantitative property of the full pipeline: closed-form
oracles against Monte Carlo and quadrature, concentration behaviour of the
hyperparameter posteriors, agreement between independent samplers, risk
ratio directions, estimator identities, and bit-exact replay.  These are the
slowest tests in the suite.  The three nested-sampler cases carry the slow
marker: pytest -m "not slow" leaves them out, and pytest -k "not
test_acceptance" leaves out the whole file.
"""

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import gammaln
from scipy.stats import ks_2samp

from gbcal.datasets import (MixtureTruth, SsmTruth, simulate_conjugate_normal,
                            simulate_mixture, simulate_ssm)
from gbcal.evaluation import (SsmStudyConfig, pooled_limit_distance,
                              run_ssm_replicate, ssm_replicate_study)
from gbcal.hypercal import (SGrid, grid_posterior_from_values,
                            harmonic_mean_estimator, kl_estimator,
                            prior_uniform)
from gbcal.oracles import (ConjStats, MixtureStats, aghq_marginal,
                           conj_pooled_log_predictive, conj_power_posterior,
                           conj_power_sample, conj_product_log_predictive,
                           interior_probability_table, mixture_eta_smi,
                           mixture_gamma_smi, mixture_pooled_loss_gamma,
                           mixture_product_loss_gamma)
from gbcal.sampling import rwm_batch
from gbcal.ssm import (SsmJointTarget, ssm_empirical_losses,
                       ssm_eta_b_grid_posterior, ssm_eta_b_nested_draws)


# --- 1. finite-optimum probability table ----------------------------------

def test_finite_optimum_probability_table():
    """Five prior settings, each with the probability that the pointwise and
    the predictive-score objectives have a finite optimal learning rate."""
    expected = {(0.5, 0.1): (0.62, 0.73), (1.0, 0.1): (0.72, 0.94),
                (4.0, 0.1): (0.62, 0.71), (1.0, 1.0): (0.60, 0.77),
                (2.0, 4.0): (0.59, 0.71)}
    rows = interior_probability_table(list(expected), n=10, J=10,
                                     n_rep=10 ** 4, seed=0)
    for mu, v, a, b, p_prod, p_elppd, se in rows:
        e1, e2 = expected[(mu, v)]
        assert p_prod == pytest.approx(e1, abs=0.02), (mu, v)
        assert p_elppd == pytest.approx(e2, abs=0.02), (mu, v)


# --- 2. conjugate oracle vs Monte Carlo and quadrature --------------------

def test_conjugate_predictives_match_monte_carlo():
    x = simulate_conjugate_normal(0.0, 10, seed=0)
    st = ConjStats.from_data(x, 2.0, 1.0)
    r = 5.0
    theta, sig2 = conj_power_sample(st, r, 10 ** 5, seed=3)
    for J in (1, 3, 10):
        y = simulate_conjugate_normal(0.0, J, seed=100 + J)
        mat = sps.norm.logpdf(y.points[None, :], loc=theta[:, None],
                              scale=np.sqrt(sig2)[:, None])
        from scipy.special import logsumexp

        mc_prod = float(np.sum(logsumexp(mat, axis=0) - np.log(len(theta))))
        mc_pool = float(logsumexp(mat.sum(axis=1)) - np.log(len(theta)))
        assert mc_prod == pytest.approx(
            conj_product_log_predictive(y, st, r), abs=0.05)
        assert mc_pool == pytest.approx(
            conj_pooled_log_predictive(y.points, st, r), abs=0.05)


def test_conjugate_pooled_predictive_matches_2d_quadrature():
    x = simulate_conjugate_normal(0.0, 50, seed=0)
    st = ConjStats.from_data(x, 2.0, 1.0)
    r = 12.0
    loc, sf, alpha, B = conj_power_posterior(st, r)
    y = np.random.default_rng(1).standard_normal(3)

    def log_integrand(t):
        th, logs = t
        s2 = np.exp(logs)
        lp = (alpha * np.log(B) - gammaln(alpha) - (alpha + 1) * logs
              - B / s2 + logs
              + sps.norm.logpdf(th, loc, np.sqrt(s2 * sf)))
        return lp + float(np.sum(sps.norm.logpdf(y, th, np.sqrt(s2))))

    exact = conj_pooled_log_predictive(y, st, r)
    got = aghq_marginal(log_integrand, dim=2, k_points=21)
    assert abs(got - exact) < 1e-4


# --- 3/4. concentration behaviour of the influence-weight posterior -------

def _gamma_grid():
    return SGrid.regular([(0.0, 1.0)], ["gamma"], 41)


def test_pooled_posterior_tracks_nonconcentrating_limit():
    """The joint-predictive posterior at very large J matches the training
    posterior density evaluated at the calibration mean (it does not
    collapse to a point)."""
    truth = MixtureTruth()
    st = MixtureStats.from_data(simulate_mixture(truth, 25, 50, seed=0))
    rng = np.random.default_rng(1)
    y1 = truth.phi_star + np.sqrt(truth.sigma1_sq) * rng.standard_normal(10 ** 4)
    grid = _gamma_grid()
    g = grid.axes[0]
    log_pred = np.array([-mixture_pooled_loss_gamma(st, y1, float(gi))
                         for gi in g])
    gp = grid_posterior_from_values("pooled", grid, log_pred,
                                    prior_uniform(1.0)(g))
    ybar = float(np.mean(y1))

    def log_target(s):
        mu, var = mixture_gamma_smi(st, np.asarray(s))
        return sps.norm.logpdf(ybar, mu, np.sqrt(var))

    assert pooled_limit_distance(gp, log_target) < 0.05


def test_product_posterior_sd_shrinks_like_root_J():
    """Posterior sd of the influence weight falls like 1/sqrt(J) under the
    pointwise loss; checked as a log-log slope over three decades, averaging
    the sd over calibration replicates.  The training configuration places
    the optimum in the interior so boundary truncation cannot bias the
    slope."""
    truth = MixtureTruth()
    st = MixtureStats.from_data(simulate_mixture(truth, 25, 10 ** 4, seed=10))
    grid = _gamma_grid()
    g = grid.axes[0]
    sds = []
    Js = (100, 1000, 10000)
    for J in Js:
        per_rep = []
        for rep in range(10):
            rng = np.random.default_rng(100 + rep)
            y1 = np.sqrt(truth.sigma1_sq) * rng.standard_normal(J)
            lp = np.array([-mixture_product_loss_gamma(st, y1, float(gi))
                           for gi in g])
            gp = grid_posterior_from_values("product", grid, lp,
                                            prior_uniform(1.0)(g))
            per_rep.append(gp.sd()[0])
        sds.append(np.mean(per_rep))
    slope = float(np.polyfit(np.log(Js), np.log(sds), 1)[0])
    assert slope == pytest.approx(-0.5, abs=0.1)


# --- 5. the two tempering families agree asymptotically -------------------

def _tv_distance(m1, v1, m2, v2):
    lo = min(m1 - 8 * np.sqrt(v1), m2 - 8 * np.sqrt(v2))
    hi = max(m1 + 8 * np.sqrt(v1), m2 + 8 * np.sqrt(v2))
    xx = np.linspace(lo, hi, 200001)
    return 0.5 * np.trapezoid(
        np.abs(sps.norm.pdf(xx, m1, np.sqrt(v1))
               - sps.norm.pdf(xx, m2, np.sqrt(v2))), xx)


def test_tempering_families_converge_at_large_samples():
    truth = MixtureTruth()
    tvs = {}
    for n1 in (10 ** 6, 30):
        st = MixtureStats.from_data(simulate_mixture(truth, n1, 2 * n1, seed=2))
        me, ve = mixture_eta_smi(st, 0.3)
        mg, vg = mixture_gamma_smi(st, 0.3)
        tvs[n1] = _tv_distance(me, ve, mg, vg)
    assert tvs[10 ** 6] < 0.02
    assert tvs[30] > tvs[10 ** 6]


# --- 6. nested sampler agrees with the lattice posterior ------------------

SSM_2D_BOUNDS = [(0.05, 1.0), (0.25, 1.0)]


@pytest.mark.slow
@pytest.mark.parametrize("J,n_iter,thin,n_outer,grid_seed,samp_seed,nest_seed",
                         [(10, 30000, 20, 4000, 40, 50, 60),
                          (20, 30000, 20, 4000, 50, 60, 70),
                          (40, 60000, 25, 9000, 70, 71, 72)])
def test_nested_sampler_matches_grid_posterior(J, n_iter, thin, n_outer,
                                               grid_seed, samp_seed,
                                               nest_seed):
    """Two-dimensional (eta, b) calibration posterior for the state-space
    example, built once by splining lattice values of the product predictive
    and once by the nested Metropolis sampler with side chains of length 200.
    The marginal two-sample KS distance must stay below 0.1 on both axes."""
    truth = SsmTruth(phi_M_star=0.7)
    train = simulate_ssm(truth, 10, 6, seed=20)
    calib = simulate_ssm(truth, 40, 6, seed=21).subset(np.arange(J))
    grid = SGrid.regular(SSM_2D_BOUNDS, ["eta", "b"], 9)
    gp = ssm_eta_b_grid_posterior(train, calib, truth, grid, n_iter=n_iter,
                                  burn_in=10000, thin=thin, seed=grid_seed)
    gsamp = gp.sample(6000, seed=samp_seed)
    nd, acc = ssm_eta_b_nested_draws(train, calib, truth, SSM_2D_BOUNDS,
                                     n_outer=n_outer, inner_len=200,
                                     seed=nest_seed)
    assert 0.05 < acc < 0.95
    for axis in (0, 1):
        assert ks_2samp(nd[:, axis], gsamp[:, axis]).statistic < 0.1


# --- 7. risk-ratio directions in the state-space study --------------------

def _risk_study(phi_m: float):
    """Median expected risk ratios against the plain (eta=1) and the cut
    (eta=0) updates, and the median expected log ratio against the plain
    update."""
    cfg = SsmStudyConfig(truth=SsmTruth(phi_M_star=phi_m), n_replicates=20,
                         risk_method="exact", seed=0)
    study = ssm_replicate_study(cfg, jobs=2)
    vb = np.array([r["mean_vs_bayes"].value for r in study.risk_reports])
    vc = np.array([r["mean_vs_cut"].value for r in study.risk_reports])
    lb = np.array([r["mean_vs_bayes"].mean_log_ratio
                   for r in study.risk_reports])
    return float(np.median(vb)), float(np.median(vc)), float(np.median(lb))


def test_risk_ratio_direction_under_misspecification():
    """With a misspecified interior emission scale, the calibrated learning
    rate predicts better than both the plain update and the anchor-only
    update (median expected risk ratio above one against each)."""
    vs_bayes, vs_cut, _ = _risk_study(0.5)
    assert vs_bayes > 1.0
    assert vs_cut > 1.0


def test_risk_ratio_direction_well_specified():
    """With a well-specified model the plain update is preferred: the median
    over replicates of the expected log predictive ratio of the calibrated
    rate against the plain update (the ELPPD difference per test set of 100
    blocks) is below zero.

    The median expected risk ratio is not asserted here.  When the plain
    predictive equals the generating density p*, E_{p*}[p_hat / p*] is the
    integral of p_hat, which is 1 for every calibrated predictive p_hat, so
    the ratio scale cannot express a preference for the plain update; the
    per-block ratio is 1 + c with c second order and of varying sign, and
    the test-set product raises it to the 100th power.  At this
    configuration the median ratio is about 1.59.  More replicates do not
    resolve the direction either: at 200 replicates (seed 7) the median
    ratio is 1.30, with 56.5% of replicates above one, while the median
    expected log ratio there is -1.21.

    The paper's hyperparameter posterior is built on the expected log
    pointwise predictive density, and on that scale the preference is
    clear: the median expected log ratio is about -1.48 here, negative in
    18 of 20 replicates, against about +7.0 under misspecification
    (phi_M_star = 0.5).
    """
    _, _, log_vs_bayes = _risk_study(1.0)
    assert log_vs_bayes < 0.0


# --- 8. quadrature accuracy and Laplace error rate ------------------------

def test_aghq_matches_closed_form_module_marginal():
    from gbcal.cli import _mixture_marginal_pair

    truth = MixtureTruth()
    data = simulate_mixture(truth, 30, 100, seed=0)
    x2 = data.x2.points
    phi = 0.4
    exact, _ = _mixture_marginal_pair(x2, phi=phi)
    st2 = 0.33 ** 2

    def log_integrand(theta):
        th = float(theta) if np.ndim(theta) == 0 else float(theta[0])
        return (sps.norm.logpdf(th, scale=np.sqrt(st2))
                + float(np.sum(sps.norm.logpdf(x2, phi + th, 1.0))))

    got = aghq_marginal(log_integrand, dim=1, k_points=5)
    assert abs(got - exact) / abs(exact) < 1e-6


def test_laplace_error_halves_as_module_doubles():
    from gbcal.cli import _mixture_marginal_pair

    truth = MixtureTruth()
    errs = []
    for n2 in (50, 100, 200):
        data = simulate_mixture(truth, 30, n2, seed=0)
        x2 = data.x2.points
        exact, lap = _mixture_marginal_pair(x2, phi=float(np.mean(x2)))
        errs.append(abs(lap - exact))
    for i in range(2):
        ratio = errs[i] / errs[i + 1]
        assert 2.0 / 1.5 < ratio < 2.0 * 1.5, errs


# --- 9. estimator identities ----------------------------------------------

def test_harmonic_mean_of_uniform_posterior_closed_form():
    a, b = 0.2, 0.9
    grid = SGrid.regular([(a, b)], ["eta"], 41)
    x = grid.axes[0]
    gp = grid_posterior_from_values("product", grid, np.zeros_like(x),
                                    np.zeros_like(x))
    assert harmonic_mean_estimator(gp) == pytest.approx(
        (b - a) / np.log(b / a), abs=1e-6)


def test_kl_estimator_recovers_point_mass_atom():
    grid = SGrid.regular([(0.0, 1.0)], ["eta"], 41)
    x = grid.axes[0]
    atom = 0.55
    lp = -0.5 * (x - atom) ** 2 / 1e-6
    gp = grid_posterior_from_values("product", grid, lp, np.zeros_like(x))

    def sampler(s, size, rng):
        return rng.normal(float(s[0]), 0.05, size)

    def logpdf(sp, z):
        return sps.norm.logpdf(z, float(sp), 0.05)

    hp = kl_estimator(gp, sampler, logpdf, T=100, J_inner=200, seed=0)
    assert hp.eta == pytest.approx(atom, abs=0.02)


def test_kl_close_to_harmonic_mean_for_power_posterior():
    n = J = 200
    x = simulate_conjugate_normal(0.0, n, seed=0)
    y = simulate_conjugate_normal(0.0, J, seed=1)
    st = ConjStats.from_data(x, 2.0, 1.0)
    grid = SGrid.regular([(0.01, 1.0)], ["eta"], 41)
    etas = grid.axes[0]
    lp = conj_product_log_predictive(y, st, n * etas)
    gp = grid_posterior_from_values("product", grid, lp,
                                    prior_uniform(1.0)(etas))
    hm = harmonic_mean_estimator(gp)

    def pred_sampler(s, size, rng):
        r = n * float(s[0])
        _, _, alpha, B = conj_power_posterior(st, r)
        lam = np.sqrt((1 + 1 / r) * B / alpha)
        return st.xbar + lam * rng.standard_t(2 * alpha, size)

    def pred_logpdf(sp, z):
        r = n * float(sp)
        _, _, alpha, B = conj_power_posterior(st, r)
        lam = np.sqrt((1 + 1 / r) * B / alpha)
        return sps.t.logpdf(z, 2 * alpha, st.xbar, lam)

    hp = kl_estimator(gp, pred_sampler, pred_logpdf, T=400, J_inner=1000,
                      seed=2)
    assert abs(hp.eta - hm) / hm < 0.05


# --- 10. losses diverge at very large learning rates ----------------------

def test_empirical_losses_increase_at_large_rates():
    truth = SsmTruth()
    etas = np.geomspace(20.0, 1000.0, 8)
    for seed in range(10):
        train = simulate_ssm(truth, 10, 6, seed=2 * seed)
        calib = simulate_ssm(truth, 50, 6, seed=2 * seed + 1)
        pooled, product = ssm_empirical_losses(train, calib, truth, etas)
        assert np.all(np.diff(pooled) > 0), seed
        assert np.all(np.diff(product) > 0), seed


# --- 11. bit-identical replay ---------------------------------------------

def test_acceptance_computations_replay_bit_identically():
    rows1 = interior_probability_table([(1.0, 0.1)], 10, 10, 2000, seed=5)
    rows2 = interior_probability_table([(1.0, 0.1)], 10, 10, 2000, seed=5)
    assert rows1 == rows2

    cfg = SsmStudyConfig(n_total_blocks=20, n_train_blocks=5, n_replicates=1,
                         n_test_sets=3, test_blocks=20, grid_points=9, seed=9)
    est1, rep1 = run_ssm_replicate(cfg, 0)
    est2, rep2 = run_ssm_replicate(cfg, 0)
    assert est1.mean.eta == est2.mean.eta
    assert np.array_equal(rep1["mean_vs_bayes"].per_set_log_ratios,
                          rep2["mean_vs_bayes"].per_set_log_ratios)

    data = simulate_ssm(SsmTruth(), 3, 6, seed=6)
    target = SsmJointTarget(data, SsmTruth())
    init = np.tile(target.init_state(), (4, 1))
    d1, _, _ = rwm_batch(lambda st: target(st, 0.8), init, n_iter=500,
                         burn_in=100, thin=5, seed=7)
    d2, _, _ = rwm_batch(lambda st: target(st, 0.8), init, n_iter=500,
                         burn_in=100, thin=5, seed=7)
    assert np.array_equal(d1, d2)
