import json

import numpy as np
import pytest
from scipy.special import logsumexp

from gbcal.datasets import (ParameterError, SsmTruth, simulate_ssm,
                            split_ssm_blocks)
from gbcal.evaluation import (SsmStudyConfig, _laguerre_rule,
                              _ssm_eta_posterior, _ssm_exact_block_integrals,
                              pooled_limit_distance, risk_ratio_product,
                              run_ssm_replicate, ssm_exact_block_log_ratio,
                              ssm_replicate_study)
from gbcal.hypercal import SGrid, grid_posterior_from_values
from gbcal.sampling import ar1_bridge
from gbcal.ssm import (_FINE, anchor_pair_log_predictive,
                       build_ssm_phi_lattice, build_ssm_phi_posterior)


def _set_scores(pred, s, tests):
    """pred(s, z) for each test set z, as one (n_sets, blocks) array; the
    ragged sets are padded with log densities of 0, which leave each set's
    sum, and so its log ratio, unchanged."""
    width = max(len(z) for z in tests)
    out = np.zeros((len(tests), width))
    for k, z in enumerate(tests):
        out[k, :len(z)] = pred(s, z)
    return out


def _risk_ratio(s1, s2, tests, pred):
    return risk_ratio_product(s1, s2, _set_scores(pred, s1, tests),
                              _set_scores(pred, s2, tests))


def test_risk_ratio_identity_is_one():
    tests = [np.arange(3), np.arange(4)]
    pred = lambda s, z: -0.5 * np.asarray(z, dtype=float) * s
    rep = _risk_ratio(0.7, 0.7, tests, pred)
    assert rep.value == pytest.approx(1.0)
    assert rep.mc_se == pytest.approx(0.0)


def test_risk_ratio_antisymmetry_in_log():
    tests = [np.arange(3), np.arange(5), np.arange(2)]
    pred = lambda s, z: -0.5 * np.asarray(z, dtype=float) ** 2 * s
    fwd = _risk_ratio(0.3, 0.9, tests, pred)
    rev = _risk_ratio(0.9, 0.3, tests, pred)
    assert np.allclose(fwd.per_set_log_ratios, -rev.per_set_log_ratios)


def test_risk_ratio_drops_nonfinite_sets():
    tests = [np.array([0.0]), np.array([1.0])]

    def pred(s, z):
        return np.where(np.asarray(z) > 0.5, -np.inf, -1.0 * s)

    with pytest.warns(UserWarning, match="dropped"):
        rep = _risk_ratio(1.0, 2.0, tests, pred)
    assert rep.n_test_sets == 1


def test_mean_log_ratio_is_mean_of_finite_set_log_ratios():
    tests = [np.array([0.0, 0.2]), np.array([1.0]), np.array([0.3, 0.4])]

    def pred(s, z):
        z = np.asarray(z)
        return np.where(z > 0.5, -np.inf, -s * (1.0 + z))

    with pytest.warns(UserWarning, match="dropped"):
        rep = _risk_ratio(1.0, 2.0, tests, pred)
    assert rep.n_test_sets == 2
    assert np.all(np.isfinite(rep.per_set_log_ratios))
    assert rep.mean_log_ratio == pytest.approx(
        float(np.mean(rep.per_set_log_ratios)))
    # sum over blocks of -1*(1+z) + 2*(1+z) = sum(1+z)
    assert rep.mean_log_ratio == pytest.approx((2.2 + 2.7) / 2)


def _block_logp(post, rr):
    """Anchor-pair block log predictive at anchor residual sums rr."""
    t = post.phi2
    per = (-np.log(2 * np.pi * t)[None, :]
           - rr[:, None] / (2 * t)[None, :])
    return logsumexp(per + post.log_weights[None, :], axis=1)


def _exact_integrals(p1, p2, anchor_var=1.0):
    """_ssm_exact_block_integrals of two posteriors, each scored at the
    anchor residuals r = 2 anchor_var u of the Laguerre nodes u."""
    r = 2.0 * anchor_var * _laguerre_rule()[0]
    return _ssm_exact_block_integrals(p1.scores(r), p2.scores(r))


def test_exact_block_log_ratio_identity_is_zero():
    data = simulate_ssm(SsmTruth(), 8, 6, seed=0)
    post = build_ssm_phi_posterior(data, SsmTruth(), 1.0)
    assert abs(ssm_exact_block_log_ratio(post, post)) < 1e-4


def test_exact_block_log_ratio_matches_monte_carlo():
    truth = SsmTruth()
    data = simulate_ssm(truth, 10, 6, seed=1)
    p1 = build_ssm_phi_posterior(data, truth, 0.3)
    p2 = build_ssm_phi_posterior(data, truth, 1.0)
    exact = ssm_exact_block_log_ratio(p1, p2)
    rng = np.random.default_rng(2)
    r = rng.chisquare(2, size=20000)

    mc = float(np.log(np.mean(np.exp(_block_logp(p1, r)
                                     - _block_logp(p2, r)))))
    assert exact == pytest.approx(mc, abs=0.03)


def test_exact_block_expected_log_ratio_identity_is_zero():
    data = simulate_ssm(SsmTruth(), 8, 6, seed=0)
    post = build_ssm_phi_posterior(data, SsmTruth(), 1.0)
    _, expected_log = _exact_integrals(post, post)
    assert expected_log == 0.0


def test_exact_block_expected_log_ratio_matches_monte_carlo():
    truth = SsmTruth()
    data = simulate_ssm(truth, 10, 6, seed=1)
    p1 = build_ssm_phi_posterior(data, truth, 0.3)
    p2 = build_ssm_phi_posterior(data, truth, 1.0)
    log_expected, expected_log = _exact_integrals(p1, p2)
    assert log_expected == ssm_exact_block_log_ratio(p1, p2)
    rng = np.random.default_rng(2)
    r = rng.chisquare(2, size=20000)
    d = _block_logp(p1, r) - _block_logp(p2, r)
    se = float(np.std(d, ddof=1) / np.sqrt(len(d)))
    assert expected_log == pytest.approx(float(np.mean(d)), abs=4 * se)
    # Jensen: the expected log ratio never exceeds the log expected ratio
    assert expected_log <= log_expected


def test_anchor_pair_log_predictive_matches_logsumexp_reference():
    truth = SsmTruth(phi_M_star=0.5)
    data = simulate_ssm(truth, 10, 6, seed=4)
    r = np.random.default_rng(5).chisquare(2, size=300) * 3.0
    for eta in (0.0, 0.4, 1.0):
        post = build_ssm_phi_posterior(data, truth, eta)
        got = anchor_pair_log_predictive(r, post.phi2, post.log_weights)
        assert np.allclose(got, _block_logp(post, r), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("phi_m, seed, etas", [(1.0, 1, (0.3, 1.0)),
                                               (0.5, 3, (0.45, 0.0))])
def test_exact_block_integrals_match_adaptive_quadrature(phi_m, seed, etas):
    """Gauss-Laguerre against scipy's adaptive quadrature over [0, inf) of
    the same integrands, for two anchor variances."""
    from scipy.integrate import quad

    truth = SsmTruth(phi_M_star=phi_m)
    data = simulate_ssm(truth, 60, 6, seed=seed)
    p1, p2 = (build_ssm_phi_posterior(data, truth, e) for e in etas)

    def log_diff(r):
        rr = np.array([r])
        return float(_block_logp(p1, rr)[0] - _block_logp(p2, rr)[0])

    for anchor_var in (1.0, 0.25):
        def log_dens(r):
            return -r / (2 * anchor_var) - np.log(2 * anchor_var)

        expected_ratio, _ = quad(lambda r: np.exp(log_diff(r) + log_dens(r)),
                                 0.0, np.inf, epsabs=0.0, epsrel=1e-13,
                                 limit=200)
        expected_log, _ = quad(lambda r: log_diff(r) * np.exp(log_dens(r)),
                               0.0, np.inf, epsabs=1e-14, epsrel=1e-13,
                               limit=200)
        got = _exact_integrals(p1, p2, anchor_var)
        assert got[0] == pytest.approx(np.log(expected_ratio), abs=1e-9)
        assert got[1] == pytest.approx(expected_log, abs=1e-9)


def _per_eta_log_pred(train, calib, truth, eta, kind):
    """Calibration log predictive at one eta, computed independently of the
    eta-vectorised lattice: the closed-form phi^2 marginal with its own
    bridge eigendecomposition, located on a 500-point log grid and refined
    on the program's _FINE points, then scored with scipy's logsumexp."""
    from scipy.special import gammaln

    w_left, w_right, _, V = ar1_bridge(truth, train.d_x)
    D, U = np.linalg.eigh(V)
    prior_mean = (train.theta_anchor[:, :1] * w_left
                  + train.theta_anchor[:, 1:] * w_right)
    S = np.sum(((train.x_missing - prior_mean) @ U) ** 2, axis=0)
    nM = train.n_blocks * (train.d_x - 2)
    a, b = truth.invgamma_a, truth.invgamma_b
    nA = 2 * train.n_blocks
    SA = float(np.sum((train.x_anchor - train.theta_anchor) ** 2))

    def log_post(t):
        lp = (a * np.log(b) - gammaln(a) - (a + 1.0) * np.log(t) - b / t
              - 0.5 * nA * np.log(2.0 * np.pi * t) - SA / (2.0 * t))
        if eta > 0:
            ridge = D[None, :] + t[:, None] / eta
            lp = lp + (-0.5 * (eta - 1.0) * nM * np.log(2.0 * np.pi * t)
                       - 0.5 * nM * np.log(eta) - 0.5 * nM * np.log(2 * np.pi)
                       - 0.5 * train.n_blocks * np.sum(np.log(ridge), axis=1)
                       - 0.5 * np.sum(S / ridge, axis=1))
        return lp

    coarse = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 500))
    lp = log_post(coarse)
    keep = np.where(lp > np.max(lp) - 45.0)[0]
    t = np.exp(np.linspace(np.log(coarse[max(keep[0] - 1, 0)]),
                           np.log(coarse[min(keep[-1] + 1, 499)]), _FINE))
    lp = log_post(t)
    lp -= np.max(lp)
    log_w = lp - np.log(np.trapezoid(np.exp(lp), t)) + np.log(np.gradient(t))
    r = np.sum((calib.x_anchor - calib.theta_anchor) ** 2, axis=1)
    if kind == "pooled":
        return float(logsumexp(log_w - len(r) * np.log(2 * np.pi * t)
                               - np.sum(r) / (2 * t)))
    per = -np.log(2 * np.pi * t)[None, :] - r[:, None] / (2 * t)[None, :]
    return float(np.sum(logsumexp(per + log_w[None, :], axis=1)))


@pytest.mark.parametrize("kind", ["product", "pooled"])
def test_eta_lattice_matches_per_eta_reference(kind):
    truth = SsmTruth(phi_M_star=0.5)
    full = simulate_ssm(truth, 60, 6, seed=8)
    train, calib = split_ssm_blocks(full, 10, 9)
    etas = np.array([0.0, 0.5, 20.0, 100.0, 1000.0])
    grid = SGrid(axes=(etas,), names=("eta",))
    got = _ssm_eta_posterior(train, calib, truth, grid, kind).log_pred
    ref = np.array([_per_eta_log_pred(train, calib, truth, e, kind)
                    for e in etas])
    assert np.allclose(got, ref, rtol=1e-10, atol=0.0)


def _refined(lattice, data, truth, n):
    """lattice's phi^2 windows, each on n log-spaced trapezoid nodes."""
    from gbcal.ssm import SsmPhiPosterior, _tempered_log_marginal

    t = np.exp(np.linspace(np.log(lattice.phi2[:, 0]),
                           np.log(lattice.phi2[:, -1]), n, axis=1))
    lp = _tempered_log_marginal(data, truth)(t, lattice.etas)
    lp -= np.max(lp, axis=1, keepdims=True)
    norm = np.trapezoid(np.exp(lp), t, axis=1)
    log_w = lp - np.log(norm)[:, None] + np.log(np.gradient(t, axis=1))
    return SsmPhiPosterior(etas=lattice.etas, phi2=t, log_weights=log_w)


@pytest.mark.parametrize("phi_m, seed", [(0.5, 8), (1.0, 3), (2.0, 5)])
def test_phi_lattice_converged_against_6401_nodes(phi_m, seed):
    """The trapezoid rule in log phi^2 converges geometrically on each
    eta's window, whose ends sit 45 nats under the peak: at eta in [0, 2]
    the program's nodes agree with 6,401 nodes on the same windows up to
    round-off, in the calibration scores and in the exact-risk integrals of
    the pooled-data refits."""
    truth = SsmTruth(phi_M_star=phi_m)
    full = simulate_ssm(truth, 60, 6, seed=seed)
    train, calib = split_ssm_blocks(full, 10, seed + 1)
    etas = [0.0, 0.25, 0.5, 1.0, 2.0]
    lattice = build_ssm_phi_lattice(train, truth, etas)
    assert lattice.phi2.shape == (len(etas), _FINE)
    fine = _refined(lattice, train, truth, 6401)
    for kind in ("product", "pooled"):
        assert np.allclose(lattice.log_predictive(calib, kind),
                           fine.log_predictive(calib, kind),
                           rtol=1e-10, atol=0.0)
    refits = build_ssm_phi_lattice(full, truth, etas)
    fine = _refined(refits, full, truth, 6401)
    for i in range(len(etas)):
        for j in (0, 3):                    # against the cut and plain Bayes
            got = _exact_integrals(refits.row(i), refits.row(j))
            ref = _exact_integrals(fine.row(i), fine.row(j))
            assert np.allclose(got, ref, rtol=0.0, atol=1e-12)


def test_exact_risk_method_replicate():
    """Each exact-risk report is test_blocks times the exact per-block
    integrals of the posteriors built alone at eta-hat and the reference
    eta, bitwise, under both losses and at an anchor variance other than
    1: the one scoring of the refit lattice loses nothing."""
    for kind, truth in (("product", SsmTruth()),
                        ("pooled", SsmTruth(phi_A_star=0.8))):
        cfg = SsmStudyConfig(truth=truth, n_total_blocks=20,
                             n_train_blocks=5, n_replicates=1, grid_points=9,
                             kind=kind, risk_method="exact", seed=3)
        est, reports = run_ssm_replicate(cfg, 0)
        rs = np.random.SeedSequence(cfg.seed).spawn(1)[0].generate_state(4)
        full = simulate_ssm(cfg.truth, cfg.n_total_blocks, cfg.d_x,
                            int(rs[0]))
        eta_hat = est.mean.eta
        post_hat = build_ssm_phi_posterior(full, cfg.truth, eta_hat)
        for name, eta_ref in (("mean_vs_bayes", 1.0), ("mean_vs_cut", 0.0)):
            rep = reports[name]
            log_r, mean_log_r = _exact_integrals(
                post_hat, build_ssm_phi_posterior(full, cfg.truth, eta_ref),
                cfg.truth.phi_A_star ** 2)
            assert (rep.s1, rep.s2) == (eta_hat, eta_ref)
            assert rep.value == np.exp(cfg.test_blocks * log_r)
            assert rep.mean_log_ratio == cfg.test_blocks * mean_log_r
            assert rep.value > 0 and np.isfinite(rep.value)
            assert np.isfinite(rep.mean_log_ratio)
            assert rep.n_test_sets == 0
            assert rep.mc_se == 0.0


def test_unknown_risk_method_rejected():
    with pytest.raises(ParameterError):
        SsmStudyConfig(risk_method="bogus")


def test_config_hash_changes_with_fields():
    c1 = SsmStudyConfig()
    c2 = SsmStudyConfig(seed=1)
    assert c1.config_hash() != c2.config_hash()
    assert c1.config_hash() == SsmStudyConfig().config_hash()


def fast_config(**kw):
    base = dict(n_total_blocks=20, n_train_blocks=5, n_replicates=3,
                n_test_sets=3, test_blocks=20, grid_points=9, seed=42)
    base.update(kw)
    return SsmStudyConfig(**base)


def test_run_ssm_replicate_outputs():
    cfg = fast_config()
    est, reports = run_ssm_replicate(cfg, 0)
    assert 0.0 <= est.mean.eta <= cfg.eta_upper
    assert set(reports) == {"mean_vs_bayes", "mean_vs_cut"}
    for rep in reports.values():
        assert rep.n_test_sets == 3
        assert np.isfinite(rep.value)


@pytest.mark.parametrize("risk_kind", ["product", "pooled"])
def test_replicate_scores_match_set_by_set_scoring(risk_kind):
    """Each refit scores all test sets' anchor pairs in one call; the
    per-set log ratios equal scoring every test set on its own."""
    cfg = fast_config(n_test_sets=4, kind=risk_kind,
                      truth=SsmTruth(phi_M_star=0.5))
    est, reports = run_ssm_replicate(cfg, 1)
    rs = np.random.SeedSequence(cfg.seed).spawn(cfg.n_replicates)[1] \
        .generate_state(4)
    full = simulate_ssm(cfg.truth, cfg.n_total_blocks, cfg.d_x, int(rs[0]))
    tests = [simulate_ssm(cfg.truth, cfg.test_blocks, cfg.d_x,
                          int(rs[2]) + 1000 * k)
             for k in range(cfg.n_test_sets)]
    eta_hat = est.mean.eta
    refits = build_ssm_phi_lattice(full, cfg.truth, [eta_hat, 1.0, 0.0])
    for name, i in (("mean_vs_bayes", 1), ("mean_vs_cut", 2)):
        ref = [float(np.sum(refits.row(0).block_log_predictive(z))
                     - np.sum(refits.row(i).block_log_predictive(z)))
               for z in tests]
        assert np.array_equal(reports[name].per_set_log_ratios, ref)


def test_replicate_study_deterministic_and_serializable(tmp_path):
    cfg = fast_config()
    study = ssm_replicate_study(cfg)
    again = ssm_replicate_study(cfg)
    vals = [r["mean_vs_bayes"].value for r in study.risk_reports]
    assert vals == [r["mean_vs_bayes"].value for r in again.risk_reports]

    jl = tmp_path / "study.jsonl"
    study.write_jsonl(jl)
    recs = [json.loads(line) for line in jl.read_text().splitlines()]
    assert len(recs) == 3
    assert recs[0]["config_hash"] == cfg.config_hash()
    assert "mean" in recs[0]["estimators"]

    cs = tmp_path / "summary.csv"
    study.write_summary_csv(cs)
    lines = cs.read_text().splitlines()
    assert lines[0] == "comparison,min,q25,median,q75,max,mean"
    assert len(lines) == 3  # two comparisons


def test_replicate_study_parallel_matches_serial():
    """Worker processes change nothing but wall time: under both risk
    methods every report is bitwise the serial one."""
    for risk_method in ("simulate", "exact"):
        cfg = fast_config(n_replicates=2, risk_method=risk_method)
        serial = ssm_replicate_study(cfg, jobs=1)
        par = ssm_replicate_study(cfg, jobs=2)
        assert len(serial.risk_reports) == len(par.risk_reports) == 2
        for a, b in zip(serial.risk_reports, par.risk_reports):
            assert a.keys() == b.keys()
            for name in a:
                assert a[name].value == b[name].value
                assert a[name].mean_log_ratio == b[name].mean_log_ratio


def make_product_posterior(J, sd0=0.2, center=0.5):
    """Synthetic product-type posterior whose sd shrinks like 1/sqrt(J)."""
    grid = SGrid.regular([(0.0, 1.0)], ["eta"], 41)
    x = grid.axes[0]
    sd = sd0 / np.sqrt(J)
    lp = -0.5 * (x - center) ** 2 / sd ** 2
    return grid_posterior_from_values(grid, lp, np.zeros_like(x))


def test_concentration_slope_minus_half():
    """The mixture-concentration study's slope arithmetic: least squares of
    log GridPosterior.sd() on log J over the sorted float ladder."""
    Js = np.array(sorted((100, 1000, 10000)), dtype=float)
    sds = [float(make_product_posterior(int(J)).sd()[0]) for J in Js]
    slope = np.polyfit(np.log(Js), np.log(sds), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.02)


def test_concentration_pooled_reference_distance():
    gp = make_product_posterior(400, center=0.4)
    sd = 0.2 / np.sqrt(400)
    log_target = lambda s: -0.5 * (np.asarray(s) - 0.4) ** 2 / sd ** 2
    assert pooled_limit_distance(gp, log_target) < 1e-6
    # a wrong reference shows a large distance
    bad = lambda s: -0.5 * (np.asarray(s) - 0.8) ** 2 / sd ** 2
    assert pooled_limit_distance(gp, bad) > 1.0

