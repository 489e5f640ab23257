import numpy as np
import pytest
from scipy import stats

from gbcal.datasets import ParameterError, SsmTruth, simulate_ssm
from gbcal.sampling import ar1_bridge, rwm_batch
from gbcal.ssm import (_NODES, _SCAN, SsmJointTarget, _interior_residuals,
                       _tempered_log_marginal, anchor_residuals,
                       build_ssm_phi_lattice,
                       build_ssm_phi_posterior,
                       ssm_eta_b_grid_posterior, ssm_eta_b_nested_draws,
                       ssm_log_posterior_phi2)


def small_data(n_blocks=5, d_x=6, seed=0, **truth_kw):
    truth = SsmTruth(**truth_kw)
    return simulate_ssm(truth, n_blocks, d_x, seed=seed), truth


def brute_force_log_posterior(phi2, data, truth, eta, n_quad=120, half=8.0):
    """Integrate the interior latents by dense Gauss-Hermite style quadrature
    per block (tensorized over the bridge eigenbasis)."""
    from scipy.special import gammaln

    w_left, w_right, Q, V = ar1_bridge(truth, data.d_x)
    D, U = np.linalg.eigh(V)
    a, b = truth.invgamma_a, truth.invgamma_b
    t = phi2
    nA = 2 * data.n_blocks
    SA = float(np.sum((data.x_anchor - data.theta_anchor) ** 2))
    lp = (a * np.log(b) - gammaln(a) - (a + 1) * np.log(t) - b / t
          - 0.5 * nA * np.log(2 * np.pi * t) - SA / (2 * t))
    k = data.d_x - 2
    prior_mean = (data.theta_anchor[:, :1] * w_left
                  + data.theta_anchor[:, 1:] * w_right)
    for blk in range(data.n_blocks):
        # coordinates in the eigenbasis are independent Gaussians
        res = (data.x_missing[blk] - prior_mean[blk]) @ U
        for j in range(k):
            grid = np.linspace(-half * np.sqrt(D[j]), half * np.sqrt(D[j]), n_quad)
            prior = stats.norm.pdf(grid, scale=np.sqrt(D[j]))
            lik = stats.norm.pdf(res[j], loc=grid,
                                 scale=np.sqrt(t / max(eta, 1e-300))) ** 1.0
            if eta == 0:
                val = 1.0
            else:
                lik = np.exp(eta * stats.norm.logpdf(res[j], loc=grid,
                                                     scale=np.sqrt(t)))
                val = np.trapezoid(prior * lik, grid)
            lp += np.log(val)
    return lp


def test_log_posterior_matches_brute_force_quadrature():
    data, truth = small_data(n_blocks=3, seed=1)
    for eta in (0.3, 1.0, 2.5):
        for phi2 in (0.4, 1.0, 2.0):
            got = ssm_log_posterior_phi2(phi2, data, truth, eta)
            ref = brute_force_log_posterior(phi2, data, truth, eta)
            assert got == pytest.approx(ref, abs=1e-6)


def test_log_posterior_eta_zero_is_anchor_only():
    """At eta = 0 the interior emissions carry no information, so the
    posterior must be the anchor-likelihood InvGamma update exactly."""
    data, truth = small_data(seed=2)
    from scipy.special import gammaln

    a, b = truth.invgamma_a, truth.invgamma_b
    nA = 2 * data.n_blocks
    SA = float(np.sum((data.x_anchor - data.theta_anchor) ** 2))
    for phi2 in (0.5, 1.3):
        ref = (a * np.log(b) - gammaln(a) - (a + 1) * np.log(phi2) - b / phi2
               - 0.5 * nA * np.log(2 * np.pi * phi2) - SA / (2 * phi2))
        assert ssm_log_posterior_phi2(phi2, data, truth, 0.0) == pytest.approx(ref)


def test_log_posterior_eta_one_is_plain_bayes():
    """At eta = 1 integrating the latents must reproduce the marginal
    likelihood of all emissions given the anchors (checked against a dense
    multivariate normal per block)."""
    data, truth = small_data(n_blocks=4, seed=3)
    w_left, w_right, Q, V = ar1_bridge(truth, data.d_x)
    prior_mean = (data.theta_anchor[:, :1] * w_left
                  + data.theta_anchor[:, 1:] * w_right)
    from scipy.special import gammaln

    for phi2 in (0.6, 1.1):
        a, b = truth.invgamma_a, truth.invgamma_b
        nA = 2 * data.n_blocks
        SA = float(np.sum((data.x_anchor - data.theta_anchor) ** 2))
        ref = (a * np.log(b) - gammaln(a) - (a + 1) * np.log(phi2) - b / phi2
               - 0.5 * nA * np.log(2 * np.pi * phi2) - SA / (2 * phi2))
        cov = V + phi2 * np.eye(data.d_x - 2)
        for blk in range(data.n_blocks):
            ref += stats.multivariate_normal.logpdf(
                data.x_missing[blk], mean=prior_mean[blk], cov=cov)
        assert ssm_log_posterior_phi2(phi2, data, truth, 1.0) == pytest.approx(ref)


def test_negative_eta_rejected():
    data, truth = small_data()
    for eta in (-0.5, np.nan, np.inf):
        with pytest.raises(ParameterError):
            ssm_log_posterior_phi2(1.0, data, truth, eta)
        with pytest.raises(ParameterError):
            build_ssm_phi_lattice(data, truth, [0.5, eta])


def _eta_rows_log_marginal(data, truth, t, etas):
    """The tempered log marginal as one (E, G, k) ridge array reduced over
    its last axis: the reference the eigenvalue-first layout must match."""
    from scipy.special import gammaln

    a, b = truth.invgamma_a, truth.invgamma_b
    SA = float(np.sum(anchor_residuals(data)))
    R, D = _interior_residuals(data, truth)
    S, nM = np.sum(R ** 2, axis=0), R.size
    etas = np.asarray(etas, dtype=float)[:, None]
    log_2pi_t = np.log(2.0 * np.pi * t)
    lp = (a * np.log(b) - gammaln(a) - (a + 1.0) * np.log(t) - b / t
          - data.n_blocks * log_2pi_t - SA / (2.0 * t))
    on = etas > 0
    eta = np.where(on, etas, 1.0)
    ridge = D + (t / eta)[..., None]
    quad = (1.0 / ridge) @ S
    logdet = data.n_blocks * np.sum(np.log(ridge), axis=-1)
    return lp + np.where(on, (-0.5 * (eta - 1.0) * nM * log_2pi_t
                              - 0.5 * nM * np.log(eta)
                              - 0.5 * nM * np.log(2.0 * np.pi)
                              - 0.5 * logdet - 0.5 * quad), 0.0)


@pytest.mark.parametrize("d_x", [3, 4, 6, 9, 10, 20])
def test_log_marginal_matches_eta_row_formula(d_x):
    """Bit for bit on the shared coarse row and on C- and Fortran-ordered
    fine grids while the log-determinant adds fewer than 8 terms (d_x < 10).
    From 8 terms numpy's pairwise sum reorders a last-axis sum but not the
    plane-by-plane one, so both are sums of k logs rounded differently: a
    few ulp of the result."""
    data, truth = small_data(n_blocks=20, d_x=d_x, seed=d_x)
    etas = np.array([0.0, 0.5, 20.0, 1000.0])
    f = _tempered_log_marginal(data, truth)
    fine = build_ssm_phi_lattice(data, truth, etas).phi2
    scan = np.exp(_SCAN)
    cases = [(scan[None, :], np.broadcast_to(scan, (4, len(scan)))),
             (np.ascontiguousarray(fine),) * 2, (np.asfortranarray(fine),) * 2]
    for t, t_ref in cases:
        got = f(t, etas)
        ref = _eta_rows_log_marginal(data, truth, t_ref, etas)
        if d_x < 10:
            assert np.array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)


def test_lattice_without_interior_emissions():
    """With d_x = 2 there is nothing to temper: every row is the
    anchor-only posterior, on the lattice's (E, _NODES) shape."""
    data, truth = small_data(d_x=2)
    lat = build_ssm_phi_lattice(data, truth, [0.0, 0.5, 3.0])
    assert lat.phi2.shape == lat.log_weights.shape == (3, _NODES)
    assert np.all(lat.log_weights == lat.log_weights[0])


def test_row_modes_match_a_dense_scan():
    """Each row's rule is centred on its mode (the mean of its log nodes,
    the Hermite nodes being symmetric): from eta = 0 to 1000, on training
    and full data at five interior scales, it is within half a step of the
    maximum of a 200,001-point scan of the log density of log phi^2.  With
    no interior emissions the mode is the anchor-only InvGamma's,
    log(b' / a') in closed form, which the finite-difference steps meet to
    their bias of about 2e-9."""
    x = np.linspace(np.log(1e-6), np.log(1e6), 200001)
    etas = np.array([0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 1000.0])
    for phi_m in (0.3, 0.5, 1.0, 1.5, 2.0):
        full, truth = small_data(n_blocks=60, seed=100, phi_M_star=phi_m)
        for data in (full.subset(np.arange(10)), full,
                     small_data(d_x=2, seed=101, phi_M_star=phi_m)[0]):
            mode = np.mean(np.log(build_ssm_phi_lattice(data, truth,
                                                        etas).phi2), axis=1)
            f = _tempered_log_marginal(data, truth)
            for eta, got in zip(etas, mode):
                g = f(np.exp(x)[None, :], [eta])[0] + x
                assert abs(got - x[np.argmax(g)]) <= 0.5 * (x[1] - x[0])
            if data.d_x == 2:
                a = truth.invgamma_a + data.n_blocks
                b = truth.invgamma_b + 0.5 * np.sum(anchor_residuals(data))
                assert np.allclose(mode, np.log(b / a), rtol=0.0, atol=1e-8)


def _mean_phi2(post):
    return float(np.sum(np.exp(post.log_weights) * post.phi2))


def test_posterior_normalizes_and_concentrates():
    data, truth = small_data(n_blocks=200, seed=4)
    post = build_ssm_phi_posterior(data, truth, eta=1.0)
    assert np.sum(np.exp(post.log_weights)) == pytest.approx(1.0, abs=1e-6)
    # phi_M* = phi_A* = 1, so the posterior should sit near phi^2 = 1
    assert abs(_mean_phi2(post) - 1.0) < 0.15


def test_posterior_tracks_interior_scale_with_eta():
    """With misspecified interior noise (phi_M* < phi_A*), increasing eta
    pulls the posterior toward the interior scale."""
    data, truth = small_data(n_blocks=300, seed=5, phi_M_star=0.5)
    m_low = _mean_phi2(build_ssm_phi_posterior(data, truth, eta=0.2))
    m_high = _mean_phi2(build_ssm_phi_posterior(data, truth, eta=5.0))
    assert m_high < m_low
    assert m_high < 0.6  # near the interior variance 0.25, far below 1


def test_block_predictive_agrees_with_direct_sum():
    data, truth = small_data(seed=6)
    calib, _ = small_data(n_blocks=7, seed=7)
    post = build_ssm_phi_posterior(data, truth, eta=0.8)
    per = post.block_log_predictive(calib)
    assert per.shape == (7,)
    # direct: integrate N(x_anchor; theta_anchor, phi2) over the posterior
    w = np.exp(post.log_weights)
    for j in range(7):
        dens = np.array([
            np.prod(stats.norm.pdf(calib.x_anchor[j], calib.theta_anchor[j],
                                   np.sqrt(t))) for t in post.phi2])
        assert per[j] == pytest.approx(np.log(np.sum(w * dens)), abs=1e-10)


def test_pooled_predictive_agrees_with_direct_sum():
    data, truth = small_data(seed=8)
    calib, _ = small_data(n_blocks=4, seed=9)
    post = build_ssm_phi_posterior(data, truth, eta=1.0)
    w = np.exp(post.log_weights)
    dens = np.array([
        np.prod(stats.norm.pdf(calib.x_anchor, calib.theta_anchor, np.sqrt(t)))
        for t in post.phi2])
    assert post.log_predictive(calib, "pooled") == pytest.approx(
        np.log(np.sum(w * dens)), abs=1e-10)


def test_one_eta_posterior_is_a_lattice_row():
    """A posterior built alone at eta, and its pooled score, are bitwise
    the row of any lattice that contains eta."""
    data, truth = small_data(n_blocks=12, seed=10, phi_M_star=0.5)
    calib, _ = small_data(n_blocks=7, seed=12, phi_M_star=0.5)
    etas = [0.0, 0.3, 1.0, 4.0, 1000.0]
    lattice = build_ssm_phi_lattice(data, truth, etas)
    pooled = lattice.log_predictive(calib, "pooled")
    for i, eta in enumerate(etas):
        one, row = build_ssm_phi_posterior(data, truth, eta), lattice.row(i)
        assert one.etas == row.etas == eta
        for field in ("phi2", "log_weights", "log_norm"):
            assert np.array_equal(getattr(one, field), getattr(row, field))
        # the pooled score's own rule too
        assert one.log_predictive(calib, "pooled") == pooled[i]


def test_lattice_block_predictive_matches_rows():
    """A lattice scores each row bitwise as that row alone: block, stacked
    (test set, block) residual and pooled scores."""
    data, truth = small_data(n_blocks=12, seed=11, phi_M_star=0.5)
    tests = [small_data(n_blocks=7, seed=s, phi_M_star=0.5)[0]
             for s in (12, 13, 14)]
    calib = tests[0]
    lattice = build_ssm_phi_lattice(data, truth, [0.0, 0.25, 1.0, 3.0])
    per = lattice.block_log_predictive(calib)
    r_sets = np.stack([anchor_residuals(z) for z in tests])
    sets = lattice.scores(r_sets)
    pooled = lattice.log_predictive(calib, "pooled")
    assert per.shape == (4, 7) and sets.shape == (4, 3, 7)
    for i in range(4):
        row = lattice.row(i)
        assert np.array_equal(per[i], row.block_log_predictive(calib))
        assert np.array_equal(sets[i], row.scores(r_sets))
        assert pooled[i] == row.log_predictive(calib, "pooled")


def test_empirical_losses_shapes_and_large_eta_growth():
    train, truth = small_data(n_blocks=10, seed=10, phi_M_star=0.5)
    calib, _ = small_data(n_blocks=50, seed=11, phi_M_star=0.5)
    etas = np.array([20.0, 100.0, 1000.0])
    lattice = build_ssm_phi_lattice(train, truth, etas)
    for kind in ("pooled", "product"):
        loss = -lattice.log_predictive(calib, kind)
        assert loss.shape == (3,)
        assert np.all(np.diff(loss) > 0), kind


def test_eta_b_grid_posterior_smoke():
    from gbcal.hypercal import SGrid

    train, truth = small_data(n_blocks=4, seed=20)
    calib, _ = small_data(n_blocks=3, seed=21)
    grid = SGrid.regular([(0.1, 1.0), (0.3, 1.0)], ["eta", "b"], 4)
    gp = ssm_eta_b_grid_posterior(train, calib, truth, grid, n_iter=3000,
                                  burn_in=1000, thin=10, seed=22)
    assert gp.normalization_check() == pytest.approx(1.0, abs=0.02)
    mean = gp.mean()
    assert 0.1 <= mean[0] <= 1.0 and 0.3 <= mean[1] <= 1.0


def test_eta_b_nested_draws_smoke():
    train, truth = small_data(n_blocks=4, seed=23)
    calib, _ = small_data(n_blocks=3, seed=24)
    bounds = [(0.1, 1.0), (0.3, 1.0)]
    draws, acc = ssm_eta_b_nested_draws(train, calib, truth, bounds,
                                        n_outer=300, inner_len=20, seed=25)
    assert draws.shape == (100, 2)
    assert 0.0 < acc < 1.0
    assert np.all((draws[:, 0] >= 0.1) & (draws[:, 0] <= 1.0))
    assert np.all((draws[:, 1] >= 0.3) & (draws[:, 1] <= 1.0))


def test_eta_b_nested_draws_rejects_short_outer_chain():
    """Fewer outer steps than the burn-in, or side-chain refreshes of no
    step, are a parameter error, not a numpy shape error or a division by
    zero."""
    train, truth = small_data(n_blocks=4, seed=23)
    calib, _ = small_data(n_blocks=3, seed=24)
    with pytest.raises(ParameterError, match="burn_in"):
        ssm_eta_b_nested_draws(train, calib, truth, [(0.1, 1.0), (0.3, 1.0)],
                               n_outer=150, inner_len=2, seed=25)
    with pytest.raises(ParameterError, match="inner_len"):
        ssm_eta_b_nested_draws(train, calib, truth, [(0.1, 1.0), (0.3, 1.0)],
                               n_outer=250, inner_len=0, seed=25)


def test_joint_target_matches_marginal_posterior():
    """Integrating the joint (log phi^2, latents) target over the latents by
    MCMC must reproduce the exact phi^2 marginal."""
    data, truth = small_data(n_blocks=4, seed=12)
    target = SsmJointTarget(data, truth)
    eta = 0.7
    B = 16
    init = np.tile(target.init_state(), (B, 1))
    draws, acc, _ = rwm_batch(lambda st: target(st, eta), init,
                              n_iter=60000, burn_in=10000, thin=10,
                              seed=13)
    phi2_draws = np.exp(draws[..., 0].ravel())
    # compare CDFs on a grid through the bulk; the exact CDF is a dense
    # trapezoid of the marginal in x = log phi^2
    qs = np.quantile(phi2_draws, [0.1, 0.3, 0.5, 0.7, 0.9])
    x = np.linspace(np.log(1e-6), np.log(1e6), 20001)
    lp = ssm_log_posterior_phi2(np.exp(x), data, truth, eta) + x
    dens = np.exp(lp - lp.max())
    cdf = np.concatenate(([0.0], np.cumsum(dens[1:] + dens[:-1])))
    cdf_exact = np.interp(np.log(qs), x, cdf / cdf[-1])
    assert np.allclose(cdf_exact, [0.1, 0.3, 0.5, 0.7, 0.9], atol=0.06)


def test_joint_target_beta_limit_consistent():
    """The expm1-stabilized beta-loss term must approach the tempered
    log-likelihood difference as beta -> 1."""
    data, truth = small_data(n_blocks=3, seed=14)
    target = SsmJointTarget(data, truth)
    s1 = target.init_state()
    s2 = s1 + 0.1
    states = np.stack([s1, s2])
    eta = 0.9
    ref = target(states, eta)
    dref = ref[1] - ref[0]
    for beta in (1.001, 1.0001):
        got = target(states, eta, beta=beta)
        assert got[1] - got[0] == pytest.approx(dref, abs=0.05)
    got = target(states, eta, beta=1.0)
    assert got[1] - got[0] == pytest.approx(dref, abs=1e-8)


def test_joint_target_per_row_hyperparameters():
    data, truth = small_data(n_blocks=3, seed=15)
    target = SsmJointTarget(data, truth)
    s = target.init_state() + 0.05
    states = np.tile(s, (3, 1))
    etas = np.array([0.2, 0.7, 1.5])
    batch = target(states, etas)
    for i, e in enumerate(etas):
        single = target(s[None], e)
        assert batch[i] == pytest.approx(float(single[0]))


def _joint_target_reference(data, truth, states, eta, beta):
    """The beta-loss joint target written row by row and element by element:
    log p_i = log N(x_i; theta_i, phi^2), data term
    -sum_i expm1((beta-1) log p_i)/(beta-1) (-sum_i log p_i when
    |beta-1| < 1e-10), plus the power integral nM/beta beta^-1/2
    (2 pi phi^2)^((1-beta)/2)."""
    from scipy.special import gammaln

    B = len(states)
    eta = np.broadcast_to(np.asarray(eta, dtype=float), (B,))
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (B,))
    a, b = truth.invgamma_a, truth.invgamma_b
    w_left, w_right, Q, _ = ar1_bridge(truth, data.d_x)
    k = data.d_x - 2
    nA, nM = 2 * data.n_blocks, data.n_blocks * k
    SA = np.sum((data.x_anchor - data.theta_anchor) ** 2)
    out = np.empty(B)
    for row in range(B):
        logt = states[row, 0]
        t = np.exp(logt)
        th = states[row, 1:].reshape(data.n_blocks, k)
        lp = (a * np.log(b) - gammaln(a) - a * logt - b / t
              - 0.5 * nA * np.log(2.0 * np.pi * t) - SA / (2.0 * t))
        for j in range(data.n_blocks):
            mean = (data.theta_anchor[j, 0] * w_left
                    + data.theta_anchor[j, 1] * w_right)
            lp -= 0.5 * (th[j] - mean) @ Q @ (th[j] - mean)
        logp = (-0.5 * np.log(2.0 * np.pi * t)
                - (data.x_missing - th) ** 2 / (2.0 * t))
        bm1 = beta[row] - 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            if abs(bm1) < 1e-10:
                data_term = -np.sum(logp)
            else:
                data_term = -np.sum(np.expm1(bm1 * logp)) / bm1
            integral = (nM / beta[row] * beta[row] ** -0.5
                        * (2.0 * np.pi * t) ** ((1.0 - beta[row]) / 2.0))
            out[row] = lp - eta[row] * (data_term + integral)
    return out


def _assert_same_target(got, ref, rel=1e-12):
    fin = np.isfinite(ref)
    assert np.array_equal(np.isfinite(got), fin)
    assert np.array_equal(got[~fin], ref[~fin], equal_nan=True)
    assert np.all(np.abs(got[fin] - ref[fin]) <= rel * np.abs(ref[fin]))


@pytest.mark.parametrize("beta", [1.6, 0.7, 1.0, 1.0 + 1e-11, 1.0 - 1e-11,
                                  "rows"])
@pytest.mark.parametrize("eta", [0.6, "rows"])
def test_joint_target_matches_elementwise_reference(eta, beta):
    """The fused beta-loss target against the element-wise formula, with
    scalar and per-row hyperparameters, at and near beta = 1."""
    data, truth = small_data(n_blocks=4, seed=16, phi_M_star=0.7)
    target = SsmJointTarget(data, truth)
    rng = np.random.default_rng(17)
    B = 12
    states = np.tile(target.init_state(), (B, 1))
    states[:, 0] = rng.uniform(-3.0, 3.0, B)
    states[:, 1:] += 0.5 * rng.standard_normal((B, target.nM))
    if eta == "rows":
        eta = rng.uniform(0.05, 1.5, B)
    if beta == "rows":
        # every case at once, beta = 1 and 1 +- 1e-11 among them
        beta = np.array([1.0, 1.0 + 1e-11, 1.0 - 1e-11, 0.5, 0.99, 1.01,
                         1.3, 2.0, 4.0, 1.0, 3.0, 0.8])
    _assert_same_target(target(states, eta, beta=beta),
                        _joint_target_reference(data, truth, states, eta, beta))


def test_joint_target_overflow_matches_elementwise_reference():
    """At a tiny phi^2, (beta-1) log p overflows expm1.  For beta > 1 the
    power integral overflows too and the target is NaN, which rwm_batch
    rejects; for beta < 1 the target is -inf."""
    data, truth = small_data(n_blocks=3, seed=18)
    target = SsmJointTarget(data, truth)
    states = np.tile(target.init_state(), (4, 1))
    states[:, 0] = -600.0
    states[:, 1:] = data.x_missing.ravel() + 1.0
    states[1::2, 1] = data.x_missing.ravel()[0]     # one emission hit exactly
    betas = np.array([4.0, 4.0, 0.5, 0.5])
    with np.errstate(over="ignore", invalid="ignore"):
        got = target(states, 0.8, beta=betas)
        ref = _joint_target_reference(data, truth, states, 0.8, betas)
    assert np.isnan(ref[1]) and np.all(ref[2:] == -np.inf)
    _assert_same_target(got, ref)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ParameterError):
        rwm_batch(lambda st: target(st, 0.8, beta=4.0), states[1:2],
                  n_iter=2, burn_in=1, thin=1, seed=0)
