import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from gbcal.datasets import ParameterError, SsmTruth, simulate_ssm
from gbcal.hypercal import (_FINE_1D, _FINE_2D, NESTED_BURN_IN, SGrid,
                            _BicubicSpline, _gtsv, _NaturalCubicSpline,
                            _reflect,
                            compute_estimator_set, estimate_posterior_mode,
                            grid_posterior_from_values,
                            harmonic_mean_estimator, kl_estimator, nested_mcmc,
                            prior_uniform)
from gbcal.ssm import anchor_residuals, build_ssm_phi_lattice


def gaussian_grid_posterior(mu=0.45, sd=0.1, n=41, upper=1.0):
    """Posterior proportional to a truncated Gaussian; exact moments are
    available through scipy.stats.truncnorm."""
    grid = SGrid.regular([(0.0, upper)], ["eta"], n)
    x = grid.axes[0]
    log_pred = -0.5 * (x - mu) ** 2 / sd ** 2
    return grid_posterior_from_values(grid, log_pred, prior_uniform(upper)(x))


def test_sgrid_validation():
    with pytest.raises(ParameterError):
        SGrid(axes=(np.array([0.0, 1.0]),), names=("eta",))
    with pytest.raises(ParameterError):
        SGrid(axes=(np.array([0.0, 0.5, 0.4, 1.0]),), names=("eta",))
    with pytest.raises(ParameterError):
        SGrid.regular([(0, 1)], ["a", "b"])
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError):
            SGrid(axes=(np.array([0.0, 0.5, 1.0, bad]),), names=("eta",))
        with pytest.raises(ParameterError):
            SGrid.regular([(0.0, bad)], ["eta"])
    g = SGrid.regular([(0, 1), (0, 2)], ["eta", "b"], 5)
    assert g.shape == (5, 5)
    pts = g.points()
    assert pts.shape == (25, 2)
    # axis 0 varies slowest
    assert np.all(pts[:5, 0] == 0.0)


def test_priors():
    u = prior_uniform(2.0)
    assert u(1.0) == pytest.approx(-np.log(2.0))
    assert u(2.5) == -np.inf


def test_grid_posterior_normalizes_to_one():
    gp = gaussian_grid_posterior()
    assert gp.normalization_check() == pytest.approx(1.0, abs=1e-6)


def test_grid_posterior_matches_truncated_normal():
    mu, sd = 0.45, 0.1
    gp = gaussian_grid_posterior(mu, sd)
    a, b = (0 - mu) / sd, (1 - mu) / sd
    assert gp.mean()[0] == pytest.approx(stats.truncnorm.mean(a, b, mu, sd), abs=1e-5)
    assert gp.sd()[0] == pytest.approx(stats.truncnorm.std(a, b, mu, sd), abs=1e-5)
    xs = np.array([0.2, 0.45, 0.8])
    assert np.allclose(np.exp(gp.log_density(xs)),
                       stats.truncnorm.pdf(xs, a, b, mu, sd),
                       atol=1e-4)


def test_grid_posterior_sampling_matches_density():
    gp = gaussian_grid_posterior()
    draws = gp.sample(20000, seed=0)[:, 0]
    mu, sd = 0.45, 0.1
    a, b = (0 - mu) / sd, (1 - mu) / sd
    assert stats.kstest(draws, lambda t: stats.truncnorm.cdf(t, a, b, mu, sd)).pvalue > 1e-3


def test_grid_posterior_2d_normalizes():
    grid = SGrid.regular([(0.0, 1.0), (0.5, 2.0)], ["eta", "b"], 21)
    pts = grid.points()
    lp = (-0.5 * (pts[:, 0] - 0.5) ** 2 / 0.04
          - 0.5 * (pts[:, 1] - 1.2) ** 2 / 0.09)
    gp = grid_posterior_from_values(grid, lp, np.zeros(len(pts)))
    assert gp.normalization_check() == pytest.approx(1.0, abs=1e-3)
    assert gp.mean() == pytest.approx([0.5, 1.2], abs=5e-3)
    mode = estimate_posterior_mode(gp)
    assert mode.eta == pytest.approx(0.5, abs=5e-3)
    assert mode.b == pytest.approx(1.2, abs=5e-3)


def test_fine_density_cached_once_and_equal_to_fresh_evaluation(monkeypatch):
    """The spline is evaluated on the fine grid once per posterior, when it
    is built, for the 1-d and the 2-d lattice, however many summaries read
    the density; the density is read-only and equal to evaluating the
    spline afresh."""
    fine_calls = []
    for cls in (_NaturalCubicSpline, _BicubicSpline):
        def counted(self, *args, _cls=cls, _call=cls.__call__, **kwargs):
            if np.size(args[0]) in (_FINE_1D, _FINE_2D):
                fine_calls.append(_cls)
            return _call(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__call__", counted)
    gp1 = gaussian_grid_posterior()
    grid = SGrid.regular([(0.0, 1.0), (0.5, 2.0)], ["eta", "b"], 21)
    pts = grid.points()
    lp = (-0.5 * (pts[:, 0] - 0.5) ** 2 / 0.04
          - 0.5 * (pts[:, 1] - 1.2) ** 2 / 0.09)
    gp2 = grid_posterior_from_values(grid, lp, np.zeros(len(pts)))
    for gp in (gp1, gp2):
        gp.normalization_check(), gp.sd(), gp.sample(10, seed=0)
        compute_estimator_set(gp)
    assert fine_calls == [_NaturalCubicSpline, _BicubicSpline]
    for gp in (gp1, gp2):
        axes, dens = gp._fine_density
        assert gp._fine_density[1] is dens
        assert not dens.flags.writeable
        n = _FINE_1D if gp.grid.ndim == 1 else _FINE_2D
        fresh_axes = [np.linspace(a[0], a[-1], n) for a in gp.grid.axes]
        fresh = np.exp(gp._spline(*fresh_axes) - gp._log_norm)
        assert all(np.array_equal(a, b) for a, b in zip(axes, fresh_axes))
        assert np.array_equal(dens, fresh)
    # the normalized posterior does not reuse the un-normalized one's values
    assert gp1.normalization_check() == pytest.approx(1.0, abs=1e-6)


def test_missing_lattice_point_warns_and_recovers():
    grid = SGrid.regular([(0.0, 1.0)], ["eta"], 41)
    x = grid.axes[0]
    lp = -0.5 * (x - 0.5) ** 2 / 0.01
    lp[7] = np.nan
    with pytest.warns(UserWarning, match="lattice points missing"):
        gp = grid_posterior_from_values(grid, lp, np.zeros_like(x))
    assert gp.mean()[0] == pytest.approx(0.5, abs=1e-3)
    lp[np.arange(41) != 20] = np.nan
    with pytest.warns(UserWarning, match="40 lattice points missing"), \
            pytest.raises(ParameterError, match="at least 2 finite"):
        grid_posterior_from_values(grid, lp, np.zeros_like(x))


def test_mode_tie_breaks_toward_smaller_values():
    # perfectly flat posterior: the reported mode should sit at the low end
    grid = SGrid.regular([(0.0, 1.0)], ["eta"], 41)
    x = grid.axes[0]
    gp = grid_posterior_from_values(grid, np.zeros_like(x),
                                    np.zeros_like(x))
    assert estimate_posterior_mode(gp).eta == pytest.approx(0.0, abs=1e-6)


def test_mode_reaches_the_spline_maximum():
    """The mode is read from the spline's cubic pieces, not a search's
    approach to their maximum: a boundary mode is its bound exactly, and at
    a clear interior peak, off the fine grid or centred on a knot, the
    spline is no lower at the mode than anywhere in the bracket."""
    grid = SGrid.regular([(0.0, 1.0)], ["eta"], 41)
    for slope, bound in ((5.0, 1.0), (-5.0, 0.0)):
        gp = grid_posterior_from_values(grid, slope * grid.axes[0],
                                        np.zeros(41))
        assert estimate_posterior_mode(gp).eta == bound
    grid = SGrid.regular([(0.0, 1.0), (0.5, 2.0)], ["eta", "b"], 9)
    pts = grid.points()
    gp = grid_posterior_from_values(grid, 3.0 * pts[:, 0] + 2.0 * pts[:, 1],
                                    np.zeros(len(pts)))
    mode = estimate_posterior_mode(gp)
    assert (mode.eta, mode.b) == (1.0, 2.0)
    for mu in (0.410123, 0.45):        # off the fine grid; on knot 18 of 41
        gp = gaussian_grid_posterior(mu=mu)
        (x,), dens = gp._fine_density
        i = int(np.argmax(dens))
        bracket = np.linspace(x[i - 1], x[i + 1], 10001)
        at_mode = gp.log_density(np.array(estimate_posterior_mode(gp).eta))
        assert at_mode >= gp.log_density(bracket).max() - 1e-15


def test_2d_mode_is_the_converged_coordinate_ascent():
    """On random 9 x 9 lattices with correlated axes, the 2-d mode is where
    a 100-round ascent of exact line maxima, started as it is, settles: its
    rounds run until they stop moving, not a fixed three."""
    from gbcal.hypercal import _line_max

    grid = SGrid.regular([(0.0, 1.0), (0.5, 2.0)], ["eta", "b"], 9)
    pts = grid.points()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = rng.uniform([0.3, 0.9], [0.7, 1.6])
        d = (pts - c) / rng.uniform(0.15, 0.4, 2)
        rho = rng.uniform(-0.9, 0.9)
        lp = (-0.5 * (d[:, 0] ** 2 - 2 * rho * d[:, 0] * d[:, 1]
                      + d[:, 1] ** 2) / (1 - rho ** 2)
              + 0.05 * rng.standard_normal(len(pts)))
        gp = grid_posterior_from_values(grid, lp, np.zeros(len(pts)))
        axes, dens = gp._fine_density
        start = np.unravel_index(np.argmax(dens), dens.shape)
        point = [float(a[i]) for a, i in zip(axes, start)]
        for _ in range(100):
            for axis, (a, i) in enumerate(zip(axes, start)):
                bracket = a[[max(i - 1, 0), min(i + 1, len(a) - 1)]]
                point[axis] = _line_max(*gp._spline.pieces(axis, point),
                                        bracket, point[axis], 0.0)
        mode = estimate_posterior_mode(gp)
        assert np.allclose([mode.eta, mode.b], point, rtol=0.0, atol=1e-12)


def test_mean_mode_consistency_on_skewed_density():
    grid = SGrid.regular([(0.0, 1.0)], ["eta"], 41)
    x = grid.axes[0]
    # Beta(2,5)-shaped: mode 0.2, mean 2/7
    with np.errstate(divide="ignore"):
        lp = np.log(x) + 4 * np.log1p(-x)
    gp = grid_posterior_from_values(grid, lp, np.zeros_like(x))
    assert compute_estimator_set(gp).mean.eta == pytest.approx(2 / 7, abs=5e-3)
    assert estimate_posterior_mode(gp).eta == pytest.approx(0.2, abs=5e-3)


def _spline_cases():
    """(x, y) knot sets: uniform lattices of 4-61 points; lattices with
    dropped points, among them a spacing h followed by a gap of 3h, whose
    first row dgtsv eliminates by a row interchange; and log densities near
    -2800, as the mixture lattice gives."""
    rng = np.random.default_rng(16)
    cases = [(np.linspace(0.0, 1.0, n), rng.normal(size=n))
             for n in range(4, 62)]
    for drop in ([2], [2, 3], [1, 5, 6], [7], [0, 39], [20, 21, 22, 30]):
        x = np.delete(np.linspace(0.0, 1.0, 41), drop)
        cases.append((x, -0.5 * (x - 0.4) ** 2 / 0.01))
    x = np.array([0.0, 0.1, 0.4, 0.5, 0.6, 0.7])
    cases.append((x, rng.normal(size=6)))
    for n in (11, 41):
        x = np.linspace(0.0, 3.0, n)
        cases.append((x, -2822.5 - 30.0 * (x - 0.4) ** 2
                      + 1e-3 * rng.normal(size=n)))
    return cases


def test_natural_spline_matches_scipy_cubic_spline():
    """The in-house spline is scipy's natural CubicSpline: coefficients,
    values on arrays and scalars, at the knots, the end points and beyond
    them.  With scipy 1.17.1 the two agree bit for bit; other scipy and
    LAPACK builds may differ in the last bits."""
    from scipy.interpolate import CubicSpline

    def close(got, want):
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    for x, y in _spline_cases():
        ref = CubicSpline(x, y, bc_type="natural")
        sp = _NaturalCubicSpline(x, y)
        assert sp.c.shape == (4, len(x) - 1)
        close(sp.c, ref.c)
        t = np.concatenate([np.linspace(x[0], x[-1], 401),
                            [x[0] - 0.05, x[-1] + 0.05]])
        close(sp(t), ref(t))
        close(sp(x), y)
        for v in (x[0], x[-1], x[1], 0.5 * (x[1] + x[2]), x[-1] + 0.05):
            assert isinstance(sp(v), float)
            close(sp(v), ref(v))
            close(sp(np.float64(v)), ref(v))


def test_bicubic_spline_matches_scipy_rect_bivariate_spline():
    """The 2-d interpolant is scipy's RectBivariateSpline(kx=3, ky=3, s=0)
    to round-off, on the fine grid of its posterior, at points and at
    scalars, for uniform, non-uniform and 4-point axes; it passes through
    the lattice values."""
    from scipy.interpolate import RectBivariateSpline

    rng = np.random.default_rng(23)
    axes = [(np.linspace(0.05, 1.0, 9), np.linspace(0.25, 1.0, 9)),
            (np.linspace(0.0, 1.0, 4), np.linspace(0.5, 2.0, 4)),
            (np.geomspace(0.01, 1.0, 7), np.linspace(0.25, 1.0, 4)),
            (np.array([0.0, 0.1, 0.4, 0.5, 0.6, 0.7, 1.3]),
             np.linspace(0.0, 2.0, 11) + rng.uniform(-0.05, 0.05, 11))]
    for x, y in axes:
        for _ in range(10):
            z = (rng.normal(size=(len(x), len(y)))
                 - 40.0 * (x[:, None] - 0.5) ** 2 - 10.0 * y[None, :] ** 2)
            ref = RectBivariateSpline(x, y, z, kx=3, ky=3, s=0)
            sp = _BicubicSpline(x, y, z)
            fx, fy = (np.linspace(a[0], a[-1], _FINE_2D) for a in (x, y))
            want = ref(fx, fy)
            scale = np.max(np.abs(want))

            def close(got, want):
                np.testing.assert_allclose(got, want, rtol=1e-13,
                                           atol=1e-13 * scale)

            close(sp(fx, fy), want)
            close(sp(x, y), z)
            px = rng.uniform(x[0], x[-1], (5, 20))
            py = rng.uniform(y[0], y[-1], 20)
            close(sp.ev(px, py), ref.ev(px, np.broadcast_to(py, px.shape)))
            for u, v in [(x[0], y[0]), (x[-1], y[-1]), (x[1], y[-2]),
                         (px[0, 0], py[0])]:
                close(sp.ev(float(u), float(v)), ref.ev(u, v))


def test_gtsv_pivots_like_lapack():
    """A pivot far smaller than the entry below it is swapped out: without
    the interchange, elimination by 1e-20 loses the solution entirely."""
    dl, d, du = [1.0, 1.0, 1.0], [1e-20, 1.0, 3.0, 2.0], [1.0, 1e-20, 1.0]
    a = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    b = [1.0, 2.0, 3.0, 4.0]
    want = np.linalg.solve(a, b)
    np.testing.assert_allclose(_gtsv(dl, d, du, list(b)), want, rtol=1e-12)


def _export(gp, path):
    """(lines, rows) of the exported CSV; every field must parse as a plain
    number."""
    gp.export_csv(path)
    lines = path.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines, rows


def test_export_csv(tmp_path):
    gp = gaussian_grid_posterior(n=11)
    lines, rows = _export(gp, tmp_path / "post.csv")
    assert lines[0] == "s_axis0,log_pred,log_prior,log_post_norm"
    assert len(lines) == 12
    assert rows.shape == (11, 4)
    assert np.array_equal(rows[:, 1], gp.log_pred)


def test_export_csv_log_post_norm_is_log_density(tmp_path):
    """log_post_norm is the normalized log density at the lattice nodes,
    also when the lattice values sit far from zero."""
    grid = SGrid.regular([(0.0, 1.0)], ["eta"], 11)
    x = grid.axes[0]
    gp = grid_posterior_from_values(grid,
                                    -2822.5 - 30.0 * (x - 0.4) ** 2,
                                    prior_uniform(1.0)(x))
    _, rows = _export(gp, tmp_path / "post1.csv")
    assert np.allclose(rows[:, 3], gp.log_density(rows[:, 0]),
                       rtol=0.0, atol=1e-9)

    grid = SGrid.regular([(0.0, 1.0), (0.5, 2.0)], ["eta", "b"], 6)
    pts = grid.points()
    gp = grid_posterior_from_values(
        grid,
        -950.0 - 20.0 * (pts[:, 0] - 0.3) ** 2 - 5.0 * (pts[:, 1] - 1.2) ** 2,
        np.zeros(len(pts)))
    _, rows = _export(gp, tmp_path / "post2.csv")
    assert rows.shape == (36, 5)
    assert np.allclose(rows[:, 4], gp.log_density(rows[:, 0], rows[:, 1]),
                       rtol=0.0, atol=1e-9)


# --- lattice predictives ----------------------------------------------------

def _ssm_lattice(etas):
    truth = SsmTruth()
    train = simulate_ssm(truth, 8, 6, seed=21)
    calib = simulate_ssm(truth, 5, 6, seed=22)
    return build_ssm_phi_lattice(train, truth, etas), train, calib, truth


def _invgamma_anchor_log_predictive(train, truth, r, m):
    """At eta = 0 phi^2 | train is InvGamma(a + nA/2, b + SA/2), so m anchor
    emissions with residual sum of squares r have a Student-t predictive."""
    a = truth.invgamma_a + train.n_blocks
    b = truth.invgamma_b + 0.5 * np.sum(anchor_residuals(train))
    return (a * np.log(b) - gammaln(a) + gammaln(a + m / 2)
            - m / 2 * np.log(2 * np.pi) - (a + m / 2) * np.log(b + r / 2))


def test_pointwise_predictive_matches_closed_form():
    lattice, train, calib, truth = _ssm_lattice([0.0, 1.0])
    r = anchor_residuals(calib)
    ref = _invgamma_anchor_log_predictive(train, truth, r, 2)
    assert np.allclose(lattice.row(0).block_log_predictive(calib), ref,
                       rtol=0.0, atol=1e-8)
    assert lattice.log_predictive(calib, "product")[0] == pytest.approx(
        np.sum(ref), abs=1e-8)


def test_pooled_predictive_matches_closed_form():
    lattice, train, calib, truth = _ssm_lattice([0.0, 1.0])
    r = anchor_residuals(calib)
    ref = _invgamma_anchor_log_predictive(train, truth, np.sum(r), 2 * len(r))
    assert lattice.log_predictive(calib, "pooled")[0] == pytest.approx(
        ref, abs=1e-8)
    assert lattice.row(0).log_predictive(calib, "pooled") == pytest.approx(
        ref, abs=1e-8)


def test_product_predictive_additivity():
    lattice, _, calib, _ = _ssm_lattice([0.0, 0.3, 1.0, 4.0])
    total = lattice.log_predictive(calib, "product")
    per_block = [lattice.log_predictive(calib.subset([j]), "product")
                 for j in range(calib.n_blocks)]
    assert np.allclose(total, np.sum(per_block, axis=0), rtol=0.0, atol=1e-10)
    for i in range(len(lattice.etas)):
        assert total[i] == pytest.approx(
            np.sum(lattice.row(i).block_log_predictive(calib)), abs=1e-10)
    # one block: the pooled and product predictives coincide, up to the
    # two rules: the pooled score integrates on a rule of its own, the
    # product one on the posterior's nodes
    one = calib.subset([2])
    assert np.allclose(lattice.log_predictive(one, "pooled"),
                       lattice.log_predictive(one, "product"),
                       rtol=0.0, atol=1e-11)


# --- estimators -------------------------------------------------------------

def test_harmonic_mean_uniform_closed_form():
    # posterior Uniform(a, b): 1/E[1/s] = (b - a) / log(b / a)
    a, b = 0.2, 0.9
    grid = SGrid.regular([(a, b)], ["eta"], 41)
    x = grid.axes[0]
    gp = grid_posterior_from_values(grid, np.zeros_like(x),
                                    np.zeros_like(x))
    ref = (b - a) / np.log(b / a)
    assert harmonic_mean_estimator(gp) == pytest.approx(ref, rel=1e-6)


def test_harmonic_mean_diverges_with_boundary_mass():
    # appreciable density at eta = 0 makes E[1/eta] blow up
    grid = SGrid.regular([(0.0, 1.0)], ["eta"], 41)
    x = grid.axes[0]
    gp = grid_posterior_from_values(grid, np.zeros_like(x),
                                    np.zeros_like(x))
    with pytest.raises(ParameterError):
        harmonic_mean_estimator(gp)


def test_compute_estimator_set_handles_divergent_harmonic():
    grid = SGrid.regular([(0.0, 1.0)], ["eta"], 41)
    x = grid.axes[0]
    gp = grid_posterior_from_values(grid, np.zeros_like(x),
                                    np.zeros_like(x))
    est = compute_estimator_set(gp)
    assert est.harmonic_mean is None
    d = est.as_dict()
    assert "harmonic_mean" not in d and "mean" in d


def test_kl_estimator_recovers_sharp_posterior():
    """When the hyperposterior is a near point mass, the KL summary must
    return (nearly) that atom regardless of the predictive model."""
    s_star = 0.62
    gp = gaussian_grid_posterior(mu=s_star, sd=0.004)

    def predictive_sampler(s, size, rng):
        return s[0] + 0.05 * rng.standard_normal(size)

    def predictive_logpdf(sp, z):
        return stats.norm.logpdf(z, loc=sp, scale=0.05)

    hp = kl_estimator(gp, predictive_sampler, predictive_logpdf,
                      T=100, J_inner=200, seed=4)
    assert hp.eta == pytest.approx(s_star, abs=0.02)


@pytest.mark.parametrize("logpdf, match", [
    (lambda sp, z: np.where(z > 0.6, np.nan, 0.0), "non-finite"),
    (lambda sp, z: np.zeros(len(z) - 1), "shape"),
], ids=["nan", "wrong_shape"])
def test_kl_estimator_rejects_bad_predictive_scores(logpdf, match):
    """A NaN score or a score array of the wrong shape is an error, not a
    silent fall back to the raw argmax."""
    gp = gaussian_grid_posterior(mu=0.62, sd=0.004)

    def predictive_sampler(s, size, rng):
        return s[0] + 0.05 * rng.standard_normal(size)

    with pytest.raises(ParameterError, match=match):
        kl_estimator(gp, predictive_sampler, logpdf, T=20, J_inner=50,
                     seed=4)


def test_kl_estimator_rejects_2d_posterior_before_drawing():
    """The minimum-KL summary is 1-d only; a 2-d posterior is refused
    before any predictive draw is made."""
    grid = SGrid.regular([(0.0, 1.0), (0.5, 2.0)], ["eta", "b"], 9)
    gp = grid_posterior_from_values(grid, np.zeros(81), np.zeros(81))
    calls = []

    def predictive_sampler(s, size, rng):
        calls.append(s)
        return rng.standard_normal(size)

    with pytest.raises(ParameterError, match="1-d posterior, got 2 axes"):
        kl_estimator(gp, predictive_sampler,
                     lambda sp, z: stats.norm.logpdf(z), T=5, J_inner=10)
    assert calls == []


@pytest.mark.parametrize("counts", [dict(T=0), dict(J_inner=0),
                                    dict(T=-3, J_inner=-1)])
def test_kl_estimator_rejects_counts_below_one(counts):
    """No draws at all cannot summarize the predictive: a zero count is
    refused before anything is drawn, not answered with numpy's errors
    or the lower bound."""
    gp = gaussian_grid_posterior(mu=0.62, sd=0.004)
    calls = []

    def predictive_sampler(s, size, rng):
        calls.append(s)
        return rng.standard_normal(size)

    with pytest.raises(ParameterError, match="must be >= 1"):
        kl_estimator(gp, predictive_sampler,
                     lambda sp, z: stats.norm.logpdf(z), **counts)
    assert calls == []


def test_nested_mcmc_rejects_nan_calibration_score():
    # a NaN score used to be accepted, after which every proposal was
    with pytest.raises(ParameterError, match="NaN"):
        nested_mcmc([(0.0, 1.0)], np.zeros(1),
                    lambda s, state, seed: state + s,
                    lambda state: np.nan if state[0] > 0.7 else 0.0,
                    n_outer=300, seed=1)


def _nested_mcmc_reference(bounds, state0, inner_refresh, log_calib,
                           n_outer, seed):
    """nested_mcmc written plainly: accept where a uniform falls below
    alpha = exp(min(0, log alpha)), and during burn-in move the log scale
    out of place by (t+1)^-0.6 (alpha - 0.234)."""
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    rng = np.random.default_rng(seed)
    s, scale, log_s = (lo + hi) / 2, (hi - lo) / 10.0, 0.0
    state = inner_refresh(s, state0, int(rng.integers(2 ** 63)))
    cur = float(log_calib(state))
    draws, n_acc = [], 0
    for t in range(n_outer):
        prop = _reflect(s + np.exp(log_s) * scale * rng.standard_normal(len(lo)),
                        lo, hi)
        new_state = inner_refresh(prop, state, int(rng.integers(2 ** 63)))
        new = float(log_calib(new_state))
        alpha = np.exp(np.minimum(0.0, new - cur))
        if rng.random() < alpha:
            s, state, cur = prop, new_state, new
            n_acc += 1
        if t < NESTED_BURN_IN:
            log_s = log_s + (t + 1.0) ** -0.6 * (alpha - 0.234)
        else:
            draws.append(s)
    return np.array(draws), n_acc / n_outer


def test_nested_mcmc_random_stream_matches_reference():
    """Draws and acceptance are bitwise those of the plain loop, through the
    adaptive burn-in and past it, in two dimensions with an exact-draw
    refresh: phi_j | (eta, b) ~ N(b, 1 / (n eta)) per calibration block."""
    n, J = 50, 6
    y = 0.4 + np.random.default_rng(11).standard_normal(J)

    def inner_refresh(s, phis, seed):
        r = np.random.default_rng(seed)
        return s[1] + r.standard_normal(phis.shape) / np.sqrt(n * s[0])

    def log_calib(phis):
        return -0.5 * float(np.sum((y - phis[:, 0]) ** 2))

    args = ([(0.05, 1.0), (-1.0, 2.0)], np.zeros((J, 1)), inner_refresh,
            log_calib, NESTED_BURN_IN + 60, 13)
    draws, acc = nested_mcmc(*args)
    ref_draws, ref_acc = _nested_mcmc_reference(*args)
    assert draws.shape == (60, 2)
    assert np.array_equal(draws, ref_draws) and acc == ref_acc
    assert 0.1 < acc < 0.9


def test_nested_mcmc_product_matches_grid_posterior():
    """Exactly solvable case: phi | s has a Gaussian tempered posterior and
    the calibration density is Gaussian, so the lattice posterior is exact.
    The nested sampler must agree in distribution."""
    n, J = 50, 8
    rng = np.random.default_rng(6)
    xbar = 0.2
    y = 0.2 + rng.standard_normal(J)

    grid = SGrid.regular([(0.05, 1.0)], ["eta"], 41)
    etas = grid.axes[0]
    log_pred = np.array([np.sum(stats.norm.logpdf(y, xbar, np.sqrt(1 + 1 / (n * e))))
                         for e in etas])
    gp = grid_posterior_from_values(grid, log_pred,
                                    prior_uniform(1.0)(etas))

    def inner_refresh(s, phis, seed):
        # exact refresh: draw each phi_j from its tempered posterior at s
        r = np.random.default_rng(seed)
        return xbar + r.standard_normal(phis.shape) / np.sqrt(n * s[0])

    def log_calib(phis):
        return float(np.sum(stats.norm.logpdf(y, loc=phis[:, 0], scale=1.0)))

    draws, acc = nested_mcmc([(0.05, 1.0)], np.zeros((J, 1)), inner_refresh,
                             log_calib, n_outer=6000, seed=7)
    ref = gp.sample(6000, seed=8)[:, 0]
    ks = stats.ks_2samp(draws[:, 0], ref).statistic
    assert 0.1 < acc < 0.9
    assert ks < 0.05
