import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbcal.datasets import (
    HyperPoint,
    MixtureTruth,
    ParameterError,
    SsmTruth,
    read_modular_csv,
    read_ssm_csv,
    simulate_conjugate_normal,
    simulate_mixture,
    simulate_ssm,
    split_ssm_blocks,
    write_modular_csv,
    write_ssm_csv,
)


def test_hyperpoint_domains():
    with pytest.raises(ParameterError):
        HyperPoint(eta=-0.1)
    with pytest.raises(ParameterError):
        HyperPoint(gamma=1.5)
    with pytest.raises(ParameterError):
        HyperPoint(b=0.0)
    for bad in (np.nan, np.inf):
        for name in ("eta", "b", "gamma"):
            with pytest.raises(ParameterError):
                HyperPoint(**{name: bad})


def test_simulate_mixture_sizes_and_determinism():
    truth = MixtureTruth()
    d1 = simulate_mixture(truth, 30, 60, seed=7)
    d2 = simulate_mixture(truth, 30, 60, seed=7)
    assert d1.x1.n == 30 and d1.x2.n == 60
    assert np.array_equal(d1.x1.points, d2.x1.points)
    assert np.array_equal(d1.x2.points, d2.x2.points)


def test_mixture_pure_component():
    truth = MixtureTruth(lambda_star=1.0)
    d = simulate_mixture(truth, 0, 5000, seed=1)
    # all module-2 points from the centred component
    assert abs(np.mean(d.x2.points)) < 0.1
    assert np.max(np.abs(d.x2.points)) < 6.0


def test_mixture_outlier_fraction():
    truth = MixtureTruth(lambda_star=0.9)
    d = simulate_mixture(truth, 0, 10 ** 5, seed=3)
    frac = np.mean(np.abs(d.x2.points - 6.0) < 3.0)
    assert abs(frac - 0.10) < 0.01
    assert abs(np.mean(d.x2.points) - 0.6) < 5 * np.sqrt(4.24 / 10 ** 5)


def test_simulate_ssm_shapes_and_anchor_set():
    truth = SsmTruth()
    d = simulate_ssm(truth, 10, 6, seed=2)
    assert d.x_all.shape == (10, 6)
    assert d.theta_anchor.shape == (10, 2)
    # the anchor set is each block's first and last position
    assert np.array_equal(d.x_anchor, d.x_all[:, [0, 5]])
    assert np.array_equal(d.x_missing, d.x_all[:, 1:5])


def _simulate_ssm_numpy_loop(truth, n_blocks, d_x, seed):
    """simulate_ssm with the AR(1) recursion written on numpy scalars."""
    rng = np.random.default_rng(seed)
    total = n_blocks * d_x
    eps = rng.standard_normal(total)
    theta = np.empty(total)
    theta[0] = np.sqrt(truth.stationary_var) * eps[0]
    for t in range(1, total):
        theta[t] = truth.nu * theta[t - 1] + truth.sigma_ar * eps[t]
    theta = theta.reshape(n_blocks, d_x)
    sd = np.full((n_blocks, d_x), truth.phi_M_star)
    sd[:, 0] = truth.phi_A_star
    sd[:, -1] = truth.phi_A_star
    x_all = theta + sd * rng.standard_normal((n_blocks, d_x))
    return theta[:, [0, d_x - 1]], x_all


@pytest.mark.parametrize("nu, sigma_ar", [(0.5, 0.7), (-0.93, 2.5),
                                          (0.999, 0.01), (0.0, 1.0)])
@pytest.mark.parametrize("n_blocks, d_x, seed", [(1, 2, 0), (1, 6, 1),
                                                 (60, 6, 2), (37, 2, 3),
                                                 (100, 9, 4)])
def test_simulate_ssm_bitwise_equals_numpy_loop(nu, sigma_ar, n_blocks, d_x,
                                                seed):
    truth = SsmTruth(nu=nu, sigma_ar=sigma_ar, phi_M_star=0.5)
    d = simulate_ssm(truth, n_blocks, d_x, seed)
    theta_anchor, x_all = _simulate_ssm_numpy_loop(truth, n_blocks, d_x, seed)
    assert np.array_equal(d.theta_anchor, theta_anchor)
    assert np.array_equal(d.x_all, x_all)


def test_ssm_stationary_variance():
    truth = SsmTruth()
    d = simulate_ssm(truth, 200000, 5, seed=9)
    # reconstruct the full latent chain variance from the anchors
    v = np.var(d.theta_anchor)
    assert abs(v - 0.49 / 0.75) < 0.01 * (0.49 / 0.75) * 3


def test_ssm_invalid_params():
    with pytest.raises(ParameterError):
        SsmTruth(nu=1.0)
    with pytest.raises(ParameterError):
        simulate_ssm(SsmTruth(), 3, 1, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_truth_rejected(bad):
    for name in ("phi_star", "theta_star", "sigma1_sq", "sigma2_sq",
                 "lambda_star"):
        with pytest.raises(ParameterError):
            MixtureTruth(**{name: bad})
    for name in ("nu", "sigma_ar", "phi_A_star", "phi_M_star", "invgamma_a",
                 "invgamma_b"):
        with pytest.raises(ParameterError):
            SsmTruth(**{name: bad})
    with pytest.raises(ParameterError):
        simulate_conjugate_normal(bad, 3, seed=0)


def test_simulate_conjugate_normal():
    assert simulate_conjugate_normal(0.0, 0, seed=0).n == 0
    d = simulate_conjugate_normal(0.0, 10 ** 6, seed=4)
    assert abs(np.mean(d.points)) < 0.004
    assert simulate_conjugate_normal(0.0, 10, seed=1).n == 10


def test_split_sizes():
    d = simulate_ssm(SsmTruth(), 12, 4, seed=5)
    for n_train in (0, 1, 7, 12):
        tr, ca = split_ssm_blocks(d, n_train, seed=5)
        assert (tr.n_blocks, ca.n_blocks) == (n_train, 12 - n_train)
        assert tr.x_all.shape == (n_train, 4)
        assert ca.theta_anchor.shape == (12 - n_train, 2)


def test_split_fraction_validation():
    d = simulate_ssm(SsmTruth(), 5, 4, seed=0)
    with pytest.raises(ParameterError):
        split_ssm_blocks(d, 6, seed=0)
    with pytest.raises(ParameterError):
        split_ssm_blocks(d, -1, seed=0)


@settings(max_examples=30, deadline=None)
@given(n_blocks=st.integers(1, 40), frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 31))
def test_split_is_partition(n_blocks, frac, seed):
    d = simulate_ssm(SsmTruth(), n_blocks, 4, seed=seed)
    n_train = int(round(frac * n_blocks))
    parts = split_ssm_blocks(d, n_train, seed=seed)
    merged = np.concatenate([p.x_all for p in parts])
    order = np.lexsort(merged.T[::-1])
    ref = np.lexsort(d.x_all.T[::-1])
    assert np.array_equal(merged[order], d.x_all[ref])
    # anchors travel with their blocks
    anchors = np.concatenate([p.theta_anchor for p in parts])
    assert np.array_equal(anchors[order], d.theta_anchor[ref])
    again = split_ssm_blocks(d, n_train, seed=seed)
    for a, b in zip(parts, again):
        assert np.array_equal(a.x_all, b.x_all)


def test_split_ssm_blocks_partition():
    d = simulate_ssm(SsmTruth(), 60, 6, seed=1)
    tr, ca = split_ssm_blocks(d, 10, seed=2)
    assert tr.n_blocks == 10 and ca.n_blocks == 50
    merged = np.sort(np.concatenate([tr.x_all[:, 0], ca.x_all[:, 0]]))
    assert np.array_equal(merged, np.sort(d.x_all[:, 0]))


def test_csv_roundtrip_modular(tmp_path):
    d = simulate_mixture(MixtureTruth(), 5, 7, seed=0)
    path = tmp_path / "m.csv"
    write_modular_csv(path, d, meta={"seed": 0})
    back = read_modular_csv(path)
    assert np.allclose(back.x1.points, d.x1.points)
    assert np.allclose(back.x2.points, d.x2.points)
    assert (tmp_path / "m.csv.meta").read_text() == "seed=0\n"


def test_csv_roundtrip_ssm(tmp_path):
    d = simulate_ssm(SsmTruth(), 4, 6, seed=0)
    path = tmp_path / "s.csv"
    write_ssm_csv(path, d)
    back = read_ssm_csv(path)
    assert np.allclose(back.x_all, d.x_all)
    assert np.allclose(back.theta_anchor, d.theta_anchor)
