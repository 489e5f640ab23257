import numpy as np
import pytest
from scipy import stats

from gbcal.datasets import ParameterError, SsmTruth
from gbcal.sampling import ar1_bridge, ess_initial_positive, rwm_batch


def test_ess_iid_close_to_n():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4000)
    ess = ess_initial_positive(x)
    assert 0.8 * 4000 < ess <= 4000


def test_ess_correlated_much_smaller():
    rng = np.random.default_rng(1)
    x = np.empty(4000)
    x[0] = 0.0
    for t in range(1, 4000):
        x[t] = 0.95 * x[t - 1] + rng.standard_normal()
    ess = ess_initial_positive(x)
    # theory: ESS ~ n (1-rho)/(1+rho) ~ n/39
    assert ess < 400


def test_ess_degenerate_inputs():
    assert ess_initial_positive(np.ones(100)) == 100.0
    assert ess_initial_positive(np.array([1.0, 2.0])) == 2.0


def _one_chain(log_target, init, n_iter, burn_in, thin, seed):
    """One adaptive random-walk Metropolis chain: rwm_batch with a batch of
    one, with log_target taking the state vector (a scalar in 1-d)."""
    init = np.atleast_1d(np.asarray(init, dtype=float))
    one = log_target if len(init) > 1 else (lambda x: log_target(x[0]))
    draws, acc = rwm_batch(lambda st: [one(st[0])], init[None, :], n_iter,
                           burn_in, thin, seed)
    return draws[0], acc[0]


def test_adaptive_rwm_standard_normal():
    draws, acc = _one_chain(lambda t: -0.5 * t * t, 0.0, n_iter=30000,
                            burn_in=5000, thin=5, seed=3)
    assert 0.2 < acc < 0.7
    x = draws[:, 0]
    se = 1.0 / np.sqrt(ess_initial_positive(x))
    assert abs(np.mean(x)) < 4 * se
    assert abs(np.var(x) - 1.0) < 0.1
    assert stats.kstest(x[::5], "norm").pvalue > 1e-3


def test_adaptive_rwm_2d_correlated_gaussian():
    S = np.array([[1.0, 0.8], [0.8, 1.0]])
    P = np.linalg.inv(S)
    draws, _ = _one_chain(lambda t: -0.5 * t @ P @ t, np.zeros(2),
                          n_iter=40000, burn_in=8000, thin=4, seed=4)
    C = np.cov(draws.T)
    assert np.allclose(C, S, atol=0.12)


def test_adaptive_rwm_deterministic_in_seed():
    d1, a1 = _one_chain(lambda t: -0.5 * t * t, 0.0, n_iter=2000,
                        burn_in=500, thin=1, seed=9)
    d2, a2 = _one_chain(lambda t: -0.5 * t * t, 0.0, n_iter=2000,
                        burn_in=500, thin=1, seed=9)
    assert np.array_equal(d1, d2) and a1 == a2
    d3, _ = _one_chain(lambda t: -0.5 * t * t, 0.0, n_iter=2000,
                       burn_in=500, thin=1, seed=10)
    assert not np.array_equal(d1, d3)


def test_adaptive_rwm_rejects_bad_targets():
    with pytest.raises(ParameterError):
        _one_chain(lambda t: -np.inf, 0.0, n_iter=100, burn_in=10, thin=10,
                   seed=0)
    with pytest.raises(ParameterError):
        _one_chain(lambda t: np.nan, 1.0, n_iter=100, burn_in=10, thin=10,
                   seed=0)


def test_rwm_batch_matches_per_chain_targets():
    # three chains, each a Gaussian with its own mean
    mus = np.array([-2.0, 0.0, 3.0])

    def target(states):
        return -0.5 * (states[:, 0] - mus) ** 2

    draws, acc = rwm_batch(target, np.zeros((3, 1)), n_iter=20000,
                           burn_in=4000, thin=4, seed=5)
    for i, mu in enumerate(mus):
        assert abs(np.mean(draws[i, :, 0]) - mu) < 0.1
        assert abs(np.var(draws[i, :, 0]) - 1.0) < 0.15
    assert np.all(acc > 0.2) and np.all(acc < 0.75)


def _rwm_batch_reference(log_target_batch, init, n_iter, burn_in, thin, seed,
                         scale_init=1.0):
    """rwm_batch written plainly: a fresh proposal scale every step,
    out-of-place accept and adapt arithmetic and fancy-index updates."""
    B, d = init.shape
    target = 0.44 if d == 1 else 0.234
    rng = np.random.default_rng(seed)
    cur = init.copy()
    cur_lp = np.asarray(log_target_batch(cur), dtype=float)
    log_s = np.full(B, np.log(scale_init))
    n_keep = (n_iter - burn_in) // thin
    draws = np.empty((B, n_keep, d))
    n_acc = np.zeros(B)
    kept = 0
    for t in range(n_iter):
        prop = cur + np.exp(log_s)[:, None] * rng.standard_normal((B, d))
        prop_lp = np.asarray(log_target_batch(prop), dtype=float)
        alpha = np.exp(np.minimum(0.0, prop_lp - cur_lp))
        acc = rng.random(B) < alpha
        if t < burn_in:
            log_s = log_s + (t + 1.0) ** -0.6 * (alpha - target)
        cur[acc] = prop[acc]
        cur_lp[acc] = prop_lp[acc]
        n_acc += acc
        if t >= burn_in and (t - burn_in) % thin == 0 and kept < n_keep:
            draws[:, kept] = cur
            kept += 1
    return draws, n_acc / n_iter


@pytest.mark.parametrize("n_iter,burn_in,thin", [(400, 150, 3), (60, 59, 1),
                                                 (30, 0, 2)])
def test_rwm_batch_random_stream_matches_reference(n_iter, burn_in, thin):
    """Draws and acceptance are bitwise those of the plain loop, both with a
    frozen tail and in the inner-refresh shape burn_in = n_iter - 1."""
    mus = np.linspace(-1.0, 2.0, 5)

    def target(st):
        return (-0.5 * np.sum((st - mus[:, None]) ** 2, axis=1)
                - 0.1 * st[:, 0] ** 4)

    init = np.zeros((5, 3))
    got = rwm_batch(target, init, n_iter, burn_in, thin, seed=19,
                    scale_init=0.3)
    ref = _rwm_batch_reference(target, init, n_iter, burn_in, thin, seed=19,
                               scale_init=0.3)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


def test_rwm_batch_rejects_nan_log_ratio():
    """A proposal whose log density is NaN raises ParameterError."""
    def target(st):
        return np.where(st[:, 0] > 0.5, np.nan, -0.5 * st[:, 0] ** 2)

    with pytest.raises(ParameterError, match="NaN"):
        rwm_batch(target, np.zeros((4, 1)), n_iter=500, burn_in=100, thin=1,
                  seed=3)


def test_ar1_bridge_against_dense_conditional():
    """Bridge weights and covariance must match conditioning the stationary
    AR(1) joint Gaussian on the two endpoints."""
    truth = SsmTruth()
    d_x = 6
    k = d_x - 2
    s2 = truth.stationary_var
    idx = np.arange(d_x)
    cov = s2 * truth.nu ** np.abs(idx[:, None] - idx[None, :])
    interior = idx[1:-1]
    ends = [0, d_x - 1]
    S_ii = cov[np.ix_(interior, interior)]
    S_ie = cov[np.ix_(interior, ends)]
    S_ee = cov[np.ix_(ends, ends)]
    W = S_ie @ np.linalg.inv(S_ee)          # (k, 2) weights on the endpoints
    V_ref = S_ii - W @ S_ie.T
    w_left, w_right, Q, V = ar1_bridge(truth, d_x)
    assert np.allclose(np.column_stack([w_left, w_right]), W, atol=1e-12)
    assert np.allclose(V, V_ref, atol=1e-12)
    assert np.allclose(Q @ V, np.eye(k), atol=1e-10)


def test_ar1_bridge_requires_interior():
    with pytest.raises(ParameterError):
        ar1_bridge(SsmTruth(), 2)
