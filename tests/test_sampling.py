import numpy as np
import pytest
from scipy import stats

from gbcal.datasets import ParameterError, SsmTruth
from gbcal.sampling import (_CHUNK, ar1_bridge, ess_initial_positive,
                            metropolis_accept, rwm_batch)


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
    draws, acc, _ = rwm_batch(lambda st: [one(st[0])], init[None, :], n_iter,
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

    draws, acc, _ = rwm_batch(target, np.zeros((3, 1)), n_iter=20000,
                              burn_in=4000, thin=4, seed=5)
    for i, mu in enumerate(mus):
        assert abs(np.mean(draws[i, :, 0]) - mu) < 0.1
        assert abs(np.var(draws[i, :, 0]) - 1.0) < 0.15
    assert np.all(acc > 0.2) and np.all(acc < 0.75)


def _rwm_batch_reference(log_target_batch, init, n_iter, burn_in, thin, seed,
                         scale_init=1.0):
    """rwm_batch written plainly: during burn-in a fresh proposal scale every
    step and out-of-place accept and adapt arithmetic; after it the frozen
    scale, with the noise and the uniforms of each block of _CHUNK steps
    drawn up front; fancy-index updates throughout."""
    B, d = init.shape
    target = 0.44 if d == 1 else 0.234
    rng = np.random.default_rng(seed)
    cur = init.copy()
    cur_lp = np.asarray(log_target_batch(cur), dtype=float)
    scale = np.broadcast_to(np.asarray(scale_init, dtype=float), B)
    log_s = np.log(scale)
    n_keep = (n_iter - burn_in) // thin
    draws = np.empty((B, n_keep, d))
    n_acc = np.zeros(B)
    for t in range(n_iter):
        if t < burn_in:
            prop = cur + np.exp(log_s)[:, None] * rng.standard_normal((B, d))
            prop_lp = np.asarray(log_target_batch(prop), dtype=float)
            alpha = np.exp(np.minimum(0.0, prop_lp - cur_lp))
            acc = rng.random(B) < alpha
            log_s = log_s + (t + 1.0) ** -0.6 * (alpha - target)
            scale = np.exp(log_s)
        else:
            j = (t - burn_in) % _CHUNK
            if j == 0:
                m = min(_CHUNK, n_iter - t)
                noise = rng.standard_normal((m, B, d)) * scale[:, None]
                u = rng.random((m, B))
            prop = cur + noise[j]
            prop_lp = np.asarray(log_target_batch(prop), dtype=float)
            acc = np.log(u[j]) < prop_lp - cur_lp
        cur[acc] = prop[acc]
        cur_lp[acc] = prop_lp[acc]
        n_acc += acc
        # the state after every thin-th frozen step is kept
        if t >= burn_in and (t - burn_in + 1) % thin == 0:
            draws[:, (t - burn_in) // thin] = cur
    return draws, n_acc / n_iter, scale


def _stream_target(st):
    mus = np.linspace(-1.0, 2.0, 5)
    return (-0.5 * np.sum((st - mus[:, None]) ** 2, axis=1)
            - 0.1 * st[:, 0] ** 4)


@pytest.mark.parametrize("n_iter,burn_in,thin", [(400, 150, 3), (60, 59, 1),
                                                 (30, 0, 2)])
def test_rwm_batch_random_stream_matches_reference(n_iter, burn_in, thin):
    """Draws, acceptance and the frozen scale are bitwise those of the plain
    loop, with a frozen tail of several noise blocks, in the tuning shape
    burn_in = n_iter - 1, and with no burn-in at all."""
    init = np.zeros((5, 3))
    got = rwm_batch(_stream_target, init, n_iter, burn_in, thin, seed=19,
                    scale_init=0.3)
    ref = _rwm_batch_reference(_stream_target, init, n_iter, burn_in, thin,
                               seed=19, scale_init=0.3)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


@pytest.mark.parametrize("n_iter", [_CHUNK // 2, 2 * _CHUNK, 2 * _CHUNK + 5])
def test_rwm_batch_frozen_per_chain_scale_matches_reference(n_iter):
    """The side-chain shape: a per-chain scale, no burn-in, only the final
    state kept, within one noise block, over exactly two, and into a third.
    The scale comes back unchanged."""
    init = np.zeros((5, 3))
    scale = np.array([0.05, 0.2, 0.3, 0.7, 1.5])
    got = rwm_batch(_stream_target, init, n_iter, 0, n_iter, seed=23,
                    scale_init=scale)
    ref = _rwm_batch_reference(_stream_target, init, n_iter, 0, n_iter,
                               seed=23, scale_init=scale)
    assert got[0].shape == (5, 1, 3)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
    assert np.array_equal(got[2], scale)


def test_rwm_batch_returns_adapted_scale():
    """After burn-in the returned per-chain scale is the adapted one: wider
    for a wider target."""
    sd = np.array([0.1, 1.0, 10.0])

    def target(st):
        return -0.5 * np.sum((st / sd[:, None]) ** 2, axis=1)

    _, acc, scale = rwm_batch(target, np.zeros((3, 2)), n_iter=4000,
                              burn_in=3000, thin=10, seed=2)
    assert np.all(np.diff(scale) > 0)
    assert np.all(acc > 0.1) and np.all(acc < 0.5)


def test_rwm_batch_rejects_nan_log_ratio():
    """A proposal whose log density is NaN raises ParameterError."""
    def target(st):
        return np.where(st[:, 0] > 0.5, np.nan, -0.5 * st[:, 0] ** 2)

    with pytest.raises(ParameterError, match="NaN"):
        rwm_batch(target, np.zeros((4, 1)), n_iter=500, burn_in=100, thin=1,
                  seed=3)


def test_rwm_batch_rejects_nan_log_ratio_in_frozen_phase():
    """The frozen phase checks for NaN too: one chain's log density turns NaN
    at a step in the second noise block, and that step raises."""
    calls = []

    def target(st):
        calls.append(1)
        lp = -0.5 * st[:, 0] ** 2
        if len(calls) == _CHUNK + 10:
            lp[1] = np.nan
        return lp

    with pytest.raises(ParameterError, match="NaN"):
        rwm_batch(target, np.zeros((4, 1)), n_iter=3 * _CHUNK, burn_in=0,
                  thin=1, seed=3, scale_init=np.full(4, 0.5))
    assert len(calls) == _CHUNK + 10


def test_metropolis_accept():
    """Scalar and array log alpha; a NaN raises for both; log alpha = -inf
    never accepts and log alpha >= 0 always does; an array is capped at 0
    in place; and on a seeded sample the decisions are those of comparing a
    uniform with alpha = exp(min(0, log alpha))."""
    acc, capped = metropolis_accept(0.7, np.log(0.999))
    assert acc and capped == 0.0
    acc, capped = metropolis_accept(-2.0, np.log(0.5))
    assert not acc and capped == -2.0
    for log_alpha in (np.nan, np.array([0.0, np.nan, -1.0])):
        with pytest.raises(ParameterError, match="NaN"):
            metropolis_accept(log_alpha, np.log(0.5))
    log_u = np.append(-np.inf, np.log([1e-300, 0.5, 1.0 - 1e-16]))  # u = 0
    acc, _ = metropolis_accept(np.full(4, -np.inf), log_u)
    assert not acc.any()
    acc, _ = metropolis_accept(np.array([0.0, 3.0, np.inf, 1e-300]), log_u)
    assert acc.all()
    log_alpha = np.array([1.5, -0.5, 0.0, -np.inf])
    acc, capped = metropolis_accept(log_alpha, np.log(np.full(4, 0.5)))
    assert capped is log_alpha
    assert np.array_equal(log_alpha, [0.0, -0.5, 0.0, -np.inf])
    assert np.array_equal(acc, [True, True, True, False])
    rng = np.random.default_rng(29)
    log_alpha = rng.normal(-1.0, 2.0, 100000)
    u = rng.random(100000)
    want = u < np.exp(np.minimum(0.0, log_alpha))
    acc, _ = metropolis_accept(log_alpha, np.log(u))
    assert np.array_equal(acc, want) and 0.3 < acc.mean() < 0.7


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
