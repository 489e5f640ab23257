"""The losses of the state-space joint target: the log score and the beta
loss on the interior emissions, read off SsmJointTarget as the change in
the target between eta = 1 and eta = 0 (eta multiplies the data term)."""

import numpy as np
import pytest
from scipy import integrate, stats

from gbcal.datasets import SsmTruth, simulate_ssm
from gbcal.ssm import SsmJointTarget


def _target_and_state(logt=0.0, n_blocks=3, seed=0):
    truth = SsmTruth()
    data = simulate_ssm(truth, n_blocks, 6, seed=seed)
    target = SsmJointTarget(data, truth)
    s = target.init_state()
    s[0] = logt
    return target, s


def _loss(target, state, beta=None):
    """The data term the target subtracts at eta = 1."""
    states = state[None, :]
    return float(target(states, 0.0, beta=beta)[0]
                 - target(states, 1.0, beta=beta)[0])


def test_neg_log_lik_gaussian():
    target, s = _target_and_state(logt=np.log(2.0), seed=1)
    ref = -np.sum(stats.norm.logpdf(target.x_M, s[1:], np.sqrt(2.0)))
    assert _loss(target, s) == pytest.approx(ref, rel=1e-12)


def test_power_integral_normalization_at_beta_one():
    """At beta = 1 the beta loss is the log score plus the power integral
    of each interior emission density, which is 1."""
    target, s = _target_and_state(logt=-0.4, seed=2)
    assert _loss(target, s, beta=1.0) == pytest.approx(
        _loss(target, s) + target.nM, rel=1e-12)
    assert integrate.quad(lambda x: stats.norm.pdf(x, 0.3, np.exp(-0.2)),
                          -np.inf, np.inf)[0] == pytest.approx(1.0, rel=1e-10)


def test_power_integral_closed_form_vs_quadrature():
    """The beta loss -sum_i (p_i^(beta-1) - 1)/(beta-1)
    + (nM/beta) int p^beta, with the integral found by quadrature."""
    t = 1.7
    target, s = _target_and_state(logt=np.log(t), seed=3)
    p = stats.norm.pdf(target.x_M, s[1:], np.sqrt(t))
    for beta in (0.5, 0.9, 1.3, 3.0):
        power = integrate.quad(
            lambda x: stats.norm.pdf(x, 0.3, np.sqrt(t)) ** beta,
            -np.inf, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        ref = (-np.sum(p ** (beta - 1) - 1.0) / (beta - 1)
               + target.nM / beta * power)
        assert _loss(target, s, beta=beta) == pytest.approx(ref, rel=1e-9)


def test_beta_loss_downweights_outliers():
    """Moving a far interior outlier has much less effect at beta > 1 than
    under the log score."""
    target, s = _target_and_state(logt=0.0, seed=4)
    out, far = s.copy(), s.copy()
    out[1] = target.x_M[0] - 8.0
    far[1] = target.x_M[0] - 12.0
    d_nll = _loss(target, far) - _loss(target, out)
    d_beta = _loss(target, far, beta=1.5) - _loss(target, out, beta=1.5)
    assert d_nll == pytest.approx(40.0, rel=1e-9)
    assert abs(d_beta) < 1e-6
