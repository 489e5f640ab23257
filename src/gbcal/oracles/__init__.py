from .conjugate import (
    ConjStats,
    OptimalR,
    conj_interior_probability,
    conj_optimal_r,
    conj_pooled_log_predictive,
    conj_pooled_target,
    conj_pooled_target_deriv,
    conj_power_posterior,
    conj_power_sample,
    conj_product_log_predictive,
    conj_tail_coefficients,
    interior_probability_table,
)
from .mixture import (
    MixtureStats,
    mixture_eta_smi,
    mixture_gamma_smi,
    mixture_grid_posterior,
    mixture_optimal_gamma,
    mixture_pooled_loss_eta,
    mixture_pooled_loss_gamma,
    mixture_product_loss_eta,
    mixture_product_loss_gamma,
)
from .quadrature import aghq_marginal, laplace_marginal
