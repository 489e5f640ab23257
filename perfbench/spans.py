"""Span tracing around the public (and two private) boundaries of gbcal.

Each layer is wrapped at the module or class attribute where its caller
looks it up, so the program itself is unchanged.  A span is
[name, start, end, parent index]; spans stay in memory until the traced
loop ends and are then reduced to per-layer totals.  A layer's self time is
its span minus the spans of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time

# (owner, attribute, span name).  An owner is a module path or
# "module:Class".  One name may be wrapped at several attributes: each
# caller looks the layer up under its own module.
LAYERS = [
    ("gbcal.evaluation", "_ssm_exact_block_integrals", "evaluation.exact_integrals"),
    ("gbcal.evaluation", "_ssm_eta_posterior", "evaluation.eta_lattice"),
    ("gbcal.evaluation", "risk_ratio_product", "evaluation.risk_ratio_product"),
    ("gbcal.evaluation", "build_ssm_phi_posterior", "ssm.build_phi_posterior"),
    ("gbcal.ssm", "build_ssm_phi_posterior", "ssm.build_phi_posterior"),
    ("gbcal.ssm:SsmPhiPosterior", "block_log_predictive", "ssm.block_log_predictive"),
    ("gbcal.evaluation", "simulate_ssm", "datasets.simulate_ssm"),
    ("gbcal.datasets", "simulate_ssm", "datasets.simulate_ssm"),
    ("gbcal.ssm", "ssm_eta_b_grid_posterior", "ssm.lattice_posterior"),
    ("gbcal.ssm", "ssm_eta_b_nested_draws", "ssm.nested_draws"),
    ("gbcal.ssm:SsmJointTarget", "__call__", "ssm.joint_target"),
    ("gbcal.sampling", "rwm_batch", "sampling.rwm_batch"),
    ("gbcal.hypercal", "nested_mcmc", "hypercal.nested_mcmc"),
    ("gbcal.hypercal", "grid_posterior_from_values", "hypercal.grid_posterior"),
    ("gbcal.evaluation", "grid_posterior_from_values", "hypercal.grid_posterior"),
    ("gbcal.hypercal", "compute_estimator_set", "hypercal.estimators"),
    ("gbcal.evaluation", "compute_estimator_set", "hypercal.estimators"),
    ("gbcal.oracles.mixture", "mixture_product_loss_gamma", "oracles.mixture.loss"),
    ("gbcal.oracles.mixture", "mixture_pooled_loss_gamma", "oracles.mixture.loss"),
    ("gbcal.oracles.mixture", "mixture_product_loss_eta", "oracles.mixture.loss"),
    ("gbcal.oracles.mixture", "mixture_pooled_loss_eta", "oracles.mixture.loss"),
    ("gbcal.datasets", "simulate_mixture", "datasets.simulate_mixture"),
    ("gbcal.cli", "main", "cli"),
]

OP = "op"
CALLS, TOTAL, SELF = range(3)    # fields of a span total
NESTED = "ssm.nested_draws"
JOINT = "ssm.joint_target"


def _owner(path: str):
    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans for wrapped calls while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self._stack = []
        self._saved = []
        self.accept_rates = []   # outer acceptance of each nested_mcmc call

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:       # record only inside a timed op
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name == "hypercal.nested_mcmc":
                tracer.accept_rates.append(float(out[1]))
            return out

        return traced

    def install(self):
        for path, attr, name in LAYERS:
            owner = _owner(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def totals(self) -> dict:
        """{key: [calls, total_s, self_s]}.  Joint-target spans are keyed
        by whether a nested-sampler span encloses them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            key = name
            if name == JOINT:
                key += "@nested" if self._under(i, NESTED) else "@lattice"
            rec = out.setdefault(key, [0, 0.0, 0.0])
            rec[CALLS] += 1
            rec[TOTAL] += t1 - t0
            rec[SELF] += t1 - t0 - child[i]
        return out

    def _under(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False


def layer_metrics(tot: dict, ops: int, accept_rates) -> dict:
    """Per-layer metrics {name: (value, unit)} from merged span totals."""
    def get(key, field):
        return tot.get(key, (0, 0.0, 0.0))[field]

    def per_op(key, field, scale=1e3):
        return get(key, field) * scale / ops

    def per_call(key, scale=1e3):
        calls = get(key, CALLS)
        return get(key, TOTAL) * scale / calls if calls else 0.0

    jn, jl = JOINT + "@nested", JOINT + "@lattice"
    acc = sum(accept_rates) / len(accept_rates) if accept_rates else 0.0
    return {
        "evaluation.exact_integrals.calls_per_op":
            (per_op("evaluation.exact_integrals", CALLS, 1), "count"),
        "evaluation.exact_integrals.ms_per_call":
            (per_call("evaluation.exact_integrals"), "ms"),
        "evaluation.eta_lattice.ms_per_call":
            (per_call("evaluation.eta_lattice"), "ms"),
        "evaluation.risk_ratio_product.ms_per_op":
            (per_op("evaluation.risk_ratio_product", TOTAL), "ms"),
        "ssm.build_phi_posterior.calls_per_op":
            (per_op("ssm.build_phi_posterior", CALLS, 1), "count"),
        "ssm.build_phi_posterior.ms_per_call":
            (per_call("ssm.build_phi_posterior"), "ms"),
        "ssm.block_log_predictive.calls_per_op":
            (per_op("ssm.block_log_predictive", CALLS, 1), "count"),
        "ssm.block_log_predictive.ms_per_call":
            (per_call("ssm.block_log_predictive"), "ms"),
        "datasets.simulate_ssm.ms_per_op":
            (per_op("datasets.simulate_ssm", TOTAL), "ms"),
        "ssm.lattice_posterior.ms_per_op":
            (per_op("ssm.lattice_posterior", TOTAL), "ms"),
        "ssm.nested_draws.ms_per_op":
            (per_op("ssm.nested_draws", TOTAL), "ms"),
        "ssm.joint_target.calls_per_op":
            ((get(jn, CALLS) + get(jl, CALLS)) / ops, "count"),
        "ssm.joint_target.nested_us_per_call": (per_call(jn, 1e6), "us"),
        "ssm.joint_target.lattice_us_per_call": (per_call(jl, 1e6), "us"),
        "sampling.rwm_batch.calls_per_op":
            (per_op("sampling.rwm_batch", CALLS, 1), "count"),
        "sampling.rwm_batch.self_ms_per_op":
            (per_op("sampling.rwm_batch", SELF), "ms"),
        "hypercal.nested_mcmc.self_ms_per_op":
            (per_op("hypercal.nested_mcmc", SELF), "ms"),
        "hypercal.nested_mcmc.accept_rate": (acc, "ratio"),
        "hypercal.grid_posterior.ms_per_call":
            (per_call("hypercal.grid_posterior"), "ms"),
        "hypercal.estimators.ms_per_call":
            (per_call("hypercal.estimators"), "ms"),
        "oracles.mixture.loss_ms_per_op":
            (per_op("oracles.mixture.loss", TOTAL), "ms"),
        "datasets.simulate_mixture.ms_per_op":
            (per_op("datasets.simulate_mixture", TOTAL), "ms"),
        "cli.self_ms_per_op": (per_op("cli", SELF), "ms"),
        # the op span itself: traced op time, and the part of it outside
        # every wrapped layer
        "op.ms_per_op": (per_op(OP, TOTAL), "ms"),
        "op.self_ms_per_op": (per_op(OP, SELF), "ms"),
    }
