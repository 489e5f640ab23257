"""Posterior distributions over inference hyperparameters.

The workhorse is a lattice of hyperparameter values with a log predictive
score per point (pooled: joint density of all calibration data; product: sum
of pointwise densities), splined and normalized into a density.  A nested
Metropolis sampler provides an off-lattice alternative.  Four point
estimators summarize a lattice posterior: mean, mode, harmonic mean and
minimum-KL.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline, UnivariateSpline

from .datasets import HyperPoint, ParameterError
from .sampling import metropolis_accept

_FINE_1D = 4001
_FINE_2D = 301
_TIE_TOL = 1e-9         # relative density gap below which modes tie
_KL_CANDIDATES = 41     # candidate values scored by kl_estimator


@dataclass(frozen=True)
class SGrid:
    """Ordered lattice over one or two hyperparameter axes."""

    axes: tuple
    names: tuple

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if len(axes) not in (1, 2):
            raise ParameterError("grids support one or two axes")
        for a in axes:
            if (len(a) < 4 or not np.all(np.isfinite(a))
                    or np.any(np.diff(a) <= 0)):
                raise ParameterError("each axis must be finite and strictly "
                                     "increasing with at least 4 points")
        if len(self.names) != len(axes):
            raise ParameterError("one name per axis")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "names", tuple(self.names))

    @classmethod
    def regular(cls, bounds, names, n: int = 41) -> "SGrid":
        axes = tuple(np.linspace(lo, hi, n) for lo, hi in bounds)
        return cls(axes=axes, names=tuple(names))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(len(a) for a in self.axes)

    def points(self) -> np.ndarray:
        """All lattice points, shape (prod(shape), ndim), axis 0 slowest."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def prior_uniform(upper: float = 1.0):
    def lp(s):
        s = np.asarray(s, dtype=float)
        return np.where((s >= 0) & (s <= upper), -np.log(upper), -np.inf)
    return lp


@dataclass(frozen=True)
class GridPosterior:
    grid: SGrid
    log_pred: np.ndarray     # lattice shape
    log_prior: np.ndarray    # lattice shape
    kind: str                # "pooled" | "product"
    _spline: object = field(repr=False, default=None)
    _log_norm: float = field(repr=False, default=0.0)
    _center: float = field(repr=False, default=0.0)  # subtracted before the spline

    @property
    def bounds(self):
        return tuple((a[0], a[-1]) for a in self.grid.axes)

    def log_density(self, *coords):
        """Normalized log posterior density at arbitrary in-bounds points."""
        if self.grid.ndim == 1:
            return self._spline(np.asarray(coords[0], dtype=float)) - self._log_norm
        x, y = (np.asarray(c, dtype=float) for c in coords)
        return self._spline(x, y, grid=False) - self._log_norm

    def _fine_axes(self):
        n = _FINE_1D if self.grid.ndim == 1 else _FINE_2D
        return tuple(np.linspace(a[0], a[-1], n) for a in self.grid.axes)

    @functools.cached_property
    def _fine_density(self):
        """(axes, density) on the fine grid, evaluated once per instance;
        the arrays are read-only because every caller shares them."""
        axes = self._fine_axes()
        if self.grid.ndim == 1:
            dens = np.exp(self.log_density(axes[0]))
        else:
            dens = np.exp(self._spline(*axes) - self._log_norm)
        for a in (*axes, dens):
            a.flags.writeable = False
        return axes, dens

    def normalization_check(self) -> float:
        axes, dens = self._fine_density
        total = dens
        for ax in reversed(axes):
            total = np.trapezoid(total, ax, axis=-1)
        return float(total)

    def marginal(self, axis: int = 0):
        """(grid, density) of the 1-d marginal along the chosen axis."""
        axes, dens = self._fine_density
        if self.grid.ndim == 1:
            return axes[0], dens
        other = 1 - axis
        m = np.trapezoid(dens, axes[other], axis=other)
        return axes[axis], m

    def mean(self) -> np.ndarray:
        out = []
        for ax in range(self.grid.ndim):
            x, m = self.marginal(ax)
            m = m / np.trapezoid(m, x)
            out.append(float(np.trapezoid(x * m, x)))
        return np.array(out)

    def sd(self) -> np.ndarray:
        out = []
        mu = self.mean()
        for ax in range(self.grid.ndim):
            x, m = self.marginal(ax)
            m = m / np.trapezoid(m, x)
            out.append(float(np.sqrt(np.trapezoid((x - mu[ax]) ** 2 * m, x))))
        return np.array(out)

    def sample(self, size: int, seed: int) -> np.ndarray:
        """Draws from the splined density by fine-grid inversion (1-d) or
        cell sampling with jitter (2-d)."""
        rng = np.random.default_rng(seed)
        axes, dens = self._fine_density
        if self.grid.ndim == 1:
            x = axes[0]
            cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2
                                                   * np.diff(x))])
            cdf /= cdf[-1]
            return np.interp(rng.random(size), cdf, x)[:, None]
        p = dens.ravel()
        p = p / p.sum()
        idx = rng.choice(len(p), size=size, p=p)
        ix, iy = np.unravel_index(idx, dens.shape)
        dx = axes[0][1] - axes[0][0]
        dy = axes[1][1] - axes[1][0]
        sx = axes[0][ix] + (rng.random(size) - 0.5) * dx
        sy = axes[1][iy] + (rng.random(size) - 0.5) * dy
        sx = np.clip(sx, axes[0][0], axes[0][-1])
        sy = np.clip(sy, axes[1][0], axes[1][-1])
        return np.column_stack([sx, sy])

    def to_hyperpoint(self, values) -> HyperPoint:
        kw = {name: float(v) for name, v in zip(self.grid.names, np.atleast_1d(values))}
        return HyperPoint(**kw)

    def export_csv(self, path):
        pts = self.grid.points()
        lpred = self.log_pred.ravel()
        lprior = self.log_prior.ravel()
        lpost = lpred + lprior - self._center - self._log_norm
        header = ",".join(f"s_axis{i}" for i in range(self.grid.ndim))
        with open(path, "w") as fh:
            fh.write(header + ",log_pred,log_prior,log_post_norm\n")
            for row in np.column_stack([pts, lpred, lprior, lpost]):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def grid_posterior_from_values(kind: str, grid: SGrid, log_pred: np.ndarray,
                               log_prior: np.ndarray) -> GridPosterior:
    """Assemble the splined, normalized posterior from lattice values.

    Lattice points with missing (non-finite) predictives are dropped from
    the 1-d spline fit with a warning; 2-d fits require a full lattice.
    """
    if kind not in ("pooled", "product"):
        raise ParameterError(f"kind must be pooled or product, got {kind!r}")
    log_pred = np.asarray(log_pred, dtype=float).reshape(grid.shape)
    log_prior = np.asarray(log_prior, dtype=float).reshape(grid.shape)
    log_post = log_pred + log_prior
    center = float(np.max(log_post[np.isfinite(log_post)]))
    log_post = log_post - center
    if grid.ndim == 1:
        x = grid.axes[0]
        ok = np.isfinite(log_post)
        if not np.all(ok):
            warnings.warn(f"{int((~ok).sum())} lattice points missing; spline "
                          "fit on the rest")
        spline = CubicSpline(x[ok], log_post[ok], bc_type="natural")
    else:
        if not np.all(np.isfinite(log_post)):
            raise ParameterError("2-d grids need finite values at every point")
        spline = RectBivariateSpline(grid.axes[0], grid.axes[1], log_post,
                                     kx=3, ky=3, s=0)
    gp = GridPosterior(grid=grid, log_pred=log_pred, log_prior=log_prior + 0.0,
                       kind=kind, _spline=spline, _center=center)
    return replace(gp, _log_norm=float(np.log(gp.normalization_check())))


# --- nested MCMC ----------------------------------------------------------

def _reflect(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = hi - lo
    y = np.mod(x - lo, 2 * span)
    y = np.where(y > span, 2 * span - y, y)
    return lo + y


def nested_mcmc(log_prior_fn, bounds, state0, inner_refresh, log_calib,
                n_outer: int, seed: int):
    """Metropolis over s with parameter draws refreshed by side chains.

    state0 holds the current parameter draws (one per calibration block for
    the product loss, a single one for pooled).  The chain starts at the
    centre of the bounds with proposal scale a tenth of their width.  At
    each outer step a new s is proposed, inner_refresh(s', state, seed)
    advances the side chains under the proposed s, and the move is accepted
    with the prior ratio times the calibration-density ratio of the
    refreshed versus current draws.  The first 200 steps adapt the scale
    and are dropped.  Returns (s_draws, accept_rate).
    """
    burn_in = 200
    if n_outer <= burn_in:
        raise ParameterError(f"n_outer ({n_outer}) must exceed burn_in "
                             f"({burn_in})")
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    d = len(bounds)
    rng = np.random.default_rng(seed)
    s = (lo + hi) / 2
    scale = (hi - lo) / 10.0
    log_s_adapt = 0.0
    state = inner_refresh(s, state0, int(rng.integers(2 ** 63)))
    cur_calib = float(log_calib(state))
    cur_prior = float(log_prior_fn(tuple(s) if d > 1 else s[0]))
    draws = np.empty((n_outer - burn_in, d))
    n_acc = 0
    for t in range(n_outer):
        prop = _reflect(s + np.exp(log_s_adapt) * scale * rng.standard_normal(d),
                        lo, hi)
        prop_prior = float(log_prior_fn(tuple(prop) if d > 1 else prop[0]))
        log_alpha = -np.inf
        if np.isfinite(prop_prior):
            new_state = inner_refresh(prop, state, int(rng.integers(2 ** 63)))
            new_calib = float(log_calib(new_state))
            log_alpha = (prop_prior - cur_prior) + (new_calib - cur_calib)
        accepted, log_s_adapt = metropolis_accept(log_alpha, log_s_adapt, t,
                                                  burn_in, 0.234, rng)
        if accepted:
            s, state, cur_calib, cur_prior = prop, new_state, new_calib, prop_prior
            n_acc += 1
        if t >= burn_in:
            draws[t - burn_in] = s
    return draws, n_acc / n_outer


# --- estimators -----------------------------------------------------------

@dataclass(frozen=True)
class EstimatorSet:
    mean: HyperPoint
    mode: HyperPoint
    harmonic_mean: HyperPoint | None = None

    def as_dict(self) -> dict:
        out = {}
        for name in ("mean", "mode", "harmonic_mean"):
            hp = getattr(self, name)
            if hp is None:
                continue
            out[name] = {k: v for k, v in vars(hp).items() if v is not None}
        return out


def compute_estimator_set(gp: GridPosterior) -> EstimatorSet:
    """Mean, mode and (for a nonnegative scalar axis) the harmonic mean.

    The minimum-KL summary needs a predictive simulator and is computed by
    kl_estimator.
    """
    mean = gp.to_hyperpoint(gp.mean())
    mode = estimate_posterior_mode(gp)
    hm = None
    if gp.grid.ndim == 1:
        try:
            hm = gp.to_hyperpoint([harmonic_mean_estimator(gp)])
        except ParameterError:
            hm = None
    return EstimatorSet(mean=mean, mode=mode, harmonic_mean=hm)


def estimate_posterior_mode(gp: GridPosterior) -> HyperPoint:
    """Fine-grid argmax with golden-section refinement along each axis.

    Near-ties resolve toward the smallest first-axis value, which prefers
    the less informative update.  A boundary mode is returned as-is.
    """
    axes, dens = gp._fine_density
    flat = dens.ravel()
    near = np.where(flat >= flat.max() * (1 - _TIE_TOL))[0]
    idx = near.min()
    if gp.grid.ndim == 1:
        x = axes[0]
        i = idx
        lo = x[max(i - 1, 0)]
        hi = x[min(i + 1, len(x) - 1)]
        best = golden_max(lambda t: gp.log_density(t), lo, hi)
        # refinement must not move off a flat stretch or a grid maximum
        if gp.log_density(x[i]) >= gp.log_density(best) - _TIE_TOL and x[i] < best:
            best = float(x[i])
        return gp.to_hyperpoint([best])
    ix, iy = np.unravel_index(idx, dens.shape)
    cx, cy = float(axes[0][ix]), float(axes[1][iy])
    for _ in range(3):
        lo = axes[0][max(ix - 1, 0)]
        hi = axes[0][min(ix + 1, len(axes[0]) - 1)]
        cx = golden_max(lambda t: gp.log_density(t, cy), lo, hi)
        lo = axes[1][max(iy - 1, 0)]
        hi = axes[1][min(iy + 1, len(axes[1]) - 1)]
        cy = golden_max(lambda t: gp.log_density(cx, t), lo, hi)
    return gp.to_hyperpoint([cx, cy])


def golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section maximizer of a unimodal f on [lo, hi]; stops when the
    bracket is below tol relative to max(1, |a| + |b|)."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol * max(1.0, abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return float((a + b) / 2)


def harmonic_mean_estimator(gp: GridPosterior) -> float:
    """1 / E[1/eta] under the posterior's first axis; errors out when the
    boundary mass makes E[1/eta] diverge."""
    x, m = gp.marginal(0)
    m = m / np.trapezoid(m, x)
    if x[0] <= 0:
        pos = x > 0
        full = np.trapezoid(m[pos] / x[pos], x[pos])
        inner = x > max(x[pos][0] * 4, 1e-8)
        part = np.trapezoid(m[inner] / x[inner], x[inner])
        if not np.isfinite(full) or (full - part) > 0.05 * abs(full):
            raise ParameterError("posterior mass at eta=0 makes the harmonic "
                                 "mean diverge")
        inv_mean = full
    else:
        inv_mean = np.trapezoid(m / x, x)
    return float(1.0 / inv_mean)


def kl_estimator(gp: GridPosterior, predictive_sampler, predictive_logpdf,
                 T: int = 400, J_inner: int = 1000,
                 seed: int = 0) -> HyperPoint:
    """Minimum-KL point summary of the hyperposterior.

    Draw s_t from the posterior, simulate z from each predictive
    p_{s_t}(z|y,x), score each of 41 candidate values s' by the average log
    predictive density of the simulated z, smooth over the candidates and
    take the argmax (equivalently the KL argmin).
    """
    rng = np.random.default_rng(seed)
    s_draws = gp.sample(T, seed=seed + 1)
    zs = [np.atleast_1d(predictive_sampler(s_draws[t], J_inner, rng))
          for t in range(T)]
    z = np.concatenate(zs)
    lo, hi = gp.bounds[0]
    cand = np.linspace(lo, hi, _KL_CANDIDATES)
    if lo <= 0:
        cand = cand.copy()
        cand[0] = min(1e-6, (cand[1] - cand[0]) / 100 + lo) if cand[1] > 0 else cand[0]
    w = np.empty(_KL_CANDIDATES)
    se = np.empty(_KL_CANDIDATES)
    for i, sp in enumerate(cand):
        vals = np.asarray(predictive_logpdf(sp, z), dtype=float)
        if vals.shape != (len(z),):
            raise ParameterError(f"predictive_logpdf returned shape "
                                 f"{vals.shape}, expected ({len(z)},)")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("predictive_logpdf returned a non-finite "
                                 f"log density at {sp}")
        w[i] = float(np.mean(vals))
        se[i] = float(np.std(vals) / np.sqrt(len(vals)))
    se = np.maximum(se, 1e-12)
    try:
        sm = UnivariateSpline(cand, w, w=1.0 / se, k=3, s=len(cand))
        fine = np.linspace(cand[0], cand[-1], _FINE_1D)
        best = float(fine[np.argmax(sm(fine))])
    except ValueError:      # the spline's input checks; fitpack only warns
        best = float(cand[np.argmax(w)])
    return gp.to_hyperpoint([best] + [np.nan] * (gp.grid.ndim - 1))
