"""Posterior distributions over inference hyperparameters.

The workhorse is a lattice of hyperparameter values with a log predictive
score per point (pooled: joint density of all calibration data; product: sum
of pointwise densities), splined and normalized into a density.  A 1-d
lattice is splined by the natural cubic interpolant below, which gives the
same bits as scipy's CubicSpline, and a 2-d lattice by the tensor product
of not-a-knot cubic interpolants, which is scipy's interpolating
RectBivariateSpline to round-off.  Both are numpy, so neither imports
scipy.interpolate (and with it scipy.optimize, scipy.linalg, scipy.sparse
and scipy.spatial); only the minimum-KL smoothing spline does, when it is
called.  Each spline has one evaluation path, on numpy arrays.  It is
evaluated on a fine grid once per posterior, when it is built: those
values give both the normalizer and the density that every summary reads.
A nested Metropolis sampler provides an off-lattice alternative.  Four
point estimators summarize a lattice posterior: mean, mode, harmonic mean
and minimum-KL; the harmonic mean and minimum-KL summaries are 1-d only.
The mode is read from the spline's cubic pieces near the fine-grid argmax:
in 1-d the smallest candidate within _TIE_TOL of their maximum (so short of
it on a flat stretch), in 2-d the exact line maximum along each axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .datasets import HyperPoint, ParameterError
from .sampling import adapt_log_scale, metropolis_accept

_FINE_1D = 4001
_FINE_2D = 301
_TIE_TOL = 1e-9         # relative density gap below which modes tie
_KL_CANDIDATES = 41     # candidate values scored by kl_estimator
NESTED_BURN_IN = 200    # adaptive outer steps that nested_mcmc drops


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
        if not np.all(np.isfinite(bounds)):     # before linspace warns on them
            raise ParameterError("grid bounds must be finite")
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


class _NaturalCubicSpline:
    """Natural cubic interpolant through (x, y), x strictly increasing.

    A transcription of scipy 1.17.1's CubicSpline(x, y, bc_type="natural")
    that gives the same bits: _cubic_coefficients computes its Hermite
    coefficients c (4, n-1) and _cubic evaluates them in scipy's order.
    Beyond the knots the end cubics extrapolate.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(x) < 2:
            raise ParameterError("a spline needs at least 2 finite lattice "
                                 f"points, got {len(x)}")
        self.x = x
        self.c = _cubic_coefficients(x, y, natural=True)

    def __call__(self, t):
        i, s = _cells(self.x, np.asarray(t, dtype=float))
        return _cubic(self.c[:, i], s)

    def pieces(self, axis, point):
        """The knots and cubic pieces (4, n-1): its own, on its one axis."""
        return self.x, self.c


class _BicubicSpline:
    """Tensor product of not-a-knot cubic interpolants through the lattice
    values z (len(x), len(y)).

    This is the function that scipy's RectBivariateSpline(x, y, z, kx=3,
    ky=3, s=0) fits, to round-off: FITPACK's interpolating knots are the
    lattice points but the second and the second-to-last on each axis,
    which is the not-a-knot end condition (Dierckx 1993, Curve and Surface
    Fitting with Splines).  Each x-row is fitted along y; each of its
    Hermite coefficients is then fitted along x, which gives bicubic
    coefficients c (4, 4, nx-1, ny-1) per cell: x power, y power, x cell,
    y cell.  Called with two 1-d arrays, it evaluates their grid (as
    scipy's __call__ does) in two 1-d passes, x then y; ev evaluates at
    points.  Beyond the lattice the end cubics extrapolate.
    """

    def __init__(self, x, y, z):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        cy = _cubic_coefficients(self.y, np.asarray(z, dtype=float).T,
                                 natural=False)         # (4, ny-1, nx)
        c = _cubic_coefficients(self.x, np.moveaxis(cy, -1, 0), natural=False)
        self.c = np.ascontiguousarray(c.transpose(0, 2, 1, 3))

    def __call__(self, x, y):
        i, s = _cells(self.x, np.asarray(x, dtype=float))
        along_x = _cubic(self.c[:, :, i], s[:, None])  # (y power, x, y cell)
        j, t = _cells(self.y, np.asarray(y, dtype=float))
        return _cubic(along_x[:, :, j], t)

    def ev(self, x, y):
        """Values at the points (x, y), which broadcast."""
        i, s = _cells(self.x, np.asarray(x, dtype=float))
        j, t = _cells(self.y, np.asarray(y, dtype=float))
        return _cubic(_cubic(self.c[:, :, i, j], s), t)

    def pieces(self, axis: int, point):
        """The knots and cubic pieces (4, n-1) of the spline along one axis
        through point (x, y); along y they give ev's values bit for bit."""
        if axis == 0:
            j, t = _cells(self.y, np.asarray(point[1], dtype=float))
            return self.x, _cubic(self.c[:, :, :, j].swapaxes(0, 1), t)
        i, s = _cells(self.x, np.asarray(point[0], dtype=float))
        return self.y, _cubic(self.c[:, :, i], s)


def _cubic_coefficients(x: np.ndarray, y: np.ndarray,
                        natural: bool) -> np.ndarray:
    """Hermite coefficients (4, n-1, ...) of the cubic interpolant through
    (x, y) along y's first axis, with natural or not-a-knot ends, as scipy
    1.17.1's CubicSpline(x, y, bc_type) computes them (de Boor, A Practical
    Guide to Splines): the knot slopes solve one tridiagonal system, with
    one right-hand side per column of y, eliminated as LAPACK's dgtsv does.
    Not-a-knot needs at least 4 points."""
    dx = np.diff(x)
    dxr = dx.reshape(-1, *[1] * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    # interior row i: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1];
    # each end row is (its diagonal entry, its off-diagonal one, its rhs)
    if natural:                 # zero second derivative at both ends
        first = (2 * dx[0], dx[0], 3 * (y[1] - y[0]))
        last = (2 * dx[-1], dx[-1], 3 * (y[-1] - y[-2]))
    else:                       # a continuous third derivative at x[1], x[-2]
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        first = (dx[1], d0, ((dx[0] + 2 * d0) * dx[1] * slope[0]
                             + dx[0] ** 2 * slope[1]) / d0)
        last = (dx[-2], d1, (dx[-1] ** 2 * slope[-2]
                             + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1)
    rhs = np.concatenate(([first[2]],
                          3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:]),
                          [last[2]]))
    s = np.array(_gtsv(np.concatenate((dx[1:], [last[1]])).tolist(),
                       np.concatenate(([first[0]], 2 * (dx[:-1] + dx[1:]),
                                       [last[0]])).tolist(),
                       np.concatenate(([first[1]], dx[:-1])).tolist(),
                       rhs.tolist() if y.ndim == 1 else list(rhs)))
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _cubic(c, s):
    """c[3] + c[2] s + c[1] s^2 + c[0] s^3, summed in scipy's order; c
    unpacks into its four coefficients along its first axis."""
    c0, c1, c2, c3 = c
    # scipy's sum starts from 0.0, which turns a -0.0 into 0.0
    return 0.0 + c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


def _cells(knots: np.ndarray, t: np.ndarray) -> tuple:
    """Each t's knot interval (the end ones beyond the knots), and offset."""
    i = np.clip(np.searchsorted(knots, t, side="right") - 1, 0,
                len(knots) - 2)
    return i, t - knots[i]


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solve the tridiagonal system (sub dl, diagonal d, super du) of order
    n >= 2 for one right-hand side b, as LAPACK's dgtsv does: Gaussian
    elimination with row interchanges where a subdiagonal entry is larger
    than its pivot, then back substitution.  The lists are overwritten."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]       # fill-in two places right of d[i]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


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
    _spline: object = field(repr=False, default=None)
    _log_norm: float = field(repr=False, default=0.0)
    _center: float = field(repr=False, default=0.0)  # subtracted before the spline
    # (axes, density) on the fine grid, read-only because every caller
    # shares them
    _fine_density: tuple = field(repr=False, default=None)

    @property
    def bounds(self):
        return tuple((a[0], a[-1]) for a in self.grid.axes)

    def log_density(self, *coords):
        """Normalized log posterior density at arbitrary in-bounds points."""
        if self.grid.ndim == 1:
            return self._spline(coords[0]) - self._log_norm
        return self._spline.ev(*coords) - self._log_norm

    def normalization_check(self) -> float:
        return _fine_integral(*self._fine_density)

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


def grid_posterior_from_values(grid: SGrid, log_pred: np.ndarray,
                               log_prior: np.ndarray) -> GridPosterior:
    """Assemble the splined, normalized posterior from lattice values.

    log_pred is either calibration score (pooled or product); the
    posterior is built the same way from both.  Lattice points with
    missing (non-finite) predictives are dropped from the 1-d spline fit
    with a warning; 2-d fits require a full lattice.
    """
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
        spline = _NaturalCubicSpline(x[ok], log_post[ok])
    else:
        if not np.all(np.isfinite(log_post)):
            raise ParameterError("2-d grids need finite values at every point")
        spline = _BicubicSpline(grid.axes[0], grid.axes[1], log_post)
    n = _FINE_1D if grid.ndim == 1 else _FINE_2D
    axes = tuple(np.linspace(a[0], a[-1], n) for a in grid.axes)
    values = spline(*axes)
    log_norm = float(np.log(_fine_integral(axes, np.exp(values))))
    dens = np.exp(values - log_norm)
    for a in (*axes, dens):
        a.flags.writeable = False
    return GridPosterior(grid=grid, log_pred=log_pred, log_prior=log_prior + 0.0,
                         _spline=spline, _log_norm=log_norm, _center=center,
                         _fine_density=(axes, dens))


def _fine_integral(axes: tuple, dens: np.ndarray) -> float:
    """Trapezoid integral of a density over the fine grid."""
    total = dens
    for ax in reversed(axes):
        total = np.trapezoid(total, ax, axis=-1)
    return float(total)


# --- nested MCMC ----------------------------------------------------------

def _reflect(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = hi - lo
    y = np.mod(x - lo, 2 * span)
    y = np.where(y > span, 2 * span - y, y)
    return lo + y


def nested_mcmc(bounds, state0, inner_refresh, log_calib, n_outer: int,
                seed: int):
    """Metropolis over s with parameter draws refreshed by side chains.

    The prior on s is uniform on the bounds box: proposals are reflected
    into the box, so the prior ratio is always 1 and is not computed.
    state0 holds the current parameter draws (one per calibration block for
    the product loss, a single one for pooled).  The chain starts at the
    centre of the bounds with proposal scale a tenth of their width.  At
    each outer step a new s is proposed, inner_refresh(s', state, seed)
    advances the side chains under the proposed s, and the move is accepted
    with the calibration-density ratio of the refreshed versus current
    draws.  The first NESTED_BURN_IN steps adapt the scale and are dropped.
    Returns (s_draws, accept_rate).
    """
    burn_in = NESTED_BURN_IN
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
    draws = np.empty((n_outer - burn_in, d))
    n_acc = 0
    for t in range(n_outer):
        prop = _reflect(s + np.exp(log_s_adapt) * scale * rng.standard_normal(d),
                        lo, hi)
        new_state = inner_refresh(prop, state, int(rng.integers(2 ** 63)))
        new_calib = float(log_calib(new_state))
        accepted, log_alpha = metropolis_accept(new_calib - cur_calib,
                                                math.log(rng.random()))
        if t < burn_in:
            log_s_adapt = adapt_log_scale(log_s_adapt, log_alpha, t, 0.234)
        if accepted:
            s, state, cur_calib = prop, new_state, new_calib
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
    """The spline's maximum next to the fine-grid argmax, taken by _line_max
    over the fine points either side: once in 1-d, and in 2-d in three
    rounds along each axis in turn.  In 1-d candidates within _TIE_TOL of
    the maximum resolve toward the smallest, the less informative update.
    A boundary mode is returned as-is."""
    axes, dens = gp._fine_density
    flat = dens.ravel()
    start = np.unravel_index(
        np.where(flat >= flat.max() * (1 - _TIE_TOL))[0].min(), dens.shape)
    point = [float(a[i]) for a, i in zip(axes, start)]
    rounds, tol = (1, _TIE_TOL) if gp.grid.ndim == 1 else (3, 0.0)
    for _ in range(rounds):
        for axis, (a, i) in enumerate(zip(axes, start)):
            bracket = a[[max(i - 1, 0), min(i + 1, len(a) - 1)]]
            point[axis] = _line_max(*gp._spline.pieces(axis, point), bracket,
                                    point[axis], tol)
    return gp.to_hyperpoint(point)


def _line_max(knots, c, bracket, start: float, tol: float) -> float:
    """The smallest point of bracket [lo, hi] within tol of the maximum there
    of the piecewise cubic (knots, c), among the points that can hold it:
    start, lo, hi, the knots between, and each piece's real stationary
    points clipped to its cell.  Those are the roots q / a and d / q, with
    q = -(b + sign(b) sqrt(b^2 - 4 a d)) / 2, of a s^2 + b s + d = 3 c0 s^2
    + 2 c1 s + c2, which do not cancel as the textbook formula does."""
    i, j = _cells(knots, bracket)[0]
    edges = np.concatenate(([bracket[0]], knots[i + 1:j + 1], [bracket[1]]))
    c0, c1, d = c[:3, i:j + 1]
    a, b = 3 * c0, 2 * c1
    with np.errstate(divide="ignore", invalid="ignore"):   # no real root
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4 * a * d), b))
        roots = np.clip(knots[i:j + 1] + np.stack((q / a, d / q)),
                        edges[:-1], edges[1:])
    t = np.concatenate(([start], edges, roots[~np.isnan(roots)]))
    k, s = _cells(knots, t)
    v = _cubic(c[:, k], s)
    return float(t[v >= v.max() - tol].min())


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
    """Minimum-KL point summary of a 1-d hyperposterior.

    Draw s_t from the posterior, simulate z from each predictive
    p_{s_t}(z|y,x), score each of 41 candidate values s' by the average log
    predictive density of the simulated z, smooth over the candidates and
    take the argmax (equivalently the KL argmin).
    """
    if gp.grid.ndim != 1:
        raise ParameterError("the minimum-KL estimator needs a 1-d posterior, "
                             f"got {gp.grid.ndim} axes")
    if T < 1 or J_inner < 1:
        raise ParameterError(f"T ({T}) and J_inner ({J_inner}) must be >= 1")
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
    from scipy.interpolate import UnivariateSpline
    try:
        sm = UnivariateSpline(cand, w, w=1.0 / se, k=3, s=len(cand))
        fine = np.linspace(cand[0], cand[-1], _FINE_1D)
        best = float(fine[np.argmax(sm(fine))])
    except ValueError:      # the spline's input checks; fitpack only warns
        best = float(cand[np.argmax(w)])
    return gp.to_hyperpoint([best])
