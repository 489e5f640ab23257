"""Domain types and simulators for the synthetic examples.

Datasets are thin wrappers around float64 arrays.  Every simulator is a pure
function of its parameters and a seed, so replicate studies can fan out over
seeds without shared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ParameterError(ValueError):
    """A parameter is outside its declared domain."""


@dataclass(frozen=True)
class HyperPoint:
    """A point s in hyperparameter space.

    eta is the learning rate, b = 1/beta the robust-loss shape, and gamma
    the influence weight for gamma-SMI.
    """

    eta: float | None = None
    b: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        # written so that NaN fails each check
        if self.eta is not None and not 0 <= self.eta < np.inf:
            raise ParameterError(f"eta must be finite and nonnegative, "
                                 f"got {self.eta}")
        if self.b is not None and not 0 < self.b < np.inf:
            raise ParameterError(f"b must be finite and positive, got {self.b}")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ParameterError(f"gamma must be in [0,1], got {self.gamma}")


@dataclass(frozen=True)
class SimpleDataset:
    """Ordered collection of real observation vectors of common dimension."""

    points: np.ndarray  # shape (n,) or (n, d_x)

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.ndim not in (1, 2):
            raise ParameterError("points must be a 1-d or 2-d array")
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ModularDataset:
    """Two-module data: x1 from the trusted module, x2 from the suspect one."""

    x1: SimpleDataset
    x2: SimpleDataset


@dataclass(frozen=True)
class SsmDataset:
    """Blocked state-space data with anchored endpoints.

    The latent chain runs across blocks; its value is known at the first and
    last position of each block (the anchor set A) and hidden elsewhere (M).
    """

    n_blocks: int
    d_x: int
    theta_anchor: np.ndarray  # shape (n_blocks, 2), latents at positions (0, d_x-1)
    x_all: np.ndarray         # shape (n_blocks, d_x)

    def __post_init__(self):
        ta = np.asarray(self.theta_anchor, dtype=float).reshape(self.n_blocks, 2)
        xa = np.asarray(self.x_all, dtype=float).reshape(self.n_blocks, self.d_x)
        object.__setattr__(self, "theta_anchor", ta)
        object.__setattr__(self, "x_all", xa)

    @property
    def x_anchor(self) -> np.ndarray:
        return self.x_all[:, [0, self.d_x - 1]]

    @property
    def x_missing(self) -> np.ndarray:
        return self.x_all[:, 1:self.d_x - 1]

    def subset(self, blocks) -> "SsmDataset":
        blocks = np.asarray(blocks)
        return SsmDataset(len(blocks), self.d_x,
                          self.theta_anchor[blocks], self.x_all[blocks])


@dataclass(frozen=True)
class MixtureTruth:
    """Generative truth for the two-module normal example."""

    phi_star: float = 0.0
    theta_star: float = 6.0
    sigma1_sq: float = 16.0
    sigma2_sq: float = 1.0
    lambda_star: float = 0.9

    def __post_init__(self):
        # written so that NaN fails each check
        if not abs(self.phi_star) + abs(self.theta_star) < np.inf:
            raise ParameterError("phi_star and theta_star must be finite")
        for name in ("sigma1_sq", "sigma2_sq"):
            if not 0 < getattr(self, name) < np.inf:
                raise ParameterError(f"{name} must be finite and positive, "
                                     f"got {getattr(self, name)}")
        if not 0.0 <= self.lambda_star <= 1.0:
            raise ParameterError(f"lambda_star must be in [0,1], got {self.lambda_star}")


@dataclass(frozen=True)
class SsmTruth:
    """Generative truth and fitted-model prior for the state-space example."""

    nu: float = 0.5
    sigma_ar: float = 0.7
    phi_A_star: float = 1.0
    phi_M_star: float = 1.0
    invgamma_a: float = 2.0
    invgamma_b: float = 1.0

    def __post_init__(self):
        if not abs(self.nu) < 1:
            raise ParameterError(f"|nu| must be < 1 for stationarity, got {self.nu}")
        for name in ("sigma_ar", "phi_A_star", "phi_M_star", "invgamma_a", "invgamma_b"):
            if not 0 < getattr(self, name) < np.inf:   # NaN fails too
                raise ParameterError(f"{name} must be finite and positive, "
                                     f"got {getattr(self, name)}")

    @property
    def stationary_var(self) -> float:
        return self.sigma_ar ** 2 / (1.0 - self.nu ** 2)


def simulate_mixture(truth: MixtureTruth, n1: int, n2: int, seed: int) -> ModularDataset:
    """Draw the two-module normal data.

    x1 ~ N(phi*, sigma1^2); x2 from the contaminated mixture
    lambda* N(phi*, sigma2^2) + (1-lambda*) N(theta*, sigma2^2).
    """
    if n1 < 0 or n2 < 0:
        raise ParameterError("sample sizes must be nonnegative")
    rng = np.random.default_rng(seed)
    x1 = truth.phi_star + np.sqrt(truth.sigma1_sq) * rng.standard_normal(n1)
    comp = rng.random(n2) < truth.lambda_star
    means = np.where(comp, truth.phi_star, truth.theta_star)
    x2 = means + np.sqrt(truth.sigma2_sq) * rng.standard_normal(n2)
    return ModularDataset(SimpleDataset(x1), SimpleDataset(x2))


def simulate_ssm(truth: SsmTruth, n_blocks: int, d_x: int, seed: int) -> SsmDataset:
    """Draw blocked AR(1) latents and noisy emissions.

    The stationary AR(1) chain continues across block boundaries.  Anchor
    emissions (block endpoints) use sd phi_A_star, interior ones phi_M_star.
    """
    if n_blocks < 1:
        raise ParameterError("n_blocks must be >= 1")
    if d_x < 2:
        raise ParameterError("d_x must be >= 2 (each block needs two anchors)")
    rng = np.random.default_rng(seed)
    total = n_blocks * d_x
    eps = rng.standard_normal(total)
    # the recursion runs on Python floats: the same IEEE arithmetic as numpy
    # scalars at a fraction of the interpreter cost per step
    nu, s = truth.nu, truth.sigma_ar
    prev = float(np.sqrt(truth.stationary_var) * eps[0])
    path = [prev]
    for e in eps[1:].tolist():
        prev = nu * prev + s * e
        path.append(prev)
    theta = np.array(path).reshape(n_blocks, d_x)
    sd = np.full((n_blocks, d_x), truth.phi_M_star)
    sd[:, 0] = truth.phi_A_star
    sd[:, -1] = truth.phi_A_star
    x_all = theta + sd * rng.standard_normal((n_blocks, d_x))
    return SsmDataset(n_blocks, d_x, theta[:, [0, d_x - 1]], x_all)


def simulate_conjugate_normal(mu_star: float, n: int, seed: int) -> SimpleDataset:
    if n < 0:
        raise ParameterError("n must be nonnegative")
    if not abs(mu_star) < np.inf:                       # NaN fails too
        raise ParameterError(f"mu_star must be finite, got {mu_star}")
    rng = np.random.default_rng(seed)
    return SimpleDataset(mu_star + rng.standard_normal(n))


def split_ssm_blocks(data: SsmDataset, n_train: int, seed: int):
    """Split SSM blocks into a training set and a calibration set."""
    if not 0 <= n_train <= data.n_blocks:
        raise ParameterError("n_train out of range")
    perm = np.random.default_rng(seed).permutation(data.n_blocks)
    return data.subset(np.sort(perm[:n_train])), data.subset(np.sort(perm[n_train:]))


# --- serialization ---------------------------------------------------------

def write_modular_csv(path, data: ModularDataset, meta: dict | None = None):
    path = Path(path)
    with open(path, "w") as fh:
        fh.write("block,pos,value,role\n")
        for i, v in enumerate(data.x1.points):
            fh.write(f"{i},0,{float(v)!r},x1\n")
        for i, v in enumerate(data.x2.points):
            fh.write(f"{i},0,{float(v)!r},x2\n")
    _write_meta(path, meta)


def read_modular_csv(path) -> ModularDataset:
    rows = _read_rows(path)
    x1 = [v for v, role in rows if role == "x1"]
    x2 = [v for v, role in rows if role == "x2"]
    return ModularDataset(SimpleDataset(np.array(x1)), SimpleDataset(np.array(x2)))


def write_ssm_csv(path, data: SsmDataset, meta: dict | None = None):
    path = Path(path)
    anchors = {0, data.d_x - 1}
    with open(path, "w") as fh:
        fh.write("block,pos,value,role\n")
        for i in range(data.n_blocks):
            for j in range(data.d_x):
                role = "anchor" if j in anchors else "missing"
                fh.write(f"{i},{j},{float(data.x_all[i, j])!r},{role}\n")
            fh.write(f"{i},0,{float(data.theta_anchor[i, 0])!r},theta_anchor\n")
            fh.write(f"{i},{data.d_x - 1},{float(data.theta_anchor[i, 1])!r},theta_anchor\n")
    _write_meta(path, meta)


def read_ssm_csv(path) -> SsmDataset:
    import csv

    obs = {}
    latents = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            key = (int(row["block"]), int(row["pos"]))
            if row["role"] == "theta_anchor":
                latents[key] = float(row["value"])
            else:
                obs[key] = float(row["value"])
    n_blocks = max(b for b, _ in obs) + 1
    d_x = max(p for _, p in obs) + 1
    x_all = np.empty((n_blocks, d_x))
    for (b, p), v in obs.items():
        x_all[b, p] = v
    theta = np.empty((n_blocks, 2))
    for b in range(n_blocks):
        theta[b, 0] = latents[(b, 0)]
        theta[b, 1] = latents[(b, d_x - 1)]
    return SsmDataset(n_blocks, d_x, theta, x_all)


def _write_meta(path: Path, meta: dict | None):
    if meta is None:
        return
    with open(path.with_suffix(path.suffix + ".meta"), "w") as fh:
        for k, v in meta.items():
            fh.write(f"{k}={v}\n")


def _read_rows(path):
    import csv

    with open(path) as fh:
        return [(float(r["value"]), r["role"]) for r in csv.DictReader(fh)]
