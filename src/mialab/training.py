"""Training models on their splits, in lock-step groups: mini-batch SGD/Adam or DP-SGD.

The DP path clips every per-example gradient to an L2 norm bound, sums,
adds Gaussian noise with per-coordinate standard deviation
noise_multiplier * clip_norm, and divides by the batch size. No privacy
accounting is performed; the noise multiplier is the configuration
surface (see NOISE_PRESETS for illustrative budget stand-ins).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ShapeError
from .nn import (
    ArchDescriptor,
    Params,
    adam_step,
    forward_batch,
    init_adam,
    init_params,
    layer_views,
    param_gradient,
    per_example_grad_vectors,
)
from .rng import substream

# Illustrative noise multipliers standing in for loose / strict DP budgets
# (think eps=100 and eps=10 at delta=1e-5); no accountant backs these.
NOISE_PRESETS = {"loose": 0.5, "strict": 2.0}

OPTIMIZERS = ("sgd", "adam")

# train_models trains models in lock-step groups of at most this many
# models x parameters (x batch size for DP models), which bounds the
# buffers one group holds. Parameters do not depend on it.
TRAIN_GROUP_ELEMENTS = 1 << 15

# How many times dp_step verified its post-clip norm bound (test hook).
clip_checks = 0


@dataclass(frozen=True)
class DpConfig:
    clip_norm: float
    noise_multiplier: float

    def __post_init__(self):
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")

    def to_dict(self) -> dict:
        return {"clip_norm": self.clip_norm, "noise_multiplier": self.noise_multiplier}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32
    lr: float = 0.01
    optimizer: str = "adam"
    seed: int = 0
    dp: DpConfig | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_dict(self) -> dict:
        d = {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "optimizer": self.optimizer,
            "seed": self.seed,
        }
        d["dp"] = None if self.dp is None else self.dp.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        dp = d.get("dp")
        return TrainConfig(
            epochs=int(d.get("epochs", 40)),
            batch_size=int(d.get("batch_size", 32)),
            lr=float(d.get("lr", 0.01)),
            optimizer=str(d.get("optimizer", "adam")),
            seed=int(d.get("seed", 0)),
            dp=None if dp is None else DpConfig(float(dp["clip_norm"]), float(dp["noise_multiplier"])),
        )


class ModelRecord:
    """A trained model: architecture, parameters, seed, split row.

    Immutable after construction (parameter arrays are frozen). Reads of
    the .params property are counted so attack-isolation properties can
    be asserted; code that legitimately owns the record (serialization,
    the oracle's internal evaluation) uses ._params directly.
    """

    __slots__ = ("arch", "seed", "split_row", "_params", "access_count")

    def __init__(self, arch: ArchDescriptor, seed: int, split_row: int, params: Params):
        self.arch = arch
        self.seed = int(seed)
        self.split_row = int(split_row)
        for arr in (*params.weights, *params.biases):
            arr.flags.writeable = False
        self._params = params
        self.access_count = 0

    @property
    def params(self) -> Params:
        self.access_count += 1
        return self._params

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelRecord):
            return NotImplemented
        return (
            self.arch == other.arch
            and self.seed == other.seed
            and self.split_row == other.split_row
            and self._params == other._params
        )


def make_even_splits(n_points: int, n_models: int, seed: int) -> np.ndarray:
    """Boolean (n_models, n_points) mask; each row a uniform floor(N/2)-subset."""
    if n_points < 2:
        raise ValueError("need at least 2 points to split")
    if n_models < 1:
        raise ValueError("need at least one model")
    rng = np.random.default_rng(seed)
    half = n_points // 2
    splits = np.zeros((n_models, n_points), dtype=bool)
    for row in range(n_models):
        splits[row, rng.permutation(n_points)[:half]] = True
    return splits


def clip_per_example(gradient: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale gradients down to L2 norm clip_norm; shorter ones pass through.

    Accepts a single gradient vector or a (B, P) batch of per-example rows.
    """
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    g = np.asarray(gradient, dtype=np.float64)
    if g.ndim == 1:
        nrm = float(np.linalg.norm(g))
        return g * (clip_norm / nrm) if nrm > clip_norm else g.copy()
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    factors = np.ones_like(norms)
    over = norms > clip_norm
    factors[over] = clip_norm / norms[over]
    return g * factors[:, None]


def dp_step(
    per_example_grads: np.ndarray,
    clip_norm: float,
    noise_multiplier: float,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Clip each per-example gradient, sum, add Gaussian noise, average."""
    if noise_multiplier < 0:
        raise ValueError("noise_multiplier must be non-negative")
    g = np.atleast_2d(np.asarray(per_example_grads, dtype=np.float64))
    clipped = clip_per_example(g, clip_norm)
    norms = np.sqrt(np.einsum("ij,ij->i", clipped, clipped))
    # post-clip contract; the 1e-9 slack absorbs float rounding only
    if np.any(norms > clip_norm * (1.0 + 1e-9)):
        raise AssertionError(
            f"post-clip norm {norms.max():.17g} exceeds bound {clip_norm}"
        )
    global clip_checks
    clip_checks += 1
    total = clipped.sum(axis=0)
    if noise_multiplier > 0:
        total = total + rng.normal(0.0, noise_multiplier * clip_norm, size=total.shape)
    return total / batch_size


def evaluate_accuracy(arch: ArchDescriptor, params: Params, X: np.ndarray, y: np.ndarray) -> float:
    logits = forward_batch(arch, params, X)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))


def record_accuracy(record: ModelRecord, dataset: Dataset, indices: np.ndarray) -> float:
    """Builder-side accuracy on a subset; does not touch the access counter."""
    X, y = dataset.features[indices], dataset.labels[indices]
    return evaluate_accuracy(record.arch, record._params, X, y)


def plan_groups(
    n_models: int, arch: ArchDescriptor, config: TrainConfig, jobs: int = 1
) -> list[range]:
    """Consecutive model indices in lock-step training groups.

    A group holds at most TRAIN_GROUP_ELEMENTS // cost models (at least
    one), where cost is the parameter count, times the batch size for DP
    models; with jobs > 1, at most ceil(n_models / jobs), so that every
    worker gets a group.
    """
    cost = arch.param_count() * (config.batch_size if config.dp is not None else 1)
    size = max(1, TRAIN_GROUP_ELEMENTS // cost)
    if jobs > 1:
        size = min(size, -(-n_models // jobs))
    return [range(i, min(i + size, n_models)) for i in range(0, n_models, size)]


def _train_group(
    dataset: Dataset, masks: np.ndarray, arch: ArchDescriptor, config: TrainConfig, seeds
) -> np.ndarray:
    """Train one plan_groups group in lock-step; returns its (G, P) parameters.

    Each step gathers every model's own batch as (G, B, input_dim), writes
    all gradients into one (G, P) buffer and takes one in-place optimizer
    step on the (G, P) parameters. Each model draws its init, batch order
    and DP noise from its own seed's substreams.
    """
    X, y = dataset.take(np.stack([np.flatnonzero(mask) for mask in masks]))
    n = X.shape[1]
    if n == 0:
        raise ValueError("empty training set")
    theta = np.stack([init_params(arch, substream(seed, 0)).to_vector() for seed in seeds])
    grad = np.empty_like(theta)
    params, grads = layer_views(arch, theta), layer_views(arch, grad)
    adam = init_adam(theta.shape) if config.optimizer == "adam" else None
    dp = config.dp
    rows = np.arange(len(seeds))[:, None]
    for epoch in range(config.epochs):
        order = np.stack([substream(seed, 1, epoch).permutation(n) for seed in seeds])
        noise_rngs = [substream(seed, 2, epoch) for seed in seeds] if dp is not None else None
        for start in range(0, n, config.batch_size):
            batch = order[:, start:start + config.batch_size]
            Xb, yb = X[rows, batch], y[rows, batch]
            if dp is not None:
                for g, rng in enumerate(noise_rngs):
                    model = Params([W[g] for W in params.weights], [b[g] for b in params.biases])
                    per_ex = per_example_grad_vectors(arch, model, Xb[g], yb[g])
                    grad[g] = dp_step(per_ex, dp.clip_norm, dp.noise_multiplier, yb.shape[1], rng)
            else:
                param_gradient(arch, params, Xb, yb, out=grads)
            if adam is not None:
                adam_step(adam, theta, grad, config.lr)
            else:
                grad *= config.lr
                theta -= grad
    if not np.all(np.isfinite(theta)):
        raise ValueError("training diverged: non-finite parameters")
    return theta


def _train_group_job(args) -> np.ndarray:
    features, labels, num_classes, masks, arch, config, seeds = args
    dataset = Dataset(features, labels, num_classes=num_classes)
    return _train_group(dataset, masks, arch, config, seeds)


def train_models(
    dataset: Dataset, masks: np.ndarray, arch: ArchDescriptor, config: TrainConfig, seeds,
    jobs: int = 1,
) -> list[ModelRecord]:
    """Train model i with seed seeds[i] on exactly the points of mask row i.

    Record i has split_row i. Every mask selects the same number of
    points. Models train in the lock-step groups of plan_groups, spread
    over jobs worker processes when jobs > 1. Each model is bitwise what
    it is when trained alone: it depends on config and its seed only.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.shape != (len(seeds), dataset.n):
        raise ShapeError(
            f"masks {masks.shape} do not give one row per seed over {dataset.n} points"
        )
    sizes = masks.sum(axis=1)
    if np.any(sizes != sizes[:1]):
        raise ValueError("training sets of one farm must have equal sizes")
    work = [(masks[g.start:g.stop], seeds[g.start:g.stop])
            for g in plan_groups(len(seeds), arch, config, jobs)]
    if jobs > 1:
        args = [(dataset.features, dataset.labels, dataset.num_classes, group_masks, arch,
                 config, group_seeds) for group_masks, group_seeds in work]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            thetas = list(pool.map(_train_group_job, args))
    else:
        thetas = [_train_group(dataset, group_masks, arch, config, group_seeds)
                  for group_masks, group_seeds in work]
    rows = (row for theta in thetas for row in theta)
    return [ModelRecord(arch, seed, i, Params.from_vector(arch, row))
            for i, (seed, row) in enumerate(zip(seeds, rows))]


def train_model(
    dataset: Dataset, mask: np.ndarray, arch: ArchDescriptor, config: TrainConfig
) -> ModelRecord:
    """Train on exactly the masked-in points; deterministic per config.seed."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (dataset.n,):
        raise ShapeError(f"mask length {mask.shape} does not match dataset size {dataset.n}")
    record = train_models(dataset, mask[None, :], arch, config, [config.seed])[0]
    return ModelRecord(arch, config.seed, -1, record._params)
