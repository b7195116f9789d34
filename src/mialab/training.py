"""Training models on their splits in lock-step groups: mini-batch Adam, plain or DP-SGD.

The DP path clips every per-example gradient to an L2 norm bound, sums,
adds Gaussian noise with per-coordinate standard deviation
noise_multiplier * clip_norm, and divides by the batch size. No privacy
accounting is performed; the noise multiplier is the configuration
surface.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset
from .errors import ShapeError
from .nn import (
    ArchDescriptor,
    Params,
    Workspace,
    adam_step,
    forward_batch,
    init_adam,
    init_params,
    layer_views,
    param_gradient,
    per_example_deltas,
    per_example_grad_vectors,  # noqa: F401  stays bound here for perfbench's tracer
    write_batch_gradient,
)
from .rng import generators, stream_states, substream, substreams

# train_models trains models in lock-step groups of at most this many
# models x parameters, which bounds the buffers one group holds.
# Parameters do not depend on it.
TRAIN_GROUP_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class DpConfig:
    clip_norm: float
    noise_multiplier: float

    def __post_init__(self):
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be finite and positive, got {self.clip_norm!r}")
        if not (math.isfinite(self.noise_multiplier) and self.noise_multiplier >= 0):
            raise ValueError(
                f"noise_multiplier must be finite and non-negative, got {self.noise_multiplier!r}"
            )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32
    lr: float = 0.01
    optimizer: str = "adam"
    dp: DpConfig | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if self.optimizer != "adam":
            raise ValueError(f"unknown optimizer {self.optimizer!r}; only 'adam' is supported")


class ModelRecord:
    """A trained model: architecture, training seed and its parameters as
    one read-only (P,) float64 row, whose layer_views are ._params.

    Records compare by that row and pickle as (arch, seed, theta), so a
    copy is frozen again. Reads of the .params property are counted so
    attack-isolation properties can be asserted; code that legitimately
    owns the record (serialization, the oracle's internal evaluation)
    uses ._theta and ._params directly.
    """

    __slots__ = ("arch", "seed", "_theta", "_params", "access_count")

    def __init__(self, arch: ArchDescriptor, seed: int, theta: np.ndarray):
        P = arch.param_count()
        if not isinstance(theta, np.ndarray) or theta.dtype != np.float64 or theta.shape != (P,):
            raise ShapeError(f"expected a float64 parameter row of length {P}, got "
                             f"{np.asarray(theta).dtype} {np.shape(theta)}")
        theta.flags.writeable = False
        self.arch = arch
        self.seed = int(seed)
        self._theta = theta
        self._params = layer_views(arch, theta)
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
            and np.array_equal(self._theta, other._theta)
        )

    def __reduce__(self):
        return ModelRecord, (self.arch, self.seed, self._theta)


def make_even_splits(n_points: int, n_models: int, seed: int) -> np.ndarray:
    """Boolean (n_models, n_points) mask; each row a uniform floor(N/2)-subset."""
    if n_points < 2:
        raise ValueError("need at least 2 points to split")
    if n_models < 1:
        raise ValueError("need at least one model")
    rng = substream(seed)
    half = n_points // 2
    splits = np.zeros((n_models, n_points), dtype=bool)
    for row in range(n_models):
        splits[row, rng.permutation(n_points)[:half]] = True
    return splits


def dp_step(
    arch: ArchDescriptor, params: Params, ws: Workspace, dp: DpConfig, rngs, grad: np.ndarray
) -> None:
    """One DP-SGD gradient for each of G models, written into grad (G, P).

    params are layer_views of the models' (G, P) parameters; the batch is
    the training loop's Workspace: ws.X the (G, B, input_dim) batches, ws.y
    the (G, B) labels and ws.x_norms their |x|^2 + 1. Each example's
    gradient is clipped to L2 norm dp.clip_norm without being built
    (ghost clipping): its squared norm is sum_l |delta_l|^2 (|a_l|^2 + 1)
    over the layers' per-example deltas and inputs, and the clipped sum is
    (c * delta_l)^T a_l per layer. Model g then adds noise of standard
    deviation noise_multiplier * clip_norm drawn from rngs[g] and divides
    by B. Every product and reduction runs per model, so each row is
    bitwise that of the model alone.
    """
    deltas, acts = per_example_deltas(arch, params, ws.X, ws.y, 1, ws)
    squares = ws.act_grads + ws.outs[-1:]  # buffers backprop is done with, one per layer width
    norms = ws.x_norms * np.sum(np.multiply(deltas[0], deltas[0], out=squares[0]), axis=-1)
    for l in range(1, len(deltas)):
        a_norms = np.sum(np.multiply(acts[l], acts[l], out=squares[l - 1]), axis=-1) + 1.0
        norms += a_norms * np.sum(np.multiply(deltas[l], deltas[l], out=squares[l]), axis=-1)
    np.sqrt(norms, out=norms)
    factors = np.ones_like(norms)  # min(1, clip_norm / norm)
    over = norms > dp.clip_norm
    factors[over] = dp.clip_norm / norms[over]
    # post-clip contract; the 1e-9 slack absorbs float rounding only
    clipped = factors * norms
    if np.any(clipped > dp.clip_norm * (1.0 + 1e-9)):
        raise AssertionError(f"post-clip norm {clipped.max():.17g} exceeds bound {dp.clip_norm}")
    for delta in deltas:
        delta *= factors[..., None]
    write_batch_gradient(deltas, acts, layer_views(arch, grad))
    if dp.noise_multiplier > 0:
        for row, rng in zip(grad, rngs):
            row += normal_noise(rng, dp.noise_multiplier * dp.clip_norm, ws.noise)
    grad /= ws.y.shape[-1]


def normal_noise(rng: np.random.Generator, scale: float, out: np.ndarray) -> np.ndarray:
    """rng.normal(0.0, scale, out.shape) drawn into out: normal returns 0.0 + scale * z,
    and adding 0.0 as it does keeps the sign of a zero draw."""
    rng.standard_normal(out=out)
    out *= scale
    out += 0.0
    return out


def record_accuracy(record: ModelRecord, dataset: Dataset, indices: np.ndarray) -> float:
    """Builder-side accuracy on a subset; does not touch the access counter."""
    logits = forward_batch(record.arch, record._params, dataset.features[indices])
    return float(np.mean(np.argmax(logits, axis=1) == dataset.labels[indices]))


def plan_groups(n_models: int, arch: ArchDescriptor, jobs: int = 1) -> list[range]:
    """Consecutive model indices in lock-step training groups.

    A group holds at most TRAIN_GROUP_ELEMENTS // param_count models (at
    least one), DP or not; with jobs > 1, at most ceil(n_models / jobs), so
    that every worker gets a group.
    """
    size = max(1, TRAIN_GROUP_ELEMENTS // arch.param_count())
    if jobs > 1:
        size = min(size, -(-n_models // jobs))
    return [range(i, min(i + size, n_models)) for i in range(0, n_models, size)]


def _train_group(
    dataset: Dataset, masks: np.ndarray, arch: ArchDescriptor, config: TrainConfig, seeds,
    group: range,
) -> np.ndarray:
    """Train the models of one plan_groups group in lock-step; returns their
    (G, P) parameters.

    Each step gathers every model's own batch as (G, B, input_dim), writes
    all gradients into one (G, P) buffer and takes one in-place Adam step
    on the (G, P) parameters, in one full-size Workspace (a short last batch
    uses its leading views). Each model draws its init, batch order and DP
    noise from its own seed's substreams; the streams of every epoch are
    derived up front in one batch, and each epoch's generators are built when
    it starts. The first epoch that leaves a parameter non-finite raises
    ValueError, without numpy's overflow warnings.
    """
    masks, seeds = masks[group.start:group.stop], seeds[group.start:group.stop]
    X, y = dataset.take(np.stack([np.flatnonzero(mask) for mask in masks]))
    G, n = y.shape
    if n == 0:
        raise ValueError("empty training set")
    # one (G * n, input_dim) array of the group's points, model g's from row g * n
    X, y, offsets = X.reshape(G * n, -1), y.ravel(), np.arange(0, G * n, n)[:, None]
    dp = config.dp
    x_norms = np.sum(X * X, axis=-1) + 1.0 if dp is not None else None
    theta = np.stack([init_params(arch, rng).to_vector()
                      for rng in substreams([(seed, 0) for seed in seeds])])
    grad = np.empty_like(theta)
    params, grads = layer_views(arch, theta), layer_views(arch, grad)
    adam = init_adam(theta.shape)
    B = min(config.batch_size, n)
    ws = Workspace(arch, (G, B))
    short = ws.rows(n % B)
    tags = (1,) if dp is None else (1, 2)  # batch order, DP noise
    states = stream_states([(seed, tag, epoch) for epoch in range(config.epochs)
                            for tag in tags for seed in seeds])
    states = states.reshape(config.epochs, len(tags), len(seeds), -1)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is one error, below
        for epoch in range(config.epochs):
            order = np.stack([rng.permutation(n) for rng in generators(states[epoch, 0])])
            order += offsets
            noise_rngs = generators(states[epoch, 1]) if dp is not None else None
            for start in range(0, n, B):
                batch = order[:, start:start + B]
                step = ws if batch.shape[1] == B else short
                X.take(batch, 0, out=step.X, mode="clip")
                y.take(batch, out=step.y, mode="clip")
                if dp is not None:
                    x_norms.take(batch, out=step.x_norms, mode="clip")
                    dp_step(arch, params, step, dp, noise_rngs, grad)
                else:
                    param_gradient(arch, params, step.X, step.y, out=grads, ws=step)
                adam_step(adam, theta, grad, config.lr)
            if not np.all(np.isfinite(theta)):
                raise ValueError(f"training diverged: non-finite parameters in epoch {epoch + 1}")
    return theta


def map_jobs(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], in this process when that leaves one
    worker, else over min(jobs, len(items)) worker processes."""
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def train_models(
    dataset: Dataset, masks: np.ndarray, arch: ArchDescriptor, config: TrainConfig, seeds,
    jobs: int = 1,
) -> list[ModelRecord]:
    """Train model i with seed seeds[i] on exactly the points of mask row i.

    Every mask selects the same number of points. Models train in the
    lock-step groups of plan_groups, spread by map_jobs over at most jobs
    worker processes. Each model is bitwise what it is when trained alone: it
    depends on config and its seed only.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.shape != (len(seeds), dataset.n):
        raise ShapeError(
            f"masks {masks.shape} do not give one row per seed over {dataset.n} points"
        )
    sizes = masks.sum(axis=1)
    if np.any(sizes != sizes[:1]):
        raise ValueError("training sets of one farm must have equal sizes")
    train = partial(_train_group, dataset, masks, arch, config, seeds)
    thetas = map_jobs(train, plan_groups(len(seeds), arch, jobs), jobs)
    rows = (row for theta in thetas for row in theta)
    return [ModelRecord(arch, seed, row) for seed, row in zip(seeds, rows)]


def train_model(
    dataset: Dataset, mask: np.ndarray, arch: ArchDescriptor, config: TrainConfig, seed: int
) -> ModelRecord:
    """Train on exactly the masked-in points; deterministic per (config, seed)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (dataset.n,):
        raise ShapeError(f"mask length {mask.shape} does not match dataset size {dataset.n}")
    return train_models(dataset, mask[None, :], arch, config, [seed])[0]
