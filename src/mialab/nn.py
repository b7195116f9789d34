"""Minimal differentiable MLP substrate in float64 numpy.

Provides forward evaluation, exact parameter gradients, exact input-space
gradients for the attack objectives, and an in-place Adam step. Weights
use the (fan_out, fan_in) layout, so a single linear layer computes
``W @ x + b`` and the input gradient of ``logits[y]`` is row ``y`` of W.
"""

from __future__ import annotations

import copy
import ctypes
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ShapeError


def _pin_blas() -> str:
    """Set numpy's bundled OpenBLAS to one thread, so that no product's bits
    depend on the thread count; returns "pinned", or "unpinned: " and why."""
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"))
    if not libs:  # numpy built on MKL, Accelerate or a system BLAS, or a wheel for another OS
        return "unpinned: no numpy.libs/libscipy_openblas64_*.so beside numpy"
    try:
        ctypes.CDLL(str(libs[0])).scipy_openblas_set_num_threads64_(1)
    except (OSError, AttributeError) as exc:
        return f"unpinned: {exc}"
    return "pinned"


# "pinned": this process and its forked map_jobs workers multiply on one thread.
BLAS_PIN = _pin_blas()

ACTIVATIONS = ("relu", "tanh")

OBJECTIVE_KINDS = (
    "cross_entropy",
    "cross_entropy_random_label",
    "cw_margin",
    "cw_margin_random_label",
    "scaled_log_score",
    "raw_logit",
)

# Objective direction: the two sides of a pair always move confidence in
# opposite directions. For the cross-entropy and margin pairs the in side
# raises confidence on y and the out side lowers it; the two logit-score
# pairs are oriented the other way (in minimizes the score, out maximizes
# it), which is what makes their out side transfer in offline attacks.
IN_MINIMIZE = "in_minimize"
OUT_MAXIMIZE = "out_maximize"

# Confidences are clamped to [CONF_CLAMP, 1 - CONF_CLAMP] before the scaled log score.
CONF_CLAMP = 1e-6

# Adam's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Rows per BLAS call of every per-row product (row_tiles). A row's bits depend
# on it, so it is frozen like the RNG tags: changing it can change any score.
ROW_TILE = 16


@dataclass(frozen=True)
class ArchDescriptor:
    """Shape of an MLP: input width, hidden widths, classes, nonlinearity."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be positive")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.num_classes)

    def layer_shapes(self) -> list[tuple[int, int]]:
        d = self.dims
        return [(d[i + 1], d[i]) for i in range(len(d) - 1)]

    def param_count(self) -> int:
        return sum(o * i + o for o, i in self.layer_shapes())


@dataclass(eq=False)
class Params:
    """Per-layer weight matrices (fan_out, fan_in) and bias vectors. Models
    compare by their (P,) row (ModelRecord), so Params compare by identity."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def to_vector(self) -> np.ndarray:
        parts = []
        for W, b in zip(self.weights, self.biases):
            parts.append(W.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    @staticmethod
    def from_vector(arch: ArchDescriptor, vec: np.ndarray) -> "Params":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (arch.param_count(),):
            raise ShapeError(
                f"expected parameter vector of length {arch.param_count()}, got {vec.shape}"
            )
        return layer_views(arch, vec.copy())


def layer_views(arch: ArchDescriptor, flat: np.ndarray) -> Params:
    """Per-layer views into a (..., param_count) buffer, in to_vector order.

    A (G, P) buffer gives stacked (G, out, in) weights and (G, out) biases,
    so G models' parameters are updated through one array.
    """
    lead = flat.shape[:-1]
    weights, biases, off = [], [], 0
    for out_d, in_d in arch.layer_shapes():
        weights.append(flat[..., off:off + out_d * in_d].reshape(*lead, out_d, in_d))
        off += out_d * in_d
        biases.append(flat[..., off:off + out_d])
        off += out_d
    return Params(weights, biases)


def init_params(arch: ArchDescriptor, rng: np.random.Generator) -> Params:
    """He-style init for relu, Glorot-style for tanh; zero biases."""
    weights, biases = [], []
    gain = 2.0 if arch.activation == "relu" else 1.0
    for out_d, in_d in arch.layer_shapes():
        weights.append(rng.normal(0.0, math.sqrt(gain / in_d), size=(out_d, in_d)))
        biases.append(np.zeros(out_d))
    return Params(weights, biases)


def check_params(arch: ArchDescriptor, params: Params) -> Params:
    """params, checked: layer shapes match arch; stacked (G, out, in) layers share one G."""
    shapes = arch.layer_shapes()
    if len(params.weights) != len(shapes) or len(params.biases) != len(shapes):
        raise ShapeError("parameter layer count does not match architecture")
    lead = np.shape(params.weights[0])[:-2]
    for (W, b), (out_d, in_d) in zip(zip(params.weights, params.biases), shapes):
        if np.shape(W) != (*lead, out_d, in_d) or np.shape(b) != (*lead, out_d):
            raise ShapeError(
                f"layer shape mismatch: got {np.shape(W)}/{np.shape(b)}, "
                f"expected {(*lead, out_d, in_d)}"
            )
    return params


def _activate_grad(h: np.ndarray, activation: str, out=None) -> np.ndarray:
    """Derivative from the activation h, into out if given: relu's mask h > 0, tanh's 1 - h*h."""
    if activation == "relu":
        return np.greater(h, 0.0, out=out)
    g = np.multiply(h, h, out=out)
    return np.subtract(1.0, g, out=g)


class Workspace:
    """Buffers that training steps on (G, B) batches write with out=: the batch X,
    labels y and DP input norms |x|^2 + 1; each layer's output and delta; each
    hidden layer's activation derivative; the sparse label index; one noise row."""

    def __init__(self, arch: ArchDescriptor, shape: tuple):
        self.X = np.empty((*shape, arch.input_dim))
        self.y = np.empty(shape, np.int64)
        self.x_norms = np.empty(shape)
        self.outs = [np.empty((*shape, d)) for d in arch.dims[1:]]
        self.deltas = [np.empty((*shape, d)) for d in arch.dims[1:]]
        self.act_grads = [np.empty((*shape, d)) for d in arch.hidden_dims]
        self.index = list(np.indices(shape, sparse=True))
        self.noise = np.empty(arch.param_count())

    def rows(self, B: int) -> "Workspace":
        """A copy whose buffers but the noise row are [:, :B] views, for a short last batch."""
        short = copy.copy(self)
        short.__dict__.update((k, [v[:, :B] for v in a] if isinstance(a, list) else a[:, :B])
                              for k, a in vars(self).items() if k != "noise")
        return short


def _forward_cached(arch: ArchDescriptor, params: Params, X: np.ndarray, outs=None):
    """Forward pass on a (..., B, input_dim) batch: the logits and each layer's input.

    Stacked (G, out, in) weights pair slice g of a (G, B, input_dim) batch
    with model g; every product runs slice by slice. Layer l writes into
    outs[l] if given; a hidden layer's activation overwrites its pre-activation.
    """
    acts = [X]  # inputs to each layer
    n_layers = len(params.weights)
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(acts[-1], np.swapaxes(W, -1, -2), out=None if outs is None else outs[l])
        z += b[..., None, :]
        if l < n_layers - 1:
            acts.append(np.maximum(z, 0.0, out=z) if arch.activation == "relu"
                        else np.tanh(z, out=z))
    return z, acts


def forward_batch(arch: ArchDescriptor, params: Params, X: np.ndarray) -> np.ndarray:
    """Logits for a (B, input_dim) batch or a stack of them, (..., B, input_dim).

    A stack is multiplied slice by slice, so each slice's logits are
    bitwise those of forward_batch on that slice alone.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2 or X.shape[-1] != arch.input_dim:
        raise ShapeError(f"expected batch of shape (B, {arch.input_dim}), got {X.shape}")
    check_params(arch, params)
    return _forward_cached(arch, params, X)[0]


def softmax(logits: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis, max-subtracted for stability; into out when given."""
    e = np.subtract(logits, np.max(logits, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    return np.divide(e, np.sum(e, axis=-1, keepdims=True), out=e)


def scale_confidence(f):
    """Scaled log score log(f'/(1-f')) with f clamped to [CONF_CLAMP, 1-CONF_CLAMP],
    element by element: the one scaled log, for the target's answers and the
    shadows' confidences alike."""
    f = np.clip(f, CONF_CLAMP, 1.0 - CONF_CLAMP)
    return np.log(f / (1.0 - f))


@dataclass(frozen=True)
class ObjectiveKind:
    """One side of an attack objective pair.

    kind names the pair; direction selects the side. The two sides move
    softmax confidence on y in opposite directions: descending the
    in_minimize loss raises it for the cross-entropy and margin pairs, and
    lowers it for raw_logit and scaled_log_score (see the header comment).
    Random-label kinds carry a fixed alternative label (chosen once per
    target, never equal to y); for a batched gradient it may hold one label
    per row.
    """

    kind: str
    direction: str = IN_MINIMIZE
    alt_label: int | np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.direction not in (IN_MINIMIZE, OUT_MAXIMIZE):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.kind.endswith("random_label") and self.alt_label is None:
            raise ValueError(f"{self.kind} requires alt_label")


def _check_alt(y, kind: ObjectiveKind):
    if np.any(np.asarray(kind.alt_label) == y):
        raise ValueError("alternative label must differ from the true label")
    return kind.alt_label


def _one_hot(labels: np.ndarray, K: int) -> np.ndarray:
    e = np.zeros((labels.size, K))
    e[np.arange(labels.size), labels] = 1.0
    return e


def objective_grad_logits(logits: np.ndarray, y, kind: ObjectiveKind) -> np.ndarray:
    """Exact gradient of one objective side's loss with respect to the logits.

    logits is (n, K) with y (and a random-label kind's alt_label) an int
    or one label per row. Every operation is row-wise, so each row is
    bitwise the gradient of that row alone.
    """
    z = np.asarray(logits, dtype=np.float64)
    n, K = z.shape
    rows = np.arange(n)

    def per_row(labels) -> np.ndarray:
        return np.broadcast_to(np.asarray(labels, dtype=np.intp), (n,))

    y = per_row(y)
    p = softmax(z)
    e_y = _one_hot(y, K)
    k, d = kind.kind, kind.direction
    if k in ("cross_entropy", "cross_entropy_random_label"):
        if d == IN_MINIMIZE or k == "cross_entropy_random_label":
            label = y if d == IN_MINIMIZE else per_row(_check_alt(y, kind))
            g = p - _one_hot(label, K)
        else:
            fy = p[rows, y]
            g = (fy / (1.0 - fy))[:, None] * (e_y - p)
    elif k in ("cw_margin", "cw_margin_random_label"):
        label = y if d == IN_MINIMIZE or k == "cw_margin" else per_row(_check_alt(y, kind))
        masked = z.copy()
        masked[rows, label] = -np.inf
        margin_grad = _one_hot(label, K) - _one_hot(np.argmax(masked, axis=-1), K)
        g = margin_grad if (d == OUT_MAXIMIZE and k == "cw_margin") else -margin_grad
    elif k == "scaled_log_score":
        fy = p[rows, y]
        with np.errstate(divide="ignore", invalid="ignore"):
            g = (e_y - p) / (1.0 - fy)[:, None]
        if d != IN_MINIMIZE:
            g = -g
        g[(fy <= CONF_CLAMP) | (fy >= 1.0 - CONF_CLAMP)] = 0.0  # phi is constant there
    else:  # raw_logit
        g = e_y if d == IN_MINIMIZE else -e_y
    return g


def row_tiles(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The n rows x[rows] (indices in range) of an (m, d) array, gathered straight
    into zero-padded (ceil(n / ROW_TILE), ROW_TILE, d) tiles. A gemm on a tile gives
    each row the same bits whatever its position, tile-mates or padding."""
    tiles = np.zeros((-(-len(rows) // ROW_TILE), ROW_TILE, x.shape[-1]))
    x.take(rows, 0, out=tiles.reshape(-1, x.shape[-1])[:len(rows)], mode="clip")
    return tiles


def input_forward(arch: ArchDescriptor, params: Params, x: np.ndarray, rows: np.ndarray):
    """(n, K) logits of the n rows x[rows] and the activation derivatives, in tile
    layout, that input_backward needs; every matmul runs on row_tiles. Shapes unchecked."""
    logits, acts = _forward_cached(arch, params, row_tiles(x, rows))
    logits = logits.reshape(-1, arch.num_classes)[:len(rows)]
    return logits, [_activate_grad(h, arch.activation) for h in acts[1:]]


def input_backward(params: Params, act_grads, dlogits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(n, input_dim) input gradients from the logit gradients dlogits[rows]
    of input_forward's rows, in their order."""
    delta = row_tiles(dlogits, rows)
    for l in range(len(params.weights) - 1, 0, -1):
        delta = (delta @ params.weights[l]) * act_grads[l - 1]
    return (delta @ params.weights[0]).reshape(len(delta) * ROW_TILE, -1)[:len(rows)]


def input_gradient(
    arch: ArchDescriptor, params: Params, x: np.ndarray, y, kind: ObjectiveKind
) -> np.ndarray:
    """Gradient of the objective with respect to the input (input_forward,
    objective_grad_logits, input_backward). x is (n, input_dim) with y an
    int or one label per row, or one (input_dim,) vector.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != arch.input_dim:
        raise ShapeError(f"expected input of shape (n, {arch.input_dim}), got {x.shape}")
    check_params(arch, params)
    rows = np.arange(x.size // arch.input_dim)
    logits, act_grads = input_forward(arch, params, x.reshape(-1, arch.input_dim), rows)
    grad = input_backward(params, act_grads, objective_grad_logits(logits, y, kind), rows)
    return grad[0] if x.ndim == 1 else grad


def param_gradient(
    arch: ArchDescriptor, params: Params, X: np.ndarray, y: np.ndarray, out: Params | None = None,
    ws: Workspace | None = None,
) -> Params:
    """Mean cross-entropy gradient over a batch, shaped like Params.

    Batch-first: with stacked (G, out, in) params, X is (G, B, input_dim)
    and y is (G, B), one batch per model. The gradient is written into out
    (views shaped like params, see layer_views) when given. Each model's
    gradient is bitwise that of the model alone, since every product runs
    slice by slice. Parameter shapes are checked unless out is given: the
    training loop's layer_views of its (G, P) buffers have them by
    construction. The training loop also passes its Workspace as ws.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim < 2 or X.shape[-1] != arch.input_dim:
        raise ShapeError(f"expected batch of shape (B, {arch.input_dim}), got {X.shape}")
    if X.shape[-2] == 0:
        raise ValueError("empty batch")
    if out is None:
        check_params(arch, params)
        out = layer_views(arch, np.empty((*X.shape[:-2], arch.param_count())))
    deltas, acts = per_example_deltas(arch, params, X, y, X.shape[-2], ws)
    return write_batch_gradient(deltas, acts, out)


def per_example_deltas(arch: ArchDescriptor, params: Params, X: np.ndarray, y: np.ndarray,
                       divisor, ws: Workspace | None = None):
    """Per-layer backprop signals of each example's own cross-entropy loss,
    divided by divisor: B for param_gradient's mean, 1 (exact) for DP-SGD.

    Returns (deltas, acts): deltas[l] is layer l's (..., B, out) output
    gradient and acts[l] its (..., B, in) input. Example i's loss has
    weight gradient outer(deltas[l][i], acts[l][i]) and bias gradient
    deltas[l][i]. Stacked params and (G, B, input_dim) batches run slice
    by slice. Everything is written into ws's buffers, made here when not given.
    """
    ws = Workspace(arch, y.shape) if ws is None else ws
    logits, acts = _forward_cached(arch, params, X, ws.outs)
    delta = softmax(logits, out=ws.deltas[-1])
    delta[(*ws.index, y)] -= 1.0
    if divisor != 1:
        delta /= divisor
    deltas = [delta]
    for l in range(len(params.weights) - 1, 0, -1):
        delta = np.matmul(delta, params.weights[l], out=ws.deltas[l - 1])
        delta *= _activate_grad(acts[l], arch.activation, out=ws.act_grads[l - 1])
        deltas.insert(0, delta)
    return deltas, acts


def write_batch_gradient(deltas, acts, out: Params) -> Params:
    """Write each layer's batch-summed gradient, deltas[l]^T acts[l] and the
    sum of deltas[l], into out's views; returns out."""
    for l, (delta, a) in enumerate(zip(deltas, acts)):
        np.matmul(np.swapaxes(delta, -1, -2), a, out=out.weights[l])
        np.sum(delta, axis=-2, out=out.biases[l])
    return out


def per_example_grad_vectors(
    arch: ArchDescriptor, params: Params, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Per-example cross-entropy gradients as a (B, param_count) matrix.

    Each row is the gradient of that single example's loss (not divided
    by the batch size), in Params.to_vector order. Training never builds
    this matrix: DP-SGD clips through per_example_deltas.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    check_params(arch, params)
    deltas, acts = per_example_deltas(arch, params, X, y, 1)
    B = X.shape[0]
    return np.concatenate([part for delta, a in zip(deltas, acts)
                           for part in ((delta[:, :, None] * a[:, None, :]).reshape(B, -1), delta)],
                          axis=1)


@dataclass
class AdamState:
    """Adam moments for one optimized variable, updated in place; zeroed at step 0."""

    step: int
    m: np.ndarray
    v: np.ndarray
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = np.empty_like(self.m)


def init_adam(shape) -> AdamState:
    return AdamState(step=0, m=np.zeros(shape), v=np.zeros(shape))


def adam_step(state: AdamState, variable: np.ndarray, gradient: np.ndarray, lr: float) -> None:
    """One bias-corrected Adam update of variable and state, in place.

    The moments follow m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g. The step
    folds both bias corrections into scalars, in the order of Kingma and Ba
    (arXiv 1412.6980, end of section 2): with r = sqrt(1-b2^t),
    x -= (lr*r / (1-b1^t)) * (m / (sqrt(v) + eps*r)), one rounding at a time,
    so the result is bitwise that of the allocating expression. This equals
    lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps) up to rounding. A (G, P)
    variable updates G models' parameters in one pass.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    if not isinstance(variable, np.ndarray) or variable.dtype != np.float64:
        raise ShapeError("Adam updates a float64 array in place")
    if variable.shape != gradient.shape or variable.shape != state.m.shape:
        raise ShapeError("variable, gradient and Adam state shapes must agree")
    t = state.step + 1
    r = math.sqrt(1.0 - ADAM_BETA2 ** t)
    a = state.work
    state.m *= ADAM_BETA1
    np.multiply(gradient, 1.0 - ADAM_BETA1, out=a)
    state.m += a
    state.v *= ADAM_BETA2
    np.multiply(gradient, 1.0 - ADAM_BETA2, out=a)
    a *= gradient
    state.v += a
    np.sqrt(state.v, out=a)
    a += ADAM_EPS * r
    np.divide(state.m, a, out=a)
    a *= lr * r / (1.0 - ADAM_BETA1 ** t)
    variable -= a
    state.step = t
