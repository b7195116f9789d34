"""Minimal differentiable MLP substrate in float64 numpy.

Provides forward evaluation, exact parameter gradients, exact input-space
gradients for the attack objectives, and an in-place Adam step. Weights
use the (fan_out, fan_in) layout, so a single linear layer computes
``W @ x + b`` and the input gradient of ``logits[y]`` is row ``y`` of W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

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

DEFAULT_CONF_CLAMP = 1e-6


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

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dims": list(self.hidden_dims),
            "num_classes": self.num_classes,
            "activation": self.activation,
        }

    @staticmethod
    def from_dict(d: dict) -> "ArchDescriptor":
        return ArchDescriptor(
            input_dim=int(d["input_dim"]),
            hidden_dims=tuple(int(h) for h in d["hidden_dims"]),
            num_classes=int(d["num_classes"]),
            activation=str(d.get("activation", "relu")),
        )


@dataclass
class Params:
    """Per-layer weight matrices (fan_out, fan_in) and bias vectors."""

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
        views = layer_views(arch, vec)
        return Params([W.copy() for W in views.weights], [b.copy() for b in views.biases])

    def copy(self) -> "Params":
        return Params([W.copy() for W in self.weights], [b.copy() for b in self.biases])

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(W)) for W in self.weights) and all(
            np.all(np.isfinite(b)) for b in self.biases
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Params):
            return NotImplemented
        return (
            len(self.weights) == len(other.weights)
            and all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights))
            and all(np.array_equal(a, b) for a, b in zip(self.biases, other.biases))
        )


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


def _check_params(arch: ArchDescriptor, params: Params) -> None:
    """Layer shapes must match arch; stacked (G, out, in) layers share one G."""
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


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, activation: str) -> np.ndarray:
    """Activation derivative; relu's is a boolean mask, which multiplies as 1.0/0.0."""
    if activation == "relu":
        return z > 0.0
    t = np.tanh(z)
    return 1.0 - t * t


def _forward_cached(arch: ArchDescriptor, params: Params, X: np.ndarray):
    """Forward pass on a (..., B, input_dim) batch, keeping activations for backprop.

    Stacked (G, out, in) weights pair slice g of a (G, B, input_dim) batch
    with model g; every product runs slice by slice.
    """
    acts = [X]  # inputs to each layer
    pre = []    # pre-activations of hidden layers
    h = X
    n_layers = len(params.weights)
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ np.swapaxes(W, -1, -2)
        z += b[..., None, :]
        if l < n_layers - 1:
            pre.append(z)
            h = _activate(z, arch.activation)
            acts.append(h)
        else:
            logits = z
    return logits, acts, pre


def forward_batch(arch: ArchDescriptor, params: Params, X: np.ndarray) -> np.ndarray:
    """Logits for a (B, input_dim) batch or a stack of them, (..., B, input_dim).

    A stack is multiplied slice by slice, so each slice's logits are
    bitwise those of forward_batch on that slice alone.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2 or X.shape[-1] != arch.input_dim:
        raise ShapeError(f"expected batch of shape (B, {arch.input_dim}), got {X.shape}")
    _check_params(arch, params)
    logits, _, _ = _forward_cached(arch, params, X)
    return logits


def forward_logits(arch: ArchDescriptor, params: Params, x: np.ndarray) -> np.ndarray:
    """Logit vector (num_classes,) for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (arch.input_dim,):
        raise ShapeError(f"expected input of shape ({arch.input_dim},), got {x.shape}")
    _check_params(arch, params)
    logits, _, _ = _forward_cached(arch, params, x[None, :])
    return logits[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_conf(logits: np.ndarray, y: int) -> float:
    """Softmax probability of class y, max-subtracted for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= y < logits.shape[-1]:
        raise IndexError(f"class index {y} out of range for {logits.shape[-1]} classes")
    return float(softmax(logits)[y])


def log_softmax_conf(logits: np.ndarray, y: int) -> float:
    """log softmax_conf without underflow: z_y - logsumexp(z)."""
    logits = np.asarray(logits, dtype=np.float64)
    m = np.max(logits)
    return float(logits[y] - m - math.log(np.sum(np.exp(logits - m))))


def scale_confidence(f: float, delta: float = DEFAULT_CONF_CLAMP) -> float:
    """Scaled log score log(f'/(1-f')) with f clamped to [delta, 1-delta]."""
    if not 0.0 < delta < 0.5:
        raise ValueError("clamp delta must lie in (0, 0.5)")
    f = min(max(float(f), delta), 1.0 - delta)
    return math.log(f / (1.0 - f))


def cw_margin(logits: np.ndarray, y: int) -> float:
    """logits[y] minus the best other logit; positive iff y is the argmax."""
    logits = np.asarray(logits, dtype=np.float64)
    others = np.delete(logits, y)
    return float(logits[y] - np.max(others))


@dataclass(frozen=True)
class ObjectiveKind:
    """One side of an attack objective pair.

    kind names the pair; direction selects the side. Descending the
    in_minimize loss raises softmax confidence on y, descending the
    out_maximize loss lowers it. Random-label kinds carry a fixed
    alternative label (chosen once per target, never equal to y); for a
    batched gradient it may hold one label per row.
    """

    kind: str
    direction: str = IN_MINIMIZE
    alt_label: int | np.ndarray | None = None
    conf_clamp: float = DEFAULT_CONF_CLAMP

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


def objective_value(logits: np.ndarray, y: int, kind: ObjectiveKind) -> float:
    """Scalar loss for one objective side, computed in a stable form."""
    logits = np.asarray(logits, dtype=np.float64)
    k, d = kind.kind, kind.direction
    if k in ("cross_entropy", "cross_entropy_random_label"):
        if d == IN_MINIMIZE or k == "cross_entropy_random_label":
            label = y if d == IN_MINIMIZE else _check_alt(y, kind)
            return -log_softmax_conf(logits, label)
        # reverse CE, -log(1 - f_y) = lse(z) - lse(z without y)
        m = np.max(logits)
        lse = m + math.log(np.sum(np.exp(logits - m)))
        rest = np.delete(logits, y)
        mr = np.max(rest)
        lse_rest = mr + math.log(np.sum(np.exp(rest - mr)))
        return lse - lse_rest
    if k in ("cw_margin", "cw_margin_random_label"):
        if d == IN_MINIMIZE:
            return -cw_margin(logits, y)
        if k == "cw_margin_random_label":
            return -cw_margin(logits, _check_alt(y, kind))
        return cw_margin(logits, y)
    if k == "scaled_log_score":
        phi = scale_confidence(softmax_conf(logits, y), kind.conf_clamp)
        return phi if d == IN_MINIMIZE else -phi
    # raw_logit
    return float(logits[y]) if d == IN_MINIMIZE else -float(logits[y])


def _one_hot(labels: np.ndarray, K: int) -> np.ndarray:
    e = np.zeros((labels.size, K))
    e[np.arange(labels.size), labels] = 1.0
    return e


def objective_grad_logits(logits: np.ndarray, y, kind: ObjectiveKind) -> np.ndarray:
    """Exact gradient of objective_value with respect to the logits.

    Batch-first: logits is (n, K) with y (and a random-label kind's
    alt_label) an int or one label per row; a (K,) vector gives a (K,)
    gradient. Every operation is row-wise, so each row is bitwise the
    gradient of that row alone.
    """
    logits = np.asarray(logits, dtype=np.float64)
    z = np.atleast_2d(logits)
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
        g[(fy <= kind.conf_clamp) | (fy >= 1.0 - kind.conf_clamp)] = 0.0  # phi is constant there
    else:  # raw_logit
        g = e_y if d == IN_MINIMIZE else -e_y
    return g[0] if logits.ndim == 1 else g


def _backprop_to_input(arch, params, pre, dlogits):
    delta = dlogits
    n_layers = len(params.weights)
    for l in range(n_layers - 1, -1, -1):
        dh = delta @ params.weights[l]
        if l > 0:
            delta = dh * _activate_grad(pre[l - 1], arch.activation)
        else:
            return dh
    return dh


def input_gradient(
    arch: ArchDescriptor, params: Params, x: np.ndarray, y, kind: ObjectiveKind
) -> np.ndarray:
    """Gradient of the objective with respect to the input.

    Batch-first: x is (n, input_dim) with y an int or one label per row,
    or a single (input_dim,) vector. Rows are stacked as (n, 1, input_dim)
    so every matmul runs per row: each row's gradient is bitwise that of
    the row alone, which a flat (n, input_dim) product would not be.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != arch.input_dim:
        raise ShapeError(f"expected input of shape (n, {arch.input_dim}), got {x.shape}")
    _check_params(arch, params)
    rows = x.reshape(-1, 1, arch.input_dim)
    logits, _, pre = _forward_cached(arch, params, rows)
    dlogits = objective_grad_logits(logits[:, 0], y, kind)
    grad = _backprop_to_input(arch, params, pre, dlogits[:, None, :])[:, 0]
    return grad[0] if x.ndim == 1 else grad


def param_gradient(
    arch: ArchDescriptor, params: Params, X: np.ndarray, y: np.ndarray, out: Params | None = None
) -> Params:
    """Mean cross-entropy gradient over a batch, shaped like Params.

    Batch-first: with stacked (G, out, in) params, X is (G, B, input_dim)
    and y is (G, B), one batch per model. The gradient is written into out
    (views shaped like params, see layer_views) when given. Each model's
    gradient is bitwise that of the model alone, since every product runs
    slice by slice. Parameter shapes are checked unless out is given: the
    training loop's layer_views of its (G, P) buffers have them by
    construction.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim < 2 or X.shape[-1] != arch.input_dim:
        raise ShapeError(f"expected batch of shape (B, {arch.input_dim}), got {X.shape}")
    if X.shape[-2] == 0:
        raise ValueError("empty batch")
    if out is None:
        _check_params(arch, params)
    B = X.shape[-2]
    logits, acts, pre = _forward_cached(arch, params, X)
    delta = softmax(logits)
    delta[(*np.indices(y.shape), y)] -= 1.0
    delta /= B
    n_layers = len(params.weights)
    gw = [None] * n_layers if out is None else out.weights
    gb = [None] * n_layers if out is None else out.biases
    for l in range(n_layers - 1, -1, -1):
        gw[l] = np.matmul(np.swapaxes(delta, -1, -2), acts[l], out=gw[l])
        gb[l] = np.sum(delta, axis=-2, out=gb[l])
        if l > 0:
            delta = delta @ params.weights[l]
            delta *= _activate_grad(pre[l - 1], arch.activation)
    return Params(gw, gb) if out is None else out


def per_example_grad_vectors(
    arch: ArchDescriptor, params: Params, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Per-example cross-entropy gradients as a (B, param_count) matrix.

    Each row is the gradient of that single example's loss (not divided
    by the batch size), as needed for per-example norm clipping.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    _check_params(arch, params)
    B = X.shape[0]
    logits, acts, pre = _forward_cached(arch, params, X)
    delta = softmax(logits)
    delta[np.arange(B), y] -= 1.0
    out = np.empty((B, arch.param_count()))
    off = 0
    grads_per_layer = []
    for l in range(len(params.weights) - 1, -1, -1):
        gw = np.einsum("bi,bj->bij", delta, acts[l])
        gb = delta
        grads_per_layer.append((l, gw, gb))
        if l > 0:
            delta = (delta @ params.weights[l]) * _activate_grad(pre[l - 1], arch.activation)
    for l, gw, gb in sorted(grads_per_layer, key=lambda t: t[0]):
        n_w = gw.shape[1] * gw.shape[2]
        out[:, off:off + n_w] = gw.reshape(B, n_w)
        off += n_w
        out[:, off:off + gb.shape[1]] = gb
        off += gb.shape[1]
    return out


def batch_cross_entropy(arch: ArchDescriptor, params: Params, X, y) -> float:
    """Mean cross-entropy of the batch (the loss param_gradient descends)."""
    logits = forward_batch(arch, params, np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    m = np.max(logits, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(logits - m), axis=1))
    return float(np.mean(lse - logits[np.arange(len(y)), y]))


@dataclass
class AdamState:
    """Adam moments for one optimized variable, updated in place; zeroed at step 0."""

    step: int
    m: np.ndarray
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    work: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = (np.empty_like(self.m), np.empty_like(self.m))


def init_adam(shape) -> AdamState:
    return AdamState(step=0, m=np.zeros(shape), v=np.zeros(shape))


def adam_step(state: AdamState, variable: np.ndarray, gradient: np.ndarray, lr: float) -> None:
    """One bias-corrected Adam update of variable and state, in place.

    The operations follow m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    x -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps) one rounding at a
    time, so the result is bitwise that of the allocating expression. A
    (G, P) variable updates G models' parameters in one pass.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    if not isinstance(variable, np.ndarray) or variable.dtype != np.float64:
        raise ShapeError("Adam updates a float64 array in place")
    if variable.shape != gradient.shape or variable.shape != state.m.shape:
        raise ShapeError("variable, gradient and Adam state shapes must agree")
    t = state.step + 1
    a, b = state.work
    state.m *= state.beta1
    np.multiply(gradient, 1.0 - state.beta1, out=a)
    state.m += a
    state.v *= state.beta2
    np.multiply(gradient, 1.0 - state.beta2, out=a)
    a *= gradient
    state.v += a
    np.divide(state.m, 1.0 - state.beta1 ** t, out=a)
    a *= lr
    np.divide(state.v, 1.0 - state.beta2 ** t, out=b)
    np.sqrt(b, out=b)
    b += state.eps
    a /= b
    variable -= a
    state.step = t
