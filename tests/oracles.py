"""Independent oracles the tests check the library against.

These deliberately avoid the library's own code paths: finite
differences of scalar objective values for gradients, explicit pairwise
counting for AUC, one allocating Adam update in the folded order, the
one-target attack and one-model training loops the batched library code
must reproduce bit for bit, with
streams built by numpy's SeedSequence directly, a csv.writer encoder
of score tables, and a builder and a bitwise comparison of them.
"""

import csv
import io
import math

import numpy as np

from mialab.nn import (
    IN_MINIMIZE,
    ObjectiveKind,
    Params,
    forward_batch,
    scale_confidence,
    softmax,
)


def cw_margin(logits: np.ndarray, y: int) -> float:
    """logits[y] minus the best other logit; positive iff y is the argmax."""
    logits = np.asarray(logits, dtype=np.float64)
    others = np.delete(logits, y)
    return float(logits[y] - np.max(others))


def _alt_label(y: int, kind: ObjectiveKind) -> int:
    if kind.alt_label == y:
        raise ValueError("alternative label must differ from the true label")
    return kind.alt_label


def objective_value(logits: np.ndarray, y: int, kind: ObjectiveKind) -> float:
    """Scalar loss of one objective side on one logit vector, in a stable
    form; the library descends its gradient (objective_grad_logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    k, d = kind.kind, kind.direction
    if k in ("cross_entropy", "cross_entropy_random_label"):
        m = np.max(logits)
        lse = m + math.log(np.sum(np.exp(logits - m)))
        if d == IN_MINIMIZE or k == "cross_entropy_random_label":
            # -log softmax(z)[label] = lse(z) - z_label
            label = y if d == IN_MINIMIZE else _alt_label(y, kind)
            return float(lse - logits[label])
        # reverse CE, -log(1 - f_y) = lse(z) - lse(z without y)
        rest = np.delete(logits, y)
        mr = np.max(rest)
        lse_rest = mr + math.log(np.sum(np.exp(rest - mr)))
        return lse - lse_rest
    if k in ("cw_margin", "cw_margin_random_label"):
        if d == IN_MINIMIZE:
            return -cw_margin(logits, y)
        if k == "cw_margin_random_label":
            return -cw_margin(logits, _alt_label(y, kind))
        return cw_margin(logits, y)
    if k == "scaled_log_score":
        phi = scale_confidence(softmax(logits)[y])
        return phi if d == IN_MINIMIZE else -phi
    # raw_logit
    return float(logits[y]) if d == IN_MINIMIZE else -float(logits[y])


def batch_cross_entropy(arch, params, X, y):
    """Mean cross-entropy of the batch (the loss param_gradient descends)."""
    logits = forward_batch(arch, params, np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    m = np.max(logits, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(logits - m), axis=1))
    return float(np.mean(lse - logits[np.arange(len(y)), y]))


def fd_input_gradient(arch, params, x, y, kind, h=1e-4):
    """Central finite differences of the objective w.r.t. the input."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (
            objective_value(forward_batch(arch, params, xp[None])[0], y, kind)
            - objective_value(forward_batch(arch, params, xm[None])[0], y, kind)
        ) / (2.0 * h)
    return g


def fd_param_gradient_coords(arch, params, X, y, coords, h=1e-4):
    """Central finite differences of the mean cross-entropy at chosen
    coordinates of the flattened parameter vector."""
    vec = params.to_vector()
    out = np.zeros(len(coords))
    for j, i in enumerate(coords):
        vp = vec.copy()
        vp[i] += h
        vm = vec.copy()
        vm[i] -= h
        out[j] = (
            batch_cross_entropy(arch, Params.from_vector(arch, vp), X, y)
            - batch_cross_entropy(arch, Params.from_vector(arch, vm), X, y)
        ) / (2.0 * h)
    return out


def _ref_stream(*keys):
    """numpy's own stream of a key tuple, built without mialab.rng."""
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def csv_writer_bytes(rows) -> bytes:
    """rows as csv.writer writes them: the bytes every table mialab writes
    (score tables, ROC curves, reports, compare deltas) must equal, given
    its rows with each float as its repr."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def score_table(rows):
    """A ScoreTable of (target index, is_member, query scores, aggregate) rows."""
    from mialab.attacks import ScoreTable

    index, member, scores, aggregated = zip(*rows)
    return ScoreTable(np.array(index, dtype=np.int64), np.array(member, dtype=bool),
                      np.array(scores, dtype=np.float64), np.array(aggregated, dtype=np.float64))


def tables_equal(a, b) -> bool:
    """Whether two ScoreTables hold the same targets, labels and score bits.
    The float columns compare as uint64 views, so -0.0 differs from 0.0."""
    for t in (a, b):
        assert (t.index.dtype, t.member.dtype, t.scores.dtype, t.aggregated.dtype) == (
            np.int64, np.bool_, np.float64, np.float64)
        assert t.scores.ndim == 2 and t.index.shape == t.member.shape == t.aggregated.shape
    return (np.array_equal(a.index, b.index) and np.array_equal(a.member, b.member)
            and np.array_equal(a.scores.view(np.uint64), b.scores.view(np.uint64))
            and np.array_equal(a.aggregated.view(np.uint64), b.aggregated.view(np.uint64)))


def pairwise_auc(scores, labels):
    """P(random positive scores above random negative) + half tie credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.size * neg.size)


def adam_update(x, m, v, g, t, lr):
    """Step t of bias-corrected Adam, allocating: returns the new (x, m, v).

    The bias corrections are folded into scalars as Kingma and Ba order
    them (arXiv 1412.6980, end of section 2), with r = sqrt(1 - beta2^t)."""
    m = 0.9 * m + (1.0 - 0.9) * g
    v = 0.999 * v + (1.0 - 0.999) * g * g
    r = math.sqrt(1.0 - 0.999 ** t)
    x = x - lr * r / (1.0 - 0.9 ** t) * (m / (np.sqrt(v) + 1e-8 * r))
    return x, m, v


def adam_recurrence(grads, x0, lr):
    """Adam unrolled step by step from zero moments over the leading axis of grads."""
    x = x0
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        x, m, v = adam_update(x, m, v, g, t, lr)
    return x


# ---- per-target attack reference ----------------------------------------------
# The attack loop as it ran one target and one single-row gradient at a time,
# written in plain numpy over the raw weight arrays. The library's batched
# engine must reproduce its scores bit for bit.


# the clamp of the scaled log score and the floor of the Gaussian fits' sigma
CONF_CLAMP = 1e-6
SIGMA_FLOOR = 1e-4


def _ref_softmax(z):
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


# Rows per BLAS call of every per-row product, written out rather than
# imported, so that a change of the engine's constant fails the reference.
_TILE = 16


def one_row_tile(row):
    """One row as the first of a zero-padded tile of _TILE rows."""
    tile = np.zeros((_TILE, row.shape[-1]))
    tile[0] = row
    return tile


def _ref_forward(params, activation, x):
    """One row's forward pass as a tile; returns logits (K,) and the tile's
    hidden pre-activations."""
    h = one_row_tile(x)
    pre = []
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ W.T + b
        if l == len(params.weights) - 1:
            return z[0], pre
        pre.append(z)
        h = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)


def _ref_dlogits(logits, y, kind, direction, alt, clamp):
    K = logits.shape[-1]
    p = _ref_softmax(logits)
    e_y = np.zeros(K)
    e_y[y] = 1.0
    in_side = direction == "in_minimize"
    if kind in ("cross_entropy", "cross_entropy_random_label"):
        if in_side or kind == "cross_entropy_random_label":
            e = np.zeros(K)
            e[y if in_side else alt] = 1.0
            return p - e
        fy = p[y]
        return (fy / (1.0 - fy)) * (e_y - p)
    if kind in ("cw_margin", "cw_margin_random_label"):
        label = y if in_side or kind == "cw_margin" else alt
        e = np.zeros(K)
        e[label] = 1.0
        masked = logits.copy()
        masked[label] = -np.inf
        e_run = np.zeros(K)
        e_run[int(np.argmax(masked))] = 1.0
        g = e - e_run
        return g if (not in_side and kind == "cw_margin") else -g
    if kind == "scaled_log_score":
        fy = p[y]
        if fy <= clamp or fy >= 1.0 - clamp:
            return np.zeros(K)
        g = (e_y - p) / (1.0 - fy)
        return g if in_side else -g
    return e_y if in_side else -e_y


def _ref_input_gradient(params, activation, x, y, kind, direction, alt, clamp):
    logits, pre = _ref_forward(params, activation, x)
    delta = one_row_tile(_ref_dlogits(logits, y, kind, direction, alt, clamp))
    for l in range(len(params.weights) - 1, -1, -1):
        dh = delta @ params.weights[l]
        if l == 0:
            return dh[0]
        if activation == "relu":
            delta = dh * (pre[l - 1] > 0.0).astype(np.float64)
        else:
            t = np.tanh(pre[l - 1])
            delta = dh * (1.0 - t * t)


def _ref_project(x_star, delta, epsilon):
    delta = np.clip(delta, -epsilon, epsilon)
    x = np.clip(x_star + delta, 0.0, 1.0)
    return x - x_star, x


def _ref_canary(x_star, y, models, column, cfg, rng, alt, offline):
    """One canary; column[i] says whether models[i] is IN for the target.

    Each step draws one uniform key per model, and a side's picks are its
    shadow_batch models with the smallest (key, id)."""
    b = cfg.shadow_batch
    delta = np.zeros_like(x_star)
    if cfg.noise_scale > 0:
        delta = rng.normal(0.0, cfg.noise_scale, size=x_star.shape)
    delta, x = _ref_project(x_star, delta, cfg.epsilon)
    m = v = 0.0
    ids_out = [i for i, flag in enumerate(column) if not flag]
    ids_in = [i for i, flag in enumerate(column) if flag]
    for t in range(1, cfg.steps + 1):
        keys = rng.random(len(models)).tolist()
        sides = [(ids_out, "out_maximize")] + ([] if offline else [(ids_in, "in_minimize")])
        grad = None
        for ids, direction in sides:
            g = np.zeros_like(x_star)
            for i in sorted(ids, key=lambda i: (keys[i], i))[:b]:
                rec = models[i]
                g += _ref_input_gradient(rec._params, rec.arch.activation, x, y,
                                         cfg.objective, direction, alt, CONF_CLAMP)
            grad = g / b if grad is None else grad + g / b
        delta, m, v = adam_update(delta, m, v, grad, t, cfg.lr)
        delta, x = _ref_project(x_star, delta, cfg.epsilon)
    return x


def _ref_confidence(rec, X, y):
    """Softmax confidence of label y for each row of a (Q, d) batch, each row
    evaluated as a tile."""
    return np.array([_ref_softmax(_ref_forward(rec._params, rec.arch.activation, x)[0])[y]
                     for x in X])


def _ref_phi(f, clamp):
    f = min(max(float(f), clamp), 1.0 - clamp)
    return float(np.log(f / (1.0 - f)))


def _ref_fit(column, floor):
    return float(np.mean(column)), max(float(np.std(column)), floor)


def _ref_log_pdf(x, mu, sigma):
    z = (x - mu) / sigma
    return -0.5 * z * z - float(np.log(sigma)) - 0.5 * float(np.log(2.0 * math.pi))


def ref_online_score(conf_t, mu_i, sd_i, mu_o, sd_o):
    """Likelihood ratio of one query: np.exp of its log ratio, inf past float range."""
    log_ratio = _ref_log_pdf(conf_t, mu_i, sd_i) - _ref_log_pdf(conf_t, mu_o, sd_o)
    with np.errstate(over="ignore"):
        return float(np.exp(log_ratio))


def ref_offline_score(conf_t, mu_o, sd_o):
    """Offline score of one query, in plain math: the erfc tail."""
    return 0.5 * math.erfc(-((conf_t - mu_o) / sd_o) / math.sqrt(2.0))


def reference_attack(dataset, target_record, farm, targets, method, mode, cfg, seed):
    """Per-target scores as a ScoreTable, each aggregate the mean of its target's scores."""
    from mialab.rng import TAG_ALT_LABEL

    offline = mode == "offline"
    out = []
    for t, is_member in targets:
        x_star, y = dataset.features[t].copy(), int(dataset.labels[t])
        column = farm.splits[:, t]
        s_in = [r for r, flag in zip(farm.records, column) if flag]
        s_out = [r for r, flag in zip(farm.records, column) if not flag]
        alt = None
        if cfg.objective.endswith("random_label"):
            draw = int(_ref_stream(seed, TAG_ALT_LABEL, t).integers(farm.arch.num_classes - 1))
            alt = draw + (draw >= y)
        queries = []
        for q in range(cfg.num_queries):
            if method == "lira":
                queries.append(x_star)
                continue
            rng = _ref_stream(seed, t, q)
            if method == "random_noise":
                noise = rng.uniform(-cfg.epsilon, cfg.epsilon, size=x_star.shape) if cfg.epsilon > 0 else 0.0
                queries.append(np.clip(x_star + noise, 0.0, 1.0))
            else:
                queries.append(_ref_canary(x_star, y, farm.records, column, cfg, rng, alt,
                                           offline))
        batch = np.stack(queries)
        clamp = CONF_CLAMP

        def phis(models):
            conf = np.array([[_ref_confidence(r, batch[q:q + 1].copy(), y)[0]
                              for q in range(len(batch))] for r in models])
            conf = np.clip(conf, clamp, 1.0 - clamp)
            return np.log(conf / (1.0 - conf))

        out_phi = phis(s_out)
        in_phi = None if offline else phis(s_in)
        scores = []
        for q in range(cfg.num_queries):
            conf_t = _ref_phi(_ref_confidence(target_record, batch[q:q + 1].copy(), y)[0], clamp)
            mu_o, sd_o = _ref_fit(out_phi[:, q], SIGMA_FLOOR)
            if offline:
                scores.append(ref_offline_score(conf_t, mu_o, sd_o))
            else:
                mu_i, sd_i = _ref_fit(in_phi[:, q], SIGMA_FLOOR)
                scores.append(ref_online_score(conf_t, mu_i, sd_i, mu_o, sd_o))
        out.append((t, is_member, scores, float(np.mean(scores))))
    return score_table(out)


# ---- per-model training reference -----------------------------------------------
# The training loop as it ran one model at a time: parameters repacked from
# the flat vector every step, allocating Adam. Plain numpy throughout; the
# library's lock-step group trainer must reproduce its parameters bit for bit.
# DP steps clip in the ghost form; the materialized (B, P) form is kept as an
# independent check of it.


def _ref_unpack(shapes, theta):
    weights, biases, off = [], [], 0
    for out_d, in_d in shapes:
        weights.append(theta[off:off + out_d * in_d].reshape(out_d, in_d).copy())
        off += out_d * in_d
        biases.append(theta[off:off + out_d].copy())
        off += out_d
    return weights, biases


def _ref_backprop(weights, biases, activation, X, y):
    """Per-layer (delta, layer input) pairs of the summed cross-entropy, last layer first."""
    acts, pre, h = [X], [], X
    for l, (W, b) in enumerate(zip(weights, biases)):
        z = h @ W.T + b
        if l < len(weights) - 1:
            pre.append(z)
            h = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
            acts.append(h)
    delta = _ref_softmax(z)
    delta[np.arange(X.shape[0]), y] -= 1.0
    return delta, acts, pre


def _ref_hidden_delta(delta, W, z, activation):
    if activation == "relu":
        return (delta @ W) * (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return (delta @ W) * (1.0 - t * t)


def _ref_mean_gradient(weights, biases, activation, X, y):
    delta, acts, pre = _ref_backprop(weights, biases, activation, X, y)
    delta /= X.shape[0]
    per_layer = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        per_layer[l] = ((delta.T @ acts[l]).ravel(), delta.sum(axis=0))
        if l > 0:
            delta = _ref_hidden_delta(delta, weights[l], pre[l - 1], activation)
    return np.concatenate([part for layer in per_layer for part in layer])


def _ref_example_deltas(weights, biases, activation, X, y):
    """Per-layer deltas of each example's own loss (undivided) and the layer inputs."""
    delta, acts, pre = _ref_backprop(weights, biases, activation, X, y)
    deltas = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        deltas[l] = delta
        if l > 0:
            delta = _ref_hidden_delta(delta, weights[l], pre[l - 1], activation)
    return deltas, acts


def _ref_clip_factors(norms, clip):
    factors = np.ones_like(norms)
    over = norms > clip
    factors[over] = clip / norms[over]
    return factors


def _ref_noisy_mean(total, B, clip, noise_multiplier, rng):
    if noise_multiplier > 0:
        total = total + rng.normal(0.0, noise_multiplier * clip, size=total.shape)
    return total / B


def materialized_dp_gradient(weights, biases, activation, X, y, clip, noise_multiplier, rng):
    """DP-SGD gradient of one batch from the (B, P) per-example gradient matrix."""
    B = X.shape[0]
    deltas, acts = _ref_example_deltas(weights, biases, activation, X, y)
    g = np.concatenate([part for delta, a in zip(deltas, acts)
                        for part in ((delta[:, :, None] * a[:, None, :]).reshape(B, -1), delta)],
                       axis=1)
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    total = (g * _ref_clip_factors(norms, clip)[:, None]).sum(axis=0)
    return _ref_noisy_mean(total, B, clip, noise_multiplier, rng)


def ghost_dp_gradient(weights, biases, activation, X, y, clip, noise_multiplier, rng):
    """DP-SGD gradient of one batch clipped through per-layer norms, never
    building the per-example gradients: |g_i|^2 = sum_l |delta_i|^2 (|a_i|^2 + 1)."""
    deltas, acts = _ref_example_deltas(weights, biases, activation, X, y)
    sq = sum((delta * delta).sum(axis=1) * ((a * a).sum(axis=1) + 1.0)
             for delta, a in zip(deltas, acts))
    factors = _ref_clip_factors(np.sqrt(sq), clip)[:, None]
    total = np.concatenate([part for delta, a in zip(deltas, acts)
                            for part in (((delta * factors).T @ a).ravel(),
                                         (delta * factors).sum(axis=0))])
    return _ref_noisy_mean(total, X.shape[0], clip, noise_multiplier, rng)


def reference_train(dataset, mask, arch, config, seed):
    """Flat parameter vector of one model trained alone on its masked-in points."""
    shapes = arch.layer_shapes()
    idx = np.flatnonzero(mask)
    X, y, n = dataset.features[idx], dataset.labels[idx], idx.size
    init = _ref_stream(seed, 0)
    gain = 2.0 if arch.activation == "relu" else 1.0
    theta = np.concatenate([
        part for out_d, in_d in shapes
        for part in (init.normal(0.0, math.sqrt(gain / in_d), size=(out_d, in_d)).ravel(),
                     np.zeros(out_d))
    ])
    m = v = 0.0
    t = 0
    for epoch in range(config.epochs):
        order = _ref_stream(seed, 1, epoch).permutation(n)
        noise = _ref_stream(seed, 2, epoch) if config.dp is not None else None
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            weights, biases = _ref_unpack(shapes, theta)
            if config.dp is None:
                g = _ref_mean_gradient(weights, biases, arch.activation, X[batch], y[batch])
            else:
                g = ghost_dp_gradient(weights, biases, arch.activation, X[batch], y[batch],
                                      config.dp.clip_norm, config.dp.noise_multiplier, noise)
            t += 1
            theta, m, v = adam_update(theta, m, v, g, t, config.lr)
    return theta
