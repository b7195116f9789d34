"""Membership-inference attacks against a black-box target oracle.

Implements likelihood-ratio scoring from Gaussian fits of scaled shadow
confidences (online ratio and offline tail variants), the adversarial
canary query optimizer with L-infinity and domain projection, a
random-noise control query, multi-query ensembling, and the end-to-end
attack runner that produces a ScoreTable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DOMAIN_HIGH, DOMAIN_LOW, Dataset
from .errors import ConfigError, FingerprintMismatchError, FormatError, IsolationError
from .farm import ShadowFarm, TargetOracle, check_farm_fits, model_confidence_batch
from .metrics import read_csv_rows, write_lines
from .nn import (
    IN_MINIMIZE,
    OUT_MAXIMIZE,
    OBJECTIVE_KINDS,
    ObjectiveKind,
    adam_step,
    init_adam,
    input_backward,
    input_forward,
    input_gradient,  # noqa: F401  stays bound here for perfbench's tracer
    objective_grad_logits,
    scale_confidence,
)
from .rng import (  # noqa: F401  substream stays bound here for perfbench's tracer
    TAG_ALT_LABEL,
    substream,
    substreams,
)

# Gaussian fits floor the standard deviation here, which keeps scores finite.
SIGMA_FLOOR = 1e-4
# run_attack cuts its targets into blocks of at most this many bytes, as
# _block_bytes counts what a target's rows hold; each --jobs worker holds its
# own block. Scores do not depend on it.
BLOCK_BYTES = 1 << 24
# A numpy Generator over PCG64, as tracemalloc counts it: one per query row.
_GENERATOR_BYTES = 650

METHODS = ("lira", "canary", "random_noise")
MODES = ("online", "offline")
SCORE_HEADER = ["target_index", "is_member", "query_id", "score", "aggregated_score"]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_erfc = np.frompyfunc(math.erfc, 1, 1)  # numpy has no erfc: the one math-module call in scoring


@dataclass(frozen=True)
class GaussianStats:
    """One Gaussian fit, or arrays of fits; the score functions below take a
    float conf_t or an array, and score each element alone in numpy's bits."""

    mu: float | np.ndarray
    sigma: float | np.ndarray

    def __post_init__(self):
        if np.any(np.less_equal(self.sigma, 0)):
            raise ValueError("sigma must be positive")


def fit_gaussians(rows) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma) per row of an array: mean and population std floored at SIGMA_FLOOR.

    Reduces over the contiguous last axis, where each row is summed
    exactly as a 1-D array is; a reduction over any other axis differs
    in the last bits once a row holds 8 or more scores.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.shape[-1] == 0:
        raise ValueError("cannot fit a Gaussian to zero scores")
    return np.mean(rows, axis=-1), np.maximum(np.std(rows, axis=-1), SIGMA_FLOOR)


def _grouped_fits(phi: np.ndarray, side: np.ndarray) -> GaussianStats:
    """(k, S) fits of phi[side[t], t, s], phi being (models, k, S) with S the
    queries, or S = 1 for one fit that broadcasts over a LiRA target's queries.

    Targets with the same model count share one fit_gaussians call over their
    contiguous (targets * S, count) rows, each row bitwise the target's own.
    """
    counts = side.sum(axis=1)
    mu, sigma = np.empty(phi.shape[1:]), np.empty(phi.shape[1:])
    for c in np.flatnonzero(np.bincount(counts)):  # np.unique would add 0.6 MB peak RSS
        t = np.flatnonzero(counts == c)
        models = np.nonzero(side[t])[1].reshape(t.size, c)  # ascending per target
        rows = phi[models, t[:, None]].transpose(0, 2, 1)  # (targets, S, count)
        mu[t], sigma[t] = fit_gaussians(rows)
    return GaussianStats(mu, sigma)


def _log_pdf(x, stats: GaussianStats):
    z = (x - stats.mu) / stats.sigma
    return -0.5 * z * z - np.log(stats.sigma) - _LOG_SQRT_2PI


def lira_online_log_ratio(conf_t, in_stats: GaussianStats, out_stats: GaussianStats):
    return _log_pdf(conf_t, in_stats) - _log_pdf(conf_t, out_stats)


def lira_online_score(conf_t, in_stats: GaussianStats, out_stats: GaussianStats):
    """Likelihood ratio pdf_in(conf) / pdf_out(conf): np.exp of the log ratio.

    np.exp saturates to inf above log(DBL_MAX) ~ 709.78 (its overflow is
    silenced) and to 0 below ~ -745.13; use the log ratio when thresholding,
    the ranking is identical.
    """
    with np.errstate(over="ignore"):
        return np.exp(lira_online_log_ratio(conf_t, in_stats, out_stats))


def lira_offline_score(conf_t, out_stats: GaussianStats):
    """One-sided score against the OUT distribution.

    The Gaussian tail form 1 - Pr[Z > conf], i.e. the normal CDF at
    (conf - mu)/sigma, nondecreasing in conf. The erfc form keeps the left
    tail resolvable down to z around -38 instead of rounding to zero at -8.
    """
    z = (conf_t - out_stats.mu) / out_stats.sigma
    return 0.5 * np.asarray(_erfc(-z / _SQRT2), dtype=np.float64)


def ensemble_scores(scores) -> np.ndarray:
    """Arithmetic mean of per-query scores over the last axis: one float for
    Q scores, one per target for a (targets, Q) block; permutation invariant.

    Reduces over the contiguous last axis, so each target's mean is bitwise
    that of its scores alone (see fit_gaussians).
    """
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    if scores.shape[-1] == 0:
        raise ValueError("need at least one query score")
    return np.mean(scores, axis=-1)


@dataclass(frozen=True)
class CanaryConfig:
    """Hyperparameters of the adversarial query optimizer.

    epsilon is the L-infinity perturbation bound in input-domain units
    (the domain is the unit hypercube). Each canary starts at its target
    plus Gaussian noise of scale init_noise_scale, epsilon/4 when unset;
    0 starts it at the target. Online or
    offline is the attack's mode, given to run_attack, not a setting here.
    """

    epsilon: float
    steps: int = 40
    shadow_batch: int = 2
    lr: float = 0.05
    objective: str = "raw_logit"
    init_noise_scale: float | None = None
    num_queries: int = 10

    def __post_init__(self):
        for name in ("epsilon", "init_noise_scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")
        if not (math.isfinite(self.lr) and self.lr > 0):  # else the canary climbs its own loss
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps!r}")
        if self.shadow_batch < 1 or self.num_queries < 1:
            raise ValueError("shadow_batch and num_queries must be positive")
        if self.objective not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective {self.objective!r}")

    @property
    def noise_scale(self) -> float:
        if self.init_noise_scale is not None:
            return self.init_noise_scale
        return self.epsilon / 4.0


def _project(x_star: np.ndarray, delta: np.ndarray, epsilon: float, x: np.ndarray) -> None:
    """Joint projection onto the epsilon ball and the input domain, in place.

    Clips delta to the ball, sets x to the exactly domain-clamped query point
    and delta to x - x_star; |x - x_star| can exceed epsilon only by
    float-addition rounding.
    """
    np.clip(delta, -epsilon, epsilon, out=delta)
    np.clip(np.add(x_star, delta, out=x), DOMAIN_LOW, DOMAIN_HIGH, out=x)
    np.subtract(x, x_star, out=delta)
    if max(delta.max(initial=0.0), -delta.min(initial=0.0)) > epsilon + 1e-9 * max(1.0, epsilon):
        raise AssertionError("projection left the epsilon ball")
    if x.min(initial=DOMAIN_LOW) < DOMAIN_LOW or x.max(initial=DOMAIN_HIGH) > DOMAIN_HIGH:
        raise AssertionError("projection left the input domain")


def _step_gradient(x, picks, records, params, kinds, labels, per_pick) -> np.ndarray:
    """One canary step's (n, dim) gradient: the mean over each side's b picks
    of their input gradients, OUT side first. picks is (n, sides, b): entry e,
    ordered (row, side, slot), is row e // (sides * b) of x under model
    picks.flat[e]; side s takes objective kinds[s] with its (n * b) entries'
    labels.

    Entries keep that layout throughout, but in the (sides, b, n, dim)
    buffer per_pick, where each (side, slot) is one contiguous block. One
    stable argsort gives each picked model its run of entry ids, over which
    it runs one forward and one backward; one objective pass covers each
    side's logits. The sums and the gradient are made in per_pick, whose
    first block the returned gradient views.
    """
    n, n_sides, b = picks.shape
    n_classes, models = records[0].arch.num_classes, picks.ravel()
    order = np.argsort(models, kind="stable")
    rows = order // (n_sides * b)  # the row of x of each entry, in model order
    blocked = order % (n_sides * b) * n + rows  # and its row of per_pick's blocks
    logits = np.empty((n, n_sides, b, n_classes))
    flat = logits.reshape(-1, n_classes)
    runs, lo = [], 0
    for m, hi in enumerate(np.cumsum(np.bincount(models, minlength=len(records))).tolist()):
        if hi > lo:  # each model's rows are gathered straight into its tiles
            e = order[lo:hi]
            flat[e], act_grads = input_forward(records[m].arch, params[m], x, rows[lo:hi])
            runs.append((params[m], e, blocked[lo:hi], act_grads))
        lo = hi
    for side, kind in enumerate(kinds):  # logits become their gradients
        logits[:, side] = objective_grad_logits(
            logits[:, side].reshape(-1, n_classes), labels, kind).reshape(n, b, n_classes)
    entries = per_pick.reshape(-1, x.shape[1])
    for model, e, dest, act_grads in runs:
        entries[dest] = input_backward(model, act_grads, flat, e)
    total = per_pick[:, 0]
    total += 0.0  # from +0.0, then in slot order, as one row sums
    for j in range(1, b):
        total += per_pick[:, j]
    total /= b
    grad = total[0]
    for side in range(1, n_sides):
        grad += total[side]
    return grad


def optimize_canary(
    x_star: np.ndarray,
    y: np.ndarray,
    member: np.ndarray,
    records,
    config: CanaryConfig,
    online: bool,
    rngs,
    alt: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Adversarial queries near the (n, d) rows x_star that separate IN from
    OUT shadow models, optimised together as one block.

    Row r starts at x_star[r] with label y[r] (alt[r] for the random-label
    objectives); member[r, m] says whether records[m] is IN for the row's
    target. Each row needs shadow_batch models on each side it picks from:
    OUT, and IN online (_check_eligible, rows named by position). Each row
    draws from its own rng: its init noise, then one uniform key per (step,
    model). A step's picks on a side are the shadow_batch models of that
    side with the smallest keys (the lower id on a tie): a uniform subset,
    drawn afresh each step, that does not depend on the other rows of the
    block. Per step, each picked model runs one stacked forward and one
    backward over the rows that picked it on either side, around one
    objective pass per side; Adam and the projection onto the epsilon ball
    within the input domain run once on the block, in place, and a row's
    sides * shadow_batch input gradients share one buffer across steps
    (what a row holds is counted by _block_bytes). Only picked models'
    params are read, so offline never reads a model IN for its row. For one
    row, pass a (1, d) block whose records hold its OUT models first and
    whose member row is true on the IN tail.

    Returns the canaries and the number of evaluated (row, model) pairs whose
    model is IN for the row, counted from the ids actually evaluated.
    """
    n, dim = x_star.shape
    b, steps, n_models = config.shadow_batch, config.steps, len(records)
    _check_eligible(np.arange(n), member, b, online)
    sides = 2 if online else 1
    # OUT keys less 1.0, which is exact: ranked by key, a row's OUT models
    # come first and its IN ones from its OUT count, each side in key order
    out_offset = (~member).astype(np.float64)
    n_out = n_models - member.sum(axis=1)
    columns = np.column_stack([np.zeros_like(n_out), n_out])[:, :sides, None] + np.arange(b)
    noise = config.noise_scale > 0
    delta = np.zeros_like(x_star)
    picks = np.empty((n, steps, sides, b), dtype=np.intp)
    for r, rng in enumerate(rngs):
        if noise:
            delta[r] = rng.normal(0.0, config.noise_scale, size=dim)
        keys = rng.random((steps, n_models))
        keys -= out_offset[r]
        picks[r] = keys.argsort(axis=1, kind="stable")[:, columns[r]]
    in_evaluations = int(member[np.arange(n)[:, None, None, None], picks].sum())
    params = {m: records[m].params  # a record's rows are shape-checked when it is built
              for m in np.flatnonzero(np.bincount(picks.ravel(), minlength=n_models)).tolist()}
    labels, alt_labels = y.repeat(b), None if alt is None else alt.repeat(b)
    kinds = [ObjectiveKind(config.objective, side, alt_labels)
             for side in (OUT_MAXIMIZE, IN_MINIMIZE)[:sides]]

    x = np.empty_like(x_star)
    _project(x_star, delta, config.epsilon, x)
    adam, per_pick = init_adam(x_star.shape), np.empty((sides, b, n, dim))
    for s in range(steps):
        grad = _step_gradient(x, picks[:, s], records, params, kinds, labels, per_pick)
        adam_step(adam, delta, grad, config.lr)
        _project(x_star, delta, config.epsilon, x)
    return x, in_evaluations


def random_noise_query(x_star: np.ndarray, epsilon: float, rngs) -> np.ndarray:
    """Uniform perturbations in the epsilon ball, clamped to the domain: row r
    of the (n, d) x_star moved by noise drawn from rngs[r]."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.ndim != 2 or len(rngs) != len(x_star):
        raise ValueError(f"expected an (n, d) block with one rng per row, got {x_star.shape}")
    x = np.zeros_like(x_star)
    if epsilon > 0:  # each row bitwise rng.uniform(-epsilon, epsilon, size=d)
        for row, rng in zip(x, rngs):
            rng.random(out=row)
        x *= 2.0 * epsilon
        x += -epsilon
    x += x_star
    return np.clip(x, DOMAIN_LOW, DOMAIN_HIGH, out=x)


@dataclass(eq=False)
class ScoreTable:
    """Attack scores with ground-truth membership labels, one row per target."""

    index: np.ndarray  # (T,) int64 dataset indices
    member: np.ndarray  # (T,) bool
    scores: np.ndarray  # (T, Q) float64, Q queries per target
    aggregated: np.ndarray  # (T,) float64 ensemble of each row of scores
    in_model_accesses: int | None = None

    def write_csv(self, path) -> str:
        """One line per (target, query), written by metrics.write_lines; a
        score's repr is made once per distinct value, an aggregate's once per
        target. Returns the sha256 of the bytes written."""
        reprs, lines = {}, [",".join(SCORE_HEADER)]
        for t, member, scores, agg in zip(self.index.tolist(), self.member.tolist(),
                                          self.scores.tolist(), self.aggregated.tolist()):
            head, agg = f"{t},{int(member)},", repr(agg)
            for q, s in enumerate(scores):
                text = reprs.get(s) if s else None  # 0.0 == -0.0, but their reprs differ
                if text is None:
                    text = reprs[s] = repr(s)
                lines.append(f"{head}{q},{text},{agg}")
        return write_lines(path, lines)

    @staticmethod
    def read_csv(path) -> "ScoreTable":
        """Inverse of write_csv: each target's rows agree on is_member (0 or
        1) and aggregated_score and number their queries 0, 1, ... in order;
        every target has as many. Targets keep their first-appearance order."""
        targets: dict[int, tuple[bool, float, list[float]]] = {}
        for lineno, rec in read_csv_rows(path, SCORE_HEADER, "score table"):
            try:
                idx, member, query = int(rec[0]), int(rec[1]), int(rec[2])
                score, agg = float(rec[3]), float(rec[4])
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from exc
            if member not in (0, 1):
                raise FormatError(f"{path}: line {lineno}: is_member must be 0 or 1, got {member}")
            if math.isnan(score) or math.isnan(agg):  # +-inf is a saturated ratio, NaN is not
                raise FormatError(f"{path}: line {lineno}: score is NaN")
            first_member, first_agg, scores = targets.setdefault(idx, (bool(member), agg, []))
            if (first_member, first_agg) != (bool(member), agg):
                raise FormatError(f"{path}: line {lineno}: target {idx} disagrees with its "
                                  "earlier rows on is_member or aggregated_score")
            if query != len(scores):
                raise FormatError(f"{path}: line {lineno}: target {idx} has query_id {query}, "
                                  f"expected {len(scores)}")
            scores.append(score)
        rows = list(targets.values())
        counts = sorted({len(scores) for _, _, scores in rows}) or [0]  # [0]: no targets
        if len(counts) > 1:
            raise FormatError(f"{path}: targets have unequal query counts {counts}")
        try:
            index = np.array(list(targets), dtype=np.int64)
        except OverflowError as exc:
            raise FormatError(f"{path}: a target index is out of the int64 range") from exc
        return ScoreTable(index, np.array([m for m, _, _ in rows], dtype=bool),
                          np.array([s for _, _, s in rows]).reshape(len(rows), counts[0]),
                          np.array([a for _, a, _ in rows]))


def _draw_alt_labels(seed: int, index: np.ndarray, y: np.ndarray, num_classes: int) -> np.ndarray:
    """One random label other than y[i] per target index[i], from its own stream."""
    rngs = substreams([(seed, TAG_ALT_LABEL, t) for t in index.tolist()])
    draws = np.array([rng.integers(num_classes - 1) for rng in rngs], dtype=np.int64)
    return draws + (draws >= y)


def _score_block(
    queries: np.ndarray,
    shadow_queries: np.ndarray,
    y: np.ndarray,
    member: np.ndarray,
    records,
    oracle: TargetOracle,
    online: bool,
) -> tuple[np.ndarray, int]:
    """(targets, Q) query scores of a block of targets, and the IN evaluations made.

    The oracle answers the (targets, Q, d) queries, once per target on a
    stride-0 query axis; each shadow model scores the (targets, S, d)
    shadow_queries (the queries, or LiRA's one point per target) of the
    targets it may see: all online, those it is OUT for offline. Every row is
    evaluated alone. Gaussian fits reduce over contiguous (targets * S,
    models) rows grouped by model count; one elementwise score call per side
    scores each query against its own answer.
    """
    k, n_shadow = shadow_queries.shape[:2]
    phi = np.full((len(records), k, n_shadow), np.nan)
    in_evaluations = 0
    for m, rec in enumerate(records):
        sel = np.arange(k) if online else np.flatnonzero(~member[:, m])
        if sel.size:
            in_evaluations += int(member[sel, m].sum())
            phi[m, sel] = model_confidence_batch(rec, shadow_queries[sel], y[sel])
    phi = scale_confidence(phi)
    conf_t = scale_confidence(oracle.confidences(queries, y))
    out_fits = _grouped_fits(phi, ~member)
    if online:
        return lira_online_score(conf_t, _grouped_fits(phi, member), out_fits), in_evaluations
    return lira_offline_score(conf_t, out_fits), in_evaluations


def _check_eligible(index: np.ndarray, member: np.ndarray, need: int, online: bool) -> None:
    """Every target needs `need` OUT shadow models, and as many IN ones online."""
    sides = [("OUT", (~member).sum(axis=1))] + ([("IN", member.sum(axis=1))] if online else [])
    for side, counts in sides:
        short = np.flatnonzero(counts < need)
        if short.size:
            i = short[0]
            raise ConfigError(
                f"target {index[i]} has {counts[i]} {side} shadow models, the attack needs "
                f"{need} ({short.size} of {index.size} targets are short)"
            )


def _block_bytes(method: str, config: CanaryConfig, online: bool, farm: ShadowFarm) -> int:
    """An upper bound on the bytes one target's rows hold in a block.

    An evaluated row holds its point, a tile copy of it, each layer's
    outputs and two scaled confidences per shadow model: LiRA evaluates one
    row per target, the other methods Q rows, each with its own generator. A
    canary row also holds its canary, its perturbation, Adam's three arrays,
    its OUT key offsets and one picked model's tile and input gradient; and
    per pick (shadow_batch per side) its input gradient, its logits, its
    model ids over the steps and its activation derivatives (a bool per ReLU
    unit, a float per tanh one).
    """
    arch = farm.arch
    d, layers = arch.input_dim, sum(arch.dims[1:])
    row = 8 * (2 * d + layers + 2 * farm.n_models)
    if method == "lira":
        return row
    row += _GENERATOR_BYTES
    if method == "canary":
        picks = (2 if online else 1) * config.shadow_batch
        derivatives = sum(arch.hidden_dims) * (1 if arch.activation == "relu" else 8)
        row += 8 * (7 * d + layers + farm.n_models)
        row += picks * (8 * (d + arch.num_classes + config.steps) + derivatives)
    return config.num_queries * row


def _attack_block(dataset, oracle, farm, idx, member, method, online, config, seed):
    """(targets, Q) scores of one block of targets, and the IN evaluations
    made; the block's arrays go when it returns."""
    n_queries, hits = config.num_queries, 0
    x_star, y = dataset.take(idx)
    if method == "lira":
        queries = np.broadcast_to(x_star[:, None], (len(idx), n_queries, x_star.shape[1]))
    else:  # one row per (target, query), target-major, each with its own stream
        x_rows = x_star.repeat(n_queries, axis=0)
        rngs = substreams([(seed, t, q) for t in idx.tolist() for q in range(n_queries)])
        if method == "random_noise":
            x_rows = random_noise_query(x_rows, config.epsilon, rngs)
        else:
            alt = None
            if config.objective.endswith("random_label"):
                alt = _draw_alt_labels(seed, idx, y, farm.arch.num_classes).repeat(n_queries)
            x_rows, hits = optimize_canary(
                x_rows, y.repeat(n_queries), member.repeat(n_queries, axis=0),
                farm.records, config, online, rngs, alt)
        queries = x_rows.reshape(len(idx), n_queries, -1)
    scores, score_hits = _score_block(queries, x_star[:, None] if method == "lira" else queries,
                                      y, member, farm.records, oracle, online)
    return scores, hits + score_hits


def run_attack(
    dataset: Dataset,
    oracle: TargetOracle,
    farm: ShadowFarm,
    targets,
    method: str,
    mode: str,
    config: CanaryConfig,
    seed: int,
) -> ScoreTable:
    """Score every target against the oracle; per-query streams are
    derived from (seed, target index, query index).

    targets is a sequence of (dataset index, is_member) pairs whose
    membership bits come from the held-out target model's own split mask.
    Before any work, the farm must fit the dataset (check_farm_fits), the
    oracle carry its fingerprint, and every target appear once and have
    enough IN/OUT shadow models. Targets are then processed in blocks of at
    most BLOCK_BYTES (16 MiB), as _block_bytes counts what a target's rows
    hold: one evaluated row for LiRA, Q for random_noise, and for canary Q
    rows with their picks, Adam state and per-pick input gradients. Each
    --jobs worker holds its own block, so peak memory grows with --jobs.
    One optimize_canary call optimises all (target, query) rows of a block,
    and the oracle and each shadow model evaluate one row per query, or per
    target for LiRA, whose Q queries are stride-0 copies of the target
    point; one elementwise pass scores the block's rows of the (targets, Q)
    table, and one ensemble_scores call aggregates the whole table. Every
    row is computed exactly as it would be alone, so a query's score depends
    on neither the block size, nor num_queries, nor the other targets, and a
    LiRA target's scores are equal. Offline mode never evaluates an IN
    shadow model; the evaluated ids are counted and any IN evaluation
    raises IsolationError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    check_farm_fits(farm, dataset)
    if oracle.fingerprint != farm.fingerprint:
        raise FingerprintMismatchError(
            f"oracle fingerprint {oracle.fingerprint:#x} does not match "
            f"farm fingerprint {farm.fingerprint:#x}"
        )
    online = mode == "online"
    index = np.array([int(t) for t, _ in targets], dtype=np.int64)
    is_member = np.array([bool(m) for _, m in targets], dtype=bool)
    if index.size and (index.min() < 0 or index.max() >= farm.n_points):
        bad = index[(index < 0) | (index >= farm.n_points)][0]
        raise IndexError(f"target index {bad} out of range for {farm.n_points} points")
    repeated = np.flatnonzero(np.bincount(index, minlength=farm.n_points)[index] > 1)
    if repeated.size:  # a score table holds each target once
        raise ConfigError(f"target {index[repeated[0]]} is listed more than once")
    member = farm.splits[:, index].T  # (targets, models): model is IN for the target
    _check_eligible(index, member, config.shadow_batch if method == "canary" else 1, online)

    block = max(1, BLOCK_BYTES // _block_bytes(method, config, online, farm))
    scores, in_evaluations = np.empty((index.size, config.num_queries)), 0
    for start in range(0, index.size, block):
        rows = slice(start, start + block)
        scores[rows], hits = _attack_block(dataset, oracle, farm, index[rows], member[rows],
                                           method, online, config, seed)
        in_evaluations += hits
        if not online and in_evaluations:
            raise IsolationError(
                f"offline attack evaluated IN shadow models ({in_evaluations} (row, model) pairs)"
            )
    return ScoreTable(index, is_member, scores, ensemble_scores(scores),
                      None if online else in_evaluations)
