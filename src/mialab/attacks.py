"""Membership-inference attacks against a black-box target oracle.

Implements likelihood-ratio scoring from Gaussian fits of scaled shadow
confidences (online ratio and offline tail variants), the adversarial
canary query optimizer with L-infinity and domain projection, a
random-noise control query, multi-query ensembling, and the end-to-end
attack runner that produces a ScoreTable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DOMAIN_HIGH, DOMAIN_LOW, Dataset
from .errors import ConfigError, FingerprintMismatchError, FormatError, IsolationError
from .farm import ShadowFarm, TargetOracle, check_farm_fits, model_confidence_batch
from .metrics import read_csv_rows
from .nn import (
    CONF_CLAMP,
    IN_MINIMIZE,
    OUT_MAXIMIZE,
    OBJECTIVE_KINDS,
    ObjectiveKind,
    adam_step,
    check_params,
    init_adam,
    input_backward,
    input_forward,
    input_gradient,  # noqa: F401  stays bound here for perfbench's tracer
    math_elementwise,
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
# run_attack processes targets in blocks of at most this many evaluated rows x
# widest layer elements, which bounds the activations one pass over a block
# holds: Q rows per target, one for LiRA, whose Q queries repeat one point.
# Scores do not depend on it.
BLOCK_ELEMENTS = 1 << 16

METHODS = ("lira", "canary", "random_noise")
MODES = ("online", "offline")
SCORE_HEADER = ["target_index", "is_member", "query_id", "score", "aggregated_score"]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianStats:
    """One Gaussian fit, or arrays of fits; the score functions below take a
    float conf_t or an array, and score each element alone in math-module bits."""

    mu: float | np.ndarray
    sigma: float | np.ndarray

    def __post_init__(self):
        if np.any(np.less_equal(self.sigma, 0)):
            raise ValueError("sigma must be positive")


def scale_confidence_batch(f: np.ndarray) -> np.ndarray:
    """nn.scale_confidence in np.log's bits, for the shadows' confidences; the
    target's conf_t keeps math.log's, which differ on some inputs."""
    f = np.clip(np.asarray(f, dtype=np.float64), CONF_CLAMP, 1.0 - CONF_CLAMP)
    return np.log(f / (1.0 - f))


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
    return -0.5 * z * z - math_elementwise(math.log, stats.sigma) - _LOG_SQRT_2PI


def lira_online_log_ratio(conf_t, in_stats: GaussianStats, out_stats: GaussianStats):
    return _log_pdf(conf_t, in_stats) - _log_pdf(conf_t, out_stats)


def lira_online_score(conf_t, in_stats: GaussianStats, out_stats: GaussianStats):
    """Likelihood ratio pdf_in(conf) / pdf_out(conf), via log space.

    Ratios beyond float range saturate to inf/0; use the log ratio when
    thresholding, the ranking is identical.
    """
    log_ratio = lira_online_log_ratio(conf_t, in_stats, out_stats)
    saturated = np.select([log_ratio > 709.0, log_ratio < -745.0], [math.inf, -math.inf], log_ratio)
    return math_elementwise(math.exp, saturated)


def lira_offline_score(conf_t, out_stats: GaussianStats, density: bool = False):
    """One-sided score against the OUT distribution.

    Default is the Gaussian tail form 1 - Pr[Z > conf], i.e. the normal
    CDF at (conf - mu)/sigma, nondecreasing in conf. The erfc form keeps
    the left tail resolvable down to z around -38 instead of rounding to
    zero at -8. density=True swaps in the two-sided alternative
    1 - pdf(conf).
    """
    if density:
        return 1.0 - math_elementwise(math.exp, _log_pdf(conf_t, out_stats))
    z = (conf_t - out_stats.mu) / out_stats.sigma
    return 0.5 * math_elementwise(math.erfc, -z / _SQRT2)


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
    (the domain is the unit hypercube). init_noise_scale defaults to
    epsilon/4 when the target_plus_noise init is selected. Online or
    offline is the attack's mode, given to run_attack, not a setting here.
    """

    epsilon: float
    steps: int = 40
    shadow_batch: int = 2
    lr: float = 0.05
    objective: str = "raw_logit"
    init: str = "target_plus_noise"
    init_noise_scale: float | None = None
    num_queries: int = 10
    offline_density: bool = False

    def __post_init__(self):
        for name in ("epsilon", "init_noise_scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")
        if not (math.isfinite(self.lr) and self.lr > 0):  # else the canary climbs its own loss
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if self.steps < 0 or self.shadow_batch < 1 or self.num_queries < 1:
            raise ValueError("steps, shadow_batch and num_queries must be positive")
        if self.objective not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.init not in ("target", "target_plus_noise"):
            raise ValueError(f"unknown init {self.init!r}")

    @property
    def noise_scale(self) -> float:
        if self.init_noise_scale is not None:
            return self.init_noise_scale
        return self.epsilon / 4.0


def _project(x_star: np.ndarray, delta: np.ndarray, epsilon: float):
    """Joint projection onto the epsilon ball and the input domain.

    Returns (delta, x) where x is the exactly domain-clamped query point;
    |x - x_star| can exceed epsilon only by float-addition rounding.
    """
    delta = np.clip(delta, -epsilon, epsilon)
    x = np.clip(x_star + delta, DOMAIN_LOW, DOMAIN_HIGH)
    delta = x - x_star
    if np.max(np.abs(delta), initial=0.0) > epsilon + 1e-9 * max(1.0, epsilon):
        raise AssertionError("projection left the epsilon ball")
    if x.min(initial=DOMAIN_LOW) < DOMAIN_LOW or x.max(initial=DOMAIN_HIGH) > DOMAIN_HIGH:
        raise AssertionError("projection left the input domain")
    return delta, x


def _step_gradient(x, rows, picks, records, params, kinds, labels, b: int) -> np.ndarray:
    """One canary step's (n, dim) gradient: the mean over each side's b picks
    of their input gradients, OUT side first. Entry e, ordered (row, side,
    slot), is row rows[e] of x under model picks[e]; side s takes objective
    kinds[s] with its (n * b) entries' labels.

    Entries are sorted by model, rows ascending, so each picked model runs
    one forward and one backward over a contiguous run of them; one
    objective pass covers each side's logits.
    """
    n_entries, n_sides, n_classes = len(picks), len(kinds), records[0].arch.num_classes
    order = np.argsort(picks, kind="stable")
    x_sorted = x[rows[order]]
    logits = np.empty((n_entries, n_classes))
    passes, lo = [], 0
    for m, hi in enumerate(np.cumsum(np.bincount(picks, minlength=len(records))).tolist()):
        if hi > lo:
            logits[lo:hi], act_grads = input_forward(records[m].arch, params[m], x_sorted[lo:hi])
            passes.append((params[m], lo, hi, act_grads))
        lo = hi
    del x_sorted
    by_entry = np.empty_like(logits)
    by_entry[order] = logits
    by_entry = by_entry.reshape(-1, n_sides, b, n_classes)
    for side, kind in enumerate(kinds):  # logits become their gradients
        by_entry[:, side] = objective_grad_logits(
            by_entry[:, side].reshape(-1, n_classes), labels, kind).reshape(-1, b, n_classes)
    dlogits = by_entry.reshape(n_entries, n_classes)[order]
    del by_entry, logits
    per_pick = np.empty((n_entries, x.shape[1]))
    for model, lo, hi, act_grads in passes:
        per_pick[lo:hi] = input_backward(model, act_grads, dlogits[lo:hi])
    sorted_at = np.empty(n_entries, dtype=np.intp)  # each entry's place in model order
    sorted_at[order] = np.arange(n_entries)
    sorted_at = sorted_at.reshape(-1, n_sides, b)
    total = per_pick[sorted_at[:, :, 0]]
    total += 0.0  # from +0.0, then in pick order, as one row at a time sums
    for j in range(1, b):
        total += per_pick[sorted_at[:, :, j]]
    grad = total[:, 0] / b
    for side in range(1, n_sides):
        grad += total[:, side] / b
    return grad


def _optimize_rows(
    x_star: np.ndarray,
    y: np.ndarray,
    member: np.ndarray,
    records,
    config: CanaryConfig,
    online: bool,
    rngs,
    alt: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Canaries for a block of rows, optimised together.

    Row r starts at x_star[r] with label y[r]; member[r, m] says whether
    records[m] is an IN model for the row's target. Each row draws from its
    own rng: its init noise, then one uniform key per (step, model). A
    step's picks on a side are the shadow_batch models of that side with
    the smallest keys (the lower id on a tie): a uniform subset, drawn
    afresh each step, that does not depend on the other rows of the block.
    Per step, each picked model runs one stacked forward and one backward
    over the rows that picked it on either side, around one objective pass
    per side; Adam and the projection run once on the block. Only picked
    models' params are read, so offline never reads a model IN for all rows.

    Returns the canaries and the number of evaluated (row, model) pairs whose
    model is IN for the row, counted from the ids actually evaluated.
    """
    n, dim = x_star.shape
    b, steps, n_models = config.shadow_batch, config.steps, len(records)
    sides = 2 if online else 1
    # OUT keys less 1.0, which is exact: ranked by key, a row's OUT models
    # come first and its IN ones from its OUT count, each side in key order
    out_offset = (~member).astype(np.float64)
    n_out = n_models - member.sum(axis=1)
    columns = (np.column_stack([np.zeros_like(n_out), n_out])[:, :sides, None]
               + np.arange(b)).reshape(n, sides * b)
    noise = config.init == "target_plus_noise" and config.noise_scale > 0
    delta = np.zeros_like(x_star)
    picks = np.empty((n, steps, sides * b), dtype=np.intp)
    for r, rng in enumerate(rngs):
        if noise:
            delta[r] = rng.normal(0.0, config.noise_scale, size=dim)
        keys = rng.random((steps, n_models))
        keys -= out_offset[r]
        picks[r] = keys.argsort(axis=1, kind="stable")[:, columns[r]]
    picks = picks.reshape(n, steps, sides, b)
    in_evaluations = int(member[np.arange(n)[:, None, None, None], picks].sum())
    params = {m: check_params(records[m].arch, records[m].params)
              for m in np.flatnonzero(np.bincount(picks.ravel(), minlength=n_models)).tolist()}

    entry_row = np.arange(n).repeat(sides * b)  # row of each (row, side, slot) entry
    labels, alt_labels = y.repeat(b), None if alt is None else alt.repeat(b)
    kinds = [ObjectiveKind(config.objective, side, alt_labels)
             for side in (OUT_MAXIMIZE, IN_MINIMIZE)[:sides]]

    delta, x = _project(x_star, delta, config.epsilon)
    adam = init_adam(x_star.shape)
    for s in range(steps):
        grad = _step_gradient(x, entry_row, picks[:, s].ravel(), records, params, kinds, labels, b)
        adam_step(adam, delta, grad, config.lr)
        delta, x = _project(x_star, delta, config.epsilon)
    return x, in_evaluations


def optimize_canary(
    x_star: np.ndarray,
    y_star: int,
    s_in,
    s_out,
    config: CanaryConfig,
    rng: np.random.Generator,
    alt_label: int | None = None,
) -> np.ndarray:
    """Adversarial query near x_star separating IN from OUT shadow models.

    Each iteration draws a fresh uniform batch of shadow_batch OUT models
    (and of shadow_batch IN models when online), averages the input
    gradient of each side's objective over its batch, takes
    one Adam step on the perturbation, and projects back onto the
    epsilon ball intersected with the input domain. The optimisation is
    offline exactly when s_in is None: it then never sees an IN model.
    This is one row of the block optimiser that run_attack drives over
    many targets at once.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    online = s_in is not None
    b = config.shadow_batch
    if len(s_out) < b:
        raise ValueError(f"shadow batch {b} exceeds {len(s_out)} available OUT models")
    if online and len(s_in) < b:
        raise ValueError(f"shadow batch {b} exceeds {len(s_in)} available IN models")
    records = list(s_out) + (list(s_in) if online else [])
    member = np.arange(len(records))[None, :] >= len(s_out)
    alt = None if alt_label is None else np.array([alt_label])
    x, _ = _optimize_rows(x_star[None, :], np.array([y_star]), member, records, config,
                          online, [rng], alt)
    return x[0]


def random_noise_query(x_star: np.ndarray, epsilon: float, rngs) -> np.ndarray:
    """Uniform perturbations in the epsilon ball, clamped to the domain: row r
    of the (n, d) x_star moved by noise drawn from rngs[r]."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.ndim != 2 or len(rngs) != len(x_star):
        raise ValueError(f"expected an (n, d) block with one rng per row, got {x_star.shape}")
    noise = 0.0
    if epsilon > 0 and len(x_star):
        noise = np.stack([rng.uniform(-epsilon, epsilon, size=x_star.shape[1])
                          for rng in rngs])
    return np.clip(x_star + noise, DOMAIN_LOW, DOMAIN_HIGH)


@dataclass
class ScoreRow:
    target_index: int
    is_member: bool
    query_scores: list[float]
    aggregated: float


@dataclass
class ScoreTable:
    """Per-target attack scores with ground-truth membership labels."""

    rows: list[ScoreRow]
    in_model_accesses: int | None = field(default=None, compare=False)

    def scores(self) -> np.ndarray:
        return np.array([r.aggregated for r in self.rows])

    def labels(self) -> np.ndarray:
        return np.array([r.is_member for r in self.rows], dtype=bool)

    def write_csv(self, path) -> str:
        """One line per (target, query), ended by \\r\\n as csv.writer ends it (no field
        needs quoting); a score's repr is made once per distinct value, an
        aggregate's once per target. Returns the sha256 of the bytes written."""
        reprs, lines = {}, [",".join(SCORE_HEADER)]
        for row in self.rows:
            head, agg = f"{row.target_index},{int(row.is_member)},", repr(row.aggregated)
            for q, s in enumerate(row.query_scores):
                text = reprs.get(s) if s else None  # 0.0 == -0.0, but their reprs differ
                if text is None:
                    text = reprs[s] = repr(s)
                lines.append(f"{head}{q},{text},{agg}")
        data = ("\r\n".join(lines) + "\r\n").encode()
        Path(path).write_bytes(data)
        return hashlib.sha256(data).hexdigest()

    @staticmethod
    def read_csv(path) -> "ScoreTable":
        """Inverse of write_csv: each target's rows agree on is_member (0 or
        1) and aggregated_score and number their queries 0, 1, ... in order."""
        rows: dict[int, ScoreRow] = {}
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
            row = rows.setdefault(idx, ScoreRow(idx, bool(member), [], agg))
            if (row.is_member, row.aggregated) != (bool(member), agg):
                raise FormatError(f"{path}: line {lineno}: target {idx} disagrees with its "
                                  "earlier rows on is_member or aggregated_score")
            if query != len(row.query_scores):
                raise FormatError(f"{path}: line {lineno}: target {idx} has query_id {query}, "
                                  f"expected {len(row.query_scores)}")
            row.query_scores.append(score)
        return ScoreTable(list(rows.values()))


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
    cfg: CanaryConfig,
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
    phi = scale_confidence_batch(phi)
    conf_t = scale_confidence(oracle.confidences(queries, y))
    out_fits = _grouped_fits(phi, ~member)
    if online:
        return lira_online_score(conf_t, _grouped_fits(phi, member), out_fits), in_evaluations
    return lira_offline_score(conf_t, out_fits, density=cfg.offline_density), in_evaluations


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
    oracle carry its fingerprint, and every target have enough IN/OUT
    shadow models. Targets are then processed in blocks sized by
    BLOCK_ELEMENTS: all (target, query) rows of a block are optimised
    together, and the oracle and each shadow model evaluate one row per query,
    or per target for LiRA, whose Q queries are stride-0 copies of the target
    point; one elementwise pass scores the block's (targets, Q) array. Every
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
    targets = [(int(t), bool(is_member)) for t, is_member in targets]
    index = np.array([t for t, _ in targets], dtype=np.int64)
    if index.size and (index.min() < 0 or index.max() >= farm.n_points):
        bad = index[(index < 0) | (index >= farm.n_points)][0]
        raise IndexError(f"target index {bad} out of range for {farm.n_points} points")
    member = farm.splits[:, index].T  # (targets, models): model is IN for the target
    _check_eligible(index, member, config.shadow_batch if method == "canary" else 1, online)

    n_queries = config.num_queries
    lira = method == "lira"
    block = max(1, BLOCK_ELEMENTS // ((1 if lira else n_queries) * max(farm.arch.dims)))
    rows, in_evaluations = [], 0
    for start in range(0, len(targets), block):
        idx = index[start:start + block]
        blk_member = member[start:start + block]
        x_star, y = dataset.take(idx)
        if lira:
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
                x_rows, hits = _optimize_rows(
                    x_rows, y.repeat(n_queries), blk_member.repeat(n_queries, axis=0),
                    farm.records, config, online, rngs, alt)
                in_evaluations += hits
            queries = x_rows.reshape(len(idx), n_queries, -1)
        scores, hits = _score_block(queries, x_star[:, None] if lira else queries,
                                    y, blk_member, farm.records, oracle, config, online)
        in_evaluations += hits
        if not online and in_evaluations:
            raise IsolationError(
                f"offline attack evaluated IN shadow models ({in_evaluations} (row, model) pairs)"
            )
        aggregated = ensemble_scores(scores).tolist()
        for (t, is_member), row, agg in zip(targets[start:start + block], scores.tolist(),
                                            aggregated):
            rows.append(ScoreRow(t, is_member, row, agg))
    return ScoreTable(rows, in_model_accesses=None if online else in_evaluations)
