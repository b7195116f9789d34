"""Membership-inference attacks against a black-box target oracle.

Implements likelihood-ratio scoring from Gaussian fits of scaled shadow
confidences (online ratio and offline tail variants), the adversarial
canary query optimizer with L-infinity and domain projection, a
random-noise control query, multi-query ensembling, and the end-to-end
attack runner that produces a ScoreTable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import DOMAIN_HIGH, DOMAIN_LOW, Dataset
from .errors import ConfigError, FingerprintMismatchError, FormatError, IsolationError
from .farm import ShadowFarm, TargetOracle, model_confidence_batch
from .nn import (
    IN_MINIMIZE,
    OUT_MAXIMIZE,
    OBJECTIVE_KINDS,
    ObjectiveKind,
    adam_step,
    init_adam,
    input_gradient,
    scale_confidence,
)
from .rng import TAG_ALT_LABEL, substream

SIGMA_FLOOR = 1e-4
CONF_CLAMP = 1e-6
# run_attack processes targets in blocks of at most this many
# (target, query) rows x widest layer elements, which bounds the activations
# one stacked shadow-model pass holds. Scores do not depend on it.
BLOCK_ELEMENTS = 1 << 16

METHODS = ("lira", "canary", "random_noise")
MODES = ("online", "offline")

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianStats:
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def scale_confidence_batch(f: np.ndarray, delta: float = CONF_CLAMP) -> np.ndarray:
    """Vectorized scaled log score log(f'/(1-f')) with clamped f."""
    if not 0.0 < delta < 0.5:
        raise ValueError("clamp delta must lie in (0, 0.5)")
    f = np.clip(np.asarray(f, dtype=np.float64), delta, 1.0 - delta)
    return np.log(f / (1.0 - f))


def fit_gaussians(rows, sigma_floor: float = SIGMA_FLOOR) -> list[GaussianStats]:
    """One fit per row of a 2-D array: mean and floored population std.

    Reduces over the contiguous last axis, where each row is summed
    exactly as a 1-D array is; a reduction over any other axis differs
    in the last bits once a row holds 8 or more scores.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.shape[-1] == 0:
        raise ValueError("cannot fit a Gaussian to zero scores")
    mu, sd = np.mean(rows, axis=-1), np.std(rows, axis=-1)
    return [GaussianStats(float(m), max(float(s), sigma_floor)) for m, s in zip(mu, sd)]


def fit_gaussian(scores, sigma_floor: float = SIGMA_FLOOR) -> GaussianStats:
    """Mean and population standard deviation, floored to keep scores finite."""
    return fit_gaussians(np.asarray(scores, dtype=np.float64).reshape(1, -1), sigma_floor)[0]


def _log_pdf(x: float, stats: GaussianStats) -> float:
    z = (x - stats.mu) / stats.sigma
    return -0.5 * z * z - math.log(stats.sigma) - _LOG_SQRT_2PI


def lira_online_log_ratio(conf_t: float, in_stats: GaussianStats, out_stats: GaussianStats) -> float:
    return _log_pdf(conf_t, in_stats) - _log_pdf(conf_t, out_stats)


def lira_online_score(conf_t: float, in_stats: GaussianStats, out_stats: GaussianStats) -> float:
    """Likelihood ratio pdf_in(conf) / pdf_out(conf), via log space.

    Ratios beyond float range saturate to inf/0; use the log ratio when
    thresholding, the ranking is identical.
    """
    log_ratio = lira_online_log_ratio(conf_t, in_stats, out_stats)
    if log_ratio > 709.0:
        return math.inf
    if log_ratio < -745.0:
        return 0.0
    return math.exp(log_ratio)


def lira_offline_score(conf_t: float, out_stats: GaussianStats, density: bool = False) -> float:
    """One-sided score against the OUT distribution.

    Default is the Gaussian tail form 1 - Pr[Z > conf], i.e. the normal
    CDF at (conf - mu)/sigma, nondecreasing in conf. The erfc form keeps
    the left tail resolvable down to z around -38 instead of rounding to
    zero at -8. density=True swaps in the two-sided alternative
    1 - pdf(conf).
    """
    if density:
        return 1.0 - math.exp(_log_pdf(conf_t, out_stats))
    z = (conf_t - out_stats.mu) / out_stats.sigma
    return 0.5 * math.erfc(-z / _SQRT2)


def ensemble_scores(scores) -> float:
    """Arithmetic mean of per-query scores; permutation invariant."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one query score")
    return float(np.mean(scores))


@dataclass(frozen=True)
class CanaryConfig:
    """Hyperparameters of the adversarial query optimizer.

    epsilon is the L-infinity perturbation bound in input-domain units
    (the domain is the unit hypercube). init_noise_scale defaults to
    epsilon/4 when the target_plus_noise init is selected.
    """

    epsilon: float
    steps: int = 40
    shadow_batch: int = 2
    lr: float = 0.05
    objective: str = "raw_logit"
    init: str = "target_plus_noise"
    init_noise_scale: float | None = None
    num_queries: int = 10
    mode: str = "online"
    offline_density: bool = False
    sigma_floor: float = SIGMA_FLOOR
    conf_clamp: float = CONF_CLAMP

    def __post_init__(self):
        for name in ("epsilon", "lr", "init_noise_scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.steps < 0 or self.shadow_batch < 1 or self.num_queries < 1:
            raise ValueError("steps, shadow_batch and num_queries must be positive")
        if self.objective not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.init not in ("target", "target_plus_noise"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def noise_scale(self) -> float:
        if self.init_noise_scale is not None:
            return self.init_noise_scale
        return self.epsilon / 4.0

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "steps": self.steps,
            "shadow_batch": self.shadow_batch,
            "lr": self.lr,
            "objective": self.objective,
            "init": self.init,
            "init_noise_scale": self.init_noise_scale,
            "num_queries": self.num_queries,
            "mode": self.mode,
            "offline_density": self.offline_density,
        }

    @staticmethod
    def from_dict(d: dict) -> "CanaryConfig":
        return CanaryConfig(
            epsilon=float(d["epsilon"]),
            steps=int(d.get("steps", 40)),
            shadow_batch=int(d.get("shadow_batch", 2)),
            lr=float(d.get("lr", 0.05)),
            objective=str(d.get("objective", "raw_logit")),
            init=str(d.get("init", "target_plus_noise")),
            init_noise_scale=None if d.get("init_noise_scale") is None else float(d["init_noise_scale"]),
            num_queries=int(d.get("num_queries", 10)),
            mode=str(d.get("mode", "online")),
            offline_density=bool(d.get("offline_density", False)),
        )


def _project(x_star: np.ndarray, delta: np.ndarray, epsilon: float, lo: float, hi: float):
    """Joint projection onto the epsilon ball and the input domain.

    Returns (delta, x) where x is the exactly domain-clamped query point;
    |x - x_star| can exceed epsilon only by float-addition rounding.
    """
    delta = np.clip(delta, -epsilon, epsilon)
    x = np.clip(x_star + delta, lo, hi)
    delta = x - x_star
    if np.max(np.abs(delta), initial=0.0) > epsilon + 1e-9 * max(1.0, epsilon):
        raise AssertionError("projection left the epsilon ball")
    if x.min(initial=lo) < lo or x.max(initial=hi) > hi:
        raise AssertionError("projection left the input domain")
    return delta, x


def _model_groups(picks: np.ndarray):
    """(model id, flat positions) for each model in a pick matrix, ascending."""
    flat = picks.ravel()
    order = np.argsort(flat, kind="stable")
    models, starts = np.unique(flat[order], return_index=True)
    return zip(models.tolist(), np.split(order, starts[1:]))


def _optimize_rows(
    x_star: np.ndarray,
    y: np.ndarray,
    member: np.ndarray,
    records,
    config: CanaryConfig,
    rngs,
    alt: np.ndarray | None,
    bounds: tuple[float, float],
) -> tuple[np.ndarray, int]:
    """Canaries for a block of rows, optimised together.

    Row r starts at x_star[r] with label y[r]; member[r, m] says whether
    records[m] is an IN model for the row's target. Each row draws from its
    own rng in a fixed order (the init noise, then per step the OUT and, when
    online, the IN permutation), so its canary does not depend on the other
    rows of the block. At each step the (row, picked model) pairs are grouped
    by model, one stacked input_gradient per model and side; Adam and the
    projection run once on the whole block.

    Returns the canaries and the number of evaluated (row, model) pairs whose
    model is IN for the row, counted from the ids actually evaluated.
    """
    n, dim = x_star.shape
    lo, hi = bounds
    online = config.mode == "online"
    b, steps = config.shadow_batch, config.steps
    delta = np.zeros_like(x_star)
    noisy = config.init == "target_plus_noise" and config.noise_scale > 0
    out_picks = np.empty((steps, n, b), dtype=np.intp)
    in_picks = np.empty((steps, n, b), dtype=np.intp)
    for r, rng in enumerate(rngs):
        if noisy:
            delta[r] = rng.normal(0.0, config.noise_scale, size=dim)
        out_ids, in_ids = np.flatnonzero(~member[r]), np.flatnonzero(member[r])
        for s in range(steps):
            out_picks[s, r] = out_ids[rng.permutation(out_ids.size)[:b]]
            if online:
                in_picks[s, r] = in_ids[rng.permutation(in_ids.size)[:b]]

    in_evaluations = 0

    def mean_gradient(x: np.ndarray, picks: np.ndarray, direction: str) -> np.ndarray:
        nonlocal in_evaluations
        per_pick = np.empty((n, b, dim))
        for m, pos in _model_groups(picks):
            rows, slots = np.divmod(pos, b)
            in_evaluations += int(member[rows, m].sum())
            kind = ObjectiveKind(config.objective, direction,
                                 None if alt is None else alt[rows], config.conf_clamp)
            rec = records[m]
            per_pick[rows, slots] = input_gradient(rec.arch, rec.params, x[rows], y[rows], kind)
        total = np.zeros((n, dim))
        for j in range(b):  # summed in pick order, as one row at a time would
            total += per_pick[:, j]
        return total / b

    delta, x = _project(x_star, delta, config.epsilon, lo, hi)
    adam = init_adam(x_star.shape)
    for s in range(steps):
        grad = mean_gradient(x, out_picks[s], OUT_MAXIMIZE)
        if online:
            grad += mean_gradient(x, in_picks[s], IN_MINIMIZE)
        adam_step(adam, delta, grad, config.lr)
        delta, x = _project(x_star, delta, config.epsilon, lo, hi)
    return x, in_evaluations


def optimize_canary(
    x_star: np.ndarray,
    y_star: int,
    s_in,
    s_out,
    config: CanaryConfig,
    rng: np.random.Generator,
    alt_label: int | None = None,
    bounds: tuple[float, float] = (DOMAIN_LOW, DOMAIN_HIGH),
) -> np.ndarray:
    """Adversarial query near x_star separating IN from OUT shadow models.

    Each iteration reshuffles the model order, averages the input
    gradient of the out-side objective over shadow_batch OUT models (plus
    the in-side objective over shadow_batch IN models when online), takes
    one Adam step on the perturbation, and projects back onto the
    epsilon ball intersected with the input domain. Offline mode never
    evaluates an IN model. This is one row of the block optimiser that
    run_attack drives over many targets at once.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    offline = config.mode == "offline"
    b = config.shadow_batch
    if len(s_out) < b:
        raise ValueError(f"shadow batch {b} exceeds {len(s_out)} available OUT models")
    if not offline and (s_in is None or len(s_in) < b):
        raise ValueError(
            f"shadow batch {b} exceeds {0 if s_in is None else len(s_in)} available IN models"
        )
    records = list(s_out) + ([] if offline else list(s_in))
    member = np.arange(len(records))[None, :] >= len(s_out)
    alt = None if alt_label is None else np.array([alt_label])
    x, _ = _optimize_rows(x_star[None, :], np.array([y_star]), member, records, config,
                          [rng], alt, bounds)
    return x[0]


def random_noise_query(
    x_star: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
    bounds: tuple[float, float] = (DOMAIN_LOW, DOMAIN_HIGH),
) -> np.ndarray:
    """Uniform perturbation in the epsilon ball, clamped to the domain."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    x_star = np.asarray(x_star, dtype=np.float64)
    noise = rng.uniform(-epsilon, epsilon, size=x_star.shape) if epsilon > 0 else 0.0
    return np.clip(x_star + noise, bounds[0], bounds[1])


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
    method: str = field(default="", compare=False)
    mode: str = field(default="", compare=False)
    in_model_accesses: int | None = field(default=None, compare=False)

    def scores(self) -> np.ndarray:
        return np.array([r.aggregated for r in self.rows])

    def labels(self) -> np.ndarray:
        return np.array([r.is_member for r in self.rows], dtype=bool)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["target_index", "is_member", "query_id", "score", "aggregated_score"])
            for row in self.rows:
                for q, s in enumerate(row.query_scores):
                    writer.writerow(
                        [row.target_index, int(row.is_member), q, repr(s), repr(row.aggregated)]
                    )

    @staticmethod
    def read_csv(path) -> "ScoreTable":
        path = Path(path)
        rows: dict[int, ScoreRow] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["target_index", "is_member", "query_id", "score", "aggregated_score"]:
                raise FormatError(f"{path}: unexpected score table header {header}")
            for lineno, rec in enumerate(reader, start=2):
                if len(rec) != 5:
                    raise FormatError(f"{path}: line {lineno}: expected 5 fields, got {len(rec)}")
                try:
                    idx, member = int(rec[0]), bool(int(rec[1]))
                    score, agg = float(rec[3]), float(rec[4])
                except ValueError as exc:
                    raise FormatError(f"{path}: line {lineno}: {exc}") from exc
                if math.isnan(score) or math.isnan(agg):  # +-inf is a saturated ratio, NaN is not
                    raise FormatError(f"{path}: line {lineno}: score is NaN")
                if idx not in rows:
                    rows[idx] = ScoreRow(idx, member, [], agg)
                rows[idx].query_scores.append(score)
        return ScoreTable(list(rows.values()))


def _draw_alt_label(seed: int, target_index: int, y: int, num_classes: int) -> int:
    draw = int(substream(seed, TAG_ALT_LABEL, target_index).integers(num_classes - 1))
    return draw + (draw >= y)


def _score_block(
    queries: np.ndarray,
    y: np.ndarray,
    member: np.ndarray,
    records,
    oracle: TargetOracle,
    cfg: CanaryConfig,
) -> tuple[list[list[float]], int]:
    """Query scores of a block of targets, and the IN evaluations made.

    queries is (targets, Q, d). Each shadow model does one stacked forward
    over the blocks of the targets it may see: all of them online, only
    those it is OUT for offline. The Gaussian fits reduce over contiguous
    (Q, models) rows; conf_t and the scores stay scalar math.
    """
    offline = cfg.mode == "offline"
    k, n_queries = queries.shape[:2]
    phi = np.full((len(records), k, n_queries), np.nan)
    in_evaluations = 0
    for m, rec in enumerate(records):
        sel = np.flatnonzero(~member[:, m]) if offline else np.arange(k)
        if sel.size:
            in_evaluations += int(member[sel, m].sum())
            phi[m, sel] = model_confidence_batch(rec, queries[sel], y[sel])
    phi = scale_confidence_batch(phi, cfg.conf_clamp)
    conf = oracle.confidences(queries, y)
    scores = []
    for t in range(k):
        out_stats = fit_gaussians(phi[~member[t], t].T, cfg.sigma_floor)
        if not offline:
            in_stats = fit_gaussians(phi[member[t], t].T, cfg.sigma_floor)
        row = []
        for q in range(n_queries):
            conf_t = scale_confidence(float(conf[t, q]), cfg.conf_clamp)
            if offline:
                row.append(lira_offline_score(conf_t, out_stats[q], density=cfg.offline_density))
            else:
                row.append(lira_online_score(conf_t, in_stats[q], out_stats[q]))
        scores.append(row)
    return scores, in_evaluations


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
    Every target is checked for enough IN/OUT shadow models before any
    work is done. Targets are then processed in fixed-size blocks: all
    (target, query) rows of a block are optimised together and each
    shadow model scores the block in one stacked pass. Every row is
    computed exactly as it would be alone, so the scores depend neither on
    the block size nor on which other targets are attacked. Offline mode
    never evaluates an IN shadow model; the evaluated ids are counted and
    any IN evaluation raises IsolationError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if dataset.fingerprint() != farm.fingerprint:
        raise FingerprintMismatchError(
            f"dataset fingerprint {dataset.fingerprint():#x} does not match "
            f"farm fingerprint {farm.fingerprint:#x}"
        )
    if oracle.fingerprint != farm.fingerprint:
        raise FingerprintMismatchError(
            f"oracle fingerprint {oracle.fingerprint:#x} does not match "
            f"farm fingerprint {farm.fingerprint:#x}"
        )
    cfg = replace(config, mode=mode)
    offline = mode == "offline"
    targets = [(int(t), bool(is_member)) for t, is_member in targets]
    index = np.array([t for t, _ in targets], dtype=np.int64)
    if index.size and (index.min() < 0 or index.max() >= farm.n_points):
        bad = index[(index < 0) | (index >= farm.n_points)][0]
        raise IndexError(f"target index {bad} out of range for {farm.n_points} points")
    member = farm.splits[:, index].T  # (targets, models): model is IN for the target
    _check_eligible(index, member, cfg.shadow_batch if method == "canary" else 1, not offline)

    num_classes = farm.arch.num_classes
    n_queries = cfg.num_queries
    block = max(1, BLOCK_ELEMENTS // (n_queries * max(farm.arch.dims)))
    rows, in_evaluations = [], 0
    for start in range(0, len(targets), block):
        idx = index[start:start + block]
        blk_member = member[start:start + block]
        x_star, y = dataset.take(idx)
        # one row per (target, query), target-major; LiRA rows draw no stream
        x_rows = x_star.repeat(n_queries, axis=0)
        if method != "lira":
            rngs = [substream(seed, t, q) for t in idx for q in range(n_queries)]
        if method == "random_noise":
            x_rows = np.stack([random_noise_query(x, cfg.epsilon, rng)
                               for x, rng in zip(x_rows, rngs)])
        elif method == "canary":
            alt = None
            if cfg.objective.endswith("random_label"):
                alt = np.array([_draw_alt_label(seed, t, lbl, num_classes)
                                for t, lbl in zip(idx, y)]).repeat(n_queries)
            x_rows, hits = _optimize_rows(
                x_rows, y.repeat(n_queries), blk_member.repeat(n_queries, axis=0),
                farm.records, cfg, rngs, alt, (DOMAIN_LOW, DOMAIN_HIGH),
            )
            in_evaluations += hits
        queries = x_rows.reshape(len(idx), n_queries, -1)
        scores, hits = _score_block(queries, y, blk_member, farm.records, oracle, cfg)
        in_evaluations += hits
        if offline and in_evaluations:
            raise IsolationError(
                f"offline attack evaluated IN shadow models ({in_evaluations} (row, model) pairs)"
            )
        for (t, is_member), row in zip(targets[start:start + block], scores):
            rows.append(ScoreRow(t, is_member, row, ensemble_scores(row)))
    return ScoreTable(rows, method=method, mode=mode,
                      in_model_accesses=in_evaluations if offline else None)
