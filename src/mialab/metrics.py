"""ROC evaluation: threshold-sweep curves, trapezoidal AUC, TPR at a
fixed false-positive rate, and multi-seed aggregation.

Ties are grouped (all equal scores cross a threshold together), which
makes the trapezoidal AUC equal the pairwise-counting probability with
half credit for ties. TPR@FPR is conservative: it reports the best TPR
among realized thresholds with FPR at or below the target, with no
interpolation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError


def roc_curve(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """FPR/TPR arrays from a descending threshold sweep over unique scores.

    The curve starts at (0, 0) and ends at (1, 1); both coordinates are
    nondecreasing. Higher scores mean "more likely member"; +-inf is a
    score, NaN is refused.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching vectors")
    if np.isnan(scores).any():
        raise FormatError(f"{int(np.isnan(scores).sum())} NaN scores cannot be ranked")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_curve needs at least one positive and one negative label")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    l = labels[order]
    # last index of each tie group
    boundary = np.append(s[1:] != s[:-1], True)
    tp = np.cumsum(l)[boundary]
    fp = np.cumsum(~l)[boundary]
    fpr = np.concatenate(([0.0], fp / n_neg))
    tpr = np.concatenate(([0.0], tp / n_pos))
    return fpr, tpr


def auc(fpr, tpr) -> float:
    """Trapezoidal area under the curve."""
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) * 0.5))


def roc_auc(scores, labels) -> float:
    fpr, tpr = roc_curve(scores, labels)
    return auc(fpr, tpr)


def tpr_at_fpr(fpr, tpr, fpr_target: float = 0.01) -> float:
    """Largest TPR achievable at FPR <= fpr_target using realized thresholds.

    With fewer than 1/fpr_target negatives this degenerates to the TPR at
    zero false positives.
    """
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    admissible = fpr <= fpr_target
    return float(np.max(tpr[admissible]))


def aggregate_runs(values) -> tuple[float, float, list[float]]:
    """Mean, population standard deviation, and the per-seed list."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values to aggregate")
    arr = np.asarray(values)
    return float(arr.mean()), float(arr.std()), values


@dataclass
class RocSummary:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float
    tpr_at: dict[float, float]


def summarize(scores, labels, fpr_targets=(0.01,)) -> RocSummary:
    fpr, tpr = roc_curve(scores, labels)
    return RocSummary(
        fpr=fpr,
        tpr=tpr,
        auc=auc(fpr, tpr),
        tpr_at={t: tpr_at_fpr(fpr, tpr, t) for t in fpr_targets},
    )


def write_roc_csv(path, fpr, tpr) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for f, t in zip(fpr, tpr):
            writer.writerow([repr(float(f)), repr(float(t))])


def write_report_csv(path, per_seed: dict[int, dict[str, float]]) -> None:
    """Rows of (metric, seed, value) plus mean/std aggregate rows."""
    metrics = sorted({m for vals in per_seed.values() for m in vals})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "seed", "value"])
        for metric in metrics:
            for seed in sorted(per_seed):
                writer.writerow([metric, seed, repr(float(per_seed[seed][metric]))])
        for metric in metrics:
            mean, std, _ = aggregate_runs([per_seed[s][metric] for s in sorted(per_seed)])
            writer.writerow([metric, "mean", repr(mean)])
            writer.writerow([metric, "std", repr(std)])


def read_csv_rows(path, header: list[str], what: str):
    """Yield (line number, fields) of each row of a CSV file whose first
    row is header and whose rows are header's width; anything else, and
    bytes that do not decode, raise FormatError naming the file as a what."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != header:
                raise FormatError(f"{path}: unexpected {what} header {found}")
            for lineno, rec in enumerate(reader, start=2):
                if len(rec) != len(header):
                    raise FormatError(
                        f"{path}: line {lineno}: expected {len(header)} fields, got {len(rec)}"
                    )
                yield lineno, rec
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}: not a readable {what}: {exc}") from exc


def read_report_csv(path) -> tuple[dict[int, dict[str, float]], dict[str, dict[str, float]]]:
    """Inverse of write_report_csv: (per-seed rows, aggregate rows). Every
    value is a finite number."""
    per_seed: dict[int, dict[str, float]] = {}
    aggregates: dict[str, dict[str, float]] = {}
    for lineno, (metric, seed, value) in read_csv_rows(path, ["metric", "seed", "value"], "report"):
        try:
            val = float(value)
        except ValueError:
            val = math.nan
        if not math.isfinite(val):
            raise FormatError(f"{path}: line {lineno}: value {value!r} is not a finite number")
        if seed in ("mean", "std"):
            aggregates.setdefault(metric, {})[seed] = val
        else:
            try:
                seed_i = int(seed)
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: bad seed {seed!r}") from exc
            per_seed.setdefault(seed_i, {})[metric] = val
    return per_seed, aggregates
