"""ROC evaluation: threshold-sweep curves, trapezoidal AUC, TPR at a
fixed false-positive rate, and multi-seed aggregation.

Ties are grouped (all equal scores cross a threshold together), which
makes the trapezoidal AUC equal the pairwise-counting probability with
half credit for ties. TPR@FPR is conservative: it reports the best TPR
among realized thresholds with FPR at or below the target, with no
interpolation. It also holds the package's one CSV codec: read_csv_rows
reads every table mialab takes in, write_lines writes every one it gives out.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError

REPORT_HEADER = ["metric", "seed", "value"]


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


def tpr_at_fpr(fpr, tpr, fpr_target: float = 0.01) -> float:
    """Largest TPR achievable at FPR <= fpr_target using realized thresholds.

    With fewer than 1/fpr_target negatives this degenerates to the TPR at
    zero false positives.
    """
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    admissible = fpr <= fpr_target
    return float(np.max(tpr[admissible]))


def aggregate_runs(values) -> tuple[float, float]:
    """Mean and population standard deviation."""
    arr = np.asarray([float(v) for v in values])
    if not arr.size:
        raise ValueError("no values to aggregate")
    return float(arr.mean()), float(arr.std())


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


def write_lines(path, lines) -> str:
    """Write lines, each ended by \\r\\n as csv.writer ends a row (the
    callers' fields are numbers and plain names, which need no quoting);
    returns the sha256 of the bytes written."""
    data = ("\r\n".join(lines) + "\r\n").encode()
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def read_csv_rows(path, header: list[str] | None, what: str):
    """Yield (line number, fields) of each non-blank row of a CSV file, after any
    byte-order mark. The first, its names stripped, is the header: it must equal
    header, or is yielded when header is None. Later rows have its width. Anything
    else, and bytes that are not UTF-8, raise FormatError naming the file as a what."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = filter(None, reader)  # a blank line reads as []
            found = [name.strip() for name in next(rows, [])]
            if header is None and found:
                header = found
                yield reader.line_num, found
            elif found != header:
                raise FormatError(f"{path}: unexpected {what} header {found}")
            for rec in rows:
                if len(rec) != len(header):
                    raise FormatError(
                        f"{path}: line {reader.line_num}: expected {len(header)} fields, got {len(rec)}"
                    )
                yield reader.line_num, rec
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}: not a readable {what}: {exc}") from exc


def write_roc_csv(path, fpr, tpr) -> str:
    """fpr, tpr rows of a curve; returns the sha256 of the file."""
    return write_lines(path, ["fpr,tpr", *(f"{float(f)!r},{float(t)!r}" for f, t in zip(fpr, tpr))])


def write_report_csv(path, per_seed: dict[int, dict[str, float]]) -> str:
    """Rows of (metric, seed, value) plus mean/std aggregate rows; returns
    the sha256 of the file."""
    metrics = sorted({m for vals in per_seed.values() for m in vals})
    lines = [",".join(REPORT_HEADER)]
    lines += [f"{metric},{seed},{float(per_seed[seed][metric])!r}"
              for metric in metrics for seed in sorted(per_seed)]
    for metric in metrics:
        mean, std = aggregate_runs([per_seed[s][metric] for s in sorted(per_seed)])
        lines += [f"{metric},mean,{mean!r}", f"{metric},std,{std!r}"]
    return write_lines(path, lines)


def read_report_csv(path) -> tuple[dict[int, dict[str, float]], dict[str, dict[str, float]]]:
    """Inverse of write_report_csv: (per-seed rows, aggregate rows). Every
    value is a finite number, and no (metric, seed) row comes twice."""
    per_seed: dict[int, dict[str, float]] = {}
    aggregates: dict[str, dict[str, float]] = {}
    for lineno, (metric, seed, value) in read_csv_rows(path, REPORT_HEADER, "report"):
        try:
            val = float(value)
        except ValueError:
            val = math.nan
        if not math.isfinite(val):
            raise FormatError(f"{path}: line {lineno}: value {value!r} is not a finite number")
        if seed in ("mean", "std"):
            row, key = aggregates.setdefault(metric, {}), seed
        else:
            try:
                row, key = per_seed.setdefault(int(seed), {}), metric
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: bad seed {seed!r}") from exc
        if key in row:
            raise FormatError(f"{path}: line {lineno}: repeats an earlier ({metric}, {seed}) row")
        row[key] = val
    return per_seed, aggregates
