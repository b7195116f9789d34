"""Datasets: labeled feature vectors on the unit hypercube.

Supports CSV and IDX-pair ingestion, a deterministic synthetic Gaussian
mixture for desk-scale experiments, a 64-bit blake2b fingerprint of the
canonical byte layout, and optional per-row access counting used to prove
that training never touches held-out points.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .metrics import read_csv_rows
from .rng import substream

DOMAIN_LOW = 0.0
DOMAIN_HIGH = 1.0

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash (the fingerprint of farm store version 1)."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class Dataset:
    """Immutable labeled dataset with features in [0, 1]^d."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, num_classes: int | None = None):
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be a vector matching the number of rows")
        if features.shape[0] == 0:
            raise ValueError("dataset is empty")
        if features.shape[1] == 0:
            raise ValueError("features must have at least one column")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        if features.min() < DOMAIN_LOW or features.max() > DOMAIN_HIGH:
            raise ValueError("features must lie in the [0, 1] input domain")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative")
        inferred = max(2, int(labels.max()) + 1)
        self.num_classes = inferred if num_classes is None else int(num_classes)
        if self.num_classes < int(labels.max()) + 1:
            raise ValueError("num_classes smaller than the largest label")
        self.features = features
        self.labels = labels
        self.features.flags.writeable = False
        self.labels.flags.writeable = False
        self._fingerprint: int | None = None
        self.access_counts: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def enable_access_counting(self) -> None:
        self.access_counts = np.zeros(self.n, dtype=np.int64)

    def take(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Rows and labels at the given indices, recording the access."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.access_counts is not None:
            np.add.at(self.access_counts, indices, 1)
        return self.features[indices], self.labels[indices]

    def point(self, index: int) -> tuple[np.ndarray, int]:
        """A copy of one row's features and its label, recording the access."""
        index = int(index)
        if not 0 <= index < self.n:
            raise IndexError(f"dataset index {index} out of range")
        x, y = self.take(index)  # a 0-d index array: an advanced index, so x is a copy
        return x, int(y)

    def fingerprint(self) -> int:
        """blake2b-64 of n, input_dim, num_classes (<u8), the C-ordered features (<f8)
        and the labels (<i8), read as a little-endian integer; hashed in place, uncopied."""
        if self._fingerprint is None:
            h = hashlib.blake2b(struct.pack("<QQQ", self.n, self.input_dim, self.num_classes), digest_size=8)
            h.update(np.ascontiguousarray(self.features, "<f8"))
            h.update(np.ascontiguousarray(self.labels, "<i8"))
            self._fingerprint = int.from_bytes(h.digest(), "little")
        return self._fingerprint


def _rescale_unit(columns: np.ndarray) -> np.ndarray:
    """Min-max rescale each column to [0, 1]; constant columns map to 0."""
    lo = columns.min(axis=0)
    hi = columns.max(axis=0)
    span = hi - lo
    out = np.zeros_like(columns)
    live = span > 0
    out[:, live] = (columns[:, live] - lo[live]) / span[live]
    return out


def load_csv(path) -> Dataset:
    """CSV with a header row, a 'label' column, numeric feature columns,
    read by the package's CSV reader (metrics.read_csv_rows)."""
    rows = read_csv_rows(path, None, "dataset")
    lineno, header = next(rows)
    if "label" not in header:
        raise FormatError(f"{path}: line {lineno}: no 'label' column in header {header}")
    label_col = header.index("label")
    feats, labels = [], []
    for lineno, fields in rows:
        row = []
        for col, raw in enumerate(fields):
            if col == label_col:
                try:
                    val = float(raw)
                except ValueError:
                    raise FormatError(f"{path}: line {lineno}: label {raw.strip()!r} is not numeric")
                if not val.is_integer() or val < 0:
                    raise FormatError(
                        f"{path}: line {lineno}: label {raw.strip()!r} out of range "
                        "(need a non-negative integer)"
                    )
                labels.append(int(val))
            else:
                try:
                    row.append(float(raw))
                except ValueError:
                    raise FormatError(
                        f"{path}: line {lineno}, column {header[col]!r}: non-numeric value {raw.strip()!r}"
                    )
        feats.append(row)
    if not feats:
        raise FormatError(f"{path}: no data rows")
    features = _rescale_unit(np.asarray(feats, dtype=np.float64))
    return Dataset(features, np.asarray(labels, dtype=np.int64))


def _read_idx_header(blob: bytes, path, expected_magic: int, n_dims: int) -> tuple[int, ...]:
    header_len = 4 + 4 * n_dims
    if len(blob) < header_len:
        raise FormatError(
            f"{path}: truncated header: expected at least {header_len} bytes, got {len(blob)}"
        )
    magic = struct.unpack(">I", blob[:4])[0]
    if magic != expected_magic:
        raise FormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0 (expected 0x{expected_magic:08x})"
        )
    return struct.unpack(f">{n_dims}I", blob[4:header_len])


def load_idx_pair(images_path, labels_path=None) -> Dataset:
    """Standard big-endian IDX image/label file pair; pixels scaled by 255."""
    images_path = Path(images_path)
    if labels_path is None:
        guess = images_path.name.replace("images", "labels").replace("idx3", "idx1")
        labels_path = images_path.with_name(guess)
        if guess == images_path.name or not labels_path.exists():
            raise ConfigError(
                f"cannot derive labels file for {images_path}; pass labels_path explicitly"
            )
    labels_path = Path(labels_path)

    img_blob = images_path.read_bytes()
    n, rows, cols = _read_idx_header(img_blob, images_path, IDX_IMAGES_MAGIC, 3)
    expected = 16 + n * rows * cols
    if len(img_blob) != expected:
        raise FormatError(
            f"{images_path}: payload size mismatch: expected {expected} bytes, got {len(img_blob)}"
        )
    lbl_blob = labels_path.read_bytes()
    (n_labels,) = _read_idx_header(lbl_blob, labels_path, IDX_LABELS_MAGIC, 1)
    expected_l = 8 + n_labels
    if len(lbl_blob) != expected_l:
        raise FormatError(
            f"{labels_path}: payload size mismatch: expected {expected_l} bytes, got {len(lbl_blob)}"
        )
    if n_labels != n:
        raise FormatError(
            f"label count {n_labels} does not match image count {n}"
        )
    pixels = np.frombuffer(img_blob, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    labels = np.frombuffer(lbl_blob, dtype=np.uint8, offset=8)
    return Dataset(pixels.astype(np.float64) / 255.0, labels.astype(np.int64))


def check_mixture_sizes(n_points: int, input_dim: int, num_classes: int) -> None:
    """The sizes a synthetic mixture needs; ValueError otherwise."""
    if n_points < 2 or input_dim < 1 or num_classes < 2:
        raise ValueError("a synthetic dataset needs n_points >= 2, input_dim >= 1 and num_classes"
                         f" >= 2, got {n_points}, {input_dim} and {num_classes}")


def synthetic_mixture(
    n_points: int,
    input_dim: int,
    num_classes: int,
    seed: int,
    noise: float = 0.15,
    mean_low: float = 0.25,
    mean_high: float = 0.75,
) -> Dataset:
    """Gaussian mixture with one random component per class, clipped to [0, 1].

    Points are assigned to classes round-robin and then shuffled, so class
    counts are balanced to within one point.
    """
    check_mixture_sizes(n_points, input_dim, num_classes)
    rng = substream(seed)
    means = rng.uniform(mean_low, mean_high, size=(num_classes, input_dim))
    labels = rng.permutation(np.arange(n_points) % num_classes)
    features = means[labels] + rng.normal(0.0, noise, size=(n_points, input_dim))
    np.clip(features, DOMAIN_LOW, DOMAIN_HIGH, out=features)
    return Dataset(features, labels, num_classes=num_classes)
