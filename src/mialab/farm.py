"""Shadow-model farms: build, persist, partition, and the target oracle.

The farm store is a single binary file: 8-byte magic, little-endian
version word, dataset fingerprint, master seed, architecture descriptor,
per-model training seeds, the split matrix as packed bits, then each
model's parameters as little-endian float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import (
    FormatError,
    QueryBudgetError,
    ShapeError,
    UnsupportedVersionError,
)
from .nn import ArchDescriptor, Params, forward_batch, forward_logits, softmax, softmax_conf
from .rng import TAG_MODEL, TAG_SPLITS, derive_seed
from .training import (  # noqa: F401  train_model stays bound here for perfbench's tracer
    ModelRecord,
    TrainConfig,
    make_even_splits,
    train_model,
    train_models,
)

MAGIC = b"SHDWFARM"
VERSION = 1
_ACT_CODES = {"relu": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


@dataclass
class ShadowFarm:
    fingerprint: int
    arch: ArchDescriptor
    splits: np.ndarray  # bool (n_models, n_points)
    records: list[ModelRecord]
    master_seed: int

    @property
    def n_models(self) -> int:
        return len(self.records)

    @property
    def n_points(self) -> int:
        return self.splits.shape[1]

    def __post_init__(self):
        if self.splits.shape[0] != len(self.records):
            raise ValueError("split matrix rows must match the number of records")


class TargetOracle:
    """Black-box query access to one hidden model.

    Only confidence values are exposed; the wrapped record (and its
    parameters) is unreachable through this interface. Every call
    increments query_count, and an optional budget caps the total.
    """

    def __init__(self, record: ModelRecord, fingerprint: int, budget: int | None = None):
        self._record = record
        self.fingerprint = int(fingerprint)
        self.query_count = 0
        self.budget = budget

    def confidence(self, x: np.ndarray, y: int) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ShapeError(f"expected one query point, got shape {x.shape}")
        return float(self.confidences(x[None, :], y)[0])

    def confidences(self, X: np.ndarray, y) -> np.ndarray:
        """Confidences of a (B, d) batch with one label, or of (T, Q, d)
        query blocks with one label per block; one query per row.

        Rows are evaluated one at a time (stacked as (rows, 1, d)), so each
        confidence is bitwise that of a single-row query.
        """
        X = np.asarray(X, dtype=np.float64)
        arch = self._record.arch
        if X.ndim not in (2, 3) or X.shape[-1] != arch.input_dim:
            raise ShapeError(f"expected queries of shape (..., {arch.input_dim}), got {X.shape}")
        n = X.size // arch.input_dim
        if self.budget is not None and self.query_count + n > self.budget:
            raise QueryBudgetError(
                f"query budget of {self.budget} exhausted ({self.query_count} used, {n} asked)"
            )
        self.query_count += n
        logits = forward_batch(arch, self._record._params, X.reshape(-1, 1, arch.input_dim))
        return _label_confidence(logits.reshape(*X.shape[:-1], arch.num_classes), y)

    @property
    def hidden_param_reads(self) -> int:
        """Reads of the hidden record's public params property (should stay 0)."""
        return self._record.access_count


def model_confidence(record: ModelRecord, x: np.ndarray, y: int) -> float:
    """Shadow-model confidence; goes through the counted params property."""
    return softmax_conf(forward_logits(record.arch, record.params, x), y)


def _label_confidence(logits: np.ndarray, y) -> np.ndarray:
    """Softmax confidence on the label: (B, K) logits with an int label, or
    (T, Q, K) logits with one label per block, giving (B,) or (T, Q)."""
    if logits.ndim not in (2, 3):
        raise ShapeError(f"expected (B, d) or (T, Q, d) queries, got logits {logits.shape}")
    y = np.asarray(y, dtype=np.intp)
    K = logits.shape[-1]
    if y.shape != logits.shape[:-2] or np.any((y < 0) | (y >= K)):
        raise IndexError(f"class labels {y} do not fit logits of shape {logits.shape}")
    p = softmax(logits)
    if logits.ndim == 2:
        return p[:, y]
    return p[np.arange(len(y)), :, y]


def model_confidence_batch(record: ModelRecord, X: np.ndarray, y) -> np.ndarray:
    """Shadow confidences of a (B, d) batch with one label, or of stacked
    (T, Q, d) query blocks with one label per block; one counted params read."""
    return _label_confidence(forward_batch(record.arch, record.params, X), y)


def build_farm(
    dataset: Dataset,
    n_models: int,
    arch: ArchDescriptor,
    train_config: TrainConfig,
    master_seed: int,
    jobs: int = 1,
) -> ShadowFarm:
    """Train n_models models on randomized even splits; fully seed-determined.

    Training runs in lock-step model groups (training.train_models), spread
    over jobs worker processes; neither changes any model's parameters.
    """
    if n_models < 2:
        raise ValueError("a farm needs at least 2 models")
    if arch.input_dim != dataset.input_dim or arch.num_classes < dataset.num_classes:
        raise ValueError("architecture does not fit the dataset")
    splits = make_even_splits(dataset.n, n_models, derive_seed(master_seed, TAG_SPLITS))
    seeds = [derive_seed(master_seed, TAG_MODEL, i) for i in range(n_models)]
    records = train_models(dataset, splits, arch, train_config, seeds, jobs=jobs)
    return ShadowFarm(dataset.fingerprint(), arch, splits, records, int(master_seed))


def in_out_partition(farm: ShadowFarm, target_index: int) -> tuple[list[ModelRecord], list[ModelRecord]]:
    """Models trained with / without the dataset point at target_index."""
    if not 0 <= target_index < farm.n_points:
        raise IndexError(f"target index {target_index} out of range for {farm.n_points} points")
    column = farm.splits[:, target_index]
    s_in = [rec for rec, flag in zip(farm.records, column) if flag]
    s_out = [rec for rec, flag in zip(farm.records, column) if not flag]
    return s_in, s_out


def hold_out_target(
    farm: ShadowFarm, which: int, budget: int | None = None
) -> tuple[TargetOracle, ShadowFarm]:
    """Wrap one model as the black-box target; return the remaining farm."""
    if not 0 <= which < farm.n_models:
        raise IndexError(f"model index {which} out of range for {farm.n_models} models")
    oracle = TargetOracle(farm.records[which], farm.fingerprint, budget=budget)
    remaining = ShadowFarm(
        fingerprint=farm.fingerprint,
        arch=farm.arch,
        splits=np.delete(farm.splits, which, axis=0),
        records=[r for i, r in enumerate(farm.records) if i != which],
        master_seed=farm.master_seed,
    )
    return oracle, remaining


def save_farm(farm: ShadowFarm, path) -> None:
    arch = farm.arch
    if not 0 <= farm.master_seed < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit field")
    parts = [MAGIC]
    parts.append(struct.pack("<I", VERSION))
    parts.append(struct.pack("<QQ", farm.fingerprint, farm.master_seed))
    parts.append(
        struct.pack(
            "<IIIIB",
            farm.n_models,
            farm.n_points,
            arch.input_dim,
            arch.num_classes,
            _ACT_CODES[arch.activation],
        )
    )
    parts.append(struct.pack("<I", len(arch.hidden_dims)))
    parts.append(struct.pack(f"<{len(arch.hidden_dims)}I", *arch.hidden_dims))
    parts.append(struct.pack(f"<{farm.n_models}Q", *(r.seed for r in farm.records)))
    parts.append(np.packbits(farm.splits.ravel()).tobytes())
    for rec in farm.records:
        parts.append(rec._params.to_vector().astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.off = 0
        self.path = path

    def read(self, size: int) -> bytes:
        if self.off + size > len(self.blob):
            raise FormatError(
                f"{self.path}: truncated farm store: expected {self.off + size} bytes, "
                f"got {len(self.blob)}"
            )
        out = self.blob[self.off:self.off + size]
        self.off += size
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))


def load_farm(path) -> ShadowFarm:
    path = Path(path)
    reader = _Reader(path.read_bytes(), path)
    magic = reader.read(8)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, not a farm store")
    (version,) = reader.unpack("<I")
    if version != VERSION:
        raise UnsupportedVersionError(
            f"{path}: unsupported farm store version {version} (supported: {VERSION})"
        )
    fingerprint, master_seed = reader.unpack("<QQ")
    n_models, n_points, input_dim, num_classes, act_code = reader.unpack("<IIIIB")
    if act_code not in _ACT_NAMES:
        raise FormatError(f"{path}: unknown activation code {act_code}")
    (n_hidden,) = reader.unpack("<I")
    hidden = reader.unpack(f"<{n_hidden}I")
    arch = ArchDescriptor(input_dim, tuple(hidden), num_classes, _ACT_NAMES[act_code])
    seeds = reader.unpack(f"<{n_models}Q")
    n_bits = n_models * n_points
    packed = np.frombuffer(reader.read((n_bits + 7) // 8), dtype=np.uint8)
    splits = np.unpackbits(packed, count=n_bits).astype(bool).reshape(n_models, n_points)
    records = []
    pcount = arch.param_count()
    for i in range(n_models):
        vec = np.frombuffer(reader.read(pcount * 8), dtype="<f8").astype(np.float64)
        records.append(ModelRecord(arch, seeds[i], i, Params.from_vector(arch, vec)))
    if reader.off != len(reader.blob):
        raise FormatError(
            f"{path}: {len(reader.blob) - reader.off} trailing bytes after farm payload"
        )
    return ShadowFarm(fingerprint, arch, splits, records, master_seed)


def farms_equal(a: ShadowFarm, b: ShadowFarm) -> bool:
    return (
        a.fingerprint == b.fingerprint
        and a.master_seed == b.master_seed
        and a.arch == b.arch
        and np.array_equal(a.splits, b.splits)
        and len(a.records) == len(b.records)
        and all(x == y for x, y in zip(a.records, b.records))
    )
