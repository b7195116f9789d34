"""Shadow-model farms: build, persist, partition, and the target oracle.

The farm store (version 2) is a single binary file, little-endian
throughout: 8-byte magic, version word, dataset fingerprint (blake2b-64),
master seed, architecture descriptor, per-model training seeds, the split
matrix as packed bits, the records' parameter rows as one (n_models,
param_count) float64 block, and a trailing 32-byte blake2b-256 checksum of
every byte before it. Version 1 files (FNV-1a fingerprint, no checksum)
are refused; rebuild them with train-shadows. A store is written to a
temporary file next to its path and moved into place, so a reader never
sees half a farm.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import FingerprintMismatchError, FormatError, ShapeError, UnsupportedVersionError
from .nn import ArchDescriptor, Params, forward_batch, softmax
from .rng import TAG_MODEL, TAG_SPLITS, state_seeds, stream_states
from .training import (  # noqa: F401  train_model stays bound here for perfbench's tracer
    ModelRecord,
    TrainConfig,
    make_even_splits,
    train_model,
    train_models,
)

MAGIC = b"SHDWFARM"
VERSION = 2
CHECKSUM_BYTES = 32
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
    parameters) is unreachable through this interface. Every answered
    row increments query_count.
    """

    def __init__(self, record: ModelRecord, fingerprint: int):
        self._record = record
        self.fingerprint = int(fingerprint)
        self.query_count = 0

    def confidence(self, x: np.ndarray, y: int) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ShapeError(f"expected one query point, got shape {x.shape}")
        return float(self.confidences(x[None, :], y)[0])

    def confidences(self, X: np.ndarray, y) -> np.ndarray:
        """Confidences of a (B, d) batch with one label, or of (T, Q, d) query
        blocks with one label per block (see row_confidences). Each answered
        row counts one query, a stride-0 axis's copies too; a refused call none."""
        conf = row_confidences(self._record.arch, self._record._params, X, y)
        self.query_count += conf.size
        return conf

    @property
    def hidden_param_reads(self) -> int:
        """Reads of the hidden record's public params property (should stay 0)."""
        return self._record.access_count


def row_confidences(arch: ArchDescriptor, params: Params, X: np.ndarray, y) -> np.ndarray:
    """Softmax confidence on the label of each row: (B,) for a (B, d) batch with
    one label, (T, Q) for (T, Q, d) query blocks with one label per block.
    Each row is its own (1, d) matmul slice, so its confidence is bitwise
    that of the row evaluated alone, whatever the batch. A stride-0 query axis
    (np.broadcast_to of one point per block) is evaluated once per block, and
    its answers are broadcast read-only."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-1] != arch.input_dim:
        raise ShapeError(f"expected queries of shape (..., {arch.input_dim}), got {X.shape}")
    y = np.asarray(y, dtype=np.intp)
    if y.shape != X.shape[:-2] or np.any((y < 0) | (y >= arch.num_classes)):
        raise IndexError(f"class labels {y} do not fit queries {X.shape} of {arch.num_classes} classes")
    if X.ndim == 3 and X.shape[1] > 1 and X.strides[1] == 0:
        return np.broadcast_to(row_confidences(arch, params, X[:, :1], y), X.shape[:-1])
    labels = np.broadcast_to(y[..., None], X.shape[:-1]).ravel()
    p = softmax(forward_batch(arch, params, X.reshape(-1, 1, arch.input_dim))[:, 0])
    return p[np.arange(labels.size), labels].reshape(X.shape[:-1])


def model_confidence_batch(record: ModelRecord, X: np.ndarray, y) -> np.ndarray:
    """Shadow confidences of queries laid out as for row_confidences, each row
    evaluated alone as the oracle evaluates it; one counted params read."""
    return row_confidences(record.arch, record.params, X, y)


def _arch_fits(arch: ArchDescriptor, dataset: Dataset) -> bool:
    """Whether arch takes the dataset's rows and labels."""
    return arch.input_dim == dataset.input_dim and arch.num_classes >= dataset.num_classes


def check_farm_fits(farm: ShadowFarm, dataset: Dataset) -> None:
    """Refuse a farm not built on dataset: another fingerprint or point count, or an
    architecture that cannot take its rows and labels (another input width, fewer classes)."""
    if not (farm.fingerprint == dataset.fingerprint() and farm.n_points == dataset.n
            and _arch_fits(farm.arch, dataset)):
        raise FingerprintMismatchError(
            f"farm fingerprint {farm.fingerprint:#x} ({farm.n_points} points, {farm.arch.input_dim} "
            f"features, {farm.arch.num_classes} classes) does not fit dataset fingerprint "
            f"{dataset.fingerprint():#x} ({dataset.n} points, {dataset.input_dim} features, "
            f"{dataset.num_classes} classes)")


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
    over at most jobs worker processes; neither changes any model's parameters.
    """
    if n_models < 2:
        raise ValueError("a farm needs at least 2 models")
    if not _arch_fits(arch, dataset):
        raise ValueError("architecture does not fit the dataset")
    split_seed, *seeds = state_seeds(stream_states(
        [(master_seed, TAG_SPLITS)] + [(master_seed, TAG_MODEL, i) for i in range(n_models)]))
    splits = make_even_splits(dataset.n, n_models, split_seed)
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


def hold_out_target(farm: ShadowFarm, which: int) -> tuple[TargetOracle, ShadowFarm]:
    """Wrap one model as the black-box target; return the remaining farm.

    Every call wraps fresh records around the farm's frozen rows, so
    the access counters of one run (the oracle's hidden_param_reads, an
    offline attack's IN-model reads) never carry over into another run of
    the same loaded farm.
    """
    if not 0 <= which < farm.n_models:
        raise IndexError(f"model index {which} out of range for {farm.n_models} models")
    fresh = [ModelRecord(r.arch, r.seed, r._theta) for r in farm.records]
    oracle = TargetOracle(fresh.pop(which), farm.fingerprint)
    remaining = ShadowFarm(
        fingerprint=farm.fingerprint,
        arch=farm.arch,
        splits=np.delete(farm.splits, which, axis=0),
        records=fresh,
        master_seed=farm.master_seed,
    )
    return oracle, remaining


def save_farm(farm: ShadowFarm, path) -> str:
    """Write the farm store to path; returns the sha256 hex digest of its bytes.

    Each part goes to the temporary file as it is hashed, the parameter
    block one record row at a time, so no second copy of it is made.
    """
    arch = farm.arch
    if not 0 <= farm.master_seed < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit field")
    header = [
        MAGIC,
        struct.pack("<I", VERSION),
        struct.pack("<QQ", farm.fingerprint, farm.master_seed),
        struct.pack("<IIIIB", farm.n_models, farm.n_points, arch.input_dim, arch.num_classes,
                    _ACT_CODES[arch.activation]),
        struct.pack("<I", len(arch.hidden_dims)),
        struct.pack(f"<{len(arch.hidden_dims)}I", *arch.hidden_dims),
        struct.pack(f"<{farm.n_models}Q", *(r.seed for r in farm.records)),
        np.packbits(farm.splits.ravel()).tobytes(),
    ]
    rows = (rec._theta.astype("<f8", copy=False) for rec in farm.records)
    checksum = hashlib.blake2b(digest_size=CHECKSUM_BYTES)
    digest = hashlib.sha256()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in chain(header, rows):
                fh.write(part)
                checksum.update(part)
                digest.update(part)
            tail = checksum.digest()
            fh.write(tail)
            digest.update(tail)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return digest.hexdigest()


class _Reader:
    def __init__(self, blob: memoryview, path):
        self.blob = blob
        self.off = 0
        self.path = path

    def read(self, size: int) -> memoryview:
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


def load_farm(path, data: bytes | None = None) -> ShadowFarm:
    """Read the farm store at path, or decode data, its bytes when the caller
    has already read them. Magic, version, length and checksum are checked
    in that order before any of the payload is decoded."""
    path = Path(path)
    blob = memoryview(path.read_bytes() if data is None else data)
    reader = _Reader(blob, path)
    magic = bytes(reader.read(8))
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, not a farm store")
    (version,) = reader.unpack("<I")
    if version != VERSION:
        raise UnsupportedVersionError(
            f"{path}: unsupported farm store version {version} (supported: {VERSION}); "
            "rerun train-shadows to rebuild the farm"
        )
    fingerprint, master_seed = reader.unpack("<QQ")
    n_models, n_points, input_dim, num_classes, act_code = reader.unpack("<IIIIB")
    (n_hidden,) = reader.unpack("<I")
    hidden = reader.unpack(f"<{n_hidden}I")
    dims = (input_dim, *hidden, num_classes)
    pcount = sum(o * i + o for i, o in zip(dims, dims[1:]))
    n_bits = n_models * n_points
    size = reader.off + 8 * n_models + (n_bits + 7) // 8 + 8 * pcount * n_models + CHECKSUM_BYTES
    if len(blob) < size:
        raise FormatError(f"{path}: truncated farm store: expected {size} bytes, got {len(blob)}")
    if len(blob) > size:
        raise FormatError(f"{path}: {len(blob) - size} trailing bytes after farm payload")
    payload, checksum = blob[:-CHECKSUM_BYTES], blob[-CHECKSUM_BYTES:]
    if hashlib.blake2b(payload, digest_size=CHECKSUM_BYTES).digest() != checksum:
        raise FormatError(f"{path}: checksum mismatch, the farm store is corrupt")
    if act_code not in _ACT_NAMES:
        raise FormatError(f"{path}: unknown activation code {act_code}")
    arch = ArchDescriptor(input_dim, tuple(hidden), num_classes, _ACT_NAMES[act_code])
    seeds = reader.unpack(f"<{n_models}Q")
    packed = np.frombuffer(reader.read((n_bits + 7) // 8), dtype=np.uint8)
    splits = np.unpackbits(packed, count=n_bits).astype(bool).reshape(n_models, n_points)
    thetas = np.frombuffer(reader.read(8 * pcount * n_models), dtype="<f8").astype(np.float64)
    records = [ModelRecord(arch, seed, row)
               for seed, row in zip(seeds, thetas.reshape(n_models, pcount))]
    return ShadowFarm(fingerprint, arch, splits, records, master_seed)


def farms_equal(a: ShadowFarm, b: ShadowFarm) -> bool:
    return (
        a.fingerprint == b.fingerprint
        and a.master_seed == b.master_seed
        and a.arch == b.arch
        and np.array_equal(a.splits, b.splits)
        and a.records == b.records
    )
