"""Shadow-model farms: build, persist, partition, and the target oracle.

The farm store (version 3) is a single binary file, little-endian
throughout: one fixed 49-byte HEADER (8-byte magic, version word, dataset
fingerprint, master seed, model and point counts, architecture fields),
the hidden widths, per-model training seeds, the split matrix as packed
bits, the records' parameter rows as one (n_models, param_count) float64
block, and a trailing 32-byte SHA-256 of every byte before it;
hashed on over that trailer, the same pass gives the file's SHA-256.
Versions 1 and 2 (no checksum, blake2b trailer) are refused; rebuild
them with train-shadows. A store is written to a temporary file next to
its path and moved into place, so a reader never sees half a farm.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import FingerprintMismatchError, FormatError, ShapeError, UnsupportedVersionError
from .nn import ArchDescriptor, Params, forward_batch, row_tiles, softmax
from .rng import TAG_MODEL, TAG_SPLITS, state_seeds, stream_states
from .training import (  # noqa: F401  train_model stays bound here for perfbench's tracer
    ModelRecord,
    TrainConfig,
    make_even_splits,
    train_model,
    train_models,
)

MAGIC = b"SHDWFARM"
VERSION = 3
CHECKSUM_BYTES = 32
# magic, version, fingerprint, master seed, M models, N points, input width,
# classes, activation code, hidden layer count; then the hidden widths
HEADER = struct.Struct("<8sIQQIIIIBI")
_ACT_CODES = {"relu": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


@dataclass(eq=False)
class ShadowFarm:
    fingerprint: int
    arch: ArchDescriptor
    splits: np.ndarray  # bool (n_models, n_points)
    records: list[ModelRecord]
    master_seed: int
    # the loaded store file's SHA-256; None in memory, dataclasses.replace included
    sha256: str | None = field(default=None, init=False, repr=False)

    @property
    def n_models(self) -> int:
        return len(self.records)

    @property
    def n_points(self) -> int:
        return self.splits.shape[1]

    def __post_init__(self):
        if self.splits.shape[0] != len(self.records):
            raise ValueError("split matrix rows must match the number of records")
        if any(rec.arch != self.arch for rec in self.records):  # the store keeps farm.arch only
            raise ValueError(f"every record must have the farm's architecture {self.arch}")

    def __eq__(self, other) -> bool:
        """Equal fields, splits and records compared by value; sha256, which
        says only where a loaded copy came from, is left out."""
        if not isinstance(other, ShadowFarm):
            return NotImplemented
        return (
            self.fingerprint == other.fingerprint
            and self.master_seed == other.master_seed
            and self.arch == other.arch
            and np.array_equal(self.splits, other.splits)
            and self.records == other.records
        )


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
    Rows are evaluated in row_tiles, so a row's confidence is bitwise that of
    the row alone in a zero-padded tile, whatever the batch. A stride-0 query axis
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
    logits = forward_batch(arch, params, row_tiles(X.reshape(-1, arch.input_dim), np.arange(labels.size)))
    p = softmax(logits.reshape(-1, arch.num_classes)[:labels.size])
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
    return oracle, replace(farm, splits=np.delete(farm.splits, which, axis=0), records=fresh)


def save_farm(farm: ShadowFarm, path) -> str:
    """Write the farm store to path; returns the SHA-256 hex digest of its bytes.

    Each part goes to the temporary file as it is hashed, the parameter
    block one record row at a time, so no second copy of it is made.
    """
    arch = farm.arch
    if not 0 <= farm.master_seed < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit field")
    header = [
        HEADER.pack(MAGIC, VERSION, farm.fingerprint, farm.master_seed, farm.n_models,
                    farm.n_points, arch.input_dim, arch.num_classes, _ACT_CODES[arch.activation],
                    len(arch.hidden_dims)),
        struct.pack(f"<{len(arch.hidden_dims)}I", *arch.hidden_dims),
        struct.pack(f"<{farm.n_models}Q", *(r.seed for r in farm.records)),
        np.packbits(farm.splits.ravel()).tobytes(),
    ]
    rows = (rec._theta.astype("<f8", copy=False) for rec in farm.records)
    digest = hashlib.sha256()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in chain(header, rows):
                fh.write(part)
                digest.update(part)
            trailer = digest.copy().digest()
            fh.write(trailer)
            digest.update(trailer)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return digest.hexdigest()


def load_farm(path) -> ShadowFarm:
    """Read the farm store at path. Magic, version, length and checksum are
    checked in that order before any of the payload is decoded, then every
    parameter must be finite; the farm's sha256 is the file's, from the hasher
    that checked the trailer. A file shorter than the header, which every store
    version shares, is truncated unless its bytes already differ from the magic
    (or it has none)."""
    path = Path(path)
    blob = memoryview(path.read_bytes())
    head = bytes(blob[:HEADER.size])
    if not head or head[:len(MAGIC)] != MAGIC[:len(head)]:
        raise FormatError(f"{path}: bad magic {head[:len(MAGIC)]!r}, not a farm store")

    def need(size: int) -> None:
        if len(blob) < size:
            raise FormatError(f"{path}: truncated farm store: expected {size} bytes, got {len(blob)}")

    need(HEADER.size)
    (_, version, fingerprint, master_seed, n_models, n_points, input_dim, num_classes, act_code,
     n_hidden) = HEADER.unpack(head)
    if version != VERSION:
        raise UnsupportedVersionError(
            f"{path}: unsupported farm store version {version} (supported: {VERSION}); "
            "rerun train-shadows to rebuild the farm"
        )
    seeds_at = HEADER.size + 4 * n_hidden
    need(seeds_at)
    hidden = struct.unpack_from(f"<{n_hidden}I", blob, HEADER.size)
    dims = (input_dim, *hidden, num_classes)
    pcount = sum(o * i + o for i, o in zip(dims, dims[1:]))
    n_bits = n_models * n_points
    splits_at = seeds_at + 8 * n_models
    block_at = splits_at + (n_bits + 7) // 8
    size = block_at + 8 * pcount * n_models + CHECKSUM_BYTES
    need(size)
    if len(blob) > size:
        raise FormatError(f"{path}: {len(blob) - size} trailing bytes after farm payload")
    digest, trailer = hashlib.sha256(blob[:-CHECKSUM_BYTES]), blob[-CHECKSUM_BYTES:]
    if digest.digest() != trailer:
        raise FormatError(f"{path}: checksum mismatch, the farm store is corrupt")
    digest.update(trailer)  # on to the file's digest
    if act_code not in _ACT_NAMES:
        raise FormatError(f"{path}: unknown activation code {act_code}")
    try:
        arch = ArchDescriptor(input_dim, tuple(hidden), num_classes, _ACT_NAMES[act_code])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    seeds = struct.unpack_from(f"<{n_models}Q", blob, seeds_at)
    packed = np.frombuffer(blob, np.uint8, block_at - splits_at, splits_at)
    splits = np.unpackbits(packed, count=n_bits).astype(bool).reshape(n_models, n_points)
    # Copied, not viewed: the block starts at byte 49 + 4h + 8M + ceil(MN/8)
    # (8567 for the desk farm), rarely a multiple of 8, and BLAS kernels on
    # unaligned rows round differently, so scores would not be bitwise.
    thetas = np.frombuffer(blob, "<f8", pcount * n_models, block_at).astype(np.float64)
    thetas = thetas.reshape(n_models, pcount)
    finite = np.isfinite(thetas).all(axis=1)
    if not finite.all():  # a NaN weight would score NaN for every target it sees
        raise FormatError(f"{path}: model {np.argmin(finite)} has a non-finite parameter")
    records = [ModelRecord(arch, seed, row) for seed, row in zip(seeds, thetas)]
    farm = ShadowFarm(fingerprint, arch, splits, records, master_seed)
    farm.sha256 = digest.hexdigest()
    return farm


def farms_equal(a: ShadowFarm, b: ShadowFarm) -> bool:
    return a == b
