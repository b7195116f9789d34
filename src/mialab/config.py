"""Experiment configuration: JSON schema, validation, and run manifests.

A run manifest embeds the fully resolved config under "resolved_config";
feeding a manifest back to --config reruns the experiment bit-for-bit.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path

from .attacks import METHODS, MODES, CanaryConfig
from .data import Dataset, check_mixture_sizes, load_csv, load_idx_pair, synthetic_mixture
from .errors import ConfigError
from .nn import ArchDescriptor
from .training import TrainConfig

# The keys each dataset kind reads besides "kind"; a config may set no others.
DATASET_KEYS = {
    "synthetic": ("n_points", "input_dim", "num_classes", "noise", "seed"),
    "csv": ("path",),
    "idx-pair": ("path", "labels_path"),
}
_JSON_TYPES = {int: "integer", float: "number", str: "string"}
_type_hints = cache(typing.get_type_hints)  # a config class's field types, resolved once


def _typed(value, kind: type, where: str):
    """value if its JSON type is kind's: a boolean is no integer, and only
    a float field also takes an integer (read as a float)."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{where} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _value(kind, value, where: str):
    """value as the declared type kind: X | None, a dataclass, tuple[X, ...] or a scalar."""
    options = typing.get_args(kind)
    if type(None) in options:
        if value is None:
            return None
        (kind,) = [t for t in options if t is not type(None)]
    if is_dataclass(kind):
        return _read(kind, value, where)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON list, got {type(value).__name__}")
        return tuple(_typed(v, typing.get_args(kind)[0], where) for v in value)
    return _typed(value, kind, where)


def _read(cls, d: dict, where: str):
    """A cls dataclass from the JSON object d, read field by field.

    Each key is a field name and each value must have the field's declared
    type. A missing key takes the field's default; unknown keys, keys a
    dataset's kind does not read and missing fields without a default
    raise ConfigError.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    kind = d.get("kind")
    if cls is DatasetSpec and isinstance(kind, str) and kind in DATASET_KEYS:
        unread = set(d) - {"kind", *DATASET_KEYS[kind]}
        if unread:
            raise ConfigError(f"{where} kind {kind!r} does not read keys {sorted(unread)}")
    hints = _type_hints(cls)
    values = {}
    for f in fields(cls):
        key = f"{where}.{f.name}"
        if f.name in d:
            values[f.name] = _value(hints[f.name], d[f.name], key)
        elif f.default is MISSING:
            raise ConfigError(f"missing {key}")
    return cls(**values)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    path: str | None = None
    labels_path: str | None = None
    n_points: int = 2000
    input_dim: int = 20
    num_classes: int = 10
    noise: float = 0.15
    seed: int = 7

    def __post_init__(self):
        if self.kind not in DATASET_KEYS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.kind != "synthetic" and not self.path:
            raise ConfigError(f"dataset kind {self.kind!r} requires a path")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError(f"dataset.noise must be finite and non-negative, got {self.noise!r}")
        if self.seed < 0:
            raise ConfigError(f"dataset.seed must be non-negative, got {self.seed}")
        if self.kind == "synthetic":
            try:
                check_mixture_sizes(self.n_points, self.input_dim, self.num_classes)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    def materialize(self) -> Dataset:
        if self.kind == "csv":
            return load_csv(self.path)
        if self.kind == "idx-pair":
            return load_idx_pair(self.path, self.labels_path)
        return synthetic_mixture(self.n_points, self.input_dim, self.num_classes, self.seed,
                                 self.noise)

    def to_dict(self) -> dict:
        """Only the keys this kind reads."""
        return {"kind": self.kind, **{k: getattr(self, k) for k in DATASET_KEYS[self.kind]}}


@dataclass(frozen=True)
class ArchSpec:
    hidden_dims: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        self.descriptor(1, 2)  # refuse what the farm would refuse, before any work

    def descriptor(self, input_dim: int, num_classes: int) -> ArchDescriptor:
        return ArchDescriptor(input_dim, self.hidden_dims, num_classes, self.activation)


@dataclass(frozen=True)
class AttackSpec:
    canary: CanaryConfig
    method: str = "lira"
    mode: str = "online"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown attack method {self.method!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown attack mode {self.mode!r}")


@dataclass(frozen=True)
class TargetsSpec:
    count: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(
                f"targets.count must be at least 2 (one member and one non-member), got {self.count}"
            )
        if self.seed < 0:
            raise ConfigError(f"targets.seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    arch: ArchSpec
    n_models: int
    master_seed: int
    seeds: tuple[int, ...]
    attack: AttackSpec
    train: TrainConfig = TrainConfig()
    targets: TargetsSpec = TargetsSpec()

    def __post_init__(self):
        if self.n_models < 2:
            raise ConfigError("n_models must be at least 2")
        if self.master_seed < 0 or any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative")
        if self.master_seed >= 2**64:
            raise ConfigError(f"master_seed must be below 2**64 (farm.bin's u64), got {self.master_seed}")
        if not self.seeds:
            raise ConfigError("need at least one run seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate run seeds in {list(self.seeds)}")

    def to_dict(self) -> dict:
        return {**asdict(self), "dataset": self.dataset.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Validate a config dict; every malformed value raises ConfigError.

        attack.canary.epsilon is required for the canary and random_noise
        methods, and LiRA reads a missing one as 0: the one rule no field
        default can state. A missing attack block is LiRA's.
        """
        attack = d.get("attack", {}) if isinstance(d, dict) else None
        canary = attack.get("canary", {}) if isinstance(attack, dict) else None
        if isinstance(canary, dict) and "epsilon" not in canary:
            method = attack.get("method", "lira")
            if method in ("canary", "random_noise"):
                raise ConfigError(f"attack.canary.epsilon is required for method {method!r}")
            d = {**d, "attack": {**attack, "canary": {**canary, "epsilon": 0.0}}}
        try:
            return _read(ExperimentConfig, d, "config")
        except ConfigError:
            raise
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Read a config JSON; a run manifest is accepted and unwrapped."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(data, dict) and "resolved_config" in data:
        data = data["resolved_config"]
    return ExperimentConfig.from_dict(data)


def write_manifest(path, payload: dict) -> None:
    """Write strict JSON: a NaN or infinity raises ValueError instead."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
