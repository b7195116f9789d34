"""Experiment configuration: JSON schema, validation, and run manifests.

A run manifest embeds the fully resolved config under "resolved_config";
feeding a manifest back to --config reruns the experiment bit-for-bit.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path

from .attacks import METHODS, MODES, CanaryConfig
from .data import Dataset, ingest_dataset, synthetic_mixture
from .errors import ConfigError
from .training import TrainConfig

DATASET_KINDS = ("synthetic", "csv", "idx-pair")
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing {where}.{key}" if where else f"missing {key}")
    return d[key]


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a JSON list, got {type(value).__name__}")
    return value


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _typed(value, kind: type, where: str):
    """value if its JSON type is kind's: a boolean is no integer, and only
    a float field also takes an integer (read as a float)."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{where} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _read(cls, d: dict, where: str):
    """A cls dataclass from the JSON object d, read field by field.

    Each key is a field name and each value must have the field's declared
    type (X | None also takes null; a dataclass type is read recursively).
    A missing key takes the field's default; unknown keys and missing
    fields without a default raise ConfigError.
    """
    _check_keys(d, {f.name for f in fields(cls)}, where)
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        key = f"{where}.{f.name}"
        if f.name not in d:
            if f.default is MISSING:
                raise ConfigError(f"missing {key}")
            continue
        value, kind = d[f.name], hints[f.name]
        options = typing.get_args(kind)
        if type(None) in options:
            if value is None:
                values[f.name] = None
                continue
            (kind,) = [t for t in options if t is not type(None)]
        values[f.name] = _read(kind, value, key) if is_dataclass(kind) else _typed(value, kind, key)
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
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.kind != "synthetic" and not self.path:
            raise ConfigError(f"dataset kind {self.kind!r} requires a path")

    def materialize(self) -> Dataset:
        if self.kind == "synthetic":
            return synthetic_mixture(
                self.n_points, self.input_dim, self.num_classes, self.seed, self.noise
            )
        return ingest_dataset(self.path, self.kind, self.labels_path)

    def to_dict(self) -> dict:
        if self.kind == "synthetic":
            return {
                "kind": self.kind,
                "n_points": self.n_points,
                "input_dim": self.input_dim,
                "num_classes": self.num_classes,
                "noise": self.noise,
                "seed": self.seed,
            }
        return {"kind": self.kind, "path": self.path, "labels_path": self.labels_path}


@dataclass(frozen=True)
class TargetsSpec:
    count: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(
                f"targets.count must be at least 2 (one member and one non-member), got {self.count}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    hidden_dims: tuple[int, ...]
    activation: str
    train: TrainConfig
    n_models: int
    master_seed: int
    seeds: tuple[int, ...]
    method: str
    mode: str
    canary: CanaryConfig
    targets: TargetsSpec

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown attack method {self.method!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown attack mode {self.mode!r}")
        if self.n_models < 2:
            raise ConfigError("n_models must be at least 2")
        if self.master_seed < 0 or any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative")
        if not self.seeds:
            raise ConfigError("need at least one run seed")

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset.to_dict(),
            "arch": {"hidden_dims": list(self.hidden_dims), "activation": self.activation},
            "train": asdict(self.train),
            "n_models": self.n_models,
            "master_seed": self.master_seed,
            "seeds": list(self.seeds),
            "attack": {"method": self.method, "mode": self.mode, "canary": asdict(self.canary)},
            "targets": asdict(self.targets),
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Validate a config dict; every malformed value raises ConfigError."""
        try:
            return ExperimentConfig._parse(d)
        except ConfigError:
            raise
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    @staticmethod
    def _parse(d: dict) -> "ExperimentConfig":
        _check_keys(
            d,
            {"dataset", "arch", "train", "n_models", "master_seed", "seeds", "attack", "targets"},
            "config",
        )
        arch = _require(d, "arch", "")
        _check_keys(arch, {"hidden_dims", "activation"}, "arch")
        attack = d.get("attack", {})
        _check_keys(attack, {"method", "mode", "canary"}, "attack")
        method = _typed(attack.get("method", "lira"), str, "attack.method")
        canary = attack.get("canary", {})
        if isinstance(canary, dict) and "epsilon" not in canary:
            if method in ("canary", "random_noise"):
                raise ConfigError(f"attack.canary.epsilon is required for method {method!r}")
            canary = {**canary, "epsilon": 0.0}
        return ExperimentConfig(
            dataset=_read(DatasetSpec, _require(d, "dataset", ""), "dataset"),
            hidden_dims=tuple(_typed(h, int, "arch.hidden_dims")
                              for h in _list(_require(arch, "hidden_dims", "arch"),
                                             "arch.hidden_dims")),
            activation=_typed(arch.get("activation", "relu"), str, "arch.activation"),
            train=_read(TrainConfig, d.get("train", {}), "train"),
            n_models=_typed(_require(d, "n_models", ""), int, "n_models"),
            master_seed=_typed(_require(d, "master_seed", ""), int, "master_seed"),
            seeds=tuple(_typed(s, int, "seeds") for s in _list(_require(d, "seeds", ""), "seeds")),
            method=method,
            mode=_typed(attack.get("mode", "online"), str, "attack.mode"),
            canary=_read(CanaryConfig, canary, "attack.canary"),
            targets=_read(TargetsSpec, d.get("targets", {}), "targets"),
        )


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
