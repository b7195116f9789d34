"""Experiment configuration: JSON schema, validation, and run manifests.

A run manifest embeds the fully resolved config under "resolved_config";
feeding a manifest back to --config reruns the experiment bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .attacks import METHODS, MODES, CanaryConfig
from .data import Dataset, ingest_dataset, synthetic_mixture
from .errors import ConfigError
from .training import TrainConfig

DATASET_KINDS = ("synthetic", "csv", "idx-pair")
# attack.canary and train accept exactly the keys a manifest records for them
CANARY_KEYS = set(CanaryConfig(epsilon=0.0).to_dict())
TRAIN_KEYS = set(TrainConfig().to_dict())


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

    @staticmethod
    def from_dict(d: dict) -> "DatasetSpec":
        _check_keys(
            d,
            {"kind", "path", "labels_path", "n_points", "input_dim", "num_classes", "noise", "seed"},
            "dataset",
        )
        kind = str(_require(d, "kind", "dataset"))
        return DatasetSpec(
            kind=kind,
            path=d.get("path"),
            labels_path=d.get("labels_path"),
            n_points=int(d.get("n_points", 2000)),
            input_dim=int(d.get("input_dim", 20)),
            num_classes=int(d.get("num_classes", 10)),
            noise=float(d.get("noise", 0.15)),
            seed=int(d.get("seed", 7)),
        )


@dataclass(frozen=True)
class TargetsSpec:
    count: int = 200
    seed: int = 0

    def to_dict(self) -> dict:
        return {"count": self.count, "seed": self.seed}

    @staticmethod
    def from_dict(d: dict) -> "TargetsSpec":
        _check_keys(d, {"count", "seed"}, "targets")
        return TargetsSpec(count=int(d.get("count", 200)), seed=int(d.get("seed", 0)))


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
            "train": self.train.to_dict(),
            "n_models": self.n_models,
            "master_seed": self.master_seed,
            "seeds": list(self.seeds),
            "attack": {"method": self.method, "mode": self.mode, "canary": self.canary.to_dict()},
            "targets": self.targets.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Validate a config dict; every malformed value raises ConfigError."""
        try:
            return ExperimentConfig._parse(d)
        except ConfigError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
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
        method = str(attack.get("method", "lira"))
        canary_dict = attack.get("canary", {})
        _check_keys(canary_dict, CANARY_KEYS, "attack.canary")
        canary_dict = dict(canary_dict)
        if "epsilon" not in canary_dict:
            if method in ("canary", "random_noise"):
                raise ConfigError(f"attack.canary.epsilon is required for method {method!r}")
            canary_dict["epsilon"] = 0.0
        train_dict = d.get("train", {})
        _check_keys(train_dict, TRAIN_KEYS, "train")
        if train_dict.get("dp") is not None:
            _check_keys(train_dict["dp"], {"clip_norm", "noise_multiplier"}, "train.dp")
        train = TrainConfig.from_dict(train_dict)
        return ExperimentConfig(
            dataset=DatasetSpec.from_dict(_require(d, "dataset", "")),
            hidden_dims=tuple(int(h) for h in _list(_require(arch, "hidden_dims", "arch"),
                                                   "arch.hidden_dims")),
            activation=str(arch.get("activation", "relu")),
            train=train,
            n_models=int(_require(d, "n_models", "")),
            master_seed=int(_require(d, "master_seed", "")),
            seeds=tuple(int(s) for s in _list(_require(d, "seeds", ""), "seeds")),
            method=method,
            mode=str(attack.get("mode", "online")),
            canary=CanaryConfig.from_dict(canary_dict),
            targets=TargetsSpec.from_dict(d.get("targets", {})),
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
