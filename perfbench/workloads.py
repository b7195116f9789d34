"""The four benchmark workloads.

Each workload turns the benchmark seed into configs and data files, sets
up once per set-up repeat, and then repeats one iteration: a fixed
sequence of mialab CLI commands (the timed part) followed by checks on
what they wrote (not timed). Why each workload exists, and which layer
it stresses or bypasses, is recorded in BENCHMARK.json and NOTES.md.

The desk mixture (20 features, 10 classes, noise 0.25), the 20-128-10
ReLU net trained with batch 32 and Adam, the canary settings and the DP
config (clip 5.0, noise multiplier 1.0, batch 64) are the acceptance
module's. Point counts, farm sizes, epochs, canary steps and queries are
cut (see SIZES) so that one iteration takes two to three seconds and a
run holds several; the work of each call into a layer is unchanged.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mialab.config import load_config
from mialab.data import synthetic_mixture

from harness import Session, sha256

CANARY = {"epsilon": 0.05, "objective": "scaled_log_score", "shadow_batch": 2, "lr": 0.05}
DP = {"clip_norm": 5.0, "noise_multiplier": 1.0}


@dataclass(frozen=True)
class Size:
    """How much work one workload does; the tiny sizes serve the smoke test."""

    n_points: int
    n_models: int
    epochs: int
    targets: int
    run_seeds: int = 1
    hidden: tuple = (128,)
    canary_steps: int = 0
    num_queries: int = 10


SIZES = {
    "desk_lira": {"full": Size(500, 24, 30, 200),
                  "tiny": Size(200, 16, 2, 20)},
    "desk_canary": {"full": Size(500, 24, 30, 200, canary_steps=10, num_queries=2),
                    "tiny": Size(200, 16, 2, 6, canary_steps=2, num_queries=2)},
    "dp_farm": {"full": Size(500, 24, 8, 200, run_seeds=2),
                "tiny": Size(200, 16, 1, 20)},
    "wide_store": {"full": Size(300, 24, 6, 100, run_seeds=3, hidden=(64,)),
                   "tiny": Size(100, 16, 1, 10, run_seeds=2, hidden=(8,))},
}


def derived_seeds(seed: int, n: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence([seed]).generate_state(n)]


class Workload:
    """Configs on disk plus the iteration's commands, checks and outputs."""

    name = ""
    attacks: tuple = ()  # (method, mode) of each attack command, in order
    scored: tuple = ()  # attack labels whose mean AUC is the workload's auc metric
    train_in_setup = False
    setup_repeats = 10
    batch_size = 32
    dp = None
    canary: dict = {}

    def __init__(self, seed: int, size: str, work: Path):
        self.size = SIZES[self.name][size]
        self.work = work
        self.data_seed, self.master_seed, self.target_seed = derived_seeds(seed, 3)
        self.farm = work / "farm" / "farm.bin"
        self.labels = [f"{method}_{mode}" for method, mode in self.attacks]
        self.configs = {
            label: self.config(method, mode)
            for label, (method, mode) in zip(self.labels, self.attacks)
        }
        self.fingerprint = self.farm_digest = None

    def dataset(self) -> dict:
        return {"kind": "synthetic", "n_points": self.size.n_points, "input_dim": 20,
                "num_classes": 10, "noise": 0.25, "seed": self.data_seed}

    def config(self, method: str, mode: str) -> dict:
        size = self.size
        canary = dict(self.canary, num_queries=size.num_queries)
        if size.canary_steps:
            canary["steps"] = size.canary_steps
        return {
            "dataset": self.dataset(),
            "arch": {"hidden_dims": list(size.hidden), "activation": "relu"},
            "train": {"epochs": size.epochs, "batch_size": self.batch_size, "lr": 0.01,
                      "optimizer": "adam", "dp": self.dp},
            "n_models": size.n_models,
            "master_seed": self.master_seed,
            "seeds": list(range(size.run_seeds)),
            "attack": {"method": method, "mode": mode, "canary": canary},
            "targets": {"count": size.targets, "seed": self.target_seed},
        }

    def path(self, name: str) -> Path:
        return self.work / name

    def config_path(self, label: str) -> Path:
        return self.path(f"{label}.json")

    def steps_per_train(self) -> int:
        batches = math.ceil((self.size.n_points // 2) / self.batch_size)
        return self.size.n_models * self.size.epochs * batches

    def write_inputs(self) -> int:
        """Write the configs and load them back through the program.

        A bad input then fails in set-up rather than in the timed part;
        the dataset fingerprint shows that the seed's inputs repeat.
        """
        for label, cfg in self.configs.items():
            self.config_path(label).write_text(json.dumps(cfg, indent=2))
        return load_config(self.config_path(self.labels[0])).dataset.materialize().fingerprint()

    def setup(self, s: Session) -> None:
        fingerprint = s.timed("inputs", "inputs", self.write_inputs)
        s.check("generated dataset identical across set-up repeats",
                self.fingerprint in (None, fingerprint))
        self.fingerprint = fingerprint
        if self.train_in_setup:
            self.train(s)
            s.check_farm_round_trip(self.farm)
            digest = sha256(self.farm)
            s.check("farm.bin identical across set-up repeats", self.farm_digest in (None, digest))
            self.farm_digest = digest

    def train(self, s: Session) -> None:
        s.train(self.config_path(self.labels[0]), self.farm.parent, self.steps_per_train())

    def iteration(self, s: Session) -> None:
        if not self.train_in_setup:
            self.train(s)
        scores = {
            label: s.attack(label, self.config_path(label), self.farm, self.path(f"att_{label}"))
            for label in self.labels
        }
        for label in self.labels:
            s.eval(label, scores[label], self.path(f"eval_{label}"))

    def verify(self, s: Session) -> None:
        if not self.train_in_setup:
            s.check_farm_round_trip(self.farm)
        for label in self.labels:
            s.check_attack(label, self.config_path(label), self.path(f"att_{label}"))
            s.record_auc(label, self.path(f"eval_{label}"))

    def outputs(self) -> list[Path]:
        out = [self.farm]
        for label in self.labels:
            out += [self.path(f"att_{label}") / f"scores_seed{r}.csv"
                    for r in self.configs[label]["seeds"]]
            out.append(self.path(f"eval_{label}") / "report.csv")
        return out

    def auc(self, aucs: dict[str, float]) -> float:
        return sum(aucs[label] for label in self.scored) / len(self.scored)


class DeskLira(Workload):
    """Plain training dominates; canary and DP paths are bypassed."""

    name = "desk_lira"
    attacks = (("lira", "online"), ("lira", "offline"))
    scored = ("lira_online", "lira_offline")


class DeskCanary(Workload):
    """Set-up trains the farm; timed runs only optimize canaries and score."""

    name = "desk_canary"
    attacks = (("canary", "offline"), ("canary", "online"), ("random_noise", "online"))
    scored = ("canary_offline", "canary_online")
    train_in_setup = True
    setup_repeats = 5
    canary = CANARY


class DpFarm(Workload):
    """DP-SGD training dominates: per-example gradients and clipping."""

    name = "dp_farm"
    attacks = (("lira", "online"),)
    scored = ("lira_online",)
    batch_size = 64
    dp = DP


def write_idx_pair(images: Path, labels: Path, n: int, seed: int) -> None:
    """MNIST-shaped IDX pair: 28x28 uint8 pixels quantised from the mixture."""
    ds = synthetic_mixture(n, 784, 10, seed, noise=0.25)
    pixels = np.rint(ds.features * 255.0).astype(np.uint8)
    images.write_bytes(struct.pack(">IIII", 0x00000803, n, 28, 28) + pixels.tobytes())
    labels.write_bytes(struct.pack(">II", 0x00000801, n) + ds.labels.astype(np.uint8).tobytes())


class WideStore(Workload):
    """Ingestion, fingerprinting and the farm store dominate; little training."""

    name = "wide_store"
    attacks = (("lira", "offline"),)
    scored = ("lira_offline",)
    setup_repeats = 5

    def __init__(self, seed, size, work):
        self.images = work / "data" / "train-images-idx3-ubyte"
        super().__init__(seed, size, work)

    def dataset(self):
        return {"kind": "idx-pair", "path": str(self.images),
                "labels_path": str(self.images.with_name("train-labels-idx1-ubyte"))}

    def write_inputs(self):
        self.images.parent.mkdir(parents=True, exist_ok=True)
        write_idx_pair(self.images, self.images.with_name("train-labels-idx1-ubyte"),
                       self.size.n_points, self.data_seed)
        return super().write_inputs()


WORKLOADS = {w.name: w for w in (DeskLira, DeskCanary, DpFarm, WideStore)}
