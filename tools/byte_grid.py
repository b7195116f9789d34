"""CLI byte grid: the SHA-256 of every artefact a fixed set of CLI runs writes.

    python tools/byte_grid.py OUT

Builds three 14-model farms from 300-point synthetic mixtures of 10
classes: a plain and a DP-SGD (clip 5.0, noise multiplier 1.0) farm of
the 20-128-10 ReLU net, and a plain farm of the 784-64-10 net (3 epochs,
canary steps 5). On each it runs lira, canary and random_noise, online
and offline, with run seeds 0 and 1 on 100 targets, then eval per attack
and compare per mode, all through mialab.cli.main with BLAS pinned to one
thread. The 784-wide canary attacks span two or three blocks, so the
grid also checks bytes across block edges and, run at two checkouts,
where block plans differ. OUT/digests.txt gets one ``sha256  path``
line, sorted by path, per farm.bin, score, ROC, report and compare file;
manifests hold wall times and are left out. Run it at two checkouts and
diff the two digests.txt files: a change that claims identical bytes
must leave them equal.

The mialab imported is the one under this checkout's src/, not an
installed copy.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: BLAS thread counts can move bits

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mialab.cli import main  # noqa: E402

DESK = {"input_dim": 20, "hidden": 128, "epochs": 30, "steps": 20, "dp": None}
FARMS = {"plain": DESK, "dp": dict(DESK, dp={"clip_norm": 5.0, "noise_multiplier": 1.0}),
         "wide": {"input_dim": 784, "hidden": 64, "epochs": 3, "steps": 5, "dp": None}}
METHODS = ("lira", "canary", "random_noise")
MODES = ("online", "offline")
CANARY = {"epsilon": 0.05, "objective": "scaled_log_score", "shadow_batch": 2, "lr": 0.05,
          "num_queries": 4}


def config(farm: dict, method: str, mode: str) -> dict:
    return {
        "dataset": {"kind": "synthetic", "n_points": 300, "input_dim": farm["input_dim"],
                    "num_classes": 10, "noise": 0.25, "seed": 7},
        "arch": {"hidden_dims": [farm["hidden"]], "activation": "relu"},
        "train": {"epochs": farm["epochs"], "batch_size": 32, "lr": 0.01, "optimizer": "adam",
                  "dp": farm["dp"]},
        "n_models": 14,
        "master_seed": 2022,
        "seeds": [0, 1],
        "attack": {"method": method, "mode": mode,
                   "canary": dict(CANARY, steps=farm["steps"])},
        "targets": {"count": 100, "seed": 3},
    }


def cli(*argv) -> None:
    if main([*map(str, argv), "--force"]) != 0:
        raise SystemExit(f"mialab {' '.join(map(str, argv))} failed")


def run_grid(out: Path) -> list[Path]:
    """Run every command of the grid under out; returns the files to digest."""
    digested = []
    for farm_name, shape in FARMS.items():
        root = out / farm_name
        root.mkdir(parents=True, exist_ok=True)
        configs = {}
        for method in METHODS:
            for mode in MODES:
                path = configs[method, mode] = root / f"{method}_{mode}.json"
                path.write_text(json.dumps(config(shape, method, mode), indent=2))
        farm = root / "farm" / "farm.bin"
        cli("train-shadows", "--config", configs["lira", "online"], "--out", farm.parent)
        digested.append(farm)
        for mode in MODES:
            reports = []
            for method in METHODS:
                attack, evaluation = root / f"{method}_{mode}", root / f"eval_{method}_{mode}"
                cli("attack", "--config", configs[method, mode], "--farm", farm, "--out", attack)
                scores = sorted(attack.glob("scores_seed*.csv"))
                cli("eval", *scores, "--out", evaluation)
                reports.append(evaluation / "report.csv")
                digested += scores + sorted(evaluation.glob("roc_seed*.csv")) + reports[-1:]
            compare = root / f"compare_{mode}"
            cli("compare", *reports, "--out", compare)
            digested.append(compare / "compare.csv")
    return digested


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tools/byte_grid.py OUT")
    out = Path(sys.argv[1]).resolve()
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out)}"
             for p in sorted(run_grid(out))]
    (out / "digests.txt").write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} digests -> {out / 'digests.txt'}")
