"""CLI byte grid: the SHA-256 of every artefact a fixed set of CLI runs writes.

    python tools/byte_grid.py OUT

Builds two farms from a 300-point synthetic mixture (20 features, 10
classes) with the 20-128-10 ReLU net and 14 models, one plain and one
DP-SGD (clip 5.0, noise multiplier 1.0). On each it runs lira, canary and
random_noise, online and offline, with run seeds 0 and 1, then eval per
attack and compare per mode, all through mialab.cli.main with BLAS pinned
to one thread. OUT/digests.txt gets one ``sha256  path`` line, sorted by path, per
farm.bin, score, ROC, report and compare file; manifests hold wall times
and are left out. Run it at two checkouts and diff the two digests.txt
files: a change that claims identical bytes must leave them equal.

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

FARMS = {"plain": None, "dp": {"clip_norm": 5.0, "noise_multiplier": 1.0}}
METHODS = ("lira", "canary", "random_noise")
MODES = ("online", "offline")
CANARY = {"epsilon": 0.05, "objective": "scaled_log_score", "shadow_batch": 2, "lr": 0.05,
          "steps": 20, "num_queries": 4}


def config(dp, method: str, mode: str) -> dict:
    return {
        "dataset": {"kind": "synthetic", "n_points": 300, "input_dim": 20, "num_classes": 10,
                    "noise": 0.25, "seed": 7},
        "arch": {"hidden_dims": [128], "activation": "relu"},
        "train": {"epochs": 30, "batch_size": 32, "lr": 0.01, "optimizer": "adam", "dp": dp},
        "n_models": 14,
        "master_seed": 2022,
        "seeds": [0, 1],
        "attack": {"method": method, "mode": mode, "canary": CANARY},
        "targets": {"count": 100, "seed": 3},
    }


def cli(*argv) -> None:
    if main([*map(str, argv), "--force"]) != 0:
        raise SystemExit(f"mialab {' '.join(map(str, argv))} failed")


def run_grid(out: Path) -> list[Path]:
    """Run every command of the grid under out; returns the files to digest."""
    digested = []
    for farm_name, dp in FARMS.items():
        root = out / farm_name
        root.mkdir(parents=True, exist_ok=True)
        configs = {}
        for method in METHODS:
            for mode in MODES:
                path = configs[method, mode] = root / f"{method}_{mode}.json"
                path.write_text(json.dumps(config(dp, method, mode), indent=2))
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
