"""Command-line harness: train-shadows, attack, eval, compare.

Every command writes its outputs plus a JSON manifest embedding the
resolved configuration and SHA-256 hashes of the produced files. Exit
code is 0 on success; failures print one machine-parseable line of the
form ``error:<ErrorClass>: <message>`` and exit nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from .attacks import ScoreTable, run_attack
from .config import ExperimentConfig, load_config, write_manifest
from .errors import ConfigError, FormatError, MialabError, OutputExistsError
from .farm import build_farm, check_farm_fits, hold_out_target, load_farm, save_farm
from .metrics import read_report_csv, summarize, write_report_csv, write_roc_csv
from .rng import TAG_ATTACK, TAG_TARGET_CHOICE, TAG_TARGET_SAMPLE, generators, state_seeds, stream_states
from .rng import substream  # noqa: F401  stays bound here for perfbench's tracer
from .training import map_jobs, record_accuracy

FPR_TARGET = 0.01
METRIC_AUC = "auc"
METRIC_TPR = "tpr_at_fpr_0.01"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _ensure_out(out_dir, names, force: bool) -> Path:
    """Path(out_dir), refusing existing outputs unless force; each command
    creates the directory just before its first write."""
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise OutputExistsError(f"{out} exists and is not a directory")
    for name in names:
        target = out / name
        if target.exists() and not force:
            raise OutputExistsError(f"{target} exists; pass --force to overwrite")
    return out


def cmd_train_shadows(args) -> None:
    cfg = load_config(args.config)
    dataset = cfg.dataset.materialize()
    out = _ensure_out(args.out, ["farm.bin", "train_manifest.json"], args.force)
    arch = cfg.arch.descriptor(dataset.input_dim, dataset.num_classes)
    start = time.perf_counter()
    farm = build_farm(dataset, cfg.n_models, arch, cfg.train, cfg.master_seed, jobs=args.jobs)
    wall = time.perf_counter() - start
    farm_path = out / "farm.bin"
    out.mkdir(parents=True, exist_ok=True)
    farm_sha256 = save_farm(farm, farm_path)
    models = []
    for i, rec in enumerate(farm.records):
        models.append(
            {
                "index": i,
                "seed": rec.seed,
                "train_accuracy": record_accuracy(rec, dataset, np.flatnonzero(farm.splits[i])),
                "test_accuracy": record_accuracy(rec, dataset, np.flatnonzero(~farm.splits[i])),
            }
        )
    write_manifest(
        out / "train_manifest.json",
        {
            "command": "train-shadows",
            "resolved_config": cfg.to_dict(),
            "dataset_fingerprint": dataset.fingerprint(),
            "models": models,
            "outputs": {"farm.bin": farm_sha256},
            "wall_time_s": wall,
        },
    )
    print(f"trained {farm.n_models} models -> {farm_path}")


def _target_counts(cfg: ExperimentConfig) -> tuple[int, int]:
    """Member and non-member targets each run samples."""
    return (cfg.targets.count + 1) // 2, cfg.targets.count // 2


def _run_streams(cfg: ExperimentConfig) -> list[tuple]:
    """(run seed, its target-choice, target-sample and attack stream states) per run seed, in one pass."""
    ms = cfg.master_seed
    states = stream_states([key for s in cfg.seeds for key in (
        (ms, TAG_TARGET_CHOICE, s), (ms, TAG_TARGET_SAMPLE, s, cfg.targets.seed), (ms, TAG_ATTACK, s))])
    return list(zip(cfg.seeds, states.reshape(len(cfg.seeds), 3, -1)))


def _run_attack_seed(cfg: ExperimentConfig, dataset, farm, streams: tuple):
    """One attack run on an item of _run_streams: pick a target model, sample balanced targets, score."""
    run_seed, states = streams
    (choice, rng), (attack_seed,) = generators(states[:2]), state_seeds(states[2:])
    target_model = int(choice.integers(farm.n_models))
    truth = farm.splits[target_model]
    oracle, shadows = hold_out_target(farm, target_model)

    n_member, n_nonmember = _target_counts(cfg)
    picked_members = np.sort(rng.choice(np.flatnonzero(truth), n_member, replace=False))
    picked_non = np.sort(rng.choice(np.flatnonzero(~truth), n_nonmember, replace=False))
    targets = [(int(i), True) for i in picked_members] + [(int(i), False) for i in picked_non]

    table = run_attack(dataset, oracle, shadows, targets, cfg.attack.method, cfg.attack.mode,
                       cfg.attack.canary, attack_seed)
    info = {
        "seed": run_seed,
        "target_model_index": target_model,
        "n_targets": len(targets),
        "oracle_queries": oracle.query_count,
        "target_param_reads": oracle.hidden_param_reads,
        "in_model_accesses": table.in_model_accesses,
    }
    return table, info


def cmd_attack(args) -> None:
    """Materialise the dataset, load the farm and check that it fits the dataset
    and that every split row can supply the targets once, before any run; then
    run every seed on them."""
    start = time.perf_counter()
    cfg = load_config(args.config)
    dataset = cfg.dataset.materialize()
    data = Path(args.farm).read_bytes()  # read once, for the farm and its sha256
    farm, farm_sha256 = load_farm(args.farm, data), hashlib.sha256(data).hexdigest()
    del data  # the farm holds its own copy of the rows; the runs need no second one
    check_farm_fits(farm, dataset)
    n_member, n_nonmember = _target_counts(cfg)
    least = farm.splits.sum(axis=1).min(), (~farm.splits).sum(axis=1).min()
    if n_member > least[0] or n_nonmember > least[1]:
        raise ConfigError(f"cannot sample {n_member}/{n_nonmember} member/non-member targets "
                          f"from as few as {least[0]}/{least[1]} in a split row")
    score_names = [f"scores_seed{s}.csv" for s in cfg.seeds]
    out = _ensure_out(args.out, score_names + ["attack_manifest.json"], args.force)
    runs = map_jobs(partial(_run_attack_seed, cfg, dataset, farm), _run_streams(cfg), args.jobs)
    outputs, infos = {}, []
    out.mkdir(parents=True, exist_ok=True)
    for (table, info), name in zip(runs, score_names):
        outputs[name] = table.write_csv(out / name)
        infos.append(info)
    write_manifest(
        out / "attack_manifest.json",
        {
            "command": "attack",
            "resolved_config": cfg.to_dict(),
            "farm": {"path": str(args.farm), "sha256": farm_sha256},
            "runs": infos,
            "outputs": outputs,
            "wall_time_s": time.perf_counter() - start,
        },
    )
    print(f"wrote {len(score_names)} score tables -> {out}")


def _seed_of(path: Path) -> int:
    match = re.search(r"seed(\d+)", path.stem)
    if not match:
        raise ConfigError(f"cannot infer run seed from file name {path.name!r}")
    return int(match.group(1))


def cmd_eval(args) -> None:
    tables = {}
    for raw in args.scores:
        path = Path(raw)
        seed = _seed_of(path)
        if seed in tables:
            raise ConfigError(f"duplicate run seed {seed} among score tables")
        table = ScoreTable.read_csv(path)
        if len(set(table.labels().tolist())) < 2:
            raise FormatError(f"{path}: score table needs both member and non-member targets")
        tables[seed] = (path, table)
    roc_names = [f"roc_seed{s}.csv" for s in tables]
    out = _ensure_out(args.out, ["report.csv", "eval_manifest.json"] + roc_names, args.force)
    summaries = {seed: summarize(table.scores(), table.labels(), (FPR_TARGET,))
                 for seed, (_, table) in sorted(tables.items())}
    per_seed = {seed: {METRIC_AUC: summary.auc, METRIC_TPR: summary.tpr_at[FPR_TARGET]}
                for seed, summary in summaries.items()}
    outputs = {}
    out.mkdir(parents=True, exist_ok=True)
    for seed, summary in summaries.items():
        roc_name = f"roc_seed{seed}.csv"
        write_roc_csv(out / roc_name, summary.fpr, summary.tpr)
        outputs[roc_name] = _sha256(out / roc_name)
    write_report_csv(out / "report.csv", per_seed)
    outputs["report.csv"] = _sha256(out / "report.csv")
    write_manifest(
        out / "eval_manifest.json",
        {
            "command": "eval",
            "inputs": {str(p): _sha256(p) for p, _ in tables.values()},
            "metrics": {str(s): m for s, m in per_seed.items()},
            "outputs": outputs,
        },
    )
    print(f"wrote report.csv and {len(roc_names)} ROC files -> {out}")


def cmd_compare(args) -> None:
    """Every report is read and checked against lira's seeds and metrics
    before the output directory is touched."""
    paths = [Path(p) for p in args.reports]
    if not 2 <= len(paths) <= 3:
        raise ConfigError("compare takes two or three report files")
    names = ["lira", "canary", "noise"][: len(paths)]
    loaded = {name: read_report_csv(path)[0] for name, path in zip(names, paths)}
    base_seeds = set(loaded["lira"])
    if not base_seeds:
        raise ConfigError(f"{paths[0]}: report has no per-seed rows")
    metrics = sorted({m for vals in loaded["lira"].values() for m in vals})
    for name, per_seed in loaded.items():
        if set(per_seed) != base_seeds:
            raise ConfigError(
                f"seed sets differ: lira has {sorted(base_seeds)}, {name} has {sorted(per_seed)}"
            )
        for seed, vals in sorted(per_seed.items()):
            if sorted(vals) != metrics:
                raise ConfigError(
                    f"metric sets differ: lira has {metrics}, {name} seed {seed} has {sorted(vals)}"
                )
    out = _ensure_out(args.out, ["compare.csv", "compare_manifest.json"], args.force)
    means = {name: {m: float(np.mean([per_seed[s][m] for s in sorted(base_seeds)]))
                    for m in metrics} for name, per_seed in loaded.items()}
    compare_path = out / "compare.csv"
    out.mkdir(parents=True, exist_ok=True)
    with open(compare_path, "w", newline="") as fh:
        fh.write("metric,lira,canary,noise,canary_minus_lira,noise_minus_lira\n")
        for metric in metrics:
            lira, canary = means["lira"][metric], means["canary"][metric]
            noise = means.get("noise", {}).get(metric)
            cells = [metric, repr(lira), repr(canary), "" if noise is None else repr(noise),
                     repr(canary - lira), "" if noise is None else repr(noise - lira)]
            fh.write(",".join(cells) + "\n")
    write_manifest(
        out / "compare_manifest.json",
        {
            "command": "compare",
            "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in zip(names, paths)},
            "outputs": {"compare.csv": _sha256(compare_path)},
        },
    )
    print(f"wrote compare.csv -> {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mialab",
        description="Shadow-model membership-inference laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train-shadows", help="build and persist a shadow-model farm")
    train.add_argument("--config", required=True, help="experiment config or manifest JSON")
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--jobs", type=int, default=1, help="parallel training workers")
    train.add_argument("--force", action="store_true", help="overwrite existing outputs")
    train.set_defaults(func=cmd_train_shadows)

    attack = sub.add_parser("attack", help="run an attack against a held-out target")
    attack.add_argument("--config", required=True)
    attack.add_argument("--farm", required=True, help="farm store produced by train-shadows")
    attack.add_argument("--out", required=True)
    attack.add_argument("--jobs", type=int, default=1, help="parallel per-seed attack workers")
    attack.add_argument("--force", action="store_true")
    attack.set_defaults(func=cmd_attack)

    ev = sub.add_parser("eval", help="ROC/AUC/TPR report from score tables")
    ev.add_argument("scores", nargs="+", help="score table CSVs (named ...seed<N>...)")
    ev.add_argument("--out", required=True)
    ev.add_argument("--force", action="store_true")
    ev.set_defaults(func=cmd_eval)

    comp = sub.add_parser("compare", help="delta table between attack reports")
    comp.add_argument("reports", nargs="+",
                      help="two or three report CSVs: lira canary [noise]")
    comp.add_argument("--out", required=True)
    comp.add_argument("--force", action="store_true")
    comp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        args.func(args)
    except (MialabError, ValueError, OSError) as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
