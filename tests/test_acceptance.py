"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale
experiment (criteria 5-8) trains five 33-model farms plus five DP farms
and takes a few minutes; everything else is seconds.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

from mialab.attacks import (
    CanaryConfig,
    GaussianStats,
    lira_offline_score,
    lira_online_score,
    optimize_canary,
    run_attack,
    scale_confidence,
)
from mialab.cli import main
from mialab.data import synthetic_mixture
from mialab.farm import (
    build_farm,
    hold_out_target,
    in_out_partition,
    model_confidence_batch,
)
from mialab.metrics import summarize
from mialab.nn import (
    IN_MINIMIZE,
    OUT_MAXIMIZE,
    OBJECTIVE_KINDS,
    ArchDescriptor,
    ObjectiveKind,
    init_params,
    input_gradient,
    param_gradient,
)
from mialab.rng import state_seeds, stream_states, substream
from mialab.training import DpConfig, TrainConfig

from oracles import fd_input_gradient, fd_param_gradient_coords, pairwise_auc, tables_equal

# ---- desk-scale experiment configuration -----------------------------------
# Values the criteria do not pin (mixture noise, width, epochs, epsilon,
# objective, seeds) were calibrated empirically and are frozen here.
MASTER_SEEDS = (101, 202, 303, 404, 505)
DATASET_SEED = 7
DATA_NOISE = 0.25
N_MODELS = 33
N_TARGETS = 200
ARCH = dict(hidden_dims=(128,), activation="relu")
TRAIN = dict(epochs=80, batch_size=32, lr=0.01, optimizer="adam")
CANARY_EPSILON = 0.05
CANARY_OBJECTIVE = "scaled_log_score"
DP_SEEDS = (0, 1, 2, 3, 4)
DP_NOISE_MULTIPLIER = 1.0
TOY_SEEDS = (1, 2, 3, 4, 5)
TOY_EPSILON = 0.25


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---- criterion 1: gradient correctness --------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    trials = 0
    worst_input = 0.0
    worst_param = 0.0
    for rep in range(9):
        for kind in OBJECTIVE_KINDS:
            for direction in (IN_MINIMIZE, OUT_MAXIMIZE):
                trials += 1
                arch = ArchDescriptor(
                    int(rng.integers(4, 9)),
                    (int(rng.integers(5, 10)),),
                    int(rng.integers(3, 6)),
                    "tanh" if trials % 2 else "relu",
                )
                params = init_params(arch, np.random.default_rng(2000 + trials))
                x = rng.uniform(0, 1, arch.input_dim)
                y = int(rng.integers(arch.num_classes))
                alt = (y + 1) % arch.num_classes if "random" in kind else None
                obj = ObjectiveKind(kind, direction, alt_label=alt)
                analytic = input_gradient(arch, params, x, y, obj)
                fd = fd_input_gradient(arch, params, x, y, obj, h=1e-4)
                worst_input = max(
                    worst_input,
                    np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12),
                )
                if trials % 4 == 0:
                    X = rng.uniform(0, 1, (4, arch.input_dim))
                    yb = rng.integers(0, arch.num_classes, 4)
                    grad = param_gradient(arch, params, X, yb).to_vector()
                    coords = rng.choice(grad.size, 20, replace=False)
                    fd_p = fd_param_gradient_coords(arch, params, X, yb, coords, h=1e-4)
                    worst_param = max(
                        worst_param,
                        np.linalg.norm(grad[coords] - fd_p) / max(np.linalg.norm(fd_p), 1e-12),
                    )
    elapsed = time.perf_counter() - start
    ok = trials >= 100 and worst_input < 1e-4 and worst_param < 1e-4 and elapsed < 10.0
    report(
        1,
        "gradient correctness",
        ok,
        f"{trials} triples, worst input {worst_input:.2e}, worst param {worst_param:.2e}, {elapsed:.1f}s",
    )


# ---- criterion 2: ROC oracle equivalence ------------------------------------


def test_criterion_2_roc_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            continue
        # small integer grid guarantees ties
        scores = rng.integers(-3, 4, n).astype(float)
        checked += 1
        worst = max(worst, abs(summarize(scores, labels).auc - pairwise_auc(scores, labels)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    report(2, "ROC oracle equivalence", ok, f"1000 sets, worst |diff| {worst:.2e}, {elapsed:.1f}s")


# ---- criterion 3: closed-form attack math ------------------------------------


def test_criterion_3_closed_form_attack_math():
    e1 = abs(scale_confidence(0.9) - np.log(9.0))
    e2 = abs(
        lira_online_score(1.0, GaussianStats(1.0, 1.0), GaussianStats(-1.0, 1.0)) - np.e**2
    )
    stats = GaussianStats(0.7, 1.3)
    e3 = abs(lira_offline_score(stats.mu + stats.sigma, stats) - 0.8413447460685429)
    ok = e1 < 1e-9 and e2 < 1e-9 and e3 < 1e-9
    report(3, "closed-form attack math", ok, f"errors {e1:.1e}, {e2:.1e}, {e3:.1e}")


# ---- criterion 4: epsilon-zero reduction -------------------------------------


def test_criterion_4_reduction_to_lira(tmp_path):
    start = time.perf_counter()
    ds = synthetic_mixture(128, 8, 4, seed=11, noise=0.1)
    arch = ArchDescriptor(8, (12,), 4)
    farm = build_farm(ds, 16, arch, TrainConfig(epochs=30, batch_size=16, lr=0.03), master_seed=21)
    truth = farm.splits[0]
    oracle, rest = hold_out_target(farm, 0)
    rng = substream(22, 0)
    mem = np.sort(rng.choice(np.flatnonzero(truth), 20, replace=False))
    non = np.sort(rng.choice(np.flatnonzero(~truth), 20, replace=False))
    targets = [(int(i), True) for i in mem] + [(int(i), False) for i in non]
    cfg = CanaryConfig(epsilon=0.0, steps=40, shadow_batch=2, lr=0.05, num_queries=3)
    identical = True
    for mode in ("online", "offline"):
        lira = run_attack(ds, oracle, rest, targets, "lira", mode, cfg, seed=23)
        canary = run_attack(ds, oracle, rest, targets, "canary", mode, cfg, seed=23)
        identical = identical and tables_equal(lira, canary)
        a, b = tmp_path / f"lira_{mode}.csv", tmp_path / f"canary_{mode}.csv"
        lira.write_csv(a)
        canary.write_csv(b)
        identical = identical and a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 120.0
    report(4, "epsilon-zero canary reduces to lira bitwise", ok, f"{elapsed:.1f}s")


# ---- criteria 5, 7, 8: the desk-scale experiment -----------------------------


def _experiment_parts():
    ds = synthetic_mixture(2000, 20, 10, seed=DATASET_SEED, noise=DATA_NOISE)
    arch = ArchDescriptor(20, ARCH["hidden_dims"], 10, ARCH["activation"])
    return ds, arch


def _targets_for_seed(farm, master_seed):
    target_model = int(substream(master_seed, 13, 0).integers(farm.n_models))
    truth = farm.splits[target_model]
    rng = substream(master_seed, 14, 0)
    mem = np.sort(rng.choice(np.flatnonzero(truth), N_TARGETS // 2, replace=False))
    non = np.sort(rng.choice(np.flatnonzero(~truth), N_TARGETS // 2, replace=False))
    return target_model, [(int(i), True) for i in mem] + [(int(i), False) for i in non]


@pytest.fixture(scope="module")
def desk_experiment():
    """Five farms, four attacks each; shared by criteria 5 and 8. Each farm is
    built on up to two workers, which leaves every model's parameters as built
    serially (test_farm's test_parallel_uneven_groups_match_serial_and_reference)."""
    ds, arch = _experiment_parts()
    tc = TrainConfig(**TRAIN)
    base = CanaryConfig(epsilon=CANARY_EPSILON, num_queries=10)
    canary_cfg = CanaryConfig(
        epsilon=CANARY_EPSILON, steps=40, shadow_batch=2, lr=0.05,
        num_queries=10, objective=CANARY_OBJECTIVE,
    )
    results = {"lira_on": [], "lira_off": [], "canary_off": [], "noise_on": [],
               "isolation": [], "elapsed": 0.0}
    start = time.perf_counter()
    for ms in MASTER_SEEDS:
        farm = build_farm(ds, N_MODELS, arch, tc, master_seed=ms, jobs=min(2, os.cpu_count() or 1))
        target_model, targets = _targets_for_seed(farm, ms)
        oracle, shadows = hold_out_target(farm, target_model)
        aseed = state_seeds(stream_states([(ms, 15, 0)]))[0]

        def auc_of(method, mode, cfg):
            table = run_attack(ds, oracle, shadows, targets, method, mode, cfg, seed=aseed)
            return summarize(table.aggregated, table.member).auc, table

        on, _ = auc_of("lira", "online", base)
        off, _ = auc_of("lira", "offline", base)
        coff, ctab = auc_of("canary", "offline", canary_cfg)
        noz, _ = auc_of("random_noise", "online", base)
        results["lira_on"].append(on)
        results["lira_off"].append(off)
        results["canary_off"].append(coff)
        results["noise_on"].append(noz)
        results["isolation"].append(
            (ctab.in_model_accesses, oracle.hidden_param_reads)
        )
    results["elapsed"] = time.perf_counter() - start
    return results


def test_criterion_5_desk_scale_directional_replication(desk_experiment):
    r = desk_experiment
    lira_on = float(np.mean(r["lira_on"]))
    lira_off = float(np.mean(r["lira_off"]))
    canary_off = float(np.mean(r["canary_off"]))
    noise_on = float(np.mean(r["noise_on"]))
    deltas = [c - o for c, o in zip(r["canary_off"], r["lira_off"])]
    positive = sum(d > 0 for d in deltas)

    a_ok = lira_on > 0.55
    b_ok = canary_off >= lira_off and positive >= 4
    c_ok = abs(noise_on - lira_on) <= 0.015
    t_ok = r["elapsed"] < 600.0
    report(
        5,
        "desk-scale directional replication",
        a_ok and b_ok and c_ok and t_ok,
        f"lira-on {lira_on:.3f}, canary-off {canary_off:.3f} vs lira-off {lira_off:.3f} "
        f"({positive}/5 seeds positive), noise gap {noise_on - lira_on:+.3f}, "
        f"{r['elapsed']:.0f}s",
    )


# ---- criterion 6: overfitting at full-domain epsilon --------------------------


def _held_out_gap(farm, ds, master_seed, epsilon):
    """Mean scaled-confidence gap (IN minus OUT) on 4+4 held-out models
    after optimizing canaries with the cross-entropy pair on the rest."""
    cfg = CanaryConfig(epsilon=epsilon, steps=40, shadow_batch=2, lr=0.05, num_queries=1,
                       objective="cross_entropy")
    rng = substream(master_seed, 33)
    gaps = []
    for t in rng.permutation(ds.n):
        s_in, s_out = in_out_partition(farm, int(t))
        if len(s_in) < 6 or len(s_out) < 6:
            continue
        x, y = ds.point(int(t))
        held_in, train_in = s_in[:4], s_in[4:]
        held_out, train_out = s_out[:4], s_out[4:]
        records = train_out + train_in  # one row: OUT models first, member on the IN tail
        member = np.arange(len(records))[None, :] >= len(train_out)
        (x_mal,), _ = optimize_canary(x[None], np.array([y]), member, records, cfg, True,
                                      [substream(master_seed, 44, int(t))], None)
        phi_in = scale_confidence(
            np.stack([model_confidence_batch(m, x_mal[None], y) for m in held_in])[:, 0]
        )
        phi_out = scale_confidence(
            np.stack([model_confidence_batch(m, x_mal[None], y) for m in held_out])[:, 0]
        )
        gaps.append(float(phi_in.mean() - phi_out.mean()))
        if len(gaps) == 8:
            break
    return float(np.mean(gaps))


def test_criterion_6_overfitting_at_full_domain_epsilon():
    ds = synthetic_mixture(192, 20, 4, seed=3, noise=0.3)
    arch = ArchDescriptor(20, (128,), 4)
    tc = TrainConfig(epochs=80, batch_size=16, lr=0.02)
    wins = 0
    details = []
    for ms in TOY_SEEDS:
        farm = build_farm(ds, 16, arch, tc, master_seed=ms)
        tuned = _held_out_gap(farm, ds, ms, TOY_EPSILON)
        full = _held_out_gap(farm, ds, ms, 1.0)
        wins += tuned > full
        details.append(f"{tuned:+.2f}>{full:+.2f}")
    report(6, "canary overfits at full-domain epsilon", wins >= 4,
           f"{wins}/5 seeds, gaps {', '.join(details)}")


# ---- criterion 7: DP lowers attack power --------------------------------------

# paired plain-vs-DP comparison at a reduced scale so the per-example
# gradient path stays CPU-friendly; only the dp block differs per pair
DP_MODELS = 17
DP_TARGETS = 100
DP_TRAIN = dict(epochs=40, batch_size=64, lr=0.01, optimizer="adam")


def _dp_pair_auc(ds, arch, master_seed, dp):
    tc = TrainConfig(**DP_TRAIN, dp=dp)
    farm = build_farm(ds, DP_MODELS, arch, tc, master_seed=master_seed)
    target_model = int(substream(master_seed, 13, 0).integers(farm.n_models))
    truth = farm.splits[target_model]
    rng = substream(master_seed, 14, 0)
    mem = np.sort(rng.choice(np.flatnonzero(truth), DP_TARGETS // 2, replace=False))
    non = np.sort(rng.choice(np.flatnonzero(~truth), DP_TARGETS // 2, replace=False))
    targets = [(int(i), True) for i in mem] + [(int(i), False) for i in non]
    oracle, shadows = hold_out_target(farm, target_model)
    table = run_attack(ds, oracle, shadows, targets, "lira", "online",
                       CanaryConfig(epsilon=CANARY_EPSILON, num_queries=10),
                       seed=state_seeds(stream_states([(master_seed, 15, 0)]))[0])
    return summarize(table.aggregated, table.member).auc


def test_criterion_7_dp_direction(clip_checks):
    ds, arch = _experiment_parts()
    checks_before = clip_checks.count
    lower = 0
    pairs = []
    for ms in DP_SEEDS:
        plain = _dp_pair_auc(ds, arch, ms, None)
        dp = _dp_pair_auc(ds, arch, ms, DpConfig(clip_norm=5.0, noise_multiplier=DP_NOISE_MULTIPLIER))
        lower += dp < plain
        pairs.append(f"{dp:.3f}<{plain:.3f}")
    checks_ran = clip_checks.count - checks_before
    ok = lower >= 4 and checks_ran > 0
    report(7, "DP lowers online attack power", ok,
           f"{lower}/5 seeds lower ({', '.join(pairs)}), {checks_ran} clip checks, none fired")


# ---- criterion 8: offline isolation -------------------------------------------


def test_criterion_8_offline_isolation(desk_experiment):
    accesses = [a for a, _ in desk_experiment["isolation"]]
    reads = [r for _, r in desk_experiment["isolation"]]
    ok = all(a == 0 for a in accesses) and all(r == 0 for r in reads)
    report(8, "offline isolation", ok,
           f"IN-model accesses {accesses}, target param reads {reads}")


# ---- criterion 9: manifest reproducibility ------------------------------------


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_9_reproducibility(tmp_path):
    cfg = {
        "dataset": {"kind": "synthetic", "n_points": 160, "input_dim": 6,
                    "num_classes": 3, "noise": 0.15, "seed": 3},
        "arch": {"hidden_dims": [8], "activation": "relu"},
        "train": {"epochs": 12, "batch_size": 16, "lr": 0.05, "optimizer": "adam"},
        "n_models": 12,
        "master_seed": 42,
        "seeds": [0, 1],
        "attack": {"method": "canary", "mode": "offline",
                   "canary": {"epsilon": 0.1, "steps": 10, "num_queries": 2}},
        "targets": {"count": 20, "seed": 5},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    t1, t2 = tmp_path / "train1", tmp_path / "train2"
    a1, a2 = tmp_path / "att1", tmp_path / "att2"
    e1, e2 = tmp_path / "ev1", tmp_path / "ev2"

    assert main(["train-shadows", "--config", str(cfg_path), "--out", str(t1)]) == 0
    # rerun from the manifest, not the original config
    assert main(["train-shadows", "--config", str(t1 / "train_manifest.json"), "--out", str(t2)]) == 0
    farm_same = _sha(t1 / "farm.bin") == _sha(t2 / "farm.bin")

    assert main(["attack", "--config", str(cfg_path), "--farm", str(t1 / "farm.bin"),
                 "--out", str(a1)]) == 0
    assert main(["attack", "--config", str(a1 / "attack_manifest.json"),
                 "--farm", str(t2 / "farm.bin"), "--out", str(a2)]) == 0
    scores_same = all(
        _sha(a1 / f"scores_seed{s}.csv") == _sha(a2 / f"scores_seed{s}.csv") for s in (0, 1)
    )

    score_args1 = [str(a1 / f"scores_seed{s}.csv") for s in (0, 1)]
    score_args2 = [str(a2 / f"scores_seed{s}.csv") for s in (0, 1)]
    assert main(["eval", *score_args1, "--out", str(e1)]) == 0
    assert main(["eval", *score_args2, "--out", str(e2)]) == 0
    reports_same = _sha(e1 / "report.csv") == _sha(e2 / "report.csv")

    ok = farm_same and scores_same and reports_same
    report(9, "manifest reproducibility", ok,
           f"farm {farm_same}, scores {scores_same}, reports {reports_same}")
