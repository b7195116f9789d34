"""End-to-end CLI: commands, manifests, reproducibility, error lines."""

import hashlib
import json
import warnings

import numpy as np
import pytest

import mialab.cli as cli
import mialab.training as training
from mialab.cli import main
from mialab.attacks import ScoreTable
from mialab.config import ExperimentConfig
from mialab.farm import CHECKSUM_BYTES, load_farm, save_farm
from mialab.metrics import read_report_csv
from mialab.rng import generators, state_seeds

from oracles import _ref_stream


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def base_config(**overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "n_points": 120, "input_dim": 6,
                    "num_classes": 3, "noise": 0.15, "seed": 3},
        "arch": {"hidden_dims": [8], "activation": "relu"},
        "train": {"epochs": 10, "batch_size": 16, "lr": 0.05, "optimizer": "adam"},
        "n_models": 12,
        "master_seed": 42,
        "seeds": [0, 1],
        "attack": {"method": "lira", "mode": "online", "canary": {"epsilon": 0.1, "num_queries": 2}},
        "targets": {"count": 20, "seed": 5},
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(base_config()))
    out = root / "train"
    assert main(["train-shadows", "--config", str(cfg_path), "--out", str(out)]) == 0
    return root, cfg_path, out


class TestTrainShadows:
    def test_outputs_and_manifest(self, trained):
        _, _, out = trained
        manifest = json.loads((out / "train_manifest.json").read_text())
        assert manifest["command"] == "train-shadows"
        assert len(manifest["models"]) == 12
        for m in manifest["models"]:
            assert 0.0 <= m["train_accuracy"] <= 1.0
            assert 0.0 <= m["test_accuracy"] <= 1.0
        assert manifest["outputs"]["farm.bin"] == sha(out / "farm.bin")

    def test_refuses_overwrite_without_force(self, trained, capsys):
        _, cfg_path, out = trained
        assert main(["train-shadows", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "error:OutputExistsError" in capsys.readouterr().err

    def test_out_that_is_a_file_is_refused_before_training(self, trained, tmp_path, capsys):
        _, cfg_path, _ = trained
        (tmp_path / "o").write_text("")
        assert main(["train-shadows", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:OutputExistsError: ") and err.count("\n") == 1

    def test_rerun_with_force_is_byte_identical(self, trained, tmp_path):
        _, cfg_path, out = trained
        before = sha(out / "farm.bin")
        assert main(["train-shadows", "--config", str(cfg_path), "--out", str(out), "--force"]) == 0
        assert sha(out / "farm.bin") == before

    def test_rerun_from_manifest_matches(self, trained, tmp_path):
        _, _, out = trained
        out2 = tmp_path / "again"
        manifest = out / "train_manifest.json"
        assert main(["train-shadows", "--config", str(manifest), "--out", str(out2)]) == 0
        assert sha(out2 / "farm.bin") == sha(out / "farm.bin")

    def test_dp_store_is_byte_identical_across_jobs(self, tmp_path):
        # 60 training points in batches of 16: the last batch of each epoch is 12
        cfg = base_config(train={"epochs": 3, "batch_size": 16, "lr": 0.05, "optimizer": "adam",
                                 "dp": {"clip_norm": 1.0, "noise_multiplier": 0.5}})
        cfg_path = tmp_path / "dp.json"
        cfg_path.write_text(json.dumps(cfg))
        digests = set()
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["train-shadows", "--config", str(cfg_path), "--out", str(out),
                         "--jobs", jobs]) == 0
            manifest = json.loads((out / "train_manifest.json").read_text())
            assert manifest["outputs"]["farm.bin"] == sha(out / "farm.bin")
            digests.add(sha(out / "farm.bin"))
        assert len(digests) == 1

    def test_missing_dataset_path_fails_before_training(self, tmp_path, capsys):
        cfg = base_config(dataset={"kind": "csv", "path": str(tmp_path / "nope.csv")})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train-shadows", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert not (tmp_path / "o" / "farm.bin").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = base_config()
        cfg["surprise"] = 1
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train-shadows", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert "error:ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("block,key,value", [
        ("arch", "hidden_dims", 5),
        (None, "train", [1]),
        ("train", "dp", 3),
        ("train", "epochz", 3),
        (None, "seeds", 0),
        ("canary", "stepz", 3),
        ("canary", "epsilon", float("nan")),
        ("canary", "lr", float("inf")),
        ("canary", "init_noise_scale", float("-inf")),
        ("canary", "steps", [2]),
        ("canary", "offline_density", "false"),
        ("canary", "steps", 2.9),
        ("canary", "lr", True),
        ("canary", "mode", "offline"),
        (None, "seeds", [1.7]),
        (None, "n_models", 12.0),
        (None, "master_seed", True),
        ("arch", "hidden_dims", [8.5]),
        ("train", "epochs", True),
        pytest.param("train", "lr", 10**400, id="train-lr-int_beyond_float"),
        ("targets", "count", 0),
        ("targets", "count", -3),
        ("train", "lr", float("nan")),
        ("train", "lr", float("inf")),
        ("train", "lr", -1.0),
        ("train", "lr", 0),
        pytest.param("train", "dp", {"clip_norm": float("nan"), "noise_multiplier": 1.0},
                     id="train-dp-clip_norm_nan"),
        pytest.param("train", "dp", {"clip_norm": float("inf"), "noise_multiplier": 1.0},
                     id="train-dp-clip_norm_inf"),
        pytest.param("train", "dp", {"clip_norm": 5.0, "noise_multiplier": float("nan")},
                     id="train-dp-noise_multiplier_nan"),
        pytest.param("train", "dp", {"clip_norm": 5.0, "noise_multiplier": float("inf")},
                     id="train-dp-noise_multiplier_inf"),
        ("dataset", "noise", float("inf")),
        ("dataset", "noise", -0.1),
        ("arch", "activation", "sigmoid"),
        pytest.param("arch", "hidden_dims", [0], id="arch-hidden_dims-zero_width"),
        ("train", "seed", 0),
        pytest.param("dataset", "path", "/nonexistent.csv", id="synthetic-path"),
        pytest.param(None, "dataset", {"kind": "csv", "path": "d.csv", "n_points": 100},
                     id="csv-n_points"),
        pytest.param(None, "dataset", {"kind": "csv", "path": "d.csv", "labels_path": "l.csv"},
                     id="csv-labels_path"),
        pytest.param("dataset", "num_classes", 0, id="synthetic-num_classes_zero"),
        pytest.param("dataset", "num_classes", 1, id="synthetic-num_classes_one"),
        pytest.param("dataset", "input_dim", 0, id="synthetic-input_dim_zero"),
        pytest.param("dataset", "n_points", 1, id="synthetic-n_points_one"),
        pytest.param(None, "seeds", [0, 0], id="duplicate-seeds"),
        pytest.param(None, "master_seed", 2**64, id="master_seed-beyond_u64"),
        pytest.param("dataset", "seed", -1, id="dataset-seed_negative"),
        pytest.param("targets", "seed", -1, id="targets-seed_negative"),
    ])
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, block, key, value):
        cfg = base_config()
        target = cfg if block is None else cfg["attack"]["canary"] if block == "canary" else cfg[block]
        target[key] = value
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))  # NaN and infinities as JSON literals
        assert main(["train-shadows", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:ConfigError: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_diverging_training_leaves_no_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(base_config(train={"epochs": 3, "lr": 1e300})))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings would end in a traceback
            rc = main(["train-shadows", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1
        assert err.startswith("error:ValueError: training diverged: non-finite parameters in epoch 1")
        assert not (tmp_path / "o").exists()

    def test_integers_read_as_floats_and_round_trip(self, tmp_path):
        from mialab.config import ExperimentConfig, load_config

        cfg = base_config()
        cfg["train"]["lr"] = 1
        cfg["attack"]["canary"]["epsilon"] = 0
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        loaded = load_config(cfg_path)
        assert type(loaded.train.lr) is float and loaded.train.lr == 1.0
        assert type(loaded.attack.canary.epsilon) is float and loaded.attack.canary.epsilon == 0.0
        resolved = loaded.to_dict()
        assert resolved["train"]["lr"] == 1.0 and resolved["attack"]["canary"]["epsilon"] == 0.0
        assert ExperimentConfig.from_dict(json.loads(json.dumps(resolved))) == loaded

    def test_manifest_refuses_non_finite_values(self, tmp_path):
        from mialab.config import write_manifest

        with pytest.raises(ValueError):
            write_manifest(tmp_path / "m.json", {"wall_time_s": float("nan")})


class TestAttack:
    def test_scores_written_per_seed(self, trained):
        root, cfg_path, out = trained
        att = root / "att"
        rc = main(["attack", "--config", str(cfg_path), "--farm", str(out / "farm.bin"),
                   "--out", str(att)])
        assert rc == 0
        for s in (0, 1):
            table = ScoreTable.read_csv(att / f"scores_seed{s}.csv")
            members = sum(r.is_member for r in table.rows)
            assert abs(members - (len(table.rows) - members)) <= 1
        manifest = json.loads((att / "attack_manifest.json").read_text())
        assert {r["seed"] for r in manifest["runs"]} == {0, 1}
        assert manifest["farm"]["sha256"] == sha(out / "farm.bin")
        for s in (0, 1):
            assert manifest["outputs"][f"scores_seed{s}.csv"] == sha(att / f"scores_seed{s}.csv")
        for run in manifest["runs"]:
            assert run["target_param_reads"] == 0

    def test_run_streams_are_numpys_one_row_streams(self):
        # every run seed's target-choice and target-sample streams and attack
        # seed come from one pass, bitwise those of their own key tuples
        cfg = ExperimentConfig.from_dict(base_config(seeds=[0, 7, 123456789012]))
        items = cli._run_streams(cfg)
        assert [seed for seed, _ in items] == list(cfg.seeds)
        for seed, states in items:
            choice, sample = generators(states[:2])
            assert choice.bit_generator.state == _ref_stream(42, 13, seed).bit_generator.state
            assert sample.bit_generator.state == _ref_stream(42, 14, seed, 5).bit_generator.state
            attack = np.random.SeedSequence([42, 15, seed]).generate_state(4, np.uint64)
            assert state_seeds(states[2:]) == [int(attack[0]) >> 1]

    def test_rerun_identical_csv(self, trained):
        root, cfg_path, out = trained
        att = root / "att"
        before = sha(att / "scores_seed0.csv")
        rc = main(["attack", "--config", str(cfg_path), "--farm", str(out / "farm.bin"),
                   "--out", str(att), "--force"])
        assert rc == 0
        assert sha(att / "scores_seed0.csv") == before

    def test_parallel_seeds_match_serial(self, trained, tmp_path):
        root, cfg_path, out = trained
        att = root / "att"
        att2 = tmp_path / "att-jobs"
        rc = main(["attack", "--config", str(cfg_path), "--farm", str(out / "farm.bin"),
                   "--out", str(att2), "--jobs", "2"])
        assert rc == 0
        for s in (0, 1):
            assert sha(att2 / f"scores_seed{s}.csv") == sha(att / f"scores_seed{s}.csv")

    def test_offline_logs_zero_in_accesses(self, trained, tmp_path):
        root, cfg_path, out = trained
        cfg = base_config()
        cfg["attack"]["mode"] = "offline"
        cfg["attack"]["method"] = "canary"
        cfg["attack"]["canary"] = {"epsilon": 0.1, "steps": 5, "num_queries": 2}
        cfg_off = tmp_path / "off.json"
        cfg_off.write_text(json.dumps(cfg))
        att = tmp_path / "att-off"
        rc = main(["attack", "--config", str(cfg_off), "--farm", str(out / "farm.bin"),
                   "--out", str(att)])
        assert rc == 0
        manifest = json.loads((att / "attack_manifest.json").read_text())
        assert all(r["in_model_accesses"] == 0 for r in manifest["runs"])
        # the attack's mode is recorded once, not contradicted by a canary setting
        assert manifest["resolved_config"]["attack"]["mode"] == "offline"
        assert "mode" not in manifest["resolved_config"]["attack"]["canary"]

    def test_inputs_never_mutated(self, trained, tmp_path):
        root, cfg_path, out = trained
        farm_before = sha(out / "farm.bin")
        cfg_before = sha(cfg_path)
        scores_before = sha(root / "att" / "scores_seed0.csv")
        assert main(["attack", "--config", str(cfg_path), "--farm", str(out / "farm.bin"),
                     "--out", str(tmp_path / "again")]) == 0
        assert main(["eval", str(root / "att" / "scores_seed0.csv"),
                     "--out", str(tmp_path / "ev")]) == 0
        assert sha(out / "farm.bin") == farm_before
        assert sha(cfg_path) == cfg_before
        assert sha(root / "att" / "scores_seed0.csv") == scores_before

    def test_fingerprint_mismatch_refused(self, trained, tmp_path, capsys):
        root, cfg_path, out = trained
        cfg = base_config()
        cfg["dataset"]["seed"] = 99  # different dataset than the farm was built on
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["attack", "--config", str(bad), "--farm", str(out / "farm.bin"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error:FingerprintMismatchError" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_farm_that_does_not_fit_leaves_no_output(self, trained, tmp_path, capsys, forge):
        _, cfg_path, out = trained
        farm = tmp_path / "farm.bin"
        save_farm(forge(load_farm(out / "farm.bin")), farm)
        rc = main(["attack", "--config", str(cfg_path), "--farm", str(farm),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:FingerprintMismatchError: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("attack,targets,jobs", [
        pytest.param({}, {"count": 500}, 2, id="targets_beyond_split"),
        pytest.param({"method": "canary", "mode": "offline",
                      "canary": {"epsilon": 0.1, "shadow_batch": 20}}, {}, 1, id="too_few_shadows"),
    ])
    def test_refused_run_leaves_no_output(self, trained, tmp_path, capsys, monkeypatch, attack,
                                          targets, jobs):
        _, _, out = trained
        cfg = base_config()
        cfg["attack"].update(attack)
        cfg["targets"].update(targets)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        if jobs > 1:  # refused once, before map_jobs could start a worker

            def no_runs(*args):
                raise AssertionError("map_jobs called for a refused target count")

            monkeypatch.setattr(cli, "map_jobs", no_runs)
        rc = main(["attack", "--config", str(cfg_path), "--farm", str(out / "farm.bin"),
                   "--out", str(tmp_path / "x"), "--jobs", str(jobs)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:ConfigError: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key,value,problem", [
        pytest.param("epsilon", -0.5, "must be non-negative", id="epsilon"),
        pytest.param("init_noise_scale", -0.5, "must be non-negative", id="init_noise_scale"),
        pytest.param("lr", -0.05, "must be finite and positive, got -0.05", id="lr-negative"),
        pytest.param("lr", 0.0, "must be finite and positive, got 0.0", id="lr-zero"),
    ])
    def test_negative_canary_scale_refused(self, trained, tmp_path, capsys, key, value, problem):
        # a negative init_noise_scale once ran the canary without init noise,
        # and a negative lr climbed the canary's own loss
        _, _, out = trained
        cfg = base_config()
        cfg["attack"].update(method="canary", mode="online")
        cfg["attack"]["canary"].update({"steps": 2, key: value})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["attack", "--config", str(cfg_path), "--farm", str(out / "farm.bin"),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error:ConfigError: invalid config: {key} {problem}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("damage,error", [
        ("version_1", "UnsupportedVersionError"),
        ("flipped_bit", "FormatError"),
    ])
    def test_refused_farm_leaves_no_output(self, trained, tmp_path, capsys, damage, error):
        _, cfg_path, out = trained
        blob = bytearray((out / "farm.bin").read_bytes())
        if damage == "version_1":
            blob[8:12] = (1).to_bytes(4, "little")
            del blob[-CHECKSUM_BYTES:]  # v1 stores had no checksum
        else:
            blob[100] ^= 0x10
        farm = tmp_path / "farm.bin"
        farm.write_bytes(bytes(blob))
        rc = main(["attack", "--config", str(cfg_path), "--farm", str(farm),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith(f"error:{error}: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()


class TestRunIsolation:
    """One attack command loads the farm once and runs every seed on it; no
    run may see another run's access counters."""

    @staticmethod
    def attack(cfg_path, farm, out, *extra):
        assert main(["attack", "--config", str(cfg_path), "--farm", str(farm),
                     "--out", str(out), *extra]) == 0
        return json.loads((out / "attack_manifest.json").read_text())["runs"]

    def test_shared_load_matches_one_command_per_seed(self, trained, tmp_path):
        _, _, out = trained
        farm = out / "farm.bin"
        seeds = [0, 1, 2]
        cfg = base_config(seeds=seeds)
        cfg["attack"]["mode"] = "offline"
        cfg_path = tmp_path / "off.json"
        cfg_path.write_text(json.dumps(cfg))
        together = self.attack(cfg_path, farm, tmp_path / "together")
        pooled = self.attack(cfg_path, farm, tmp_path / "pooled", "--jobs", "2")
        alone = []
        for s in seeds:
            cfg_path.write_text(json.dumps({**cfg, "seeds": [s]}))
            alone += self.attack(cfg_path, farm, tmp_path / f"alone{s}")
        # later runs hold out models that earlier runs read as shadows
        assert len({r["target_model_index"] for r in together}) > 1
        assert together == pooled == alone
        assert all(r["target_param_reads"] == 0 and r["in_model_accesses"] == 0 for r in together)
        for s in seeds:
            name = f"scores_seed{s}.csv"
            digest = sha(tmp_path / "together" / name)
            assert sha(tmp_path / "pooled" / name) == digest == sha(tmp_path / f"alone{s}" / name)


class TestJobs:
    """--jobs is at least 1, and a pool is never wider than the groups or
    seeds it gets."""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["train-shadows", "attack"])
    def test_jobs_below_one_is_one_error_line(self, trained, tmp_path, capsys, command, jobs):
        _, cfg_path, out = trained
        farm = ["--farm", str(out / "farm.bin")] if command == "attack" else []
        rc = main([command, "--config", str(cfg_path), *farm, "--out", str(tmp_path / "o"),
                   "--jobs", jobs])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:ConfigError: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_pool_is_capped_at_the_work(self, trained, tmp_path, monkeypatch):
        widths = []

        class InlinePool:
            """Records its width and runs the work in this process."""

            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        _, cfg_path, out = trained
        farm = out / "farm.bin"
        assert main(["attack", "--config", str(cfg_path), "--farm", str(farm),
                     "--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setattr(training, "ProcessPoolExecutor", InlinePool)
        assert main(["train-shadows", "--config", str(cfg_path), "--out", str(tmp_path / "t"),
                     "--jobs", "16"]) == 0
        assert main(["attack", "--config", str(cfg_path), "--farm", str(farm),
                     "--out", str(tmp_path / "a"), "--jobs", "16"]) == 0
        one_seed = tmp_path / "one_seed.json"
        one_seed.write_text(json.dumps(base_config(seeds=[1])))
        assert main(["attack", "--config", str(one_seed), "--farm", str(farm),
                     "--out", str(tmp_path / "a1"), "--jobs", "4"]) == 0
        assert widths == [12, 2]  # 12 one-model groups, then 2 seeds; 1 seed runs in-process
        assert sha(tmp_path / "t" / "farm.bin") == sha(farm)
        for s in (0, 1):
            name = f"scores_seed{s}.csv"
            assert sha(tmp_path / "a" / name) == sha(tmp_path / "serial" / name)
        assert sha(tmp_path / "a1" / "scores_seed1.csv") == sha(tmp_path / "serial" / "scores_seed1.csv")


@pytest.fixture(scope="module")
def evaluated(trained):
    root, cfg_path, out = trained
    ev = root / "ev"
    scores = [str(root / "att" / f"scores_seed{s}.csv") for s in (0, 1)]
    assert main(["eval", *scores, "--out", str(ev), "--force"]) == 0
    return root, ev


class TestEvalCompare:
    def test_report_contents(self, evaluated):
        _, ev = evaluated
        per_seed, aggregates = read_report_csv(ev / "report.csv")
        assert set(per_seed) == {0, 1}
        for vals in per_seed.values():
            assert 0.0 <= vals["auc"] <= 1.0
            assert 0.0 <= vals["tpr_at_fpr_0.01"] <= 1.0
        expected_mean = np.mean([per_seed[s]["auc"] for s in (0, 1)])
        assert aggregates["auc"]["mean"] == pytest.approx(expected_mean, abs=1e-12)
        assert (ev / "roc_seed0.csv").exists() and (ev / "roc_seed1.csv").exists()

    def test_eval_rerun_identical(self, evaluated, trained):
        root, ev = evaluated
        before = sha(ev / "report.csv")
        scores = [str(root / "att" / f"scores_seed{s}.csv") for s in (0, 1)]
        assert main(["eval", *scores, "--out", str(ev), "--force"]) == 0
        assert sha(ev / "report.csv") == before

    def test_eval_needs_seed_in_name(self, tmp_path, trained, capsys):
        root, _, _ = trained
        anon = tmp_path / "scores.csv"
        anon.write_bytes((root / "att" / "scores_seed0.csv").read_bytes())
        assert main(["eval", str(anon), "--out", str(tmp_path / "e")]) == 1
        assert "error:ConfigError" in capsys.readouterr().err

    def test_perfect_table_gives_unit_auc_row(self, tmp_path):
        rows = ["target_index,is_member,query_id,score,aggregated_score"]
        for i in range(10):
            member = i < 5
            score = 0.9 if member else 0.1
            rows.append(f"{i},{int(member)},0,{score},{score}")
        scores = tmp_path / "perfect_seed0.csv"
        scores.write_text("\n".join(rows) + "\n")
        out = tmp_path / "ev"
        assert main(["eval", str(scores), "--out", str(out)]) == 0
        per_seed, _ = read_report_csv(out / "report.csv")
        assert per_seed[0]["auc"] == 1.0
        assert per_seed[0]["tpr_at_fpr_0.01"] == 1.0

    def test_nan_scores_rejected_with_one_error_line(self, tmp_path, capsys):
        # ranked as if NaN were a score, this table used to give AUC 0.75 and exit 0
        scores = tmp_path / "nan_seed0.csv"
        scores.write_text(
            "target_index,is_member,query_id,score,aggregated_score\n"
            "0,1,0,0.9,0.9\n"
            "1,1,0,nan,nan\n"
            "2,0,0,0.1,0.1\n"
            "3,0,0,nan,nan\n"
        )
        out = tmp_path / "ev"
        assert main(["eval", str(scores), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:FormatError: ") and err.count("\n") == 1
        assert "line 3: score is NaN" in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("body", [
        pytest.param(b"\x80,1,0,0.5,0.5\n", id="not_utf8"),
        pytest.param(b"0,1,0," + b"9" * 200_000 + b",0.5\n", id="field_over_csv_limit"),
        pytest.param(b"0,1,0,0.5,0.5\n0,0,1,0.5,0.5\n1,0,0,0.1,0.1\n", id="is_member_differs"),
        pytest.param(b"0,1,0,0.5,0.5\n0,1,1,0.5,0.7\n1,0,0,0.1,0.1\n", id="aggregated_differs"),
        pytest.param(b"0,2,0,0.5,0.5\n1,0,0,0.1,0.1\n", id="is_member_two"),
        pytest.param(b"0,1,7,0.5,0.5\n0,1,0,0.5,0.5\n1,0,0,0.1,0.1\n", id="query_ids_out_of_order"),
    ])
    def test_unreadable_scores_are_one_format_error_line(self, tmp_path, capsys, body):
        scores = tmp_path / "bad_seed0.csv"
        scores.write_bytes(b"target_index,is_member,query_id,score,aggregated_score\n" + body)
        assert main(["eval", str(scores), "--out", str(tmp_path / "ev")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:FormatError: ") and err.count("\n") == 1

    def test_one_class_table_leaves_no_output(self, tmp_path, capsys):
        # the first table is fine: its ROC file used to be written before the second failed
        header = "target_index,is_member,query_id,score,aggregated_score\n"
        good, one_class = tmp_path / "a_seed0.csv", tmp_path / "a_seed1.csv"
        good.write_text(header + "0,1,0,0.9,0.9\n1,0,0,0.1,0.1\n")
        one_class.write_text(header + "0,1,0,0.9,0.9\n1,1,0,0.1,0.1\n")
        assert main(["eval", str(good), str(one_class), "--out", str(tmp_path / "ev")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error:FormatError: {one_class}: ") and err.count("\n") == 1
        assert not (tmp_path / "ev").exists()

    def test_infinite_scores_still_evaluate(self, tmp_path):
        scores = tmp_path / "inf_seed0.csv"
        scores.write_text(
            "target_index,is_member,query_id,score,aggregated_score\n"
            "0,1,0,inf,inf\n"
            "1,1,0,0.7,0.7\n"
            "2,0,0,0.2,0.2\n"
            "3,0,0,-inf,-inf\n"
        )
        assert main(["eval", str(scores), "--out", str(tmp_path / "ev")]) == 0
        per_seed, _ = read_report_csv(tmp_path / "ev" / "report.csv")
        assert per_seed[0]["auc"] == 1.0

    def test_identical_tables_aggregate_to_zero_std(self, trained, tmp_path):
        root, _, _ = trained
        src = (root / "att" / "scores_seed0.csv").read_bytes()
        names = []
        for s in range(3):
            p = tmp_path / f"copy_seed{s}.csv"
            p.write_bytes(src)
            names.append(str(p))
        out = tmp_path / "ev"
        assert main(["eval", *names, "--out", str(out)]) == 0
        _, aggregates = read_report_csv(out / "report.csv")
        assert aggregates["auc"]["std"] == pytest.approx(0.0, abs=1e-12)

    def test_compare_identical_reports_zero_delta(self, evaluated, tmp_path):
        _, ev = evaluated
        out = tmp_path / "cmp"
        rc = main(["compare", str(ev / "report.csv"), str(ev / "report.csv"),
                   str(ev / "report.csv"), "--out", str(out)])
        assert rc == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "metric,lira,canary,noise,canary_minus_lira,noise_minus_lira"
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[4]) == 0.0
            assert float(cells[5]) == 0.0

    def test_compare_delta_is_subtraction(self, tmp_path):
        from mialab.metrics import write_report_csv

        lira = tmp_path / "lira.csv"
        canary = tmp_path / "canary.csv"
        write_report_csv(lira, {0: {"auc": 0.55}})
        write_report_csv(canary, {0: {"auc": 0.62}})
        out = tmp_path / "cmp"
        assert main(["compare", str(lira), str(canary), "--out", str(out)]) == 0
        row = (out / "compare.csv").read_text().splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(0.07, abs=1e-12)
        assert row[3] == "" and row[5] == ""

    @pytest.mark.parametrize("lira,canary,error", [
        pytest.param({0: {"auc": 0.5}, 1: {"auc": 0.6}}, {0: {"auc": 0.5}}, "ConfigError",
                     id="seeds"),
        pytest.param({0: {"auc": 0.5, "tpr": 0.1}}, {0: {"auc": 0.5}}, "ConfigError",
                     id="metrics"),
        pytest.param({0: {"auc": 0.5}}, b"metric,seed,value\nauc,0,\x80\n", "FormatError",
                     id="not_utf8"),
        pytest.param(b"metric,seed,value\n", b"metric,seed,value\n", "ConfigError",
                     id="header_only"),
    ])
    def test_compare_mismatched_reports_error(self, tmp_path, capsys, lira, canary, error):
        from mialab.metrics import write_report_csv

        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, report in zip(paths, (lira, canary)):
            if isinstance(report, bytes):
                path.write_bytes(report)
            else:
                write_report_csv(path, report)
        assert main(["compare", *map(str, paths), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error:{error}: ") and err.count("\n") == 1
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_compare_refuses_non_finite_values(self, tmp_path, capsys, value):
        # a NaN or infinite report value used to pass through to compare.csv with exit 0
        from mialab.metrics import write_report_csv

        lira, canary = tmp_path / "lira.csv", tmp_path / "canary.csv"
        write_report_csv(lira, {0: {"auc": 0.7}, 1: {"auc": 0.7}})
        canary.write_text(f"metric,seed,value\nauc,0,0.6\nauc,1,{value}\n")
        assert main(["compare", str(lira), str(canary), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert err == f"error:FormatError: {canary}: line 3: value {value!r} is not a finite number\n"
        assert not (tmp_path / "c").exists()

    def test_compare_arity_checked(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("metric,seed,value\n")
        assert main(["compare", str(a), "--out", str(tmp_path / "c")]) == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()
