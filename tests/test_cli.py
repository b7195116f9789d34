"""End-to-end CLI: commands, manifests, reproducibility, error lines."""

import hashlib
import json

import numpy as np
import pytest

from mialab.cli import main
from mialab.attacks import ScoreTable
from mialab.metrics import read_report_csv


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
        for run in manifest["runs"]:
            assert run["target_param_reads"] == 0

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

    def test_compare_mismatched_seeds_error(self, tmp_path, capsys):
        from mialab.metrics import write_report_csv

        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_report_csv(a, {0: {"auc": 0.5}, 1: {"auc": 0.6}})
        write_report_csv(b, {0: {"auc": 0.5}})
        assert main(["compare", str(a), str(b), "--out", str(tmp_path / "c")]) == 1
        assert "error:ConfigError" in capsys.readouterr().err

    def test_compare_arity_checked(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("metric,seed,value\n")
        assert main(["compare", str(a), "--out", str(tmp_path / "c")]) == 1
        assert "ConfigError" in capsys.readouterr().err
