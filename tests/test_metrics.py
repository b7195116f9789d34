"""ROC evaluation against the brute-force pairwise oracle, and the CSV codec."""

import hashlib
import math

import numpy as np
import pytest

from mialab.errors import FormatError
from mialab.metrics import (
    REPORT_HEADER,
    aggregate_runs,
    auc,
    read_csv_rows,
    read_report_csv,
    roc_curve,
    summarize,
    tpr_at_fpr,
    write_report_csv,
    write_roc_csv,
)

from oracles import csv_writer_bytes, pairwise_auc

# values whose repr a hand-written line could get wrong: infinity, an exponent,
# the smallest subnormal, a negative zero and a float with 17 significant digits
EDGE_VALUES = [math.inf, 1e-05, 5e-324, -0.0, 0.1 + 0.2]


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRocCurve:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([True, True, False, False])
        fpr, tpr = roc_curve(scores, labels)
        assert auc(fpr, tpr) == 1.0
        # the curve passes through (0, 1)
        assert any(f == 0.0 and t == 1.0 for f, t in zip(fpr, tpr))

    def test_label_inversion_flips_auc(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=60)
        labels = rng.random(60) < 0.5
        labels[0] = True
        labels[1] = False
        a = summarize(scores, labels).auc
        b = summarize(scores, ~labels).auc
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            scores = rng.integers(0, 5, n).astype(float)  # heavy ties
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            fpr, tpr = roc_curve(scores, labels)
            assert fpr[0] == 0.0 and tpr[0] == 0.0
            assert fpr[-1] == 1.0 and tpr[-1] == 1.0
            assert np.all(np.diff(fpr) >= 0)
            assert np.all(np.diff(tpr) >= 0)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            roc_curve(np.array([0.1, 0.2]), np.array([True, True]))

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            labels = rng.random(n) < rng.uniform(0.2, 0.8)
            if labels.all() or not labels.any():
                continue
            # integer grid forces plenty of exact ties
            scores = rng.integers(-3, 4, n).astype(float)
            assert summarize(scores, labels).auc == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    def test_infinite_scores_handled(self):
        scores = np.array([np.inf, 1.0, -np.inf, 0.0])
        labels = np.array([True, True, False, False])
        assert summarize(scores, labels).auc == 1.0

    def test_nan_scores_refused(self):
        scores = np.array([0.9, np.nan, 0.1, np.nan])
        labels = np.array([True, True, False, False])
        with pytest.raises(FormatError, match="2 NaN scores"):
            roc_curve(scores, labels)


class TestAucInvariance:
    def test_monotone_transforms_preserve_auc(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            scores = rng.normal(size=n)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            base = summarize(scores, labels).auc
            assert summarize(np.exp(scores), labels).auc == pytest.approx(base, abs=1e-12)
            assert summarize(3.0 * scores + 7.0, labels).auc == pytest.approx(base, abs=1e-12)


class TestTprAtFpr:
    def test_perfect_is_one_everywhere(self):
        fpr, tpr = roc_curve(np.array([3.0, 2.0, 1.0]), np.array([True, True, False]))
        for target in (0.001, 0.01, 0.5, 1.0):
            assert tpr_at_fpr(fpr, tpr, target) == 1.0

    def test_threshold_enumeration_with_100_negatives(self):
        # scores equal to labels: one threshold admits every positive at fpr 0
        labels = np.array([True] * 100 + [False] * 100)
        scores = labels.astype(float)
        fpr, tpr = roc_curve(scores, labels)
        assert tpr_at_fpr(fpr, tpr, 0.01) == 1.0
        # degrade: make positives overlap negatives except a clean top slice
        rng = np.random.default_rng(4)
        scores = np.where(labels, rng.uniform(0.4, 1.0, 200), rng.uniform(0.0, 0.6, 200))
        fpr, tpr = roc_curve(scores, labels)
        got = tpr_at_fpr(fpr, tpr, 0.01)
        # oracle: best TPR over thresholds admitting at most one false positive
        neg_sorted = np.sort(scores[~labels])[::-1]
        best = 0.0
        for thr in np.unique(scores)[::-1]:
            fp = int((scores[~labels] >= thr).sum())
            if fp <= 1:
                best = max(best, (scores[labels] >= thr).mean())
        assert got == pytest.approx(best, abs=1e-12)

    def test_few_negatives_floor_effect(self):
        # 10 negatives: any false positive exceeds 1% fpr
        labels = np.array([True] * 10 + [False] * 10)
        scores = np.concatenate([np.linspace(0.5, 1.0, 10), np.linspace(0.0, 0.9, 10)])
        fpr, tpr = roc_curve(scores, labels)
        at_zero = max(t for f, t in zip(fpr, tpr) if f == 0.0)
        assert tpr_at_fpr(fpr, tpr, 0.01) == at_zero

    def test_full_budget_is_one(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=30)
        labels = rng.random(30) < 0.5
        labels[:2] = [True, False]
        fpr, tpr = roc_curve(scores, labels)
        assert tpr_at_fpr(fpr, tpr, 1.0) == 1.0


class TestAggregate:
    def test_identical_values(self):
        mean, std = aggregate_runs([0.7, 0.7, 0.7])
        assert mean == pytest.approx(0.7, abs=1e-12)
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_mean_of_pair(self):
        mean, std = aggregate_runs([0.0, 1.0])
        assert mean == 0.5 and std == 0.5

    def test_order_invariance(self):
        a = aggregate_runs([0.1, 0.5, 0.9])
        b = aggregate_runs([0.9, 0.1, 0.5])
        assert a[0] == b[0] and a[1] == b[1]


class TestReportIo:
    def test_round_trip(self, tmp_path):
        per_seed = {0: {"auc": 0.75, "tpr_at_fpr_0.01": 0.10},
                    1: {"auc": 0.80, "tpr_at_fpr_0.01": 0.20}}
        path = tmp_path / "report.csv"
        write_report_csv(path, per_seed)
        loaded, aggregates = read_report_csv(path)
        assert loaded == per_seed
        assert aggregates["auc"]["mean"] == pytest.approx(0.775)
        assert aggregates["auc"]["std"] == pytest.approx(0.025)

    @pytest.mark.parametrize("body,line,row", [
        pytest.param("auc,0,0.5\nauc,0,0.9\nauc,mean,0.5\n", 3, "(auc, 0)", id="seed"),
        pytest.param("auc,1,0.5\nauc,01,0.5\n", 3, "(auc, 01)", id="same_seed_number"),
        pytest.param("auc,0,0.5\nauc,mean,0.5\nauc,std,0.0\nauc,mean,0.9\n", 5, "(auc, mean)",
                     id="aggregate"),
    ])
    def test_repeated_row_is_refused(self, tmp_path, body, line, row):
        # the later row used to overwrite the earlier one
        path = tmp_path / "report.csv"
        path.write_text("metric,seed,value\n" + body)
        with pytest.raises(FormatError) as err:
            read_report_csv(path)
        assert str(err.value) == f"{path}: line {line}: repeats an earlier {row} row"

    def test_roc_csv(self, tmp_path):
        path = tmp_path / "roc.csv"
        write_roc_csv(path, [0.0, 0.5, 1.0], [0.0, 0.9, 1.0])
        lines = path.read_text().splitlines()
        assert lines[0] == "fpr,tpr"
        assert len(lines) == 4

    def test_roc_bytes_are_the_csv_writers(self, tmp_path):
        fpr = np.array([0.0, *EDGE_VALUES, 1.0])
        tpr = [np.float64(0.5), *EDGE_VALUES[::-1], 1.0]  # numpy scalars are written as floats
        path = tmp_path / "roc.csv"
        digest = write_roc_csv(path, fpr, tpr)
        expected = [["fpr", "tpr"]] + [[repr(float(f)), repr(float(t))] for f, t in zip(fpr, tpr)]
        assert path.read_bytes() == csv_writer_bytes(expected)
        assert digest == sha(path)

    def test_report_bytes_are_the_csv_writers(self, tmp_path):
        values = {"auc": EDGE_VALUES[:3], "tpr_at_fpr_0.01": EDGE_VALUES[2:]}
        per_seed = {seed: {m: v[i] for m, v in values.items()} for i, seed in enumerate([4, 0, 2])}
        path = tmp_path / "report.csv"
        with np.errstate(invalid="ignore"):  # the std of a column holding inf is nan
            digest = write_report_csv(path, per_seed)
            aggregates = {m: aggregate_runs([per_seed[s][m] for s in (0, 2, 4)]) for m in values}
        expected = [REPORT_HEADER]
        expected += [[m, s, repr(per_seed[s][m])] for m in sorted(values) for s in (0, 2, 4)]
        for m in sorted(values):
            expected += [[m, "mean", repr(aggregates[m][0])], [m, "std", repr(aggregates[m][1])]]
        assert path.read_bytes() == csv_writer_bytes(expected)
        assert digest == sha(path)

    def test_summarize_bundles_fields(self):
        scores = np.array([0.9, 0.8, 0.1, 0.05])
        labels = np.array([True, True, False, False])
        s = summarize(scores, labels, (0.01, 0.1))
        assert s.auc == 1.0
        assert s.tpr_at[0.01] == 1.0 and s.tpr_at[0.1] == 1.0


class TestCsvReader:
    HEADER = ["a", "b"]

    def rows(self, tmp_path, content, header=HEADER):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        return list(read_csv_rows(path, header, "table"))

    def test_blank_lines_are_skipped_and_lines_keep_their_numbers(self, tmp_path):
        content = b"\r\na,b\r\n1,2\n\n\r\n3,4\n\n"
        assert self.rows(tmp_path, content) == [(3, ["1", "2"]), (6, ["3", "4"])]

    def test_header_none_takes_the_files_header_stripped(self, tmp_path):
        assert self.rows(tmp_path, b" a , b\n1,2\n", header=None) == [(1, ["a", "b"]), (2, ["1", "2"])]

    @pytest.mark.parametrize("header", [HEADER, None])
    def test_empty_file_has_no_header(self, tmp_path, header):
        with pytest.raises(FormatError, match=r"unexpected table header \[\]"):
            self.rows(tmp_path, b"\n\n", header)
