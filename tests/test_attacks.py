"""Attack scoring math, the canary optimizer contracts, and run_attack."""

import math

import numpy as np
import pytest

from mialab.attacks import (
    CanaryConfig,
    GaussianStats,
    ScoreTable,
    ensemble_scores,
    fit_gaussian,
    lira_offline_score,
    lira_online_log_ratio,
    lira_online_score,
    optimize_canary,
    random_noise_query,
    run_attack,
    scale_confidence,
)
from mialab import attacks
from mialab.data import synthetic_mixture
from mialab.errors import ConfigError, FingerprintMismatchError
from mialab.farm import build_farm, hold_out_target, in_out_partition
from mialab.nn import OBJECTIVE_KINDS, ArchDescriptor
from mialab.rng import substream
from mialab.training import TrainConfig

from oracles import reference_attack


@pytest.fixture(scope="module")
def toy_farm():
    ds = synthetic_mixture(128, 8, 4, seed=1, noise=0.08)
    arch = ArchDescriptor(8, (12,), 4)
    cfg = TrainConfig(epochs=40, batch_size=16, lr=0.03, seed=0)
    farm = build_farm(ds, 16, arch, cfg, master_seed=5)
    return ds, farm


class TestGaussianFit:
    def test_degenerate_variance_floors(self):
        stats = fit_gaussian([1.0, 1.0, 1.0])
        assert stats.mu == 1.0 and stats.sigma == 1e-4

    def test_population_convention(self):
        stats = fit_gaussian([0.0, 2.0])
        assert stats.mu == 1.0 and stats.sigma == 1.0

    def test_sampling_recovery(self):
        rng = np.random.default_rng(6)
        draws = rng.normal(3.0, 2.0, 100_000)
        stats = fit_gaussian(draws)
        assert abs(stats.mu - 3.0) < 0.05
        assert abs(stats.sigma - 2.0) < 0.05

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            fit_gaussian([])


class TestOnlineScore:
    def test_identical_hypotheses_give_one(self):
        stats = GaussianStats(0.3, 1.7)
        for conf in (-5.0, 0.0, 2.5):
            assert lira_online_score(conf, stats, stats) == 1.0

    def test_analytic_two_sided(self):
        score = lira_online_score(1.0, GaussianStats(1.0, 1.0), GaussianStats(-1.0, 1.0))
        assert score == pytest.approx(math.e**2, abs=1e-9)

    def test_monotone_in_confidence_when_means_ordered(self):
        in_stats, out_stats = GaussianStats(2.0, 1.5), GaussianStats(-1.0, 1.5)
        grid = np.linspace(-8, 8, 200)
        vals = [lira_online_score(c, in_stats, out_stats) for c in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_swap_gives_reciprocal_in_log_space(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = GaussianStats(rng.normal(), abs(rng.normal()) + 0.1)
            b = GaussianStats(rng.normal(), abs(rng.normal()) + 0.1)
            c = rng.normal()
            assert lira_online_log_ratio(c, a, b) == pytest.approx(
                -lira_online_log_ratio(c, b, a), abs=1e-9
            )

    def test_ranking_matches_log_ratio(self):
        rng = np.random.default_rng(8)
        in_stats, out_stats = GaussianStats(1.0, 0.8), GaussianStats(-0.5, 1.3)
        confs = rng.normal(0, 3, 50)
        scores = [lira_online_score(c, in_stats, out_stats) for c in confs]
        logr = [lira_online_log_ratio(c, in_stats, out_stats) for c in confs]
        assert list(np.argsort(scores)) == list(np.argsort(logr))

    def test_extreme_ratio_saturates(self):
        assert lira_online_score(0.0, GaussianStats(0.0, 1e-4), GaussianStats(100.0, 1e-4)) == math.inf


class TestOfflineScore:
    def test_median_is_half(self):
        assert lira_offline_score(0.5, GaussianStats(0.5, 2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_one_sigma(self):
        stats = GaussianStats(1.0, 2.0)
        assert lira_offline_score(3.0, stats) == pytest.approx(0.8413447460685429, abs=1e-9)

    def test_upper_limit(self):
        assert lira_offline_score(1e9, GaussianStats(0.0, 1.0)) == 1.0

    def test_nondecreasing(self):
        stats = GaussianStats(0.0, 1.0)
        grid = np.linspace(-10, 10, 400)
        vals = [lira_offline_score(c, stats) for c in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_density_variant_two_sided(self):
        stats = GaussianStats(0.0, 1.0)
        center = lira_offline_score(0.0, stats, density=True)
        far = lira_offline_score(6.0, stats, density=True)
        assert far > center


class TestEnsemble:
    def test_constant(self):
        assert ensemble_scores([0.25, 0.25, 0.25]) == 0.25

    def test_pair(self):
        assert ensemble_scores([0.0, 1.0]) == 0.5

    def test_permutation_invariant(self):
        a = ensemble_scores([0.1, 0.9, 0.5])
        b = ensemble_scores([0.5, 0.1, 0.9])
        assert a == b

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            ensemble_scores([])


class TestCanaryOptimizer:
    def test_epsilon_zero_returns_target_exactly(self, toy_farm):
        ds, farm = toy_farm
        x, y = ds.point(3)
        s_in, s_out = in_out_partition(farm, 3)
        cfg = CanaryConfig(epsilon=0.0, steps=7, shadow_batch=2, num_queries=1)
        out = optimize_canary(x, y, s_in, s_out, cfg, substream(9, 0))
        assert np.array_equal(out, x)

    def test_projection_contract(self, toy_farm):
        ds, farm = toy_farm
        rng = np.random.default_rng(10)
        for eps in (0.01, 0.1, 0.5):
            t = int(rng.integers(ds.n))
            x, y = ds.point(t)
            s_in, s_out = in_out_partition(farm, t)
            cfg = CanaryConfig(epsilon=eps, steps=15, shadow_batch=2, num_queries=1)
            out = optimize_canary(x, y, s_in, s_out, cfg, substream(11, t))
            # 1e-12 slack covers float addition after the projection
            assert np.max(np.abs(out - x)) <= eps + 1e-12
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic_per_stream(self, toy_farm):
        ds, farm = toy_farm
        x, y = ds.point(5)
        s_in, s_out = in_out_partition(farm, 5)
        cfg = CanaryConfig(epsilon=0.2, steps=10, shadow_batch=2, num_queries=1)
        a = optimize_canary(x, y, s_in, s_out, cfg, substream(12, 5))
        b = optimize_canary(x, y, s_in, s_out, cfg, substream(12, 5))
        assert np.array_equal(a, b)

    def test_batch_exceeding_models_errors(self, toy_farm):
        ds, farm = toy_farm
        x, y = ds.point(2)
        s_in, s_out = in_out_partition(farm, 2)
        cfg = CanaryConfig(epsilon=0.1, steps=3, shadow_batch=len(s_out) + 1, num_queries=1)
        with pytest.raises(ValueError, match="shadow batch"):
            optimize_canary(x, y, s_in, s_out, cfg, substream(13, 0))

    def test_offline_never_touches_in_models(self, toy_farm):
        ds, farm = toy_farm
        x, y = ds.point(7)
        s_in, s_out = in_out_partition(farm, 7)
        before = [r.access_count for r in s_in]
        cfg = CanaryConfig(epsilon=0.2, steps=10, shadow_batch=2, num_queries=1, mode="offline")
        optimize_canary(x, y, None, s_out, cfg, substream(14, 0))
        assert [r.access_count for r in s_in] == before

    def test_separates_held_out_models(self, toy_farm):
        # mean scaled-confidence gap between held-out IN and OUT models is
        # wider (in the optimized direction) at the canary than at the target
        ds, farm = toy_farm
        from mialab.attacks import scale_confidence_batch
        from mialab.farm import model_confidence_batch

        gaps_star, gaps_mal = [], []
        rng = np.random.default_rng(15)
        cfg = CanaryConfig(epsilon=0.25, steps=40, shadow_batch=2, lr=0.05, num_queries=1)
        picked = 0
        for t in rng.permutation(ds.n):
            s_in, s_out = in_out_partition(farm, int(t))
            if len(s_in) < 6 or len(s_out) < 6:
                continue
            picked += 1
            if picked > 8:
                break
            x, y = ds.point(int(t))
            held_in, train_in = s_in[:4], s_in[4:]
            held_out, train_out = s_out[:4], s_out[4:]
            xm = optimize_canary(x, y, train_in, train_out, cfg, substream(16, int(t)))

            def gap(point):
                phi_in = scale_confidence_batch(
                    np.stack([model_confidence_batch(m, point[None], y) for m in held_in])[:, 0])
                phi_out = scale_confidence_batch(
                    np.stack([model_confidence_batch(m, point[None], y) for m in held_out])[:, 0])
                return phi_in.mean() - phi_out.mean()

            gaps_star.append(gap(x))
            gaps_mal.append(gap(xm))
        # raw_logit pair drives IN down and OUT up: the optimized direction
        # makes the signed gap more negative on held-out models
        assert np.mean(gaps_mal) < np.mean(gaps_star)


class TestRandomNoise:
    def test_epsilon_zero_identity(self):
        x = np.array([0.1, 0.9, 0.5])
        out = random_noise_query(x, 0.0, substream(17, 0))
        assert np.array_equal(out, x)

    def test_ball_and_domain(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            x = rng.uniform(0, 1, 6)
            eps = rng.uniform(0, 0.5)
            out = random_noise_query(x, eps, substream(19, int(eps * 1e6)))
            assert np.max(np.abs(out - x)) <= eps
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic(self):
        x = np.array([0.4, 0.6])
        a = random_noise_query(x, 0.3, substream(20, 1))
        b = random_noise_query(x, 0.3, substream(20, 1))
        assert np.array_equal(a, b)


def _targets_for(farm, model_index, n_each, rng):
    truth = farm.splits[model_index]
    mem = np.sort(rng.choice(np.flatnonzero(truth), n_each, replace=False))
    non = np.sort(rng.choice(np.flatnonzero(~truth), n_each, replace=False))
    return [(int(i), True) for i in mem] + [(int(i), False) for i in non]


class TestRunAttack:
    def test_epsilon_zero_canary_reduces_to_lira(self, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 2, 10, np.random.default_rng(21))
        oracle, rest = hold_out_target(farm, 2)
        for mode in ("online", "offline"):
            cfg = CanaryConfig(epsilon=0.0, steps=40, shadow_batch=2, num_queries=3)
            lira = run_attack(ds, oracle, rest, targets, "lira", mode, cfg, seed=33)
            canary = run_attack(ds, oracle, rest, targets, "canary", mode, cfg, seed=33)
            assert lira.rows == canary.rows

    def test_lira_queries_are_identical_per_target(self, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 2, 5, np.random.default_rng(22))
        oracle, rest = hold_out_target(farm, 2)
        cfg = CanaryConfig(epsilon=0.1, num_queries=4)
        table = run_attack(ds, oracle, rest, targets, "lira", "online", cfg, seed=34)
        for row in table.rows:
            assert len(set(row.query_scores)) == 1
            assert row.aggregated == row.query_scores[0]

    def test_offline_isolation_counters(self, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 4, 10, np.random.default_rng(23))
        oracle, rest = hold_out_target(farm, 4)
        reads_before = oracle.hidden_param_reads
        cfg = CanaryConfig(epsilon=0.15, steps=10, shadow_batch=2, num_queries=2)
        table = run_attack(ds, oracle, rest, targets, "canary", "offline", cfg, seed=35)
        assert table.in_model_accesses == 0
        assert oracle.hidden_param_reads == reads_before

    def test_fingerprint_mismatch_refused(self, toy_farm):
        ds, farm = toy_farm
        other = synthetic_mixture(128, 8, 4, seed=2, noise=0.08)
        targets = _targets_for(farm, 1, 4, np.random.default_rng(24))
        oracle, rest = hold_out_target(farm, 1)
        cfg = CanaryConfig(epsilon=0.1, num_queries=1)
        with pytest.raises(FingerprintMismatchError):
            run_attack(other, oracle, rest, targets, "lira", "online", cfg, seed=36)

    def test_oracle_queried_once_per_query_point(self, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 3, 6, np.random.default_rng(25))
        oracle, rest = hold_out_target(farm, 3)
        cfg = CanaryConfig(epsilon=0.1, num_queries=5)
        run_attack(ds, oracle, rest, targets, "lira", "online", cfg, seed=37)
        assert oracle.query_count == len(targets) * 5

    def test_aggregate_is_mean_of_query_scores(self, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 0, 5, np.random.default_rng(26))
        oracle, rest = hold_out_target(farm, 0)
        cfg = CanaryConfig(epsilon=0.05, steps=5, shadow_batch=2, num_queries=3)
        table = run_attack(ds, oracle, rest, targets, "random_noise", "offline", cfg, seed=38)
        for row in table.rows:
            assert row.aggregated == pytest.approx(np.mean(row.query_scores), abs=1e-15)

    def test_deterministic_rerun(self, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 5, 8, np.random.default_rng(27))
        oracle, rest = hold_out_target(farm, 5)
        cfg = CanaryConfig(epsilon=0.2, steps=8, shadow_batch=2, num_queries=2)
        a = run_attack(ds, oracle, rest, targets, "canary", "offline", cfg, seed=39)
        b = run_attack(ds, oracle, rest, targets, "canary", "offline", cfg, seed=39)
        assert a.rows == b.rows


class TestScoreTableCsv:
    def test_round_trip(self, tmp_path, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 6, 5, np.random.default_rng(28))
        oracle, rest = hold_out_target(farm, 6)
        cfg = CanaryConfig(epsilon=0.1, num_queries=3)
        table = run_attack(ds, oracle, rest, targets, "lira", "offline", cfg, seed=40)
        path = tmp_path / "scores_seed0.csv"
        table.write_csv(path)
        loaded = ScoreTable.read_csv(path)
        assert loaded.rows == table.rows

    def test_round_trip_with_infinite_scores(self, tmp_path):
        from mialab.attacks import ScoreRow

        table = ScoreTable([ScoreRow(3, True, [float("inf"), 2.0], float("inf")),
                            ScoreRow(5, False, [0.25, 0.5], 0.375)])
        path = tmp_path / "scores_seed1.csv"
        table.write_csv(path)
        assert ScoreTable.read_csv(path).rows == table.rows

    def test_write_is_deterministic(self, tmp_path, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 6, 5, np.random.default_rng(29))
        oracle, rest = hold_out_target(farm, 6)
        cfg = CanaryConfig(epsilon=0.1, num_queries=2)
        table = run_attack(ds, oracle, rest, targets, "lira", "online", cfg, seed=41)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        table.write_csv(a)
        table.write_csv(b)
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def deep_tanh_farm():
    ds = synthetic_mixture(96, 6, 3, seed=4, noise=0.1)
    arch = ArchDescriptor(6, (10, 7), 3, "tanh")
    farm = build_farm(ds, 12, arch, TrainConfig(epochs=15, batch_size=16, lr=0.03), master_seed=8)
    return ds, farm


def _engine_and_reference(ds, farm, held, method, mode, cfg, seed, n_each=6):
    targets = _targets_for(farm, held, n_each, np.random.default_rng(held))
    oracle, rest = hold_out_target(farm, held)
    table = run_attack(ds, oracle, rest, targets, method, mode, cfg, seed=seed)
    ref = reference_attack(ds, farm.records[held], rest, targets, method, mode, cfg, seed)
    got = [(r.target_index, r.is_member, r.query_scores, r.aggregated) for r in table.rows]
    return repr(got), repr(ref), oracle, targets  # repr tells -0.0 from 0.0


class TestEngineMatchesReference:
    """The batched engine reproduces the per-target, single-row loop bit for bit."""

    @pytest.mark.parametrize("mode", ["online", "offline"])
    @pytest.mark.parametrize("method", ["lira", "canary", "random_noise"])
    def test_methods_and_modes(self, toy_farm, method, mode):
        ds, farm = toy_farm
        cfg = CanaryConfig(epsilon=0.15, steps=6, shadow_batch=2, lr=0.05, num_queries=3)
        got, ref, oracle, targets = _engine_and_reference(ds, farm, 2, method, mode, cfg, seed=51)
        assert got == ref
        assert oracle.query_count == len(targets) * 3

    @pytest.mark.parametrize("objective", OBJECTIVE_KINDS)
    def test_every_objective(self, toy_farm, deep_tanh_farm, objective):
        for (ds, farm), mode in ((toy_farm, "online"), (deep_tanh_farm, "offline")):
            cfg = CanaryConfig(epsilon=0.2, steps=5, shadow_batch=3, lr=0.08, num_queries=2,
                               objective=objective, init_noise_scale=0.07)
            got, ref, _, _ = _engine_and_reference(ds, farm, 1, "canary", mode, cfg, seed=52)
            assert got == ref

    def test_offline_density_variant(self, deep_tanh_farm):
        ds, farm = deep_tanh_farm
        cfg = CanaryConfig(epsilon=0.1, steps=3, num_queries=2, offline_density=True,
                           init="target")
        got, ref, _, _ = _engine_and_reference(ds, farm, 0, "canary", "offline", cfg, seed=53)
        assert got == ref


class TestBatchComposition:
    @pytest.mark.parametrize("method,mode", [("canary", "online"), ("canary", "offline"),
                                             ("random_noise", "online"), ("lira", "offline")])
    def test_permuted_subset_gives_same_rows(self, toy_farm, monkeypatch, method, mode):
        ds, farm = toy_farm
        targets = _targets_for(farm, 3, 8, np.random.default_rng(54))
        oracle, rest = hold_out_target(farm, 3)
        cfg = CanaryConfig(epsilon=0.1, steps=4, shadow_batch=2, num_queries=3,
                           objective="cw_margin_random_label")
        full = {r.target_index: r for r in
                run_attack(ds, oracle, rest, targets, method, mode, cfg, seed=55).rows}
        subset = [targets[i] for i in np.random.default_rng(56).permutation(len(targets))[:7]]
        # blocks of 2 targets: 3 queries x widest layer 12 x 2 = 72 elements
        monkeypatch.setattr(attacks, "BLOCK_ELEMENTS", 72)
        part = run_attack(ds, oracle, rest, subset, method, mode, cfg, seed=55)
        assert [r.target_index for r in part.rows] == [t for t, _ in subset]
        assert all(repr(r) == repr(full[r.target_index]) for r in part.rows)


class TestEligibility:
    def test_small_farm_fails_before_any_query(self):
        ds = synthetic_mixture(40, 4, 2, seed=9, noise=0.1)
        farm = build_farm(ds, 3, ArchDescriptor(4, (5,), 2),
                          TrainConfig(epochs=2, batch_size=8), master_seed=3)
        oracle, rest = hold_out_target(farm, 0)
        targets = [(t, bool(farm.splits[0, t])) for t in range(ds.n)]
        cases = [("lira", "online", 1), ("lira", "offline", 1), ("canary", "offline", 2)]
        for method, mode, batch in cases:
            cfg = CanaryConfig(epsilon=0.1, steps=2, shadow_batch=batch, num_queries=2)
            with pytest.raises(ConfigError, match="shadow models"):
                run_attack(ds, oracle, rest, targets, method, mode, cfg, seed=1)
        assert oracle.query_count == 0
        assert all(r.access_count == 0 for r in rest.records)

    def test_out_of_range_target(self, toy_farm):
        ds, farm = toy_farm
        oracle, rest = hold_out_target(farm, 0)
        cfg = CanaryConfig(epsilon=0.1, num_queries=1)
        with pytest.raises(IndexError, match="out of range"):
            run_attack(ds, oracle, rest, [(ds.n, True)], "lira", "online", cfg, seed=1)
