"""Attack scoring math, the canary optimizer contracts, and run_attack."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mialab.attacks import (
    SIGMA_FLOOR,
    CanaryConfig,
    GaussianStats,
    ScoreTable,
    ensemble_scores,
    fit_gaussians,
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
from mialab.errors import ConfigError, FingerprintMismatchError, FormatError
from mialab.farm import build_farm, hold_out_target, in_out_partition, save_farm
from mialab.nn import OBJECTIVE_KINDS, ArchDescriptor
from mialab.rng import substream, substreams
from mialab.training import TrainConfig

from oracles import (
    _ref_log_pdf,
    _ref_phi,
    ref_offline_score,
    ref_online_score,
    csv_writer_bytes,
    reference_attack,
    score_table,
    tables_equal,
)


HEADER = "target_index,is_member,query_id,score,aggregated_score\n"


def score_csv_bytes(table) -> bytes:
    """A score table's CSV as csv.writer writes it: one row per (target, query),
    each score and aggregate its repr."""
    return csv_writer_bytes(
        [["target_index", "is_member", "query_id", "score", "aggregated_score"]]
        + [[int(t), int(m), q, repr(float(s)), repr(float(agg))]
           for t, m, row, agg in zip(table.index, table.member, table.scores, table.aggregated)
           for q, s in enumerate(row)])


@pytest.fixture(scope="module")
def toy_farm():
    ds = synthetic_mixture(128, 8, 4, seed=1, noise=0.08)
    arch = ArchDescriptor(8, (12,), 4)
    cfg = TrainConfig(epochs=40, batch_size=16, lr=0.03)
    farm = build_farm(ds, 16, arch, cfg, master_seed=5)
    return ds, farm


def one_row_canary(x, y, s_in, s_out, cfg, rng):
    """optimize_canary on the one-row block of x: its OUT models first, then
    its IN ones, online exactly when s_in is given."""
    records = list(s_out) + list(s_in or [])
    member = np.arange(len(records))[None, :] >= len(s_out)
    canaries, _ = optimize_canary(x[None], np.array([y]), member, records, cfg,
                                  s_in is not None, [rng], None)
    return canaries[0]


class TestGaussianFit:
    def test_degenerate_variance_floors(self):
        (mu,), (sigma,) = fit_gaussians([[1.0, 1.0, 1.0]])
        assert mu == 1.0 and sigma == 1e-4

    def test_population_convention(self):
        (mu,), (sigma,) = fit_gaussians([[0.0, 2.0]])
        assert mu == 1.0 and sigma == 1.0

    def test_sampling_recovery(self):
        rng = np.random.default_rng(6)
        draws = rng.normal(3.0, 2.0, 100_000)
        (mu,), (sigma,) = fit_gaussians(draws[None, :])
        assert abs(mu - 3.0) < 0.05
        assert abs(sigma - 2.0) < 0.05

    @pytest.mark.parametrize("n_queries", [1, 10])
    def test_grouped_fits_match_per_target_fits(self, n_queries):
        rng = np.random.default_rng(8)
        n_models, k = 23, 40
        phi = rng.normal(0.0, 3.0, size=(n_models, k, n_queries))
        member = rng.random((k, n_models)) < rng.uniform(0.1, 0.9, size=(k, 1))
        member[:, 0], member[:, 1] = True, False  # every target has both sides
        assert len(np.unique(member.sum(axis=1))) > 3  # mixed counts on both sides
        for side in (member, ~member):
            fits = attacks._grouped_fits(phi, side)
            assert fits.mu.shape == fits.sigma.shape == (k, n_queries)
            for t in range(k):
                ref_mu, ref_sigma = fit_gaussians(phi[side[t], t].T)
                assert (fits.mu[t].tolist(), fits.sigma[t].tolist()) == (ref_mu.tolist(),
                                                                         ref_sigma.tolist())

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            fit_gaussians(np.zeros((1, 0)))


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


# sigmas whose log np.log and math.log round apart in the last bit: the log pdf
# takes np.log's, as the reference does
_LOG_ROUNDS_APART = [0.7372569546021128, 0.8476811963434164, 2.344837549636431,
                     6.026449400250284, 0.9862786443356566, 2.238406528390617]
# confidences whose f / (1 - f) the two logs round apart: the target's answers
# and the shadows' confidences are scaled by the one np.log alike
_PHI_ROUNDS_APART = [0.48826044533597246, 0.47524947280546326, 0.5019269762292697,
                     0.5041845493050985, 0.2724943917517305, 0.49253432141119324]


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


class TestElementwiseScores:
    """One call on arrays of fits scores every element as the one-query
    reference formulas score it alone, bit for bit."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(41)
        shape = (40, 25)
        conf = rng.normal(0.0, 12.0, shape)
        mu_in, mu_out = rng.normal(0.0, 4.0, (2, *shape))
        sd_in, sd_out = np.abs(rng.normal(0.0, 3.0, (2, *shape))) + SIGMA_FLOOR
        sd_in[::4], sd_out[1::4] = SIGMA_FLOOR, SIGMA_FLOOR
        sd_in[3, :6] = sd_out[3, :6] = _LOG_ROUNDS_APART
        z = np.linspace(-38.0, -37.0, shape[1])  # offline left tail, still resolvable
        conf[2] = mu_out[2] + z * sd_out[2]
        return conf, GaussianStats(mu_in, sd_in), GaussianStats(mu_out, sd_out)

    def test_online_score_and_log_ratio(self, grid):
        conf, in_stats, out_stats = grid
        scores = lira_online_score(conf, in_stats, out_stats)
        ref = [ref_online_score(*args) for args in zip(conf.ravel().tolist(),
               in_stats.mu.ravel().tolist(), in_stats.sigma.ravel().tolist(),
               out_stats.mu.ravel().tolist(), out_stats.sigma.ravel().tolist())]
        assert scores.shape == conf.shape and _bits(scores) == _bits(ref)
        assert np.isinf(scores).any() and (scores == 0.0).any()  # both saturation ends
        assert ((scores > 0.0) & np.isfinite(scores)).any()
        log_ratio = lira_online_log_ratio(conf, in_stats, out_stats)
        ref_log_ratio = [_ref_log_pdf(c, mi, si) - _ref_log_pdf(c, mo, so)
                         for c, mi, si, mo, so in zip(conf.ravel(), in_stats.mu.ravel(),
                                                      in_stats.sigma.ravel(), out_stats.mu.ravel(),
                                                      out_stats.sigma.ravel())]
        assert _bits(log_ratio) == _bits(ref_log_ratio)

    def test_saturation_thresholds(self):
        # np.exp's own edges: finite up to log(DBL_MAX) ~ 709.7827, inf above;
        # the smallest subnormal down to log(2^-1075) ~ -745.1332, 0 below.
        # conf 0 against N(0, 1) and N(mu, 1) has log ratio +-mu^2 / 2.
        target = np.array([709.78, 709.79, -745.13, -745.14])
        mu = np.sqrt(2.0 * np.abs(target))
        upper = target > 0
        in_stats = GaussianStats(np.where(upper, 0.0, mu), 1.0)
        out_stats = GaussianStats(np.where(upper, mu, 0.0), 1.0)
        log_ratio = lira_online_log_ratio(0.0, in_stats, out_stats)
        assert np.abs(log_ratio - target).max() < 1e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the overflow stays silenced
            scores = lira_online_score(0.0, in_stats, out_stats)
            ref = [ref_online_score(0.0, mi, 1.0, mo, 1.0)
                   for mi, mo in zip(in_stats.mu.tolist(), out_stats.mu.tolist())]
        assert _bits(scores) == _bits(ref)
        assert 1.7e308 < scores[0] < math.inf and scores[1] == math.inf
        assert scores[2] == 5e-324 and scores[3] == 0.0

    def test_offline_score(self, grid):
        conf, _, out_stats = grid
        scores = lira_offline_score(conf, out_stats)
        ref = [ref_offline_score(c, m, s) for c, m, s in
               zip(conf.ravel().tolist(), out_stats.mu.ravel().tolist(),
                   out_stats.sigma.ravel().tolist())]
        assert scores.shape == conf.shape and _bits(scores) == _bits(ref)
        assert (0.0 < scores[2]).all() and (scores[2] < 1e-299).all()  # z near -38

    def test_fits_broadcast_over_queries(self, grid):
        # a (k, 1) fit serves all of a LiRA target's queries
        conf, in_stats, out_stats = grid
        column = GaussianStats(out_stats.mu[:, :1], out_stats.sigma[:, :1])
        spread = GaussianStats(np.repeat(column.mu, conf.shape[1], axis=1),
                               np.repeat(column.sigma, conf.shape[1], axis=1))
        assert _bits(lira_offline_score(conf, column)) == _bits(lira_offline_score(conf, spread))

    def test_scalar_call_is_the_one_element_case(self, grid):
        conf, in_stats, out_stats = grid
        online = lira_online_score(conf, in_stats, out_stats)
        offline = lira_offline_score(conf, out_stats)
        for i in [(0, 0), (1, 3), (2, 7), (5, 11)]:
            one_in = GaussianStats(float(in_stats.mu[i]), float(in_stats.sigma[i]))
            one_out = GaussianStats(float(out_stats.mu[i]), float(out_stats.sigma[i]))
            score = lira_online_score(float(conf[i]), one_in, one_out)
            assert _bits(score) == _bits(online[i])
            score = lira_offline_score(float(conf[i]), one_out)
            assert _bits(score) == _bits(offline[i])

    def test_scale_confidence_matches_reference(self):
        rng = np.random.default_rng(42)
        f = np.concatenate([rng.random(2994), _PHI_ROUNDS_APART,
                            [0.0, 1e-9, 1e-6, 0.5, 1.0 - 1e-6, 1.0]])
        phi = scale_confidence(f.reshape(3, -1))
        assert phi.shape == (3, 1002)
        assert _bits(phi) == _bits([_ref_phi(v, 1e-6) for v in f.tolist()])
        assert _bits(scale_confidence(0.25)) == _bits(_ref_phi(0.25, 1e-6))

    def test_target_and_shadows_are_scaled_alike(self, monkeypatch):
        # a LiRA-offline block whose one OUT shadow answers exactly what the
        # oracle answers: its fit is (phi, SIGMA_FLOOR), so a target scaled as the
        # shadows are sits on the fit's mean, z = 0, and scores exactly 0.5
        f = np.array(_PHI_ROUNDS_APART)[:, None]  # (targets, 1): LiRA's one query
        y = np.arange(len(f))  # each target's label picks its confidence row
        oracle = SimpleNamespace(confidences=lambda queries, labels: f[labels])
        monkeypatch.setattr(attacks, "model_confidence_batch", lambda rec, X, labels: f[labels])
        queries = np.zeros((len(f), 1, 1))
        member = np.zeros((len(f), 1), dtype=bool)
        scores, in_evaluations = attacks._score_block(queries, queries, y, member, [None], oracle,
                                                      online=False)
        assert scores.tolist() == [[0.5]] * len(f) and in_evaluations == 0

    def test_sigma_checked_for_every_fit(self):
        with pytest.raises(ValueError, match="sigma"):
            GaussianStats(np.zeros(3), np.array([1.0, 0.0, 1.0]))


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
        out = one_row_canary(x, y, s_in, s_out, cfg, substream(9, 0))
        assert np.array_equal(out, x)

    def test_projection_contract(self, toy_farm):
        ds, farm = toy_farm
        rng = np.random.default_rng(10)
        for eps in (0.01, 0.1, 0.5):
            t = int(rng.integers(ds.n))
            x, y = ds.point(t)
            s_in, s_out = in_out_partition(farm, t)
            cfg = CanaryConfig(epsilon=eps, steps=15, shadow_batch=2, num_queries=1)
            out = one_row_canary(x, y, s_in, s_out, cfg, substream(11, t))
            # 1e-12 slack covers float addition after the projection
            assert np.max(np.abs(out - x)) <= eps + 1e-12
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic_per_stream(self, toy_farm):
        ds, farm = toy_farm
        x, y = ds.point(5)
        s_in, s_out = in_out_partition(farm, 5)
        cfg = CanaryConfig(epsilon=0.2, steps=10, shadow_batch=2, num_queries=1)
        a = one_row_canary(x, y, s_in, s_out, cfg, substream(12, 5))
        b = one_row_canary(x, y, s_in, s_out, cfg, substream(12, 5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("side", ["OUT", "IN"])
    def test_batch_exceeding_models_errors(self, toy_farm, side):
        # a short side is refused, not filled from the other side
        ds, farm = toy_farm
        x, y = ds.point(2)
        s_in, s_out = in_out_partition(farm, 2)
        if side == "OUT":
            s_out = s_out[:1]
        else:
            s_in = s_in[:1]
        cfg = CanaryConfig(epsilon=0.1, steps=3, shadow_batch=2, num_queries=1)
        with pytest.raises(ConfigError, match=f"target 0 has 1 {side} shadow models, "
                                              "the attack needs 2"):
            one_row_canary(x, y, s_in, s_out, cfg, substream(13, 0))

    @pytest.mark.parametrize("key,value,problem", [
        pytest.param("lr", -0.05, "lr must be finite and positive", id="lr-negative"),
        pytest.param("lr", 0.0, "lr must be finite and positive", id="lr-zero"),
        pytest.param("lr", math.inf, "lr must be finite and positive", id="lr-inf"),
        pytest.param("lr", math.nan, "lr must be finite and positive", id="lr-nan"),
        pytest.param("epsilon", math.nan, "epsilon must be finite", id="epsilon-nan"),
        pytest.param("epsilon", -0.1, "epsilon must be non-negative", id="epsilon-negative"),
        pytest.param("init_noise_scale", math.inf, "init_noise_scale must be finite",
                     id="init_noise_scale-inf"),
        # zero steps is valid: the canary stays at its projected start
        pytest.param("steps", -1, "^steps must be non-negative, got -1$", id="steps-negative"),
        pytest.param("shadow_batch", 0, "^shadow_batch and num_queries must be positive$",
                     id="shadow_batch-zero"),
        pytest.param("num_queries", 0, "^shadow_batch and num_queries must be positive$",
                     id="num_queries-zero"),
    ])
    def test_config_refuses_bad_scales(self, key, value, problem):
        # a non-positive lr would climb the canary's own loss
        with pytest.raises(ValueError, match=problem):
            CanaryConfig(**{"epsilon": 0.1, key: value})

    @pytest.mark.parametrize("online", [True, False], ids=["online", "offline"])
    def test_block_rows_are_the_rows_alone(self, toy_farm, online):
        # a row's picks come from its own stream only, so its canary is the
        # one it gets in a block of its own
        ds, farm = toy_farm
        targets = [1, 4, 6, 9, 13]
        x = np.stack([ds.point(t)[0] for t in targets])
        y = np.array([ds.point(t)[1] for t in targets])
        member = farm.splits[:, targets].T
        cfg = CanaryConfig(epsilon=0.2, steps=6, shadow_batch=2, num_queries=1)
        keys = [(24, t) for t in targets]
        block, in_block = optimize_canary(x, y, member, farm.records, cfg, online,
                                          substreams(keys), None)
        in_alone = 0
        for r, key in enumerate(keys):
            alone, count = optimize_canary(x[r:r + 1], y[r:r + 1], member[r:r + 1],
                                           farm.records, cfg, online, [substream(*key)], None)
            assert np.array_equal(block[r], alone[0])
            in_alone += count
        assert in_block == in_alone == (len(targets) * cfg.steps * 2 if online else 0)

    def test_offline_never_touches_in_models(self, toy_farm):
        ds, farm = toy_farm
        x, y = ds.point(7)
        s_in, s_out = in_out_partition(farm, 7)
        before = [r.access_count for r in s_in]
        cfg = CanaryConfig(epsilon=0.2, steps=10, shadow_batch=2, num_queries=1)
        one_row_canary(x, y, None, s_out, cfg, substream(14, 0))  # no IN models: offline
        assert [r.access_count for r in s_in] == before

    def test_separates_held_out_models(self, toy_farm):
        # mean scaled-confidence gap between held-out IN and OUT models is
        # wider (in the optimized direction) at the canary than at the target
        ds, farm = toy_farm
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
            xm = one_row_canary(x, y, train_in, train_out, cfg, substream(16, int(t)))

            def gap(point):
                phi_in = scale_confidence(
                    np.stack([model_confidence_batch(m, point[None], y) for m in held_in])[:, 0])
                phi_out = scale_confidence(
                    np.stack([model_confidence_batch(m, point[None], y) for m in held_out])[:, 0])
                return phi_in.mean() - phi_out.mean()

            gaps_star.append(gap(x))
            gaps_mal.append(gap(xm))
        # raw_logit pair drives IN down and OUT up: the optimized direction
        # makes the signed gap more negative on held-out models
        assert np.mean(gaps_mal) < np.mean(gaps_star)


class TestRandomNoise:
    def test_epsilon_zero_identity(self):
        x = np.array([[0.1, 0.9, 0.5]])
        out = random_noise_query(x, 0.0, [substream(17, 0)])
        assert np.array_equal(out, x)

    def test_ball_and_domain(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            x = rng.uniform(0, 1, (3, 6))
            eps = rng.uniform(0, 0.5)
            out = random_noise_query(x, eps, substreams([(19, int(eps * 1e6), r) for r in range(3)]))
            assert np.max(np.abs(out - x)) <= eps
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic(self):
        x = np.array([[0.4, 0.6]])
        a = random_noise_query(x, 0.3, [substream(20, 1)])
        b = random_noise_query(x, 0.3, [substream(20, 1)])
        assert np.array_equal(a, b)

    def test_block_rows_are_the_rows_alone(self):
        x = np.random.default_rng(21).uniform(0, 1, (5, 4))
        keys = [(22, r) for r in range(5)]
        block = random_noise_query(x, 0.2, substreams(keys))
        for r, key in enumerate(keys):
            assert np.array_equal(block[r], random_noise_query(x[r:r + 1], 0.2, [substream(*key)])[0])

    def test_one_rng_per_row(self):
        with pytest.raises(ValueError, match="one rng per row"):
            random_noise_query(np.zeros((2, 3)), 0.1, [substream(23)])


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
            assert tables_equal(lira, canary)

    def test_lira_queries_are_identical_per_target(self, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 2, 5, np.random.default_rng(22))
        oracle, rest = hold_out_target(farm, 2)
        cfg = CanaryConfig(epsilon=0.1, num_queries=4)
        table = run_attack(ds, oracle, rest, targets, "lira", "online", cfg, seed=34)
        bits = table.scores.view(np.uint64)
        assert (bits == bits[:, :1]).all()
        assert np.array_equal(table.aggregated.view(np.uint64), bits[:, 0])

    def test_offline_isolation_counters(self, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 4, 10, np.random.default_rng(23))
        oracle, rest = hold_out_target(farm, 4)
        reads_before = oracle.hidden_param_reads
        cfg = CanaryConfig(epsilon=0.15, steps=10, shadow_batch=2, num_queries=2)
        table = run_attack(ds, oracle, rest, targets, "canary", "offline", cfg, seed=35)
        assert table.in_model_accesses == 0
        assert oracle.hidden_param_reads == reads_before

    def test_offline_never_reads_a_model_in_for_every_target(self, toy_farm):
        ds, farm = toy_farm
        oracle, rest = hold_out_target(farm, 4)
        always_in = 0
        points = np.flatnonzero(rest.splits[always_in])
        targets = [(int(t), bool(farm.splits[4, t])) for t in points]
        cfg = CanaryConfig(epsilon=0.15, steps=6, shadow_batch=2, num_queries=2)
        table = run_attack(ds, oracle, rest, targets, "canary", "offline", cfg, seed=35)
        assert len(table.index) == len(targets) > 30
        assert rest.records[always_in].access_count == 0
        assert all(r.access_count > 0 for r in rest.records[1:])

    def test_fingerprint_mismatch_refused(self, toy_farm):
        ds, farm = toy_farm
        other = synthetic_mixture(128, 8, 4, seed=2, noise=0.08)
        targets = _targets_for(farm, 1, 4, np.random.default_rng(24))
        oracle, rest = hold_out_target(farm, 1)
        cfg = CanaryConfig(epsilon=0.1, num_queries=1)
        with pytest.raises(FingerprintMismatchError):
            run_attack(other, oracle, rest, targets, "lira", "online", cfg, seed=36)

    def test_farm_that_does_not_fit_is_refused_before_any_query(self, toy_farm, forge):
        ds, farm = toy_farm
        oracle, rest = hold_out_target(forge(farm), 1)
        assert rest.fingerprint == oracle.fingerprint == ds.fingerprint()
        targets = _targets_for(farm, 1, 4, np.random.default_rng(24))
        cfg = CanaryConfig(epsilon=0.1, num_queries=1)
        with pytest.raises(FingerprintMismatchError, match="does not fit dataset"):
            run_attack(ds, oracle, rest, targets, "lira", "online", cfg, seed=36)
        assert oracle.query_count == 0

    def test_oracle_from_another_farm_is_refused_before_any_query(self, toy_farm):
        # the shadows fit the dataset; only the oracle carries another fingerprint
        ds, farm = toy_farm
        oracle, _ = hold_out_target(dataclasses.replace(farm, fingerprint=farm.fingerprint ^ 1), 1)
        _, rest = hold_out_target(farm, 1)
        targets = _targets_for(farm, 1, 4, np.random.default_rng(24))
        cfg = CanaryConfig(epsilon=0.1, num_queries=1)
        with pytest.raises(FingerprintMismatchError, match="oracle fingerprint"):
            run_attack(ds, oracle, rest, targets, "lira", "online", cfg, seed=36)
        assert oracle.query_count == 0

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
        assert table.scores.shape == (len(targets), 3)
        assert np.array_equal(table.aggregated.view(np.uint64),
                              ensemble_scores(table.scores).view(np.uint64))

    def test_deterministic_rerun(self, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 5, 8, np.random.default_rng(27))
        oracle, rest = hold_out_target(farm, 5)
        cfg = CanaryConfig(epsilon=0.2, steps=8, shadow_batch=2, num_queries=2)
        a = run_attack(ds, oracle, rest, targets, "canary", "offline", cfg, seed=39)
        b = run_attack(ds, oracle, rest, targets, "canary", "offline", cfg, seed=39)
        assert tables_equal(a, b)


class TestScoreTableCsv:
    def test_round_trip(self, tmp_path, toy_farm):
        ds, farm = toy_farm
        targets = _targets_for(farm, 6, 5, np.random.default_rng(28))
        oracle, rest = hold_out_target(farm, 6)
        cfg = CanaryConfig(epsilon=0.1, num_queries=3)
        table = run_attack(ds, oracle, rest, targets, "lira", "offline", cfg, seed=40)
        path = tmp_path / "scores_seed0.csv"
        table.write_csv(path)
        assert path.read_bytes() == score_csv_bytes(table)
        assert tables_equal(ScoreTable.read_csv(path), table)

    def test_bytes_are_the_csv_writers(self, tmp_path):
        inf, tiny, third = math.inf, 5e-324, 0.1 + 0.2
        table = score_table([
            (0, True, [0.0, -0.0, 0.0], -0.0),  # signed zeros, as scores and aggregate
            (1, False, [-0.0, -0.0, 0.0], 0.0),
            (2, True, [inf, -inf, tiny], inf),
            (3, False, [1e16, 1e-05, third], third),  # aggregate equal to one of its scores
            (4, True, [1e16, 1e16, 1e-05], 1e16),  # repeated within and across targets
            (5, False, [third, 0.3, tiny], -0.0),
        ])
        path = tmp_path / "scores_seed3.csv"
        digest = table.write_csv(path)
        assert path.read_bytes() == score_csv_bytes(table)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert tables_equal(ScoreTable.read_csv(path), table)  # the bits tell -0.0 from 0.0

    @pytest.mark.parametrize("body,counts", [
        pytest.param("0,1,0,0.5,0.5\n0,1,1,0.5,0.5\n1,0,0,0.1,0.1\n", "[1, 2]", id="last_short"),
        pytest.param("0,1,0,0.5,0.5\n1,0,0,0.1,0.1\n1,0,1,0.1,0.1\n2,1,0,0.3,0.3\n",
                     "[1, 2]", id="middle_long"),
    ])
    def test_mixed_query_counts_refused(self, tmp_path, body, counts):
        # a (targets, Q) table holds one query count; no command writes another
        path = tmp_path / "scores_seed0.csv"
        path.write_text(HEADER + body)
        with pytest.raises(FormatError) as err:
            ScoreTable.read_csv(path)
        assert str(err.value) == f"{path}: targets have unequal query counts {counts}"

    @pytest.mark.parametrize("index", [1 << 63, -(1 << 63) - 1])
    def test_index_beyond_int64_is_a_format_error(self, tmp_path, index):
        path = tmp_path / "scores_seed0.csv"
        path.write_text(HEADER + f"{index},1,0,0.5,0.5\n")
        with pytest.raises(FormatError, match="out of the int64 range"):
            ScoreTable.read_csv(path)

    def test_interleaved_targets_keep_first_appearance_order(self, tmp_path):
        path = tmp_path / "scores_seed0.csv"
        path.write_text(HEADER + "7,0,0,0.25,0.5\n3,1,0,-0.0,0.0\n7,0,1,0.75,0.5\n3,1,1,0.0,0.0\n")
        expected = score_table([(7, False, [0.25, 0.75], 0.5), (3, True, [-0.0, 0.0], 0.0)])
        assert tables_equal(ScoreTable.read_csv(path), expected)

    def test_header_only_table_is_empty(self, tmp_path):
        path = tmp_path / "scores_seed0.csv"
        path.write_text(HEADER)
        table = ScoreTable.read_csv(path)
        assert table.scores.shape == (0, 0)
        assert table.index.shape == table.member.shape == table.aggregated.shape == (0,)
        table.write_csv(tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == score_csv_bytes(table)

    def test_round_trip_with_infinite_scores(self, tmp_path):
        table = score_table([(3, True, [float("inf"), 2.0], float("inf")),
                             (5, False, [0.25, 0.5], 0.375)])
        path = tmp_path / "scores_seed1.csv"
        table.write_csv(path)
        assert tables_equal(ScoreTable.read_csv(path), table)

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


@pytest.fixture(scope="module")
def wide_net_farm():
    ds = synthetic_mixture(60, 784, 10, seed=16, noise=0.25)
    farm = build_farm(ds, 12, ArchDescriptor(784, (64,), 10), TrainConfig(epochs=1, batch_size=32),
                      master_seed=17)
    return ds, farm


def _engine_and_reference(ds, farm, held, method, mode, cfg, seed, n_each=6):
    targets = _targets_for(farm, held, n_each, np.random.default_rng(held))
    oracle, rest = hold_out_target(farm, held)
    table = run_attack(ds, oracle, rest, targets, method, mode, cfg, seed=seed)
    ref = reference_attack(ds, farm.records[held], rest, targets, method, mode, cfg, seed)
    return table, ref, oracle, targets


class TestEngineMatchesReference:
    """The batched engine reproduces the per-target, single-row loop bit for bit."""

    @pytest.mark.parametrize("mode", ["online", "offline"])
    @pytest.mark.parametrize("method", ["lira", "canary", "random_noise"])
    def test_methods_and_modes(self, toy_farm, method, mode):
        ds, farm = toy_farm
        cfg = CanaryConfig(epsilon=0.15, steps=6, shadow_batch=2, lr=0.05, num_queries=3)
        got, ref, oracle, targets = _engine_and_reference(ds, farm, 2, method, mode, cfg, seed=51)
        assert tables_equal(got, ref)
        assert oracle.query_count == len(targets) * 3

    @pytest.mark.parametrize("method,mode", [("lira", "online"), ("lira", "offline"),
                                             ("random_noise", "online"),
                                             ("random_noise", "offline")])
    def test_ten_queries(self, toy_farm, method, mode):
        # ten scores per target: the block ensemble's mean passes numpy's
        # eight-element pairwise-summation unroll
        ds, farm = toy_farm
        cfg = CanaryConfig(epsilon=0.15, num_queries=10)
        got, ref, oracle, targets = _engine_and_reference(ds, farm, 4, method, mode, cfg, seed=57)
        assert tables_equal(got, ref)
        assert oracle.query_count == len(targets) * 10

    @pytest.mark.parametrize("objective", OBJECTIVE_KINDS)
    def test_every_objective(self, toy_farm, deep_tanh_farm, objective):
        for (ds, farm), mode in ((toy_farm, "online"), (deep_tanh_farm, "offline")):
            cfg = CanaryConfig(epsilon=0.2, steps=5, shadow_batch=3, lr=0.08, num_queries=2,
                               objective=objective, init_noise_scale=0.07)
            got, ref, _, _ = _engine_and_reference(ds, farm, 1, "canary", mode, cfg, seed=52)
            assert tables_equal(got, ref)

    @pytest.mark.parametrize("mode", ["online", "offline"])
    @pytest.mark.parametrize("edge", ["one_pick", "smaller_side", "no_steps"])
    def test_pick_edges_on_desk_net(self, desk_net_farm, edge, mode):
        # picks of one model, picks that take a target's whole smaller side
        # (every model of it, each step), and no step at all, over ten queries
        ds, farm = desk_net_farm
        held, n_each = 5, 4
        targets = _targets_for(farm, held, n_each, np.random.default_rng(held))
        _, rest = hold_out_target(farm, held)
        member = rest.splits[:, [t for t, _ in targets]]
        sides = [(~member).sum(axis=0)] + ([member.sum(axis=0)] if mode == "online" else [])
        smaller = int(np.min(sides))
        batch, steps = {"one_pick": (1, 3), "smaller_side": (smaller, 2), "no_steps": (2, 0)}[edge]
        cfg = CanaryConfig(epsilon=0.05, steps=steps, shadow_batch=batch, num_queries=10)
        got, ref, oracle, _ = _engine_and_reference(ds, farm, held, "canary", mode, cfg, seed=58,
                                                    n_each=n_each)
        assert tables_equal(got, ref)
        assert oracle.query_count == 2 * n_each * 10

    @pytest.mark.parametrize("method,mode", [("canary", "online"), ("random_noise", "offline")])
    def test_wide_net(self, wide_net_farm, method, mode):
        # the toy nets' rows get a 16-row tile's bits in most tile sizes; a
        # 784-64 layer's rows only in calls of few rows (up to 17 under the
        # SkylakeX kernel), so this case pins the reference's tile size
        ds, farm = wide_net_farm
        cfg = CanaryConfig(epsilon=0.05, steps=3, num_queries=4)
        got, ref, _, _ = _engine_and_reference(ds, farm, 0, method, mode, cfg, seed=59, n_each=3)
        assert tables_equal(got, ref)


class TestBatchComposition:
    @pytest.mark.parametrize("method,mode", [("canary", "online"), ("canary", "offline"),
                                             ("random_noise", "online"), ("lira", "online"),
                                             ("lira", "offline")])
    def test_permuted_subset_gives_same_rows(self, toy_farm, monkeypatch, method, mode):
        ds, farm = toy_farm
        targets = _targets_for(farm, 3, 8, np.random.default_rng(54))
        oracle, rest = hold_out_target(farm, 3)
        cfg = CanaryConfig(epsilon=0.1, steps=4, shadow_batch=2, num_queries=3,
                           objective="cw_margin_random_label")
        full = run_attack(ds, oracle, rest, targets, method, mode, cfg, seed=55)
        subset = [targets[i] for i in np.random.default_rng(56).permutation(len(targets))[:7]]
        # blocks of 2 targets (a canary target holds 6006 bytes offline and
        # 6846 online, a noise target 3438), or of 6 for LiRA (496 bytes)
        budget, per_block = {"lira": (3000, 6), "canary": (15000, 2),
                             "random_noise": (8000, 2)}[method]
        monkeypatch.setattr(attacks, "BLOCK_BYTES", budget)
        blocks, real = [], attacks._score_block
        monkeypatch.setattr(attacks, "_score_block",
                            lambda queries, *args: blocks.append(len(queries)) or real(queries, *args))
        part = run_attack(ds, oracle, rest, subset, method, mode, cfg, seed=55)
        assert blocks == [per_block] * (7 // per_block) + [7 % per_block]
        assert part.index.tolist() == [t for t, _ in subset]
        at = [full.index.tolist().index(t) for t, _ in subset]
        assert tables_equal(part, ScoreTable(full.index[at], full.member[at], full.scores[at],
                                             full.aggregated[at]))


class TestBlockPlan:
    @pytest.mark.parametrize("method,rows_per_target", [("lira", 1), ("random_noise", 10)])
    def test_shadow_calls_per_block(self, toy_farm, monkeypatch, method, rows_per_target):
        ds, farm = toy_farm
        targets = _targets_for(farm, 3, 8, np.random.default_rng(54))
        oracle, rest = hold_out_target(farm, 3)
        shapes, real = [], attacks.model_confidence_batch
        monkeypatch.setattr(attacks, "model_confidence_batch",
                            lambda rec, X, y: shapes.append(X.shape) or real(rec, X, y))
        monkeypatch.setattr(attacks, "BLOCK_BYTES", 3000)
        cfg = CanaryConfig(epsilon=0.1, num_queries=10)
        run_attack(ds, oracle, rest, targets, method, "online", cfg, seed=55)
        per_block = max(1, attacks.BLOCK_BYTES // attacks._block_bytes(method, cfg, True, rest))
        assert per_block == (6 if method == "lira" else 1)
        assert len(shapes) == rest.n_models * math.ceil(len(targets) / per_block)
        assert {shape[1] for shape in shapes} == {rows_per_target}
        assert oracle.query_count == len(targets) * 10

    def test_wide_lira_offline_is_one_block(self, monkeypatch):
        # 100 targets of a 784-64-10 net: one confidence call per shadow model
        ds = synthetic_mixture(200, 784, 10, seed=18, noise=0.25)
        farm = build_farm(ds, 12, ArchDescriptor(784, (64,), 10),
                          TrainConfig(epochs=1, batch_size=32), master_seed=19)
        oracle, rest = hold_out_target(farm, 0)
        calls, real = [], attacks.model_confidence_batch
        monkeypatch.setattr(attacks, "model_confidence_batch",
                            lambda rec, X, y: calls.append(rec) or real(rec, X, y))
        targets = _targets_for(farm, 0, 50, np.random.default_rng(60))
        run_attack(ds, oracle, rest, targets, "lira", "offline", CanaryConfig(epsilon=0.05), seed=61)
        assert len(calls) == rest.n_models

    @pytest.mark.parametrize("mode", ["online", "offline"])
    @pytest.mark.parametrize("method", ["lira", "canary", "random_noise"])
    def test_one_target_blocks_match_the_default(self, wide_net_farm, monkeypatch, method, mode):
        ds, farm = wide_net_farm
        targets = _targets_for(farm, 0, 3, np.random.default_rng(62))
        oracle, rest = hold_out_target(farm, 0)
        cfg = CanaryConfig(epsilon=0.05, steps=3, num_queries=4)
        blocks, real = [], attacks._score_block
        monkeypatch.setattr(attacks, "_score_block",
                            lambda queries, *args: blocks.append(len(queries)) or real(queries, *args))
        default = run_attack(ds, oracle, rest, targets, method, mode, cfg, seed=63)
        monkeypatch.setattr(attacks, "BLOCK_BYTES", 1)
        alone = run_attack(ds, oracle, rest, targets, method, mode, cfg, seed=63)
        assert blocks == [6] + [1] * 6
        assert tables_equal(alone, default)

    @pytest.mark.parametrize("mode", ["online", "offline"])
    @pytest.mark.parametrize("shape", ["desk", "wide"])
    def test_canary_block_peak_stays_within_the_budget(self, desk_net_farm, wide_net_farm,
                                                       monkeypatch, shape, mode):
        # the traced peak of a canary attack is that of its largest block, plus
        # the few arrays the attack holds whatever its block size
        ds, farm = desk_net_farm if shape == "desk" else wide_net_farm
        targets = _targets_for(farm, 0, 20 if shape == "desk" else 8, np.random.default_rng(64))
        oracle, rest = hold_out_target(farm, 0)
        cfg = CanaryConfig(epsilon=0.05, steps=10, num_queries=10 if shape == "desk" else 4)
        budget, slack = 1 << 21, 1 << 17
        monkeypatch.setattr(attacks, "BLOCK_BYTES", budget)
        rows, real = [], attacks.optimize_canary
        monkeypatch.setattr(attacks, "optimize_canary",
                            lambda x_star, *args: rows.append(len(x_star)) or real(x_star, *args))
        tracemalloc.start()
        try:
            run_attack(ds, oracle, rest, targets, "canary", mode, cfg, seed=65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) > 1 and max(rows) > 4 * cfg.num_queries
        assert peak <= budget + slack, (peak, max(rows))


@pytest.fixture(scope="module")
def desk_net_farm():
    # the desk scale's 20-128-10 ReLU net: a 10-row GEMM slice of it rounds
    # its last rows apart from a 16-row one, which the 8-12-4 toy net does not
    ds = synthetic_mixture(200, 20, 10, seed=14, noise=0.25)
    farm = build_farm(ds, 16, ArchDescriptor(20, (128,), 10),
                      TrainConfig(epochs=3, batch_size=32), master_seed=15)
    return ds, farm


class TestQueryLayout:
    @pytest.mark.parametrize("mode", ["online", "offline"])
    @pytest.mark.parametrize("method", ["lira", "canary", "random_noise"])
    def test_scores_do_not_depend_on_num_queries(self, desk_net_farm, method, mode):
        ds, farm = desk_net_farm
        targets = _targets_for(farm, 0, 10, np.random.default_rng(62))
        oracle, rest = hold_out_target(farm, 0)
        bits = {}
        for n_queries in (10, 16):
            cfg = CanaryConfig(epsilon=0.05, steps=2, num_queries=n_queries)
            table = run_attack(ds, oracle, rest, targets, method, mode, cfg, seed=63)
            bits[n_queries] = table.scores.view(np.uint64)
        assert np.array_equal(bits[10], bits[16][:, :10])
        if method == "lira":  # Q copies of the target point score alike
            assert (bits[16] == bits[16][:, :1]).all()
        assert oracle.query_count == 26 * len(targets)


_THREADS_SCRIPT = """
import sys
import numpy as np
from mialab.attacks import CanaryConfig, run_attack
from mialab.data import synthetic_mixture
from mialab.farm import hold_out_target, load_farm
farm_path, dim, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
ds = synthetic_mixture(120, dim, 10, seed=dim, noise=0.25)
farm = load_farm(farm_path)
oracle, rest = hold_out_target(farm, 0)
targets = [(i, bool(farm.splits[0, i])) for i in range(24)]
cfg = CanaryConfig(epsilon=0.05, steps=4, num_queries=2)
for method in ("lira", "canary"):
    run_attack(ds, oracle, rest, targets, method, "online", cfg, seed=7).write_csv(f"{out}_{method}.csv")
"""


class TestBlasThreads:
    @pytest.mark.parametrize("dim,hidden", [(20, 128), (784, 64), (784, 256)])
    def test_score_bytes_identical_across_blas_threads(self, tmp_path, dim, hidden):
        # one saved farm per net, attacked at 1 and 2 BLAS threads: the desk
        # net, the 784-64-10 net and the 784-256-10 net, whose 16-row tile
        # products an unpinned 2-thread OpenBLAS splits and rounds differently
        ds = synthetic_mixture(120, dim, 10, seed=dim, noise=0.25)
        farm = build_farm(ds, 12, ArchDescriptor(dim, (hidden,), 10),
                          TrainConfig(epochs=2, batch_size=32), master_seed=5)
        save_farm(farm, tmp_path / "farm.bin")
        src = str(Path(attacks.__file__).resolve().parents[1])
        tables = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, str(tmp_path / "farm.bin"),
                            str(dim), str(out)], env=env, check=True)
            tables.append([Path(f"{out}_{m}.csv").read_bytes() for m in ("lira", "canary")])
        assert tables[0] == tables[1]


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

    @pytest.mark.parametrize("method", ["lira", "canary"])
    def test_repeated_target_fails_before_any_query(self, toy_farm, method):
        # a table with a target twice would number its queries on past Q
        ds, farm = toy_farm
        oracle, rest = hold_out_target(farm, 0)
        targets = [(5, bool(farm.splits[0, 5])), (5, bool(farm.splits[0, 5])),
                   (1, bool(farm.splits[0, 1]))]
        cfg = CanaryConfig(epsilon=0.1, steps=2, num_queries=2)
        with pytest.raises(ConfigError, match="^target 5 is listed more than once$"):
            run_attack(ds, oracle, rest, targets, method, "online", cfg, seed=1)
        assert oracle.query_count == 0
        assert all(r.access_count == 0 for r in rest.records)
