"""Attack scoring math, the canary optimizer contracts, and run_attack."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from mialab.attacks import (
    SIGMA_FLOOR,
    CanaryConfig,
    GaussianStats,
    ScoreRow,
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
from mialab.errors import ConfigError, FingerprintMismatchError
from mialab.farm import build_farm, hold_out_target, in_out_partition
from mialab.nn import OBJECTIVE_KINDS, ArchDescriptor
from mialab.rng import substream, substreams
from mialab.training import TrainConfig

from oracles import (
    _ref_log_pdf,
    _ref_phi,
    ref_offline_score,
    ref_online_score,
    reference_attack,
    score_csv_bytes,
)


@pytest.fixture(scope="module")
def toy_farm():
    ds = synthetic_mixture(128, 8, 4, seed=1, noise=0.08)
    arch = ArchDescriptor(8, (12,), 4)
    cfg = TrainConfig(epochs=40, batch_size=16, lr=0.03)
    farm = build_farm(ds, 16, arch, cfg, master_seed=5)
    return ds, farm


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

    def test_density_variant_two_sided(self):
        stats = GaussianStats(0.0, 1.0)
        center = lira_offline_score(0.0, stats, density=True)
        far = lira_offline_score(6.0, stats, density=True)
        assert far > center


# np.log rounds these apart from math.log in the last bit
_LOG_ROUNDS_APART = [0.7372569546021128, 0.8476811963434164, 2.344837549636431,
                     6.026449400250284, 0.9862786443356566, 2.238406528390617]
# and these give f / (1 - f) that it rounds apart
_PHI_ROUNDS_APART = [0.48826044533597246, 0.47524947280546326, 0.5019269762292697,
                     0.5041845493050985, 0.2724943917517305, 0.49253432141119324]


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


class TestElementwiseScores:
    """One call on arrays of fits scores every element as the plain-math
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
        # conf 0 against N(0, 1) and N(mu, 1) has log ratio +-mu^2 / 2
        mu = np.sqrt(2.0 * np.array([708.9, 709.2, 744.9, 745.2]))
        upper = np.array([True, True, False, False])
        in_stats = GaussianStats(np.where(upper, 0.0, mu), 1.0)
        out_stats = GaussianStats(np.where(upper, mu, 0.0), 1.0)
        scores = lira_online_score(0.0, in_stats, out_stats)
        ref = [ref_online_score(0.0, mi, 1.0, mo, 1.0)
               for mi, mo in zip(in_stats.mu.tolist(), out_stats.mu.tolist())]
        assert _bits(scores) == _bits(ref)
        assert scores[0] > 1e307 and scores[1] == math.inf and scores[2] > 0.0 == scores[3]

    @pytest.mark.parametrize("density", [False, True])
    def test_offline_score(self, grid, density):
        conf, _, out_stats = grid
        scores = lira_offline_score(conf, out_stats, density=density)
        ref = [ref_offline_score(c, m, s, density) for c, m, s in
               zip(conf.ravel().tolist(), out_stats.mu.ravel().tolist(),
                   out_stats.sigma.ravel().tolist())]
        assert scores.shape == conf.shape and _bits(scores) == _bits(ref)
        if not density:
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
            assert type(score) is float and _bits(score) == _bits(online[i])
            score = lira_offline_score(float(conf[i]), one_out)
            assert type(score) is float and _bits(score) == _bits(offline[i])

    def test_scale_confidence_matches_math_log(self):
        rng = np.random.default_rng(42)
        f = np.concatenate([rng.random(2994), _PHI_ROUNDS_APART,
                            [0.0, 1e-9, 1e-6, 0.5, 1.0 - 1e-6, 1.0]])
        phi = scale_confidence(f.reshape(3, -1))
        assert phi.shape == (3, 1002)
        assert _bits(phi) == _bits([_ref_phi(v, 1e-6) for v in f.tolist()])
        assert type(scale_confidence(0.25)) is float

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

    @pytest.mark.parametrize("key,value,problem", [
        pytest.param("lr", -0.05, "lr must be finite and positive", id="lr-negative"),
        pytest.param("lr", 0.0, "lr must be finite and positive", id="lr-zero"),
        pytest.param("lr", math.inf, "lr must be finite and positive", id="lr-inf"),
        pytest.param("lr", math.nan, "lr must be finite and positive", id="lr-nan"),
        pytest.param("epsilon", math.nan, "epsilon must be finite", id="epsilon-nan"),
        pytest.param("epsilon", -0.1, "epsilon must be non-negative", id="epsilon-negative"),
        pytest.param("init_noise_scale", math.inf, "init_noise_scale must be finite",
                     id="init_noise_scale-inf"),
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
        block, in_block = attacks._optimize_rows(x, y, member, farm.records, cfg, online,
                                                 substreams(keys), None)
        in_alone = 0
        for r, key in enumerate(keys):
            alone, count = attacks._optimize_rows(x[r:r + 1], y[r:r + 1], member[r:r + 1],
                                                  farm.records, cfg, online, [substream(*key)],
                                                  None)
            assert np.array_equal(block[r], alone[0])
            in_alone += count
        assert in_block == in_alone == (len(targets) * cfg.steps * 2 if online else 0)

    def test_offline_never_touches_in_models(self, toy_farm):
        ds, farm = toy_farm
        x, y = ds.point(7)
        s_in, s_out = in_out_partition(farm, 7)
        before = [r.access_count for r in s_in]
        cfg = CanaryConfig(epsilon=0.2, steps=10, shadow_batch=2, num_queries=1)
        optimize_canary(x, y, None, s_out, cfg, substream(14, 0))  # no IN models: offline
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

    def test_offline_never_reads_a_model_in_for_every_target(self, toy_farm):
        ds, farm = toy_farm
        oracle, rest = hold_out_target(farm, 4)
        always_in = 0
        points = np.flatnonzero(rest.splits[always_in])
        targets = [(int(t), bool(farm.splits[4, t])) for t in points]
        cfg = CanaryConfig(epsilon=0.15, steps=6, shadow_batch=2, num_queries=2)
        table = run_attack(ds, oracle, rest, targets, "canary", "offline", cfg, seed=35)
        assert len(table.rows) == len(targets) > 30
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
        assert path.read_bytes() == score_csv_bytes(table.rows)
        loaded = ScoreTable.read_csv(path)
        assert loaded.rows == table.rows

    def test_bytes_are_the_csv_writers(self, tmp_path):
        inf, tiny, third = math.inf, 5e-324, 0.1 + 0.2
        rows = [
            ScoreRow(0, True, [0.0, -0.0, 0.0], -0.0),  # signed zeros, as scores and aggregate
            ScoreRow(1, False, [-0.0], 0.0),  # one query per target
            ScoreRow(2, True, [inf, -inf, tiny], inf),
            ScoreRow(3, False, [1e16, 1e-05, third], third),  # aggregate equal to one of its scores
            ScoreRow(4, True, [1e16, 1e16, 1e-05], 1e16),  # repeated within and across targets
            ScoreRow(5, False, [third, 0.3, tiny, 0.0], -0.0),
        ]
        path = tmp_path / "scores_seed3.csv"
        digest = ScoreTable(rows).write_csv(path)
        assert path.read_bytes() == score_csv_bytes(rows)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert repr(ScoreTable.read_csv(path).rows) == repr(rows)  # repr tells -0.0 from 0.0

    def test_round_trip_with_infinite_scores(self, tmp_path):
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

    @pytest.mark.parametrize("method,mode", [("lira", "online"), ("lira", "offline"),
                                             ("random_noise", "online"),
                                             ("random_noise", "offline")])
    def test_ten_queries(self, toy_farm, method, mode):
        # ten scores per target: the block ensemble's mean passes numpy's
        # eight-element pairwise-summation unroll
        ds, farm = toy_farm
        cfg = CanaryConfig(epsilon=0.15, num_queries=10)
        got, ref, oracle, targets = _engine_and_reference(ds, farm, 4, method, mode, cfg, seed=57)
        assert got == ref
        assert oracle.query_count == len(targets) * 10

    @pytest.mark.parametrize("objective", OBJECTIVE_KINDS)
    def test_every_objective(self, toy_farm, deep_tanh_farm, objective):
        for (ds, farm), mode in ((toy_farm, "online"), (deep_tanh_farm, "offline")):
            cfg = CanaryConfig(epsilon=0.2, steps=5, shadow_batch=3, lr=0.08, num_queries=2,
                               objective=objective, init_noise_scale=0.07)
            got, ref, _, _ = _engine_and_reference(ds, farm, 1, "canary", mode, cfg, seed=52)
            assert got == ref

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
        assert got == ref
        assert oracle.query_count == 2 * n_each * 10

    def test_offline_density_variant(self, deep_tanh_farm):
        ds, farm = deep_tanh_farm
        cfg = CanaryConfig(epsilon=0.1, steps=3, num_queries=2, offline_density=True,
                           init="target")
        got, ref, _, _ = _engine_and_reference(ds, farm, 0, "canary", "offline", cfg, seed=53)
        assert got == ref


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
        full = {r.target_index: r for r in
                run_attack(ds, oracle, rest, targets, method, mode, cfg, seed=55).rows}
        subset = [targets[i] for i in np.random.default_rng(56).permutation(len(targets))[:7]]
        # blocks of 2 targets (3 evaluated rows x widest layer 12 x 2 = 72
        # elements), or of 6 for LiRA, which evaluates one row per target
        monkeypatch.setattr(attacks, "BLOCK_ELEMENTS", 72)
        part = run_attack(ds, oracle, rest, subset, method, mode, cfg, seed=55)
        assert [r.target_index for r in part.rows] == [t for t, _ in subset]
        assert all(repr(r) == repr(full[r.target_index]) for r in part.rows)


class TestBlockPlan:
    @pytest.mark.parametrize("method,rows_per_target", [("lira", 1), ("random_noise", 10)])
    def test_shadow_calls_per_block(self, toy_farm, monkeypatch, method, rows_per_target):
        ds, farm = toy_farm
        targets = _targets_for(farm, 3, 8, np.random.default_rng(54))
        oracle, rest = hold_out_target(farm, 3)
        shapes, real = [], attacks.model_confidence_batch
        monkeypatch.setattr(attacks, "model_confidence_batch",
                            lambda rec, X, y: shapes.append(X.shape) or real(rec, X, y))
        monkeypatch.setattr(attacks, "BLOCK_ELEMENTS", 72)
        cfg = CanaryConfig(epsilon=0.1, num_queries=10)
        run_attack(ds, oracle, rest, targets, method, "online", cfg, seed=55)
        per_block = max(1, attacks.BLOCK_ELEMENTS // (rows_per_target * max(farm.arch.dims)))
        assert per_block == (6 if method == "lira" else 1)
        assert len(shapes) == rest.n_models * math.ceil(len(targets) / per_block)
        assert {shape[1] for shape in shapes} == {rows_per_target}
        assert oracle.query_count == len(targets) * 10


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
        rows = {}
        for n_queries in (10, 16):
            cfg = CanaryConfig(epsilon=0.05, steps=2, num_queries=n_queries)
            rows[n_queries] = run_attack(ds, oracle, rest, targets, method, mode, cfg, seed=63).rows
        for ten, sixteen in zip(rows[10], rows[16]):
            assert repr(ten.query_scores) == repr(sixteen.query_scores[:10])
            if method == "lira":  # Q copies of the target point score alike
                assert len({repr(s) for s in sixteen.query_scores}) == 1
        assert oracle.query_count == 26 * len(targets)


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
