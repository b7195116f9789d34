"""Training: splits, determinism, masked-data isolation, DP mechanics."""

from dataclasses import replace

import numpy as np
import pytest

import mialab.training as training
from mialab.data import Dataset, synthetic_mixture
from mialab.errors import ShapeError
from mialab.nn import ArchDescriptor
from mialab.rng import substream
from mialab.training import (
    DpConfig,
    TrainConfig,
    clip_per_example,
    dp_step,
    make_even_splits,
    plan_groups,
    record_accuracy,
    train_model,
    train_models,
)

from oracles import reference_train


def separable_dataset():
    # two tight clusters, trivially separable
    rng = np.random.default_rng(0)
    n = 40
    labels = np.arange(n) % 2
    centers = np.array([[0.2, 0.2], [0.8, 0.8]])
    feats = np.clip(centers[labels] + rng.normal(0, 0.03, (n, 2)), 0, 1)
    return Dataset(feats, labels)


class TestSplits:
    def test_row_sums(self):
        splits = make_even_splits(4, 2, seed=0)
        assert splits.shape == (2, 4)
        assert list(splits.sum(axis=1)) == [2, 2]

    def test_odd_point_count_floors(self):
        splits = make_even_splits(7, 3, seed=1)
        assert list(splits.sum(axis=1)) == [3, 3, 3]

    def test_deterministic(self):
        assert np.array_equal(make_even_splits(50, 8, seed=9), make_even_splits(50, 8, seed=9))
        assert not np.array_equal(make_even_splits(50, 8, seed=9), make_even_splits(50, 8, seed=10))

    def test_zero_models_errors(self):
        with pytest.raises(ValueError):
            make_even_splits(10, 0, seed=0)

    def test_per_column_in_fraction_near_half(self):
        # Monte Carlo over many independent rows
        splits = make_even_splits(16, 10_000, seed=2)
        frac = splits.mean(axis=0)
        assert np.all(np.abs(frac - 0.5) < 0.02)


class TestTrainModel:
    def test_separable_reaches_full_train_accuracy(self):
        ds = separable_dataset()
        arch = ArchDescriptor(2, (8,), 2)
        mask = make_even_splits(ds.n, 1, seed=3)[0]
        rec = train_model(ds, mask, arch, TrainConfig(epochs=30, batch_size=8, lr=0.05, seed=4))
        assert record_accuracy(rec, ds, np.flatnonzero(mask)) == 1.0

    def test_loss_decreases(self):
        from mialab.nn import batch_cross_entropy, init_params
        from mialab.rng import substream

        ds = synthetic_mixture(60, 5, 3, seed=5, noise=0.2)
        arch = ArchDescriptor(5, (6,), 3)
        mask = make_even_splits(ds.n, 1, seed=6)[0]
        config = TrainConfig(epochs=15, batch_size=8, lr=0.05, seed=7)
        rec = train_model(ds, mask, arch, config)
        X, y = ds.features[mask], ds.labels[mask]
        init = init_params(arch, substream(config.seed, 0))
        assert batch_cross_entropy(arch, rec._params, X, y) < batch_cross_entropy(arch, init, X, y)

    def test_bitwise_deterministic(self):
        ds = synthetic_mixture(50, 4, 3, seed=8, noise=0.2)
        arch = ArchDescriptor(4, (5,), 3)
        mask = make_even_splits(ds.n, 1, seed=9)[0]
        cfg = TrainConfig(epochs=5, batch_size=16, lr=0.02, seed=10)
        a = train_model(ds, mask, arch, cfg)
        b = train_model(ds, mask, arch, cfg)
        assert a._params == b._params

    def test_sgd_optimizer_runs(self):
        ds = synthetic_mixture(30, 4, 2, seed=11, noise=0.2)
        arch = ArchDescriptor(4, (), 2)
        mask = make_even_splits(ds.n, 1, seed=12)[0]
        rec = train_model(ds, mask, arch, TrainConfig(epochs=3, batch_size=8, lr=0.1,
                                                      optimizer="sgd", seed=13))
        assert rec._params.all_finite()

    def test_never_reads_masked_out_points(self):
        ds = synthetic_mixture(40, 4, 3, seed=14, noise=0.2)
        ds.enable_access_counting()
        mask = make_even_splits(ds.n, 1, seed=15)[0]
        arch = ArchDescriptor(4, (5,), 3)
        train_model(ds, mask, arch, TrainConfig(epochs=4, batch_size=8, seed=16))
        assert ds.access_counts[~mask].sum() == 0
        assert ds.access_counts[mask].sum() > 0

    def test_empty_training_set_errors(self):
        ds = synthetic_mixture(10, 3, 2, seed=17)
        arch = ArchDescriptor(3, (), 2)
        with pytest.raises(ValueError, match="empty"):
            train_model(ds, np.zeros(10, dtype=bool), arch, TrainConfig(epochs=1, seed=0))

    def test_mask_length_checked(self):
        ds = synthetic_mixture(10, 3, 2, seed=18)
        arch = ArchDescriptor(3, (), 2)
        with pytest.raises(ShapeError):
            train_model(ds, np.ones(9, dtype=bool), arch, TrainConfig(epochs=1, seed=0))


class TestClip:
    def test_long_gradient_scaled_to_bound(self):
        g = np.array([[10.0, 0.0, 0.0]])
        out = clip_per_example(g, 5.0)
        assert abs(np.linalg.norm(out[0]) - 5.0) < 1e-12
        np.testing.assert_allclose(out / np.linalg.norm(out), g / np.linalg.norm(g))

    def test_short_gradient_untouched(self):
        g = np.array([[3.0, 0.0]])
        assert np.array_equal(clip_per_example(g, 5.0), g)

    def test_zero_gradient(self):
        assert np.array_equal(clip_per_example(np.zeros((1, 4)), 5.0), np.zeros((1, 4)))

    def test_batch_rows_clipped_independently(self):
        g = np.array([[10.0, 0.0], [1.0, 0.0]])
        out = clip_per_example(g, 5.0)
        assert abs(np.linalg.norm(out[0]) - 5.0) < 1e-12
        assert np.array_equal(out[1], g[1])

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            clip_per_example(np.ones((1, 3)), 0.0)

    def test_single_vector_is_not_a_batch(self):
        with pytest.raises(ShapeError):
            clip_per_example(np.ones(3), 5.0)


class TestDpStep:
    def test_zero_noise_is_exact_clipped_mean(self):
        rng = np.random.default_rng(19)
        g = rng.normal(0, 3, (6, 10))
        out = dp_step(g, 5.0, 0.0, 6, rng)
        expected = clip_per_example(g, 5.0).sum(axis=0) / 6
        assert np.array_equal(out, expected)

    def test_single_short_example_identity(self):
        g = np.array([[1.0, 2.0, 0.0]])
        out = dp_step(g, 5.0, 0.0, 1, np.random.default_rng(20))
        assert np.array_equal(out, g[0])

    def test_noise_scale_statistics(self):
        # zero gradients: output is pure noise with std sigma*C/batch
        rng = np.random.default_rng(21)
        C, sigma, batch = 5.0, 1.0, 8
        draws = np.concatenate(
            [dp_step(np.zeros((batch, 40)), C, sigma, batch, rng) for _ in range(2500)]
        )
        expected = sigma * C / batch
        assert abs(draws.std() - expected) / expected < 0.05

    def test_clip_check_counter_advances(self):
        before = training.clip_checks
        dp_step(np.ones((2, 3)), 1.0, 0.0, 2, np.random.default_rng(22))
        assert training.clip_checks == before + 1


class TestDpTraining:
    def test_dp_disabled_paths_bitwise_equal(self):
        # dp=None must not consume noise streams or touch per-example code
        ds = synthetic_mixture(40, 4, 3, seed=23, noise=0.2)
        arch = ArchDescriptor(4, (5,), 3)
        mask = make_even_splits(ds.n, 1, seed=24)[0]
        cfg = TrainConfig(epochs=4, batch_size=8, seed=25)
        a = train_model(ds, mask, arch, cfg)
        checks_before = training.clip_checks
        b = train_model(ds, mask, arch, cfg)
        assert training.clip_checks == checks_before
        assert a._params == b._params

    def test_dp_sigma_zero_equals_clipped_training(self):
        ds = synthetic_mixture(40, 4, 3, seed=26, noise=0.2)
        arch = ArchDescriptor(4, (5,), 3)
        mask = make_even_splits(ds.n, 1, seed=27)[0]
        huge_clip = TrainConfig(epochs=3, batch_size=40, seed=28,
                                dp=DpConfig(clip_norm=1e6, noise_multiplier=0.0))
        plain = TrainConfig(epochs=3, batch_size=40, seed=28)
        a = train_model(ds, mask, arch, huge_clip)
        b = train_model(ds, mask, arch, plain)
        # full-batch, no clipping bite, no noise: same trajectory
        np.testing.assert_allclose(a._params.to_vector(), b._params.to_vector(), atol=1e-10)

    def test_dp_training_runs_and_differs(self):
        ds = synthetic_mixture(40, 4, 3, seed=29, noise=0.2)
        arch = ArchDescriptor(4, (5,), 3)
        mask = make_even_splits(ds.n, 1, seed=30)[0]
        dp = TrainConfig(epochs=3, batch_size=8, seed=31,
                         dp=DpConfig(clip_norm=5.0, noise_multiplier=0.5))
        plain = TrainConfig(epochs=3, batch_size=8, seed=31)
        a = train_model(ds, mask, arch, dp)
        b = train_model(ds, mask, arch, plain)
        assert a._params != b._params

    def test_invalid_dp_config(self):
        with pytest.raises(ValueError):
            DpConfig(clip_norm=0.0, noise_multiplier=1.0)
        with pytest.raises(ValueError):
            DpConfig(clip_norm=1.0, noise_multiplier=-0.1)


# 31 points split in halves of 15 with batch 4: every epoch ends on a batch of 3.
GROUP_DS = synthetic_mixture(31, 5, 3, seed=40, noise=0.3)
N_GROUP_MODELS = 7
GROUP_SEEDS = [100 + i for i in range(N_GROUP_MODELS)]


def group_budget(arch, config, group):
    """TRAIN_GROUP_ELEMENTS value that makes groups of `group` models (None: all)."""
    if group is None:
        return 1 << 40
    return group * arch.param_count() * (config.batch_size if config.dp is not None else 1)


class TestLockStepTraining:
    @pytest.mark.parametrize("group", [1, 3, None])
    @pytest.mark.parametrize("dp", [None, DpConfig(clip_norm=1.0, noise_multiplier=0.5)],
                             ids=["plain", "dp"])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("hidden", [(6,), (5, 4)], ids=["one_hidden", "two_hidden"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_per_model_reference_bitwise(self, monkeypatch, activation, hidden,
                                                 optimizer, dp, group):
        arch = ArchDescriptor(5, hidden, 3, activation)
        masks = make_even_splits(GROUP_DS.n, N_GROUP_MODELS, seed=41)
        config = TrainConfig(epochs=3, batch_size=4, lr=0.05, optimizer=optimizer, dp=dp)
        monkeypatch.setattr(training, "TRAIN_GROUP_ELEMENTS", group_budget(arch, config, group))
        sizes = [len(g) for g in plan_groups(N_GROUP_MODELS, arch, config)]
        assert sizes == {1: [1] * 7, 3: [3, 3, 1], None: [7]}[group]
        records = train_models(GROUP_DS, masks, arch, config, GROUP_SEEDS)
        for i, (rec, mask, seed) in enumerate(zip(records, masks, GROUP_SEEDS)):
            assert (rec.seed, rec.split_row) == (seed, i)
            assert np.array_equal(rec._params.to_vector(),
                                  reference_train(GROUP_DS, mask, arch, replace(config, seed=seed)))

    def test_parallel_groups_cover_every_worker(self):
        arch = ArchDescriptor(5, (6,), 3)
        config = TrainConfig()
        assert [len(g) for g in plan_groups(24, arch, config)] == [24]
        assert [len(g) for g in plan_groups(24, arch, config, jobs=4)] == [6] * 4
        assert [len(g) for g in plan_groups(7, arch, config, jobs=2)] == [4, 3]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poisoned model's NaN softmax
    def test_one_diverging_model_fails_the_group(self, monkeypatch):
        arch = ArchDescriptor(5, (6,), 3)
        masks = make_even_splits(GROUP_DS.n, 4, seed=43)
        config = TrainConfig(epochs=2, batch_size=4)
        seeds = [200 + i for i in range(4)]
        assert [len(g) for g in plan_groups(4, arch, config)] == [4]
        init = training.init_params

        def poisoned(arch, rng, _init=init):
            target = rng.bit_generator.state == substream(202, 0).bit_generator.state
            params = _init(arch, rng)
            if target:
                params.weights[0][0, 0] = np.inf
            return params

        monkeypatch.setattr(training, "init_params", poisoned)
        with pytest.raises(ValueError, match="training diverged: non-finite parameters"):
            train_models(GROUP_DS, masks, arch, config, seeds)

    def test_mask_rows_must_match_seeds(self):
        arch = ArchDescriptor(5, (6,), 3)
        with pytest.raises(ShapeError):
            train_models(GROUP_DS, make_even_splits(GROUP_DS.n, 3, seed=44), arch,
                         TrainConfig(epochs=1), [0, 1])

    def test_training_sets_must_have_equal_sizes(self):
        masks = make_even_splits(GROUP_DS.n, 2, seed=45)
        masks[1, np.flatnonzero(~masks[1])[0]] = True
        with pytest.raises(ValueError, match="equal sizes"):
            train_models(GROUP_DS, masks, ArchDescriptor(5, (6,), 3), TrainConfig(epochs=1), [0, 1])
