"""Training: splits, determinism, masked-data isolation, DP mechanics."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mialab.training as training
from mialab.data import Dataset, synthetic_mixture
from mialab.errors import ShapeError
from mialab.nn import (
    ArchDescriptor,
    Params,
    Workspace,
    init_params,
    layer_views,
    param_gradient,
    per_example_grad_vectors,
)
from mialab.rng import substream
from mialab.training import (
    DpConfig,
    TrainConfig,
    make_even_splits,
    plan_groups,
    record_accuracy,
    train_model,
    train_models,
)

from oracles import batch_cross_entropy, ghost_dp_gradient, materialized_dp_gradient, reference_train


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
        rec = train_model(ds, mask, arch, TrainConfig(epochs=30, batch_size=8, lr=0.05), 4)
        assert record_accuracy(rec, ds, np.flatnonzero(mask)) == 1.0

    def test_loss_decreases(self):
        ds = synthetic_mixture(60, 5, 3, seed=5, noise=0.2)
        arch = ArchDescriptor(5, (6,), 3)
        mask = make_even_splits(ds.n, 1, seed=6)[0]
        config = TrainConfig(epochs=15, batch_size=8, lr=0.05)
        rec = train_model(ds, mask, arch, config, 7)
        X, y = ds.features[mask], ds.labels[mask]
        init = init_params(arch, substream(7, 0))
        assert batch_cross_entropy(arch, rec._params, X, y) < batch_cross_entropy(arch, init, X, y)

    def test_bitwise_deterministic(self):
        ds = synthetic_mixture(50, 4, 3, seed=8, noise=0.2)
        arch = ArchDescriptor(4, (5,), 3)
        mask = make_even_splits(ds.n, 1, seed=9)[0]
        cfg = TrainConfig(epochs=5, batch_size=16, lr=0.02)
        a = train_model(ds, mask, arch, cfg, 10)
        b = train_model(ds, mask, arch, cfg, 10)
        assert a == b

    def test_never_reads_masked_out_points(self):
        ds = synthetic_mixture(40, 4, 3, seed=14, noise=0.2)
        ds.enable_access_counting()
        mask = make_even_splits(ds.n, 1, seed=15)[0]
        arch = ArchDescriptor(4, (5,), 3)
        train_model(ds, mask, arch, TrainConfig(epochs=4, batch_size=8), 16)
        assert ds.access_counts[~mask].sum() == 0
        assert ds.access_counts[mask].sum() > 0

    def test_empty_training_set_errors(self):
        ds = synthetic_mixture(10, 3, 2, seed=17)
        arch = ArchDescriptor(3, (), 2)
        with pytest.raises(ValueError, match="empty"):
            train_model(ds, np.zeros(10, dtype=bool), arch, TrainConfig(epochs=1), 0)

    def test_mask_length_checked(self):
        ds = synthetic_mixture(10, 3, 2, seed=18)
        arch = ArchDescriptor(3, (), 2)
        with pytest.raises(ShapeError):
            train_model(ds, np.ones(9, dtype=bool), arch, TrainConfig(epochs=1), 0)


def dp_group(arch, n_models, batch, seed):
    """Stacked (G, P) parameters of n_models random models and their (G, B) batches."""
    rng = np.random.default_rng(seed)
    theta = np.stack([init_params(arch, rng).to_vector() for _ in range(n_models)])
    X = rng.uniform(0.0, 1.0, (n_models, batch, arch.input_dim))
    y = rng.integers(arch.num_classes, size=(n_models, batch))
    return theta, X, y


def run_dp_step(arch, theta, X, y, dp, rng_seeds):
    """dp_step on the (G, B) batches X, y, filled into a Workspace as training fills its own."""
    ws = Workspace(arch, y.shape)
    ws.X[...], ws.y[...], ws.x_norms[...] = X, y, np.sum(X * X, axis=-1) + 1.0
    grad = np.empty_like(theta)
    training.dp_step(arch, layer_views(arch, theta), ws, dp,
                     [np.random.default_rng(s) for s in rng_seeds], grad)
    return grad


def ref_dp_gradient(oracle, arch, theta, X, y, dp, rng_seed):
    params = Params.from_vector(arch, theta)
    return oracle(params.weights, params.biases, arch.activation, X, y, dp.clip_norm,
                  dp.noise_multiplier, np.random.default_rng(rng_seed))


class TestDpStep:
    def test_zero_noise_is_exact_clipped_mean(self):
        arch = ArchDescriptor(5, (7,), 3)
        theta, X, y = dp_group(arch, 4, 6, seed=19)
        dp = DpConfig(clip_norm=0.5, noise_multiplier=0.0)
        grad = run_dp_step(arch, theta, X, y, dp, range(4))
        for g in range(4):
            expected = ref_dp_gradient(ghost_dp_gradient, arch, theta[g], X[g], y[g], dp, g)
            assert np.array_equal(grad[g], expected)

    def test_single_short_example_identity(self):
        # one example inside the bound: no clipping, no noise, divided by 1
        arch = ArchDescriptor(5, (7,), 3)
        theta, X, y = dp_group(arch, 2, 1, seed=20)
        grad = run_dp_step(arch, theta, X, y, DpConfig(clip_norm=1e6, noise_multiplier=0.0), [0, 1])
        expected = np.empty_like(theta)
        param_gradient(arch, layer_views(arch, theta), X, y, out=layer_views(arch, expected))
        assert np.array_equal(grad, expected)

    def test_noise_scale_statistics(self):
        # the noise is what a sigma > 0 step adds to the sigma = 0 step: std sigma*C/batch
        arch = ArchDescriptor(4, (), 8)  # 40 parameters
        C, sigma, batch = 5.0, 1.0, 8
        theta, X, y = dp_group(arch, 50, batch, seed=21)
        clean = run_dp_step(arch, theta, X, y, DpConfig(C, 0.0), range(50))
        draws = np.concatenate([
            run_dp_step(arch, theta, X, y, DpConfig(C, sigma), range(50 * k, 50 * k + 50)) - clean
            for k in range(50)
        ])
        expected = sigma * C / batch
        assert abs(draws.std() - expected) / expected < 0.05

    def test_noise_is_drawn_in_place_like_normal(self):
        # 200 streams of a desk model's 3978 parameters: bitwise the values of
        # normal(0.0, 5.0), and each stream is left where normal leaves it
        out = np.empty(3978)
        for seed in range(200):
            rng, ref = substream(seed, 2, 0), substream(seed, 2, 0)
            assert training.normal_noise(rng, 5.0, out) is out
            assert out.tobytes() == ref.normal(0.0, 5.0, size=3978).tobytes()
            assert rng.standard_normal(4).tobytes() == ref.standard_normal(4).tobytes()

    def test_clip_check_counter_advances(self, clip_checks):
        arch = ArchDescriptor(3, (), 2)
        theta, X, y = dp_group(arch, 3, 2, seed=22)
        before = clip_checks.count
        run_dp_step(arch, theta, X, y, DpConfig(1.0, 0.0), range(3))
        assert clip_checks.count == before + 3

    @pytest.mark.parametrize("batch", [4, 3], ids=["full_batch", "short_batch"])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("hidden", [(6,), (5, 4)], ids=["one_hidden", "two_hidden"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_ghost_step_matches_materialized_gradients(self, activation, hidden, sigma, batch):
        arch = ArchDescriptor(5, hidden, 3, activation)
        theta, X, y = dp_group(arch, 3, batch, seed=46)
        theta *= 3.0  # large enough that some examples clip and others do not
        norms = np.stack([np.linalg.norm(per_example_grad_vectors(
            arch, Params.from_vector(arch, theta[g]), X[g], y[g]), axis=1) for g in range(3)])
        clip = float(np.median(norms))
        assert np.any(norms > clip) and np.any(norms < clip)
        dp = DpConfig(clip_norm=clip, noise_multiplier=sigma)
        grad = run_dp_step(arch, theta, X, y, dp, [7, 8, 9])
        for g, seed in enumerate([7, 8, 9]):
            expected = ref_dp_gradient(materialized_dp_gradient, arch, theta[g], X[g], y[g], dp,
                                       seed)
            assert np.max(np.abs(grad[g] - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestDpTraining:
    def test_dp_disabled_paths_bitwise_equal(self, clip_checks):
        # dp=None must not consume noise streams or touch per-example code
        ds = synthetic_mixture(40, 4, 3, seed=23, noise=0.2)
        arch = ArchDescriptor(4, (5,), 3)
        mask = make_even_splits(ds.n, 1, seed=24)[0]
        cfg = TrainConfig(epochs=4, batch_size=8)
        a = train_model(ds, mask, arch, cfg, 25)
        checks_before = clip_checks.count
        b = train_model(ds, mask, arch, cfg, 25)
        assert clip_checks.count == checks_before
        assert a == b

    def test_dp_sigma_zero_equals_clipped_training(self):
        ds = synthetic_mixture(40, 4, 3, seed=26, noise=0.2)
        arch = ArchDescriptor(4, (5,), 3)
        mask = make_even_splits(ds.n, 1, seed=27)[0]
        huge_clip = TrainConfig(epochs=3, batch_size=40,
                                dp=DpConfig(clip_norm=1e6, noise_multiplier=0.0))
        plain = TrainConfig(epochs=3, batch_size=40)
        a = train_model(ds, mask, arch, huge_clip, 28)
        b = train_model(ds, mask, arch, plain, 28)
        # full-batch, no clipping bite, no noise: same trajectory
        np.testing.assert_allclose(a._theta, b._theta, atol=1e-10)

    def test_dp_training_runs_and_differs(self):
        ds = synthetic_mixture(40, 4, 3, seed=29, noise=0.2)
        arch = ArchDescriptor(4, (5,), 3)
        mask = make_even_splits(ds.n, 1, seed=30)[0]
        dp = TrainConfig(epochs=3, batch_size=8, dp=DpConfig(clip_norm=5.0, noise_multiplier=0.5))
        plain = TrainConfig(epochs=3, batch_size=8)
        a = train_model(ds, mask, arch, dp, 31)
        b = train_model(ds, mask, arch, plain, 31)
        assert a != b

    def test_invalid_dp_config(self):
        with pytest.raises(ValueError):
            DpConfig(clip_norm=0.0, noise_multiplier=1.0)
        with pytest.raises(ValueError):
            DpConfig(clip_norm=1.0, noise_multiplier=-0.1)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                DpConfig(clip_norm=bad, noise_multiplier=1.0)
            with pytest.raises(ValueError):
                DpConfig(clip_norm=1.0, noise_multiplier=bad)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_invalid_learning_rate(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and positive"):
            TrainConfig(lr=lr)


# 31 points split in halves of 15: with batch 4 every epoch ends on a batch of 3,
# with batch 5 every batch is full, and batch 16 clamps to one batch of all 15.
GROUP_DS = synthetic_mixture(31, 5, 3, seed=40, noise=0.3)
N_GROUP_MODELS = 7
GROUP_SEEDS = [100 + i for i in range(N_GROUP_MODELS)]


def group_budget(arch, group):
    """TRAIN_GROUP_ELEMENTS value that makes groups of `group` models (None: all)."""
    if group is None:
        return 1 << 40
    return group * arch.param_count()


class TestLockStepTraining:
    @pytest.mark.parametrize("group", [1, 3, None])
    @pytest.mark.parametrize("dp", [None, DpConfig(clip_norm=1.0, noise_multiplier=0.5)],
                             ids=["plain", "dp"])
    @pytest.mark.parametrize("batch_size", [4, 5, 16],
                             ids=["ragged_batch", "full_batches", "batch_over_n"])
    @pytest.mark.parametrize("hidden", [(6,), (5, 4)], ids=["one_hidden", "two_hidden"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_per_model_reference_bitwise(self, monkeypatch, activation, hidden,
                                                 batch_size, dp, group):
        arch = ArchDescriptor(5, hidden, 3, activation)
        masks = make_even_splits(GROUP_DS.n, N_GROUP_MODELS, seed=41)
        assert {int(m.sum()) for m in masks} == {15}
        config = TrainConfig(epochs=3, batch_size=batch_size, lr=0.05, dp=dp)
        monkeypatch.setattr(training, "TRAIN_GROUP_ELEMENTS", group_budget(arch, group))
        sizes = [len(g) for g in plan_groups(N_GROUP_MODELS, arch)]
        assert sizes == {1: [1] * 7, 3: [3, 3, 1], None: [7]}[group]
        records = train_models(GROUP_DS, masks, arch, config, GROUP_SEEDS)
        assert len(records) == N_GROUP_MODELS
        for rec, mask, seed in zip(records, masks, GROUP_SEEDS):
            assert rec.seed == seed
            assert np.array_equal(rec._theta,
                                  reference_train(GROUP_DS, mask, arch, config, seed))

    def test_short_batch_uses_views_of_the_full_workspace(self):
        arch = ArchDescriptor(5, (6, 4), 3)
        ws = Workspace(arch, (7, 4))
        short = ws.rows(3)
        assert short.noise is ws.noise
        layers = [ws.outs + ws.deltas + ws.act_grads, short.outs + short.deltas + short.act_grads]
        for full, cut in [(ws.X, short.X), (ws.y, short.y), (ws.x_norms, short.x_norms),
                          *zip(*layers)]:
            assert cut.shape == (7, 3, *full.shape[2:]) and cut.base is full
        assert [i.shape for i in short.index] == [(7, 1), (1, 3)]

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="counts minor page faults under glibc's default malloc on Linux")
    def test_group_steps_keep_their_pages(self):
        # Under glibc's default malloc, steps that allocate and free
        # activation-sized temporaries hand their pages back to the kernel and
        # fault them in again (about 174 minor faults per group step for this
        # farm, plain or DP); steps that write into one workspace per group take
        # about 30. Counted in a fresh process with no MALLOC_* setting, after a
        # warm-up build.
        script = (
            "import resource\n"
            "from mialab.data import synthetic_mixture\n"
            "from mialab.farm import build_farm\n"
            "from mialab.nn import ArchDescriptor\n"
            "from mialab.training import DpConfig, TrainConfig\n"
            "ds = synthetic_mixture(500, 20, 10, seed=3, noise=0.25)\n"
            "arch = ArchDescriptor(20, (128,), 10)\n"
            "for dp in (None, DpConfig(5.0, 1.0)):\n"
            "    config = TrainConfig(epochs=3, batch_size=32, lr=0.01, dp=dp)\n"
            "    build_farm(ds, 16, arch, config, master_seed=1)\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    build_farm(ds, 16, arch, config, master_seed=2)\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(training.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True)
        # 2 groups of 8 models, 3 epochs of 8 batches (250 points, batch 32)
        group_steps = len(plan_groups(16, ArchDescriptor(20, (128,), 10))) * 3 * 8
        per_step = [int(line) / group_steps for line in done.stdout.split()]
        assert len(per_step) == 2 and max(per_step) < 87, per_step

    def test_parallel_groups_cover_every_worker(self):
        arch = ArchDescriptor(5, (6,), 3)
        assert [len(g) for g in plan_groups(24, arch)] == [24]
        assert [len(g) for g in plan_groups(24, arch, jobs=4)] == [6] * 4
        assert [len(g) for g in plan_groups(7, arch, jobs=2)] == [4, 3]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poisoned model's NaN softmax
    def test_one_diverging_model_fails_the_group(self, monkeypatch):
        arch = ArchDescriptor(5, (6,), 3)
        masks = make_even_splits(GROUP_DS.n, 4, seed=43)
        config = TrainConfig(epochs=2, batch_size=4)
        seeds = [200 + i for i in range(4)]
        assert [len(g) for g in plan_groups(4, arch)] == [4]
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
