"""Shadow farm: build determinism, partition, oracle, binary round trips."""

import hashlib
import os
import pickle
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mialab
import mialab.training as training

from mialab.data import synthetic_mixture
from mialab.errors import FormatError, MialabError, ShapeError, UnsupportedVersionError
from mialab.farm import (
    CHECKSUM_BYTES,
    HEADER,
    MAGIC,
    VERSION,
    ShadowFarm,
    TargetOracle,
    build_farm,
    farms_equal,
    hold_out_target,
    in_out_partition,
    load_farm,
    model_confidence_batch,
    save_farm,
)
from mialab.nn import ArchDescriptor, forward_batch, softmax
from mialab.training import DpConfig, ModelRecord, TrainConfig, record_accuracy

from oracles import one_row_tile, reference_train


@pytest.fixture(scope="module")
def toy():
    # low-noise mixture: cleanly separable, so members fit their half exactly
    ds = synthetic_mixture(32, 4, 3, seed=0, noise=0.04, mean_low=0.15, mean_high=0.85)
    arch = ArchDescriptor(4, (6,), 3)
    cfg = TrainConfig(epochs=60, batch_size=8, lr=0.05)
    farm = build_farm(ds, 8, arch, cfg, master_seed=77)
    return ds, arch, cfg, farm


class TestBuild:
    def test_sizes(self):
        ds = synthetic_mixture(8, 3, 2, seed=1, noise=0.1)
        arch = ArchDescriptor(3, (4,), 2)
        farm = build_farm(ds, 2, arch, TrainConfig(epochs=2, batch_size=4), master_seed=5)
        assert farm.n_models == 2
        assert list(farm.splits.sum(axis=1)) == [4, 4]

    def test_deterministic_per_master_seed(self, toy):
        ds, arch, cfg, farm = toy
        again = build_farm(ds, 8, arch, cfg, master_seed=77)
        assert farms_equal(farm, again)
        other = build_farm(ds, 8, arch, cfg, master_seed=78)
        assert not farms_equal(farm, other)

    def test_members_fit_training_half(self, toy):
        ds, _, _, farm = toy
        for i, rec in enumerate(farm.records):
            assert record_accuracy(rec, ds, np.flatnonzero(farm.splits[i])) == 1.0

    def test_needs_two_models(self, toy):
        ds, arch, cfg, _ = toy
        with pytest.raises(ValueError):
            build_farm(ds, 1, arch, cfg, master_seed=0)

    def test_parallel_build_matches_serial(self, toy):
        ds, arch, cfg, farm = toy
        parallel = build_farm(ds, 8, arch, cfg, master_seed=77, jobs=2)
        assert farms_equal(farm, parallel)

    def test_parallel_uneven_groups_match_serial_and_reference(self, toy, monkeypatch):
        ds, arch, cfg, _ = toy
        monkeypatch.setattr(training, "TRAIN_GROUP_ELEMENTS", 3 * arch.param_count())
        serial = build_farm(ds, 7, arch, cfg, master_seed=78)
        assert [len(g) for g in training.plan_groups(7, arch)] == [3, 3, 1]
        assert [len(g) for g in training.plan_groups(7, arch, jobs=2)] == [3, 3, 1]
        assert farms_equal(serial, build_farm(ds, 7, arch, cfg, master_seed=78, jobs=2))
        for rec, mask in zip(serial.records, serial.splits):
            assert np.array_equal(rec._theta,
                                  reference_train(ds, mask, arch, cfg, rec.seed))

    def test_parallel_dp_build_matches_serial_and_reference(self, toy):
        ds, arch, cfg, _ = toy
        dp_cfg = replace(cfg, epochs=3, dp=DpConfig(clip_norm=1.0, noise_multiplier=0.5))
        serial = build_farm(ds, 5, arch, dp_cfg, master_seed=79)
        assert [len(g) for g in training.plan_groups(5, arch, jobs=2)] == [3, 2]
        assert farms_equal(serial, build_farm(ds, 5, arch, dp_cfg, master_seed=79, jobs=2))
        for rec, mask in zip(serial.records, serial.splits):
            assert np.array_equal(rec._theta,
                                  reference_train(ds, mask, arch, dp_cfg, rec.seed))

    def test_store_bytes_identical_across_blas_threads(self, tmp_path):
        # batch 128 x hidden 256: products large enough for a 2-thread BLAS to split;
        # one plain and one DP farm
        stores = [_blas_stores(tmp_path, threads, 1, 400, 20, 256, 128) for threads in (1, 2)]
        assert stores[0] == stores[1]

    def test_wide_store_bytes_identical_across_blas_threads_and_jobs(self, tmp_path):
        # a 784-64-10 net at batch 32, whose (32, 784)·(784, 64) training gemm a
        # 2-thread OpenBLAS splits: built on two forked workers in a 2-thread
        # process and serially in a 1-thread one
        stores = [_blas_stores(tmp_path, n, n, 300, 784, 64, 32) for n in (2, 1)]
        assert stores[0] == stores[1]


_BLAS_STORE_SCRIPT = """
import sys
from mialab.data import synthetic_mixture
from mialab.farm import build_farm, save_farm
from mialab.nn import ArchDescriptor
from mialab.training import DpConfig, TrainConfig
jobs, n, dim, hidden, batch = map(int, sys.argv[1:6])
ds = synthetic_mixture(n, dim, 10, seed=5, noise=0.25)
for dp, path in ((None, sys.argv[6]), (DpConfig(5.0, 1.0), sys.argv[7])):
    farm = build_farm(ds, 6, ArchDescriptor(dim, (hidden,), 10),
                      TrainConfig(epochs=2, batch_size=batch, lr=0.01, dp=dp),
                      master_seed=9, jobs=jobs)
    save_farm(farm, path)
"""


def _blas_stores(tmp_path, threads, jobs, *shape) -> list[bytes]:
    """The plain and DP farm.bin of six models of one shape (points, input width,
    hidden width, batch), built in a process started with threads BLAS threads."""
    src = str(Path(mialab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    paths = [tmp_path / f"{kind}_{threads}_{jobs}.bin" for kind in ("plain", "dp")]
    subprocess.run([sys.executable, "-c", _BLAS_STORE_SCRIPT, *map(str, (jobs, *shape, *paths))],
                   env=env, check=True)
    return [path.read_bytes() for path in paths]


class TestPartition:
    def test_crafted_mask(self, toy):
        ds, arch, cfg, farm = toy
        crafted = ShadowFarm(
            fingerprint=farm.fingerprint,
            arch=farm.arch,
            splits=np.array([[True, False], [False, True]]),
            records=farm.records[:2],
            master_seed=0,
        )
        s_in, s_out = in_out_partition(crafted, 0)
        assert s_in == [farm.records[0]] and s_out == [farm.records[1]]

    def test_partition_is_exhaustive(self, toy):
        _, _, _, farm = toy
        for t in range(0, farm.n_points, 5):
            s_in, s_out = in_out_partition(farm, t)
            assert len(s_in) + len(s_out) == farm.n_models

    def test_index_bounds(self, toy):
        _, _, _, farm = toy
        with pytest.raises(IndexError):
            in_out_partition(farm, farm.n_points)

    def test_in_counts_binomial_range(self):
        ds = synthetic_mixture(400, 3, 2, seed=2, noise=0.2)
        arch = ArchDescriptor(3, (), 2)
        farm = build_farm(ds, 64, arch, TrainConfig(epochs=1, batch_size=64), master_seed=9)
        rng = np.random.default_rng(3)
        sizes = []
        for t in rng.integers(0, ds.n, 100):
            s_in, _ = in_out_partition(farm, int(t))
            sizes.append(len(s_in))
        assert 24 <= np.mean(sizes) <= 40


class TestOracle:
    def test_confidence_matches_direct_evaluation(self, toy):
        ds, _, _, farm = toy
        oracle, _ = hold_out_target(farm, 3)
        rec = farm.records[3]
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(0, 1, ds.input_dim)
            y = int(rng.integers(3))
            direct = float(softmax(forward_batch(rec.arch, rec._params, one_row_tile(x)))[0, y])
            assert oracle.confidence(x, y) == direct

    def test_confidences_are_single_queries_bitwise(self, toy):
        ds, _, _, farm = toy
        oracle, _ = hold_out_target(farm, 3)
        X = np.random.default_rng(5).uniform(0, 1, (4, 3, ds.input_dim))
        y = np.array([0, 2, 1, 2])
        conf = oracle.confidences(X, y)
        assert conf.shape == (4, 3) and oracle.query_count == 12
        single = [[oracle.confidence(X[t, q], int(y[t])) for q in range(3)] for t in range(4)]
        assert np.array_equal(conf, np.array(single))
        assert np.array_equal(oracle.confidences(X[1], 2), conf[1])

    def test_stacked_blocks_equal_each_block(self, toy):
        ds, _, _, farm = toy
        rec = farm.records[2]
        X = np.random.default_rng(6).uniform(0, 1, (5, 4, ds.input_dim))
        y = np.array([1, 0, 2, 2, 1])
        stacked = model_confidence_batch(rec, X, y)
        for t in range(5):
            assert np.array_equal(stacked[t], model_confidence_batch(rec, X[t], int(y[t])))
        with pytest.raises(IndexError):
            model_confidence_batch(rec, X, np.array([1, 0, 3, 2, 1]))

    def test_shadows_and_oracle_score_rows_alone(self):
        # a 10-row slice of the desk 20-128-10 net rounds its last rows apart
        # from the rows alone; every row must be evaluated as the oracle does
        arch = ArchDescriptor(20, (128,), 10)
        rng = np.random.default_rng(9)
        theta = rng.normal(0.0, 0.3, arch.param_count())
        rec = ModelRecord(arch, 0, theta)
        X = rng.uniform(0, 1, (12, 10, 20))
        y = rng.integers(10, size=12)
        shadow = model_confidence_batch(rec, X, y)
        assert np.array_equal(shadow, TargetOracle(ModelRecord(arch, 0, theta), 1).confidences(X, y))
        for t in range(12):
            for q in range(10):
                assert shadow[t, q] == model_confidence_batch(rec, X[t, q:q + 1], int(y[t]))[0]

    def test_refused_query_is_not_counted(self, toy):
        ds, _, _, farm = toy
        oracle, _ = hold_out_target(farm, 0)
        oracle.confidences(ds.features[:2], 1)
        for X, y in ((ds.features[:4], 3), (ds.features[:4], -1),
                     (ds.features[:4].reshape(2, 2, -1), np.array([0, 3]))):
            with pytest.raises(IndexError):
                oracle.confidences(X, y)
        with pytest.raises(ShapeError):
            oracle.confidences(ds.features[:4, :2], 0)
        assert oracle.query_count == 2

    def test_stride_zero_block_is_evaluated_once_per_point(self, toy, monkeypatch):
        ds, _, _, farm = toy
        oracle, _ = hold_out_target(farm, 3)
        evaluated, real = [], mialab.farm.row_tiles
        monkeypatch.setattr(mialab.farm, "row_tiles",
                            lambda X, rows: evaluated.append(len(rows)) or real(X, rows))
        X, y = ds.features[:5], np.array([0, 2, 1, 2, 0])
        spread = np.broadcast_to(X[:, None], (5, 4, ds.input_dim))
        conf = oracle.confidences(spread, y)
        assert conf.shape == (5, 4) and evaluated == [5] and oracle.query_count == 20
        dense = oracle.confidences(np.ascontiguousarray(spread), y)  # every row evaluated
        assert evaluated == [5, 20] and oracle.query_count == 40
        assert np.ascontiguousarray(conf).tobytes() == dense.tobytes()
        assert oracle.confidences(X[:, None], y).tobytes() == dense[:, :1].tobytes()
        assert evaluated == [5, 20, 5] and oracle.query_count == 45
        with pytest.raises(IndexError):
            oracle.confidences(spread, np.array([0, 2, 1, 3, 0]))
        assert oracle.query_count == 45

    def test_remaining_farm_excludes_target(self, toy):
        _, _, _, farm = toy
        _, rest = hold_out_target(farm, 3)
        assert rest.n_models == farm.n_models - 1
        assert farm.records[3] not in rest.records

    def test_every_hold_out_counts_from_zero(self, toy):
        ds, _, _, farm = toy
        _, rest = hold_out_target(farm, 0)
        model_confidence_batch(rest.records[0], ds.features[:1], 0)  # a read of model 1
        assert farm.records[1].access_count == 0
        oracle, rest = hold_out_target(farm, 1)
        assert oracle.hidden_param_reads == 0
        assert all(r.access_count == 0 for r in rest.records)

    def test_query_counter(self, toy):
        ds, _, _, farm = toy
        oracle, _ = hold_out_target(farm, 0)
        oracle.confidences(ds.features[:4], 0)
        assert oracle.query_count == 4  # one query per row
        x = ds.features[0]
        for i in range(5):
            oracle.confidence(x, 0)
        assert oracle.query_count == 9

    def test_oracle_hides_parameters(self, toy):
        _, _, _, farm = toy
        oracle, _ = hold_out_target(farm, 0)
        assert not hasattr(oracle, "params")
        assert oracle.hidden_param_reads == 0

    def test_shadow_access_is_counted(self, toy):
        ds, _, _, farm = toy
        rec = farm.records[1]
        before = rec.access_count
        model_confidence_batch(rec, ds.features[:1], 0)
        assert rec.access_count == before + 1


class TestStore:
    def test_round_trip(self, toy, tmp_path):
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        loaded = load_farm(path)
        assert farms_equal(farm, loaded)

    def test_equality_compares_contents_not_the_files_digest(self, toy, tmp_path):
        # farms_equal is ==: splits and records by value, sha256 left out
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        loaded = load_farm(path)
        assert loaded.sha256 is not None and farm.sha256 is None
        assert loaded == farm and farm == loaded and farms_equal(loaded, farm)
        splits = farm.splits.copy()
        splits[0, 0] = not splits[0, 0]
        theta = farm.records[1]._theta.copy()
        theta[0] += 1.0
        records = list(farm.records)
        records[1] = ModelRecord(farm.arch, records[1].seed, theta)
        for other in (replace(farm, splits=splits), replace(farm, records=records)):
            assert loaded != other and not farms_equal(loaded, other)
        assert farm != farm.fingerprint

    @pytest.mark.parametrize("arch", [ArchDescriptor(4, (6,), 3, "tanh"), ArchDescriptor(4, (8,), 3)],
                             ids=["tanh-records-in-a-relu-farm", "wider-records"])
    def test_records_must_have_the_farms_architecture(self, toy, arch):
        # the store keeps one architecture: tanh records reloaded as relu, and
        # wider ones wrote a file the loader refused for its trailing bytes
        _, _, _, farm = toy
        rows = np.zeros((farm.n_models, arch.param_count()))
        records = [ModelRecord(arch, r.seed, row) for r, row in zip(farm.records, rows)]
        with pytest.raises(ValueError, match="every record must have the farm's architecture"):
            ShadowFarm(farm.fingerprint, farm.arch, farm.splits, records, farm.master_seed)
        with pytest.raises(ValueError, match="every record must have the farm's architecture"):
            replace(farm, records=farm.records[:-1] + records[-1:])

    def test_loaded_records_are_frozen_rows_equal_to_the_built_ones(self, toy, tmp_path):
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        loaded = load_farm(path)
        assert loaded.records == farm.records
        assert [r.seed for r in loaded.records] == [r.seed for r in farm.records]
        for rec in loaded.records:
            assert not rec._theta.flags.writeable
            assert not any(a.flags.writeable for a in rec._params.weights + rec._params.biases)
            assert rec.access_count == 0

    def test_trailer_is_the_payloads_sha256(self, toy, tmp_path):
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        data = path.read_bytes()
        assert data[8:12] == struct.pack("<I", 3)
        assert data[-CHECKSUM_BYTES:] == hashlib.sha256(data[:-CHECKSUM_BYTES]).digest()

    def test_save_and_load_give_the_files_sha256(self, toy, tmp_path):
        # one hasher per command serves the trailer and the manifest's digest
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        digest = save_farm(farm, path)
        loaded = load_farm(path)
        assert loaded.sha256 == digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert farms_equal(loaded, farm)
        # a farm built or derived in memory claims no file's digest
        assert farm.sha256 is None
        assert replace(loaded, master_seed=loaded.master_seed + 1).sha256 is None
        assert hold_out_target(loaded, 0)[1].sha256 is None

    @pytest.mark.parametrize("dims,n_models,n_points", [
        ((4, 6, 3), 8, 32),  # the toy farm's shape: block at byte 149
        ((4, 3, 3), 2, 8),  # byte 71
        ((4, 5, 2, 3, 3), 4, 8),  # byte 97
        ((20, 128, 10), 33, 2000),  # the desk farm's shape: byte 8567
    ])
    def test_loaded_rows_are_aligned_when_the_block_is_not(self, tmp_path, dims, n_models, n_points):
        # load_farm copies the block: rows viewing it in place would be unaligned
        # float64, which BLAS kernels round differently, so scores would not be bitwise
        arch = ArchDescriptor(dims[0], dims[1:-1], dims[-1])
        rows = np.random.default_rng(0).normal(size=(n_models, arch.param_count()))
        splits = np.arange(n_models * n_points).reshape(n_models, n_points) % 3 == 0
        farm = ShadowFarm(5, arch, splits, [ModelRecord(arch, i, row) for i, row in enumerate(rows)], 9)
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        offset = path.stat().st_size - CHECKSUM_BYTES - rows.nbytes
        assert offset == 49 + 4 * (len(dims) - 2) + 8 * n_models + -(-n_models * n_points // 8)
        assert offset % 2 == 1  # so no view of the block in the file's bytes is 8-aligned
        loaded = load_farm(path)
        assert farms_equal(loaded, farm)
        for rec in loaded.records:
            assert rec._theta.flags.aligned
            assert all(a.flags.aligned for a in rec._params.weights + rec._params.biases)

    def test_truncated_file(self, toy, tmp_path):
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_farm(path)

    def test_every_proper_prefix_is_refused_as_truncated(self, tmp_path):
        ds = synthetic_mixture(6, 2, 2, seed=3, noise=0.1)
        farm = build_farm(ds, 3, ArchDescriptor(2, (2,), 2), TrainConfig(epochs=1, batch_size=3),
                          master_seed=4)
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        blob = path.read_bytes()
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            problem = "bad magic b''" if size == 0 else f"truncated farm store: expected .* got {size}$"
            with pytest.raises(FormatError, match=problem):
                load_farm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "farm.bin"
        path.write_bytes(b"NOTAFARM" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_farm(path)

    def test_version_mismatch(self, toy, tmp_path):
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # version word
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            load_farm(path)

    def test_trailing_garbage_rejected(self, toy, tmp_path):
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_farm(path)

    def test_version_1_store_refused_with_rebuild_hint(self, toy, tmp_path):
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        blob = bytearray(path.read_bytes()[:-CHECKSUM_BYTES])  # v1 had no checksum
        blob[8:12] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError, match="rerun train-shadows"):
            load_farm(path)

    def test_version_2_store_refused_with_rebuild_hint(self, toy, tmp_path):
        # version 2 had this layout with a blake2b-256 trailer
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        blob = bytearray(path.read_bytes()[:-CHECKSUM_BYTES])
        blob[8:12] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob) + hashlib.blake2b(blob, digest_size=CHECKSUM_BYTES).digest())
        with pytest.raises(UnsupportedVersionError, match="version 2 .*rerun train-shadows"):
            load_farm(path)

    @pytest.mark.parametrize("where", [
        pytest.param(-CHECKSUM_BYTES - 1, id="payload"),  # last byte of the last model's parameters
        pytest.param(-CHECKSUM_BYTES, id="trailer-first"),
        pytest.param(-1, id="trailer-last"),
    ])
    def test_corruption_fails_checksum(self, toy, tmp_path, where):
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        blob = bytearray(path.read_bytes())
        blob[where] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum"):
            load_farm(path)

    @pytest.mark.parametrize("input_dim, hidden, classes, message", [
        (3, 0, 2, "hidden_dims must be positive"),
        (3, 4, 1, "num_classes must be at least 2"),
        (0, 4, 2, "input_dim must be positive"),
    ], ids=["hidden-0", "classes-1", "input-0"])
    def test_impossible_architecture_names_the_file(self, tmp_path, input_dim, hidden, classes,
                                                    message):
        # a store whose checksum holds but whose header describes no network
        n_models, n_points = 2, 3
        dims = (input_dim, hidden, classes)
        pcount = sum(o * i + o for i, o in zip(dims, dims[1:]))
        blob = (HEADER.pack(MAGIC, VERSION, 0, 0, n_models, n_points, input_dim, classes, 0, 1)
                + struct.pack("<I", hidden) + bytes(8 * n_models + 1 + 8 * pcount * n_models))
        path = tmp_path / "farm.bin"
        path.write_bytes(blob + hashlib.sha256(blob).digest())
        with pytest.raises(FormatError) as raised:
            load_farm(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_every_single_bit_flip_refused(self, tmp_path):
        ds = synthetic_mixture(6, 2, 2, seed=3, noise=0.1)
        arch = ArchDescriptor(2, (2,), 2)
        farm = build_farm(ds, 3, arch, TrainConfig(epochs=1, batch_size=3), master_seed=4)
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        blob = path.read_bytes()
        accepted = []
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                load_farm(path)
            except MialabError:
                continue
            accepted.append(bit)
        assert accepted == []

    def test_failed_save_keeps_the_old_store(self, toy, tmp_path, monkeypatch):
        _, _, _, farm = toy
        path = tmp_path / "farm.bin"
        save_farm(farm, path)
        before = path.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted before the rename")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            save_farm(farm, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["farm.bin"]

    def test_byte_identical_saves(self, toy, tmp_path):
        _, _, _, farm = toy
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_farm(farm, a)
        save_farm(farm, b)
        assert a.read_bytes() == b.read_bytes()


class TestRecord:
    def test_params_frozen(self, toy):
        _, _, _, farm = toy
        rec = farm.records[0]
        with pytest.raises(ValueError):
            rec._params.weights[0][0, 0] = 1.0

    def test_equality(self, toy):
        _, _, _, farm = toy
        assert farm.records[0] == farm.records[0]
        assert farm.records[0] != farm.records[1]

    def test_row_is_the_parameters(self, toy):
        _, arch, _, farm = toy
        rec = farm.records[0]
        assert rec._theta.shape == (arch.param_count(),) and not rec._theta.flags.writeable
        assert np.array_equal(rec._params.to_vector(), rec._theta)
        assert all(np.shares_memory(a, rec._theta) for a in rec._params.weights + rec._params.biases)

    @pytest.mark.parametrize("theta", [
        pytest.param(lambda p: np.zeros(p - 1), id="short"),
        pytest.param(lambda p: np.zeros((1, p)), id="stacked"),
        pytest.param(lambda p: np.zeros(p, dtype=np.float32), id="float32"),
        pytest.param(lambda p: np.zeros(p, dtype=np.int64), id="int64"),
        pytest.param(lambda p: [0.0] * p, id="list"),
    ])
    def test_refuses_anything_but_a_float64_row(self, toy, theta):
        _, arch, _, _ = toy
        with pytest.raises(ShapeError, match="float64 parameter row"):
            training.ModelRecord(arch, 0, theta(arch.param_count()))

    def test_pickled_record_is_frozen_and_equal(self, toy):
        _, _, _, farm = toy
        rec = farm.records[2]
        rec.params
        copy = pickle.loads(pickle.dumps(rec))
        assert copy == rec and copy.access_count == 0
        assert not copy._theta.flags.writeable
        assert not any(a.flags.writeable for a in copy._params.weights + copy._params.biases)
        with pytest.raises(ValueError):
            copy._params.biases[0][0] = 1.0
