"""Property tests: a damaged artefact reads back intact or fails with one error.

Any mix of bit flips, truncations and insertions applied to a farm store
or a score table either loads what was written or raises the package's
own error (MialabError for a farm, FormatError for a score table).
Through the CLI every such failure is one ``error:<Class>: ...`` line on
stderr and exit code 1. A config with values changed and keys dropped
either raises ConfigError or loads to a config whose manifest reloads
equal; only the loader runs, so no mutated size starts any work.
``rng.shuffle_heads``, which draws every canary pick of a block from the
rows' raw words, gives what ``Generator.shuffle`` of a fresh ``arange``,
``permutation`` and one row of ``permuted`` give after a ``normal`` draw,
for any mix of sizes and however often a row runs out of words (a numpy
change to any of them would change scores). A batch of streams derived together
is numpy's own ``SeedSequence`` stream of each key tuple, state for state.
Example counts are bounded and derandomized so the suite stays fast and
repeatable.
"""

import contextlib
import copy
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mialab.attacks import ScoreTable
from mialab.cli import main
from mialab.config import ExperimentConfig, load_config, write_manifest
from mialab.errors import ConfigError, FormatError, MialabError
from mialab.farm import farms_equal, load_farm
from mialab import rng as rng_module
from mialab.rng import shuffle_heads, substream, substreams

ERROR_LINE = re.compile(r"error:[A-Za-z]+: [^\n]*\n")

MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8)),
)
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=3)


def bounded(n: int):
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


def mutate(blob: bytes, mutations) -> bytes:
    out = bytearray(blob)
    for op, pos, *arg in mutations:
        if op == "flip" and out:
            out[pos % len(out)] ^= 1 << arg[0]
        elif op == "truncate":
            del out[pos % (len(out) + 1):]
        elif op == "insert":
            at = pos % (len(out) + 1)
            out[at:at] = arg[0]
    return bytes(out)


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A small farm store and a score table, both written by the CLI."""
    root = tmp_path_factory.mktemp("props")
    config = {
        "dataset": {"kind": "synthetic", "n_points": 32, "input_dim": 3, "num_classes": 2,
                    "noise": 0.1, "seed": 1},
        "arch": {"hidden_dims": [4], "activation": "relu"},
        "train": {"epochs": 2, "batch_size": 6, "lr": 0.01, "optimizer": "adam"},
        "n_models": 8,
        "master_seed": 7,
        "seeds": [0],
        "attack": {"method": "lira", "mode": "offline", "canary": {"num_queries": 2}},
        "targets": {"count": 4, "seed": 0},
    }
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["train-shadows", "--config", str(cfg), "--out", str(root)]) == 0
    assert main(["attack", "--config", str(cfg), "--farm", str(root / "farm.bin"),
                 "--out", str(root / "att")]) == 0
    farm = root / "farm.bin"
    return root, load_farm(farm), farm.read_bytes(), (root / "att" / "scores_seed0.csv").read_bytes()


def one_error_line_or_success(argv) -> bool:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    err = err.getvalue()
    return (rc == 0 and err == "") or (rc == 1 and ERROR_LINE.fullmatch(err) is not None)


@bounded(200)
@given(mutations=MUTATIONS)
def test_mutated_farm_loads_intact_or_raises(stored, mutations):
    root, farm, blob, _ = stored
    path = root / "mutated.bin"
    path.write_bytes(mutate(blob, mutations))
    try:
        loaded = load_farm(path)
    except MialabError:
        return
    assert farms_equal(loaded, farm)


@bounded(200)
@given(mutations=MUTATIONS)
def test_mutated_score_table_loads_or_raises_format_error(stored, mutations):
    root, _, _, scores = stored
    path = root / "mutated_seed0.csv"
    path.write_bytes(mutate(scores, mutations))
    try:
        ScoreTable.read_csv(path)
    except FormatError:
        pass


@bounded(60)
@given(mutations=MUTATIONS)
def test_cli_attack_on_mutated_farm_is_one_error_line(stored, mutations):
    root, _, blob, _ = stored
    path = root / "mutated.bin"
    path.write_bytes(mutate(blob, mutations))
    assert one_error_line_or_success(["attack", "--config", str(root / "config.json"),
                                      "--farm", str(path), "--out", str(root / "att-mutated"),
                                      "--force"])


@bounded(100)
@given(mutations=MUTATIONS)
def test_cli_eval_on_mutated_scores_is_one_error_line(stored, mutations):
    root, _, _, scores = stored
    path = root / "mutated_seed0.csv"
    path.write_bytes(mutate(scores, mutations))
    assert one_error_line_or_success(["eval", str(path), "--out", str(root / "ev-mutated"),
                                      "--force"])


FULL_CONFIG = {
    "dataset": {"kind": "synthetic", "n_points": 32, "input_dim": 3, "num_classes": 2,
                "noise": 0.1, "seed": 1},
    "arch": {"hidden_dims": [4, 3], "activation": "tanh"},
    "train": {"epochs": 2, "batch_size": 6, "lr": 0.01, "optimizer": "sgd",
              "dp": {"clip_norm": 5.0, "noise_multiplier": 1.0}},
    "n_models": 8,
    "master_seed": 7,
    "seeds": [0, 2],
    "attack": {"method": "canary", "mode": "offline",
               "canary": {"epsilon": 0.1, "steps": 3, "shadow_batch": 2, "lr": 0.05,
                          "objective": "raw_logit", "init": "target_plus_noise",
                          "init_noise_scale": 0.02, "num_queries": 2,
                          "offline_density": True}},
    "targets": {"count": 4, "seed": 0},
}


def key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


DROP = object()
# Edge values of every JSON type the schema reads, and a dropped key.
EDIT_VALUES = [DROP, None, True, False, 0, 1, -1, 2, 1 << 70, 10**400, 0.0, -0.0, -0.5, 0.5,
               1e308, math.inf, -math.inf, math.nan, "", "csv", "idx-pair", "synthetic",
               "relu", "sigmoid", "lira", "random_noise", "online", "adam", "target",
               "cw_margin", [], [0], [1.5], [3, 1], [-1], {}, {"clip_norm": 1.0}]
CONFIG_EDITS = st.lists(
    st.tuples(st.sampled_from(list(key_paths(FULL_CONFIG))), st.sampled_from(EDIT_VALUES)),
    min_size=1, max_size=3,
)


def edited(config: dict, edits) -> dict:
    out = copy.deepcopy(config)
    for path, value in edits:
        node = out
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue  # an earlier edit replaced or dropped this key's parent
        if value is DROP:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = copy.deepcopy(value)
    return out


def test_full_config_loads_and_round_trips():
    cfg = ExperimentConfig.from_dict(FULL_CONFIG)
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@bounded(300)
@given(edits=CONFIG_EDITS)
def test_mutated_config_is_refused_or_round_trips(tmp_path_factory, edits):
    """A config is refused or resolves to a manifest that reloads to an equal
    config: every key it may set is resolved."""
    try:
        cfg = ExperimentConfig.from_dict(edited(FULL_CONFIG, edits))
    except ConfigError:
        return
    manifest = tmp_path_factory.getbasetemp() / "mutated_manifest.json"
    write_manifest(manifest, {"resolved_config": cfg.to_dict()})
    reloaded = load_config(manifest)
    assert reloaded == cfg


@bounded(300)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 34), steps=st.integers(0, 40),
       noise_dim=st.integers(0, 3))
def test_permuted_rows_draw_like_sequential_permutations(seed, k, steps, noise_dim):
    one, loop, raw = substream(seed, 1), substream(seed, 1), substream(seed, 1)
    for rng in (one, loop, raw):  # a row's stream draws its init noise first
        rng.normal(0.0, 1.0, size=noise_dim)
    picks = one.permuted(np.tile(np.arange(k), (steps, 1)), axis=1)
    expected = np.array([loop.permutation(k) for _ in range(steps)], dtype=picks.dtype)
    assert np.array_equal(picks, expected.reshape(steps, k))
    assert one.bit_generator.state == loop.bit_generator.state
    heads = shuffle_heads([raw], np.full((1, steps), k), k)
    assert heads.shape == (1, steps, k) and np.array_equal(heads[0], picks)


@bounded(300)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 34), min_size=1, max_size=6),
       steps=st.integers(1, 12))
def test_shuffled_buffer_draws_like_permutation(seed, sizes, steps):
    one, loop, raw = substream(seed, 3), substream(seed, 3), substream(seed, 3)
    buffers = {k: (np.arange(k), np.empty(k, dtype=np.intp)) for k in sizes}
    count = min(sizes)
    shuffled = []
    for _ in range(steps):
        for k in sizes:  # one buffer per size, refilled before every shuffle
            arange, buf = buffers[k]
            buf[:] = arange
            one.shuffle(buf)
            assert np.array_equal(buf, loop.permutation(k))
            shuffled.append(buf[:count].copy())
    assert one.bit_generator.state == loop.bit_generator.state
    heads = shuffle_heads([raw], np.tile(sizes, (1, steps)), count)
    assert np.array_equal(heads[0], np.array(shuffled))


SHUFFLE_ROWS = st.lists(st.tuples(st.integers(1, 34), st.integers(1, 34)), min_size=1, max_size=5)


@bounded(300)
@given(seed=st.integers(0, 2**32 - 1), rows=SHUFFLE_ROWS, steps=st.integers(0, 12),
       online=st.booleans(), count=st.integers(0, 34), noise_dim=st.integers(0, 3),
       words=st.one_of(st.none(), st.integers(1, 6)),
       entries=st.sampled_from([1, 300, rng_module._DRAW_ENTRIES]))
def test_shuffle_heads_draw_like_numpy(seed, rows, steps, online, count, noise_dim, words,
                                       entries):
    """Rows of [out, in] x steps or [out] x steps sizes, as online and offline
    canary picks draw them; a few words at a time make rows refill, and a
    small entry budget draws the rows one or a few at a time."""
    sizes = np.tile([list(r) if online else [r[0]] for r in rows], (1, steps))
    count = min(count, sizes.min(initial=count))
    keys = [(seed, row) for row in range(len(rows))]
    streams = {way: substreams(keys) for way in ("raw", "shuffle", "permutation", "permuted")}
    for rngs in streams.values():
        for rng in rngs:
            rng.normal(0.0, 1.0, size=noise_dim)
    with mock.patch.object(rng_module, "_WORDS_PER_READ", words or rng_module._WORDS_PER_READ), \
            mock.patch.object(rng_module, "_DRAW_ENTRIES", entries):
        heads = shuffle_heads(streams["raw"], sizes, count)
    assert heads.shape == (len(rows), sizes.shape[1], count)
    for r, row in enumerate(sizes.tolist()):
        for j, k in enumerate(row):
            buf = np.arange(k)
            streams["shuffle"][r].shuffle(buf)
            assert np.array_equal(heads[r, j], buf[:count])
            assert np.array_equal(heads[r, j], streams["permutation"][r].permutation(k)[:count])
        if len(set(row)) == 1:  # one size: the row's shuffles are one permuted call
            picks = streams["permuted"][r].permuted(np.tile(np.arange(row[0]), (len(row), 1)), axis=1)
            assert np.array_equal(heads[r], picks[:, :count])


@pytest.mark.parametrize("words", [1, 2, None])
def test_shuffle_heads_refill_rows_that_run_out(monkeypatch, words):
    # one word holds two halves: with one or two words a read, every row
    # reads many times over; by default a few reads serve the block
    sizes = np.array([[34, 2] * 6, [17, 1] * 6, [33, 33] * 6])
    rngs, loops = substreams([(5, r) for r in range(3)]), substreams([(5, r) for r in range(3)])
    reads = []
    read = rng_module._masked_halves
    monkeypatch.setattr(rng_module, "_masked_halves", lambda *a: reads.append(a) or read(*a))
    monkeypatch.setattr(rng_module, "_WORDS_PER_READ", words or rng_module._WORDS_PER_READ)
    heads = shuffle_heads(rngs, sizes, 1)
    rows_read = [len(streams) for streams, _ in reads]
    assert rows_read == sorted(rows_read, reverse=True)  # a row that is done reads no more
    assert len(reads) > 100 if words else len(reads) < 10
    expected = [[loop.permutation(k)[:1] for k in row] for loop, row in zip(loops, sizes.tolist())]
    assert np.array_equal(heads, np.array(expected))


def test_shuffle_heads_walk_rows_within_the_entry_budget(monkeypatch):
    # a walk holds at most _DRAW_ENTRIES (row, draw) entries, so a block's
    # pick arrays stay bounded however many models and steps its rows draw for
    sizes = np.full((10, 8), 30)
    walked, walk = [], rng_module._accepted_entries
    monkeypatch.setattr(rng_module, "_DRAW_ENTRIES", 1000)
    monkeypatch.setattr(rng_module, "_accepted_entries",
                        lambda rngs, draws, table: walked.append(draws.shape) or walk(rngs, draws, table))
    heads = shuffle_heads(substreams([(6, r) for r in range(10)]), sizes, 2)
    assert walked == [(4, 8), (4, 8), (2, 8)]  # 1000 // (8 * 30 + 1) rows a walk
    loops = substreams([(6, r) for r in range(10)])
    assert np.array_equal(heads, [[loop.permutation(30)[:2] for _ in range(8)] for loop in loops])


def test_shuffle_heads_refuses_heads_longer_than_a_shuffle():
    with pytest.raises(ValueError, match="cannot take 3 entries of shuffles as short as 2"):
        shuffle_heads(substreams([(1,), (2,)]), np.array([[4, 2], [3, 5]]), 3)


KEY = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**200),
)


@bounded(300)
@given(keys=st.lists(st.lists(KEY, max_size=8).map(tuple), min_size=1, max_size=12))
def test_batched_streams_are_numpys_streams(keys):
    """Key tuples of mixed lengths and word counts in one batch."""
    for key, rng in zip(keys, substreams(keys), strict=True):
        expected = np.random.default_rng(np.random.SeedSequence(list(key)))
        assert rng.bit_generator.state == expected.bit_generator.state
        assert rng.integers(2**63) == expected.integers(2**63)


@bounded(100)
@given(keys=st.lists(st.integers(0, 2**70), max_size=4), negative=st.integers(-2**70, -1),
       at=st.integers(0, 4))
def test_negative_key_is_refused(keys, negative, at):
    keys = keys[:at] + [negative] + keys[at:]
    for derive in (lambda: substream(*keys), lambda: substreams([(1, 2), tuple(keys)])):
        with pytest.raises(ValueError, match=f"stream keys must be non-negative, got {negative}"):
            derive()
