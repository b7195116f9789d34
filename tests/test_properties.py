"""Property tests: a damaged artefact reads back intact or fails with one error.

Any mix of bit flips, truncations and insertions applied to a farm store
or a score table either loads what was written or raises the package's
own error (MialabError for a farm, FormatError for a score table).
Through the CLI every such failure is one ``error:<Class>: ...`` line on
stderr and exit code 1. A config with values changed and keys dropped
either raises ConfigError or loads to a config whose manifest reloads
equal; only the loader runs, so no mutated size starts any work.
The canary optimiser's picks on a side are that side's models only, a
fresh subset each step, with every model picked about equally often. A
batch of streams derived together is numpy's own ``SeedSequence`` stream
of each key tuple, state for state.
Example counts are bounded and derandomized so the suite stays fast and
repeatable.
"""

import contextlib
import copy
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mialab import attacks
from mialab.attacks import CanaryConfig, ScoreTable, optimize_canary
from mialab.cli import main
from mialab.config import ExperimentConfig, load_config, write_manifest
from mialab.errors import ConfigError, FormatError, MialabError
from mialab.farm import farms_equal, load_farm
from mialab.rng import substream, substreams

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
    "train": {"epochs": 2, "batch_size": 6, "lr": 0.01, "optimizer": "adam",
              "dp": {"clip_norm": 5.0, "noise_multiplier": 1.0}},
    "n_models": 8,
    "master_seed": 7,
    "seeds": [0, 2],
    "attack": {"method": "canary", "mode": "offline",
               "canary": {"epsilon": 0.1, "steps": 3, "shadow_batch": 2, "lr": 0.05,
                          "objective": "raw_logit", "init_noise_scale": 0.02,
                          "num_queries": 2}},
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


@st.composite
def canary_blocks(draw):
    """(member, b, steps, online) of a block whose every row has b models on
    each side it picks from."""
    b, online = draw(st.integers(1, 3)), draw(st.booleans())
    n_models = draw(st.integers(2 * b if online else b, 8))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        n_in = draw(st.integers(b if online else 0, n_models - b))
        order = draw(st.permutations(range(n_models)))
        rows.append(np.isin(np.arange(n_models), order[:n_in]))
    return np.array(rows), b, draw(st.integers(0, 6)), online


@bounded(200)
@given(block=canary_blocks(), seed=st.integers(0, 2**32 - 1))
def test_canary_picks_stay_on_their_side(stored, block, seed):
    """Offline picks no IN model; online, exactly the IN half of the picks
    is IN, so OUT picks are OUT and IN picks are IN."""
    member, b, steps, online = block
    n, n_models = member.shape
    records = stored[1].records[:n_models]
    config = CanaryConfig(epsilon=0.1, steps=steps, shadow_batch=b, num_queries=1)
    x_star = np.full((n, records[0].arch.input_dim), 0.5)
    _, in_evaluations = optimize_canary(x_star, np.zeros(n, dtype=np.int64), member, records,
                                        config, online, substreams([(seed, r) for r in range(n)]),
                                        None)
    assert in_evaluations == (n * steps * b if online else 0)


def test_canary_picks_are_uniform_on_each_side(stored, monkeypatch):
    # every model of a side is picked at about the same rate, never twice in one step
    member = np.array([[0, 1, 0, 0, 1, 0, 1, 0], [1, 1, 1, 0, 1, 1, 1, 0]], dtype=bool)
    b, steps = 2, 3000
    picked = []

    def step_gradient(x, picks, *rest):
        picked.append(picks)
        return np.zeros_like(x)

    monkeypatch.setattr(attacks, "_step_gradient", step_gradient)
    config = CanaryConfig(epsilon=0.1, steps=steps, shadow_batch=b, num_queries=1)
    optimize_canary(np.full((2, 3), 0.5), np.zeros(2, dtype=np.int64), member, stored[1].records,
                    config, True, substreams([(3, 0), (3, 1)]), None)
    picks = np.stack(picked, axis=1)  # (rows, steps, sides, b)
    for r, row in enumerate(member):
        for side, models in enumerate((np.flatnonzero(~row), np.flatnonzero(row))):
            side_picks = np.sort(picks[r, :, side], axis=1)
            assert np.all(np.isin(side_picks, models)) and np.all(np.diff(side_picks, axis=1) > 0)
            counts = np.bincount(side_picks.ravel(), minlength=len(row))[models]
            expected = steps * b / len(models)
            assert np.all(np.abs(counts - expected) < 0.1 * expected), counts


KEY = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**200),
)


@bounded(300)
@given(keys=st.lists(st.lists(KEY, max_size=8).map(tuple), min_size=1, max_size=12))
@example(keys=[(), (0,), (1, 2, 3, 4), (1, 2, 3, 4, 5), (2**64 + 1, 2**70 + 3, 2**90 + 5, 2**64)])
@example(keys=[tuple(range(1, n + 1)) for n in (9, 4, 7, 5, 8, 6, 0)])
@example(keys=[(2**96 - 1, 2**32)])
def test_batched_streams_are_numpys_streams(keys):
    """Key tuples of mixed lengths and word counts in one batch. The examples
    hold rows that stop at different passes over words beyond the pool of
    four: 0 to 12 words side by side, 0 and 4 to 9 words out of order, and
    one five-word row alone."""
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
