"""Property tests: a damaged artefact reads back intact or fails with one error.

Any mix of bit flips, truncations and insertions applied to a farm store
or a score table either loads what was written or raises the package's
own error (MialabError for a farm, FormatError for a score table).
Through the CLI every such failure is one ``error:<Class>: ...`` line on
stderr and exit code 1. Example counts are bounded and derandomized so
the suite stays fast and repeatable.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mialab.attacks import ScoreTable
from mialab.cli import main
from mialab.errors import FormatError, MialabError
from mialab.farm import farms_equal, load_farm

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
