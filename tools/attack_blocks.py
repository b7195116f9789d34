"""Attack block timings and memory: what run_attack's canary blocks cost.

    python tools/attack_blocks.py OUT.json [--shapes desk,wide] [--repeats 5] [--workloads]

Each shape builds one farm, holds out a target model and runs the canary
attack (scaled_log_score, epsilon 0.05) offline and online, with BLAS
pinned to one thread:

  desk  the acceptance canary shape: desk seed 101 (2000 points, 20-128-10
        ReLU, 33 models x 80 epochs), its 200 targets, Q = 10, 40 steps
  wide  784-64-10: 600 points, 17 models x 5 epochs, 100 targets, Q = 10,
        10 steps
  tiny  a 120-point, 8-16-4 smoke shape that runs in well under a second

For each shape and mode, OUT.json gets:

  blocks, rows_per_block  optimize_canary calls, and the rows of the largest
  time_s, median_s        run_attack wall time of each repeat, and the median
  rss_growth_mb           peak RSS growth over one attack, in a forked child
  traced_peak_mb          tracemalloc's peak over one attack
  bytes_per_row           that peak over the rows of the largest block
  holders                 the mialab source lines whose allocations are live
                          at the largest traced total seen right after a
                          forward, a backward, an Adam step or a shadow
                          model's confidences: MB and bytes per row each

With --workloads it also counts the blocks per seed of every attack that
perfbench's workloads run at their full size (farms trained for one epoch,
canary optimisation skipped: the block plan depends on neither).

The mialab imported is the one under this checkout's src/, not an
installed copy: run it at two checkouts and compare the two files.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import linecache  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mialab import attacks, nn  # noqa: E402
from mialab.attacks import CanaryConfig, run_attack  # noqa: E402
from mialab.cli import main  # noqa: E402
from mialab.data import synthetic_mixture  # noqa: E402
from mialab.farm import build_farm, hold_out_target  # noqa: E402
from mialab.nn import ArchDescriptor  # noqa: E402
from mialab.rng import state_seeds, stream_states, substream  # noqa: E402
from mialab.training import TrainConfig  # noqa: E402

MODES = ("offline", "online")
SOURCE = ROOT / "src" / "mialab"


@dataclass(frozen=True)
class Shape:
    n_points: int
    input_dim: int
    hidden: tuple
    n_models: int
    epochs: int
    targets: int
    steps: int
    num_queries: int
    epsilon: float = 0.05


SHAPES = {
    "desk": Shape(2000, 20, (128,), 33, 80, 200, 40, 10),
    "wide": Shape(600, 784, (64,), 17, 5, 100, 10, 10),
    "tiny": Shape(120, 8, (16,), 9, 2, 20, 3, 3, epsilon=0.1),
}
MASTER_SEED = 101  # the first acceptance seed; targets are drawn as the criteria draw them


def setting(shape: Shape):
    """(dataset, oracle, shadows, targets, canary config, attack seed) of a shape."""
    ds = synthetic_mixture(shape.n_points, shape.input_dim, 10, seed=7, noise=0.25)
    farm = build_farm(ds, shape.n_models, ArchDescriptor(shape.input_dim, shape.hidden, 10),
                      TrainConfig(epochs=shape.epochs, batch_size=32, lr=0.01),
                      master_seed=MASTER_SEED)
    target_model = int(substream(MASTER_SEED, 13, 0).integers(farm.n_models))
    truth, rng = farm.splits[target_model], substream(MASTER_SEED, 14, 0)
    mem = np.sort(rng.choice(np.flatnonzero(truth), shape.targets // 2, replace=False))
    non = np.sort(rng.choice(np.flatnonzero(~truth), shape.targets // 2, replace=False))
    oracle, shadows = hold_out_target(farm, target_model)
    config = CanaryConfig(epsilon=shape.epsilon, steps=shape.steps, shadow_batch=2, lr=0.05,
                          num_queries=shape.num_queries, objective="scaled_log_score")
    targets = [(int(i), True) for i in mem] + [(int(i), False) for i in non]
    seed = state_seeds(stream_states([(MASTER_SEED, 15, 0)]))[0]
    return ds, oracle, shadows, targets, config, seed


@contextlib.contextmanager
def patched(owner, name, make):
    """owner.name replaced by make(original) for the duration."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def counting(calls: list):
    def make(fn):
        def wrapped(x_star, *args, **kwargs):
            calls.append(len(x_star))
            return fn(x_star, *args, **kwargs)
        return wrapped
    return make


def rss_growth_mb(run) -> float:
    """Peak RSS growth over run() in a forked child, whose peak starts at its RSS."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports its growth and exits without cleanup
        code = 1
        try:
            os.close(read)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            run()
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            os.write(write, str((after - before) / 1024).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status:
        raise SystemExit("the RSS child failed")
    return float(text)


def holders(run, rows: int, top: int = 8) -> list[dict]:
    """The mialab lines live at the largest traced total seen at the probes."""
    best = {"current": -1, "stats": []}

    def probe(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            current = tracemalloc.get_traced_memory()[0]
            if current > best["current"]:
                snapshot = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(True, str(SOURCE / "*"))])
                best["current"] = current
                best["stats"] = [(s.traceback[0].filename, s.traceback[0].lineno, s.size)
                                 for s in snapshot.statistics("lineno")[:top]]
            return out
        return wrapped

    with contextlib.ExitStack() as stack:
        for owner, name in ((nn, "_forward_cached"), (attacks, "input_backward"),
                            (attacks, "adam_step"), (attacks, "model_confidence_batch")):
            stack.enter_context(patched(owner, name, probe))
        tracemalloc.start()
        try:
            run()
        finally:
            tracemalloc.stop()
    return [{"line": f"{Path(f).name}:{n}", "source": linecache.getline(f, n).strip(),
             "mb": round(size / 1e6, 3), "bytes_per_row": round(size / rows, 1)}
            for f, n, size in best["stats"]]


def measure(shape: Shape, repeats: int) -> dict:
    ds, oracle, shadows, targets, config, seed = setting(shape)
    out = {}
    for mode in MODES:
        def run():
            return run_attack(ds, oracle, shadows, targets, "canary", mode, config, seed)

        times, calls = [], []
        with patched(attacks, "optimize_canary", counting(calls)):
            run()  # warm-up, and the block plan
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        rows = max(calls)
        tracemalloc.start()
        run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out[mode] = {
            "blocks": len(calls), "rows_per_block": rows,
            "time_s": [round(t, 4) for t in times], "median_s": round(statistics.median(times), 4),
            "rss_growth_mb": round(rss_growth_mb(run), 1),
            "traced_peak_mb": round(peak / 1e6, 2), "bytes_per_row": round(peak / rows, 1),
            "holders": holders(run, rows),
        }
    return out


def workload_blocks(seed: int = 1) -> dict:
    """Blocks per seed of each perfbench workload attack at its full size."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    def skip(fn):  # the plan does not depend on the canaries, so keep the targets
        return lambda x_star, *args: (x_star.copy(), 0)

    blocks = {}
    for name, workload in sorted(WORKLOADS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            w = workload(seed, "full", Path(tmp))
            w.write_inputs()
            for label, cfg in w.configs.items():
                cfg = dict(cfg, train=dict(cfg["train"], epochs=1))
                w.config_path(label).write_text(json.dumps(cfg))
            cli("train-shadows", "--config", w.config_path(w.labels[0]), "--out", w.farm.parent)
            for label in w.labels:
                calls = []
                with patched(attacks, "_score_block", counting(calls)), \
                        patched(attacks, "optimize_canary", skip):
                    cli("attack", "--config", w.config_path(label), "--farm", w.farm,
                        "--out", w.path(f"att_{label}"))
                blocks[f"{name}/{label}"] = len(calls) // len(w.configs[label]["seeds"])
    return blocks


def cli(*argv) -> None:
    if main([*map(str, argv), "--force"]) != 0:
        raise SystemExit(f"mialab {' '.join(map(str, argv))} failed")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--shapes", default="desk,wide")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--workloads", action="store_true")
    args = parser.parse_args()
    record = {"shapes": {name: measure(SHAPES[name], args.repeats)
                         for name in args.shapes.split(",") if name}}
    if args.workloads:
        record["workload_blocks"] = workload_blocks()
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{len(record['shapes'])} shapes -> {args.out}")
