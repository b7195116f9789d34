"""mialab benchmark: drives the real CLI on one generated workload.

    python3 perfbench/run.py --workload desk_lira --seed 1 --seconds 25 --trace 0

Run from the repository root. BLAS/OpenMP/MKL threads are pinned to 1
before numpy loads, glibc's malloc thresholds are fixed (pin_allocator),
and every command runs with --jobs 1 in this process.
Set-up is repeated and the workload's iteration (a fixed sequence of CLI
commands) is repeated until --seconds have passed. Each command's time is
scaled to a nominal host speed sampled while it runs (see harness.py);
an end-to-end time is the sum over commands of each command's median
over repeats. The raw times are in the record.

With --trace 1, every other pair of iterations runs with the layer
bindings wrapped (see tracing.py); the per-layer metrics come from those
spans and the rest give the untraced time for trace.overhead_ratio.
The last stdout line is the JSON result; the line before it, also written
to perfbench/out/, holds the environment, output digests, per-span table,
derived baseline figures and every repeat's timings.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    return parser.parse_args(argv)


def pin_allocator() -> dict:
    """Fix glibc's malloc thresholds for the whole run.

    By default glibc adapts its mmap threshold to the sizes freed so far
    and trims the heap top, so whether each multi-megabyte temporary (the
    DP step makes several) costs fresh page faults depends on allocation
    history. That made whole runs 30 to 60% slower than others at random.
    With fixed thresholds the heap keeps its pages and every run faults
    the same way.
    """
    m_trim_threshold, m_mmap_threshold = -1, -3
    settings = {"mmap_threshold": 32 << 20, "trim_threshold": 256 << 20}
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return {"pinned": False}
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    pinned = (mallopt(m_mmap_threshold, settings["mmap_threshold"]) == 1
              and mallopt(m_trim_threshold, settings["trim_threshold"]) == 1)
    return {"pinned": pinned, **settings}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def traced_iteration(i: int) -> bool:
    # untraced, traced, traced, untraced, ...: both kinds see early and late iterations
    return i % 4 in (1, 2)


def block_times(runs, phases=None) -> float:
    """Sum over timed blocks of each block's median scaled time across runs."""
    per_block = defaultdict(list)
    for run in runs:
        totals = defaultdict(float)
        for phase, label, took, _ in run["blocks"]:
            if phases is None or phase in phases:
                totals[label] += took
        for label, took in totals.items():
            per_block[label].append(took)
    return sum(statistics.median(v) for v in per_block.values())


def end_to_end(setups, iters, aucs, workload) -> dict:
    trained = [r for r in iters if r["steps"]] or [r for r in setups if r["steps"]]
    return {
        "setup_s": (block_times(setups), "s"),
        "wall_s": (block_times(iters), "s"),
        "train_steps_per_s": (trained[0]["steps"] / block_times(trained, {"train"}), "1/s"),
        "targets_per_s": (iters[0]["targets"] / block_times(iters, {"attack"}), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "auc": (workload.auc(aucs), "auc"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    allocator = pin_allocator()
    if not (SRC / "mialab" / "__init__.py").is_file():
        print(f"error: mialab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mialab

    if Path(mialab.__file__).resolve().parent != SRC / "mialab":
        print(f"error: imported mialab from {mialab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import CommandFailed, Session
    from tracing import Tracer, baseline_figures, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    session = Session(work, tracer)
    workload = WORKLOADS[args.workload](args.seed, args.size, work)

    def iteration():
        with tracer.installed() if session.traced else nullcontext():
            workload.iteration(session)

    def phases() -> dict:
        return {"s": sum(b[2] for b in session.blocks), "raw_s": sum(b[3] for b in session.blocks),
                "blocks": list(session.blocks),
                "steps": session.steps, "targets": session.targets}

    setups, iters = [], []
    first_digests = digests = None
    try:
        for _ in range(workload.setup_repeats):
            session.reset_phases()
            workload.setup(session)
            setups.append(phases())
        deadline = time.perf_counter() + args.seconds
        while not iters or time.perf_counter() < deadline or (tracer and len(iters) < 2):
            session.reset_phases()
            session.traced = bool(tracer) and traced_iteration(len(iters))
            iteration()
            workload.verify(session)
            digests = session.digests(workload.outputs())
            if first_digests is None:
                first_digests = digests
            else:
                session.check("output digests identical across iterations"
                              + (", traced or not" if tracer else ""), digests == first_digests)
            iters.append({"traced": session.traced, **phases()})
    except CommandFailed:
        pass

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "environment": {**environment(), "malloc": allocator},
        "setups": setups, "iterations": iters,
        "digests": digests, "aucs": session.aucs, "failures": session.failures,
    }
    metrics = {}
    correct = session.failed == 0 and bool(iters)
    if correct and args.trace:
        plain = [r["s"] for r in iters if not r["traced"]]
        traced = [r["s"] for r in iters if r["traced"]]
        overhead = statistics.median(traced) / statistics.median(plain)
        metrics = layer_metrics(tracer, len(traced), workload.farm.stat().st_size / 1e6, overhead)
        record["spans"] = tracer.table()
        record["baseline"] = baseline = baseline_figures(tracer)
        baseline["estimated_overhead_ratio"] = 1.0 + (
            baseline["spans"] / len(traced) * baseline["span_cost_ns"] * 1e-9 / statistics.median(plain))
        tracer.write_csv(OUT / f"{args.workload}-spans.csv.gz")
    elif correct:
        metrics = end_to_end(setups, iters, session.aucs, workload)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(session.attempted, 1),
        "failed": session.failed if correct or session.failed else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
