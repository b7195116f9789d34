"""One benchmark session: runs mialab CLI commands in-process and checks them.

Every CLI command and every correctness check is one operation; the
session counts attempted and failed operations, times the phases the
end-to-end metrics are built from, and collects output digests.

Host speed: on a shared host the same code runs up to 1.8x slower while
other tenants are busy, in stretches that come and go within seconds. So
while a timed block (a CLI command, or the writing of a workload's inputs)
runs, a timer signal interrupts it every SAMPLE_PERIOD_S to run a small
fixed reference kernel that does not use mialab, and once more after it.
The kernel's time is taken out of the block's time, and the block is
scaled by REF_NOMINAL_S over the kernel's mean time during the block. The
reported times are therefore seconds at the host speed where the kernel
takes REF_NOMINAL_S; the raw times are kept next to them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import mialab.cli
from mialab.cli import main as mialab_main
from mialab.farm import farms_equal, load_farm, save_farm

# The reference kernel's median time during the benchmark's commands on a
# shared 2-core Xeon virtual machine at 2.0 GHz; there the scaled times are
# near the raw ones.
REF_NOMINAL_S = 0.0012
# How often the kernel runs inside a block; it costs about 6% of the block.
SAMPLE_PERIOD_S = 0.02


class ReferenceKernel:
    """A fixed workload shaped like the program's inner loops.

    A 20-128-10 ReLU MLP's forward pass, softmax and backward pass in numpy,
    one row at a time as in a canary step, then an FNV-1a loop over bytes in
    pure Python as in the dataset fingerprint. Both slow down under another
    tenant's load by about as much as the program does. A change to mialab
    does not move the kernel, so the scaled times show the change at full
    size.
    """

    ROWS = 16

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w1, self.b1 = rng.random((128, 20)), rng.random(128)
        self.w2, self.b2 = rng.random((10, 128)), rng.random(10)
        self.x = rng.random((1, 20))
        self.data = bytes(range(256)) * 4

    def _step(self) -> float:
        x = self.x
        h = x @ self.w1.T + self.b1
        a = np.maximum(h, 0.0)
        z = a @ self.w2.T + self.b2
        e = np.exp(z - z.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)
        g[:, 0] -= 1.0
        gh = (g @ self.w2) * (h > 0)
        return float((g.T @ a).sum() + (gh.T @ x).sum() + (gh @ self.w1).sum())

    def __call__(self) -> float:
        """Seconds one run of the kernel takes now."""
        start = time.perf_counter()
        for _ in range(self.ROWS):
            self._step()
        acc = 0
        for byte in self.data:
            acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return time.perf_counter() - start


class HostSampler:
    """Runs the reference kernel on a timer while a block runs.

    The handler runs in the main thread between bytecodes and touches only
    the kernel's own arrays, so the program's state and outputs are unchanged.
    """

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.total = 0.0
        self.count = 0

    def _tick(self, signum, frame) -> None:
        self.total += self.kernel()
        self.count += 1

    @contextlib.contextmanager
    def sampling(self, active: bool = True):
        """Sample while the with-block runs; inactive, only reset the totals."""
        self.total, self.count = 0.0, 0
        if not active:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class CommandFailed(Exception):
    """A CLI command exited nonzero; the iteration cannot go on."""


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def report_auc(report: Path) -> float:
    """The mean AUC row of an eval report.csv."""
    with open(report, newline="") as fh:
        for metric, seed, value in csv.reader(fh):
            if metric == "auc" and seed == "mean":
                return float(value)
    raise ValueError(f"{report}: no auc mean row")


class Session:
    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reset_phases()
        self.sampler = HostSampler()
        self.aucs: dict[str, float] = {}
        self._built = []
        self._capture_builds()

    def _capture_builds(self) -> None:
        # Keep the farm train-shadows built so the store round trip can be
        # compared against it; one extra call per train-shadows command.
        original = mialab.cli.save_farm

        def capture(farm, path):
            self._built.append(farm)
            return original(farm, path)

        mialab.cli.save_farm = capture

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def reset_phases(self) -> None:
        # (phase, label, seconds scaled to the nominal host speed, raw seconds)
        self.blocks: list[tuple[str, str, float, float]] = []
        self.steps = 0
        self.targets = 0

    def timed(self, phase: str, label: str, fn):
        """Run fn and keep its raw and host-speed-scaled time as one block of phase."""
        sampler = self.sampler
        start = time.perf_counter()
        try:
            # A traced run does not sample inside blocks, so that no span holds
            # kernel time and its traced and untraced iterations are timed alike.
            with sampler.sampling(active=self.tracer is None):
                return fn()
        finally:
            took = time.perf_counter() - start - sampler.total
            # one more sample after the block, so short blocks have one too
            ref = (sampler.total + sampler.kernel()) / (sampler.count + 1)
            self.blocks.append((phase, label, took * REF_NOMINAL_S / ref, took))

    def cli(self, label: str, argv: list[str], phase: str, targets: int = 0) -> None:
        """Run one mialab command in this process and time it."""
        span = (
            self.tracer.command(label, argv[0], targets)
            if self.traced else contextlib.nullcontext()
        )

        def run() -> int:
            with span, contextlib.redirect_stdout(io.StringIO()):
                return mialab_main(argv)

        try:
            rc = self.timed(phase, label, run)
        except Exception:
            traceback.print_exc()
            rc = -1
        if not self.check(f"{label} exits 0 (got {rc})", rc == 0):
            raise CommandFailed(label)

    def train(self, config: Path, out: Path, steps: int) -> None:
        self.cli("train-shadows",
                 ["train-shadows", "--config", str(config), "--out", str(out), "--jobs", "1", "--force"],
                 "train")
        self.steps += steps

    def attack(self, label: str, config: Path, farm: Path, out: Path) -> list[Path]:
        cfg = json.loads(config.read_text())
        n_targets = cfg["targets"]["count"] * len(cfg["seeds"])
        self.cli(f"attack:{label}",
                 ["attack", "--config", str(config), "--farm", str(farm), "--out", str(out),
                  "--jobs", "1", "--force"],
                 "attack", n_targets)
        self.targets += n_targets
        return [out / f"scores_seed{s}.csv" for s in cfg["seeds"]]

    def eval(self, label: str, scores: list[Path], out: Path) -> None:
        self.cli(f"eval:{label}", ["eval", *map(str, scores), "--out", str(out), "--force"], "eval")

    # ---- checks made after the timed commands ---------------------------------

    def check_attack(self, label: str, config: Path, out: Path) -> None:
        cfg = json.loads(config.read_text())
        runs = json.loads((out / "attack_manifest.json").read_text())["runs"]
        queries = cfg["attack"]["canary"]["num_queries"]
        self.check(
            f"{label}: oracle_queries == targets x num_queries",
            len(runs) == len(cfg["seeds"])
            and all(r["oracle_queries"] == r["n_targets"] * queries for r in runs),
        )
        if cfg["attack"]["mode"] == "offline":
            self.check(
                f"{label}: offline run never touched IN models or target params",
                all(r["in_model_accesses"] == 0 and r["target_param_reads"] == 0 for r in runs),
            )

    def check_farm_round_trip(self, farm_path: Path) -> None:
        built = self._built.pop() if self._built else None
        self._built.clear()
        loaded = load_farm(farm_path)
        copy = farm_path.with_name("round_trip.bin")
        save_farm(loaded, copy)
        same = (
            built is not None
            and farms_equal(built, loaded)
            and copy.read_bytes() == farm_path.read_bytes()
        )
        copy.unlink()
        self.check(f"{farm_path.name}: load_farm(save_farm(f)) equals the built farm", same)

    def record_auc(self, label: str, eval_out: Path) -> None:
        value = report_auc(eval_out / "report.csv")
        if self.check(f"{label}: AUC is finite and in [0, 1]", math.isfinite(value) and 0.0 <= value <= 1.0):
            self.aucs[label] = value

    def digests(self, paths: list[Path]) -> dict[str, str]:
        return {str(p.relative_to(self.work)): sha256(p) for p in paths}
