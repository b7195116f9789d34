"""Every name the benchmark's tracer wraps still exists where it looks, and
every config the benchmark's workloads generate still loads.

perfbench/tracing.py replaces the bindings in its BINDINGS table with
timing wrappers, looking each one up as vars(owner)[leaf], and each
perfbench workload writes configs that the CLI must accept. A rename or
deletion under src/, or a stricter config schema, would otherwise surface
only when the benchmark runs (as failed operations); these checks fail in
seconds instead. A wrapped name must also be the one the code that runs
looks up, or its span reads 0 on a path that ran.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from mialab import attacks
from mialab.attacks import CanaryConfig, run_attack
from mialab.config import ExperimentConfig
from mialab.data import synthetic_mixture
from mialab.farm import build_farm, hold_out_target
from mialab.nn import ArchDescriptor
from mialab.training import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS  # noqa: E402


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("name,module,attr", tracing.BINDINGS,
                         ids=[f"{m}.{a}" for _, m, a in tracing.BINDINGS])
def test_traced_binding_resolves(name, module, attr):
    owner, leaf = tracing._owner(module, attr)
    assert leaf in vars(owner), f"{name}: {module}.{attr} is gone; the tracer cannot wrap it"
    assert callable(getattr(owner, leaf))


@pytest.mark.parametrize("size", ["tiny", "full"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_configs_resolve(tmp_path, workload, size):
    work = tmp_path / "work"
    configs = WORKLOADS[workload](1, size, work).configs
    assert configs
    for cfg in configs.values():
        ExperimentConfig.from_dict(cfg)
    assert not work.exists()


def test_canary_attack_calls_the_traced_optimizer_once_per_block(monkeypatch):
    ds = synthetic_mixture(40, 4, 2, seed=9, noise=0.1)
    farm = build_farm(ds, 8, ArchDescriptor(4, (5,), 2), TrainConfig(epochs=2, batch_size=8),
                      master_seed=3)
    oracle, rest = hold_out_target(farm, 0)
    targets = [(t, bool(farm.splits[0, t])) for t in range(5)]
    (module, attr), = [(m, a) for name, m, a in tracing.BINDINGS
                       if name == "attacks.optimize_canary"]
    owner, leaf = tracing._owner(module, attr)
    rows, real = [], getattr(owner, leaf)
    monkeypatch.setattr(owner, leaf, lambda x_star, *args: rows.append(len(x_star))
                        or real(x_star, *args))
    # 6000 bytes hold 2 targets of 2 queries: 2876 bytes each online, 2600 offline
    monkeypatch.setattr(attacks, "BLOCK_BYTES", 6000)
    cfg = CanaryConfig(epsilon=0.1, steps=2, num_queries=2)
    for mode in ("online", "offline"):
        rows.clear()
        run_attack(ds, oracle, rest, targets, "canary", mode, cfg, seed=1)
        assert rows == [4, 4, 2]
