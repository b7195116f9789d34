"""Every name the benchmark's tracer wraps still exists where it looks, and
every config the benchmark's workloads generate still loads.

perfbench/tracing.py replaces the bindings in its BINDINGS table with
timing wrappers, looking each one up as vars(owner)[leaf], and each
perfbench workload writes configs that the CLI must accept. A rename or
deletion under src/, or a stricter config schema, would otherwise surface
only when the benchmark runs (as failed operations); these checks fail in
seconds instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from mialab.config import ExperimentConfig

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
