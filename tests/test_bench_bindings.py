"""Every name the benchmark's tracer wraps still exists where it looks.

perfbench/tracing.py replaces the bindings in its BINDINGS table with
timing wrappers, looking each one up as vars(owner)[leaf]. A rename or
deletion under src/ would otherwise surface only when the benchmark
runs; this check fails in seconds instead.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
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
