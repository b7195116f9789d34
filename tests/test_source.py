"""Rules about the package source itself."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mialab").glob("*.py"))


# Public names that no command reaches and the benchmark neither binds nor
# imports, kept on purpose: criterion 6 calls Dataset.point and
# in_out_partition, and Dataset.enable_access_counting instruments tests.
KEPT_FOR_TESTS = {("data", "Dataset.point"), ("farm", "in_out_partition"),
                  ("data", "Dataset.enable_access_counting")}


def _tracing():
    """perfbench/tracing.py, loaded as tests/test_bench_bindings.py loads it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced_bindings() -> set[tuple[str, str]]:
    """(module, name) of every binding perfbench/tracing.py's BINDINGS wraps."""
    return {(module, attr.split(".")[0]) for _, module, attr in _tracing().BINDINGS}


def _public_definitions():
    """(module, qualified name) of every public function, class and method in src/mialab."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}"


def _names_read(paths) -> set[str]:
    """Every name, attribute and imported name that the files read."""
    return {node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else node.name.rpartition(".")[2]
            for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}


def _benchmarked() -> set[tuple[str, str]]:
    """(module, qualified name) of the definitions that perfbench wraps through
    BINDINGS or imports from mialab, resolved to where each is defined."""
    tracing = _tracing()
    found = [getattr(*tracing._owner(module, attr)) for _, module, attr in tracing.BINDINGS]
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mialab."):
                module = importlib.import_module(node.module)
                found += [getattr(module, alias.name) for alias in node.names]
    return {(obj.__module__.rpartition(".")[2], obj.__qualname__) for obj in found
            if hasattr(obj, "__qualname__")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_global_statements(path):
    # module-global state set from functions (such as test hooks) has no place in the package
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements at {found}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "rng.py"], ids=lambda p: p.name)
def test_streams_come_from_rng_only(path):
    # every generator is keyed through mialab.rng, so one derivation serves the package
    names = {"default_rng", "SeedSequence", "PCG64"}
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Name) and node.id in names)
             or (isinstance(node, ast.Attribute) and node.attr in names)
             or (isinstance(node, ast.alias) and node.name.rpartition(".")[2] in names)]
    assert not found, f"stream constructors outside rng.py at {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_raw_words_are_read_in_rng_only(path):
    # no module reads a stream's raw words, rng.py included: draws go through
    # Generator methods, so no copy of numpy's sampling algorithms creeps in
    names = {"bit_generator", "random_raw"}
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Name) and node.id in names)
             or (isinstance(node, ast.Attribute) and node.attr in names)
             or (isinstance(node, ast.alias) and node.name.rpartition(".")[2] in names)
             or (isinstance(node, ast.Constant) and node.value in names)]
    assert not found, f"raw-word access at {found}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imported_names_are_used(path):
    # a name imported and never read is dead, unless the benchmark's tracer wraps it there
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    traced = {name for module, name in _traced_bindings() if module == f"mialab.{path.stem}"}
    unused = sorted(imported - used - traced)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_public_names_are_reached():
    # every public function, class and method is read elsewhere in src/ or in
    # tools/, or the benchmark wraps or imports it; a name that only tests call
    # is surface no command runs
    read = _names_read([*SOURCES, *(ROOT / "tools").glob("*.py")])
    allowed = _benchmarked() | KEPT_FOR_TESTS
    unreached = sorted(f"{module}.{name}" for module, name in _public_definitions()
                       if name.rpartition(".")[2] not in read and (module, name) not in allowed)
    assert not unreached, f"public names that no command reaches: {unreached}"


def test_importing_a_module_loads_only_its_imports():
    # the package root re-exports nothing, so importing one module does not load the others
    script = "import sys, mialab.rng; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mialab'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
    assert done.stdout.split() == ["mialab", "mialab.rng"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_csv_codec(path):
    # every table is read by metrics.read_csv_rows and written by metrics.write_lines,
    # so no other module holds a csv reader or writer, or splits lines on commas
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and node.attr in ("reader", "writer")
                 and isinstance(node.value, ast.Name) and node.value.id == "csv"
                 and path.name != "metrics.py")
             or (isinstance(node, ast.ImportFrom) and node.module == "csv")
             or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("split", "rsplit")
                 and any(isinstance(a, ast.Constant) and a.value == "," for a in node.args))]
    assert not found, f"CSV handled outside the codec at {found}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "data.py"], ids=lambda p: p.name)
def test_one_store_digest(path):
    # the farm store's trailer and every manifest digest are SHA-256; blake2b
    # serves the dataset fingerprint alone, in data.py
    names = {"blake2b", "blake2s"}
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Name) and node.id in names)
             or (isinstance(node, ast.Attribute) and node.attr in names)
             or (isinstance(node, ast.alias) and node.name.rpartition(".")[2] in names)
             or (isinstance(node, ast.Constant) and node.value in names)]
    assert not found, f"blake2 outside data.py at {found}"


def _is_row_stacking(node) -> bool:
    """x[:, None, :] or x.reshape(-1, 1, ...): rows stacked as (n, 1, d)."""
    def literal(e):
        try:
            return ast.literal_eval(e)
        except ValueError:
            return Ellipsis  # not a literal

    def full(e):
        return isinstance(e, ast.Slice) and e.lower is None and e.upper is None and e.step is None

    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
        parts = node.slice.elts
        return len(parts) == 3 and full(parts[0]) and literal(parts[1]) is None and full(parts[2])
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reshape" and len(node.args) >= 3
            and literal(node.args[0]) == -1 and literal(node.args[1]) == 1)


@pytest.mark.parametrize("path", [ROOT / "src" / "mialab" / n for n in ("nn.py", "farm.py")],
                         ids=lambda p: p.name)
def test_per_row_products_run_in_tiles(path):
    # every per-row product goes through nn.row_tiles, a gemm of ROW_TILE rows,
    # not one (1, d) slice per row; per_example_grad_vectors' (B, out, 1) *
    # (B, 1, in) is an elementwise outer product, not a matmul, and is left out
    tree = ast.parse(path.read_text())
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "per_example_grad_vectors"
            for node in ast.walk(fn)}
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if id(node) not in skip and _is_row_stacking(node)]
    assert not found, f"rows stacked one per matmul slice at {found}"
