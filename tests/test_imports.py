"""Every name a module of the package or a test file imports is used
in that file."""

import ast
import importlib.util
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "detcover"
# kept only so that perfbench/tracing.py can patch them
PATCHED = {"matchweight.py": {"determinant", "interpolate"}, "solver.py": {"validate"}}


def _dead_imports(source):
    """The names `source` binds by import and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_guard_sees_dead_imports():
    source = "import os.path\nimport sys as system\nfrom json import dumps, loads\nloads(os.sep)\n"
    assert _dead_imports(source) == {"system", "dumps"}
    assert _dead_imports("from __future__ import annotations\n") == set()


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    dead = {p.name: _dead_imports(p.read_text(encoding="utf-8")) - PATCHED.get(p.name, set())
            for p in modules}
    assert not any(dead.values()), dead


def test_no_test_file_imports_a_name_it_never_uses():
    files = sorted(TESTS.glob("*.py"))
    assert TESTS / "conftest.py" in files and len(files) >= 10
    dead = {p.name: _dead_imports(p.read_text(encoding="utf-8")) for p in files}
    assert not any(dead.values()), dead


def test_every_patched_name_is_a_span_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TESTS.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patched = {(name.removesuffix(".py"), attr) for name, attrs in PATCHED.items() for attr in attrs}
    assert patched <= set(tracing.SPAN_TARGETS)
