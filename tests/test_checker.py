"""The checker stands apart from the search.

certify re-checks a certificate with cyclopack.checker alone, so what the
checker imports bounds what a certificate's trust rests on. These tests read
the package's source with ast, and import the checker only in a child
interpreter.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cyclopack"
# every module certify runs code from
CLOSURE = {"checker", "cyclotomic", "intervals", "lattice", "linalg", "svp"}


def _imports(name: str) -> tuple[set[str], set[str]]:
    """The package modules name imports (relative imports, anywhere in the
    file) and the top-level names of its absolute imports."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    local, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                local.add(node.module.split(".")[0])
            else:  # from . import linalg
                local.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            outside.update(a.name.split(".")[0] for a in node.names)
    return local, outside


def _closure(start: str) -> dict[str, set[str]]:
    """Each module reachable from start by relative imports, with the
    outside modules it imports."""
    seen, todo = {}, [start]
    while todo:
        name = todo.pop()
        if name not in seen:
            local, seen[name] = _imports(name)
            todo.extend(local)
    return seen


def test_checker_imports_neither_the_search_nor_random():
    closure = _closure("checker")
    # the whole closure, so a walk that followed nothing could not pass
    assert set(closure) == CLOSURE
    assert not set(closure) & {"search", "verify", "cli"}
    assert not [name for name, outside in closure.items() if "random" in outside]



def test_importing_the_checker_loads_its_closure_and_no_more():
    # -S: no site, whose .pth files may import modules of their own; the
    # package __init__ re-exports nothing, so it loads no other module
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import json, sys\nbefore = set(sys.modules)\n"
                                     "import cyclopack.checker\n"
                                     "print(json.dumps(sorted(set(sys.modules) - before)))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert {n for n in added if n.split(".")[0] == "cyclopack"} == {
        "cyclopack", *(f"cyclopack.{name}" for name in CLOSURE)}
    assert "random" not in added
