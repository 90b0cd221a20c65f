"""The checker stands apart from the search.

certify re-checks a certificate with cyclopack.checker alone, so what the
checker imports bounds what a certificate's trust rests on. These tests read
the package's source with ast and import nothing from it.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cyclopack"


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
    assert set(closure) == {"checker", "cyclotomic", "intervals", "ioutil", "lattice",
                            "linalg", "svp", "tables"}
    assert not set(closure) & {"search", "verify", "geometry", "cli"}
    assert not [name for name, outside in closure.items() if "random" in outside]

