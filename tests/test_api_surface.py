"""No function or class of the package is there only for the tests.

An `ast` walk over `src/mstint/*.py`.  A top-level function or class of
module `m` is used if a name in `m` loads it, another module imports it
with `from .m import`, some module reads it as `m.<name>`, or it is in
`mstint.__all__`.  Anything else must be on `ALLOWED`, with the reason it
stays; a name that only a test calls fails here.
"""
import ast
from pathlib import Path

import mstint

SRC = Path(mstint.__file__).resolve().parent

# (module, name) -> why it stays although no module of the package uses it
ALLOWED = {
    ("graph", "parse_instance"): "perfbench/selftest.py calls it (ROADMAP item 1)",
}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}


def unused_definitions() -> set[tuple[str, str]]:
    trees = _trees()
    used: set[tuple[str, str]] = set()
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((mod, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                home = node.module.removeprefix("mstint.")
                used.update((home, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
    return {
        (mod, node.name)
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and (mod, node.name) not in used
        and node.name not in mstint.__all__
    }


def test_every_definition_has_a_caller_in_the_package():
    unused = unused_definitions()
    assert sorted(unused - ALLOWED.keys()) == []
    # an allowance outlives its reason once the name has a caller or is gone
    assert sorted(ALLOWED.keys() - unused) == []
