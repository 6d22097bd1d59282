"""No function, class or method of the package is there only for the tests,
and no guarantee check of it is an `assert`.

An `ast` walk over `src/mstint/*.py`.  A top-level function or class of
module `m` is used if a name in `m` loads it, another module imports it
with `from .m import`, some module reads it as `m.<name>`, or it is in
`mstint.__all__`.  A method or property of a package class, dunders aside,
is used if some module reads an attribute of its name.  Anything else must
be on `ALLOWED`, with the reason it stays; a name that only a test calls
fails here.  An `assert` fails too: `python -O` strips it, so a check of
the package must be explicit code.
"""
import ast
from functools import cache
from pathlib import Path

import mstint

SRC = Path(mstint.__file__).resolve().parent

# (module, name) -> why it stays although no module of the package uses it
ALLOWED = {
    ("graph", "parse_instance"): "perfbench/selftest.py calls it (ROADMAP item 1)",
}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}


@cache
def scan() -> tuple[set[tuple[str, str]], list[str]]:
    """(module, name) of each top-level definition and (module,
    "Class.method") of each method or property that nothing uses, and the
    place of each `assert`."""
    trees = _trees()
    used: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    asserts: list[str] = []
    for mod, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((mod, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                home = node.module.removeprefix("mstint.")
                used.update((home, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    used.add((node.value.id, node.attr))
            elif isinstance(node, ast.Assert):
                asserts.append(f"{mod}.py:{node.lineno}")
    unused = {
        (mod, node.name)
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and (mod, node.name) not in used
        and node.name not in mstint.__all__
    }
    unused.update(
        (mod, f"{cls.name}.{node.name}")
        for mod, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in attributes
    )
    return unused, asserts


def test_every_definition_has_a_caller_in_the_package():
    unused, _ = scan()
    assert sorted(unused - ALLOWED.keys()) == []
    # an allowance outlives its reason once the name has a caller or is gone
    assert sorted(ALLOWED.keys() - unused) == []


def test_no_assert_in_the_package():
    assert scan()[1] == []
