"""No function, class, method or parameter default of the package is there
only for the tests, and no guarantee check of it is an `assert`.

An `ast` walk over `src/mstint/*.py`.  A top-level function or class of
module `m` is used if a name in `m` loads it, another module imports it
with `from .m import`, some module reads it as `m.<name>`, or it is in
`mstint.__all__`.  A method or property of a package class, dunders aside,
is used if some module reads an attribute of its name.  Anything else must
be on `ALLOWED`, with the reason it stays; a name that only a test calls
fails here.  A defaulted parameter of a package function or method is used
if some call in the package, to a name or attribute of the function's name,
passes it by position or by keyword, or passes `*args` or `**kwargs` that
may hold it; anything else must be on `ALLOWED_DEFAULTS`.  An `assert` fails
too: `python -O` strips it, so a check of the package must be explicit code.
"""
import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

import mstint

SRC = Path(mstint.__file__).resolve().parent

# (module, name) -> why it stays although no module of the package uses it
ALLOWED = {
    ("graph", "parse_instance"): "perfbench/selftest.py calls it (ROADMAP item 1)",
}

# (module, "function.parameter") -> why the default stays although no call
# in the package passes the parameter
ALLOWED_DEFAULTS = {
    ("cli", "main.argv"): "perfbench/run.py calls main(argv)",
    ("graph", "serialize_instance.candidates"): "perfbench/workloads.py writes protect sections",
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


@cache
def unpassed_defaults() -> set[tuple[str, str]]:
    """(module, "function.parameter") of each defaulted parameter that no
    call in the package passes.  A method is called as an attribute, so its
    first parameter is bound; a class is called by name for its `__init__`."""
    trees = _trees()
    # callee name -> (positional count, keywords, *args or **kwargs) of each call
    calls: dict[str, list[tuple[int, set[str], bool]]] = defaultdict(list)
    # method -> the name it is called by
    methods: dict[ast.AST, str] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.update(
                    (f, node.name if f.name == "__init__" else f.name)
                    for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
                )
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                count = sum(not isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls[name].append((count, keywords, count < len(node.args) or None in keywords))
    unpassed = set()
    for mod, tree in trees.items():
        for f in ast.walk(tree):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = f.args
            positional = args.posonlyargs + args.args
            bound = 1 if f in methods else 0
            first = len(positional) - len(args.defaults)
            defaulted = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            seen = calls[methods.get(f, f.name)]
            for index, param in defaulted:
                if not any(
                    spread or param in keywords or index is not None and count > index
                    for count, keywords, spread in seen
                ):
                    unpassed.add((mod, f"{f.name}.{param}"))
    return unpassed


def test_every_definition_has_a_caller_in_the_package():
    unused, _ = scan()
    assert sorted(unused - ALLOWED.keys()) == []
    # an allowance outlives its reason once the name has a caller or is gone
    assert sorted(ALLOWED.keys() - unused) == []


def test_no_assert_in_the_package():
    assert scan()[1] == []


def test_every_parameter_default_is_overridden_in_the_package():
    unpassed = unpassed_defaults()
    assert sorted(unpassed - ALLOWED_DEFAULTS.keys()) == []
    assert sorted(ALLOWED_DEFAULTS.keys() - unpassed) == []
