"""`src/` holds what a command reaches.

The scan walks `src/onokg` with `ast` and collects every module-level
function and class and every method whose name is not a dunder. A
definition is reached when its name appears outside its own body anywhere
in `src/` or `bench/`: as a name, an attribute, an imported name, or a part
of a string constant split on "." (`bench/layertrace.LAYERS` names methods
as "Graph.insert"). A definition nothing reaches is code that only tests
call, and it belongs under `tests/`. `ALLOWED` names the exceptions, each
with its reason.

Known gap: names are matched bare, so a method whose name is common, such
as `remove` or `copy`, counts as reached when any `remove` or `copy` is
used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "onokg"

ALLOWED = {
    "kg.Graph.check_indexes": "a test invariant: tests assert after writes "
                              "that the store's permutations agree",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each definition the scan
    checks."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item


def _appearances(tree: ast.Module):
    """(name, line) of each name the module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                yield part, node.lineno


def unreached_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in ("src", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _appearances(tree):
            seen.setdefault(name, []).append((path, line))
    unreached = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for qualified, name, node in _definitions(tree):
            if not any(where != path
                       or not node.lineno <= line <= node.end_lineno
                       for where, line in seen.get(name, ())):
                unreached.append(f"{module}.{qualified}")
    return sorted(unreached)


def test_src_holds_what_a_command_reaches():
    unreached = unreached_definitions()
    assert unreached == sorted(ALLOWED), (
        "definitions that no src/ or bench/ code reaches (move them under "
        "tests/, or allow one in ALLOWED with its reason): "
        + ", ".join(unreached))
