"""`src/` holds what a command reaches, no data that nothing reads, and no
file imports a name that it never uses.

The first scan walks `src/onokg` with `ast` and collects every
module-level function and class and every method whose name is not a
dunder. A definition is reached when its name appears outside its own body
anywhere in `src/` or `bench/`: as a name, an attribute, an imported name,
or a part of a string constant split on "." (`bench/layertrace.LAYERS`
names methods as "Graph.insert"). A definition nothing reaches is code that
only tests call, and it belongs under `tests/`. `ALLOWED` names the
exceptions, each with its reason.

The second scan collects every `@dataclass` field in `src/onokg`. A field
is read when its name appears in `src/` or `bench/` as an attribute that
is loaded (not stored) or as a part of a string constant split on "."
(`getattr`, or a JSON key). A field nothing reads is data that code fills
for no reader: delete it with what fills it, or allow it in
`ALLOWED_FIELDS` with its reason.

The third scan reads every module of `src/`, `bench/` and `tests/`. An
imported name is used when a module-level import's name is loaded anywhere
in the module, or listed in its `__all__`, and when a function's own import
is loaded in that function. No lint tool is needed.

The fourth scan is the static twin of the traced check that no package
reader goes through the Term-space `Graph.match`. It finds every call of a
`.match` attribute in `src/onokg` whose receiver is not a constant pattern
of its module: an upper-case name that the module binds at its top level,
by assignment or import, such as `QUOTED` or `_TOKEN_RE`. A call on any
other receiver, such as `graph.match(None, p)`, builds a `Triple` per hit;
such a reader takes a predicate's column pair from `Graph.edges`, or a
subject's run from `Graph.columns`, instead.

Known gap: the first two scans match names bare, so a definition or a field
whose name is common counts as reached or read when any attribute of that
name is. An audit owner by owner found these behind common names, and none
is left in `src/`: `Graph.remove` and `Graph.copy` (reached by
`list.remove`, `os.remove` and `PrefixTable.copy`), `PrefixTable.items`
(`dict.items`), `AliasTable.surfaces` (`Gazetteer.surfaces`),
`EntityMention.span` (the store's `_Sorted.span`, since gone too) and
`QualityReport.to_json` (`SolutionTable.to_json`); and the fields
`Pattern.name` (read as `Var.name`), `MetricResult.name` (read as
`PackResult.name`), `TaggerModel.entity_type` (read as
`EntityMention.entity_type`), `EntityMention.doc_id` and
`DocumentExtraction.doc_id` (`RelationCandidate.doc_id`),
`PackResult.text` (`_AnonToken.text`), `RelevanceMap.method`, `.epsilon`
and `.delta` (the `explain` options), `SelectQuery.prefixes` (the
parser's table) and `Checkpoint.config` (the checkpoint's "config" key).
Dunder methods are outside the first scan, since the language calls them
(`len(x)`, `a in b`); an audit that made each raise found
`PrefixTable.__contains__`, `SubwordVocab.__len__` and
`AliasTable.__len__` reached by nothing. It missed `Graph.__iter__` and
`QualityReport.__getitem__`, which only tests reached. None of these is
left. The scans also see no exception attribute, dict key or unpacked
value that is written and never read, nor a parameter that no caller
passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "onokg"

ALLOWED = {
    "explain.net.FeedForwardNet.output":
        "criteria 07 and 08 and test_explain evaluate f_c(x) with it; the "
        "generic network is the closed-form explainer's oracle",
    "kg.Graph.check_indexes": "a test invariant: tests assert after writes "
                              "that the store's permutations agree",
}

ALLOWED_FIELDS = {
    "explain.relevance.RelevanceMap.total":
        "criterion 08 and test_explain check the squared gradient norm "
        "and LRP conservation with it",
    "explain.relevance.RelevanceMap.layer_sums":
        "criterion 07 and test_explain check that each layer conserves "
        "relevance with it",
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


def _trees(tops=("src", "bench")) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for top in tops
            for path in sorted((ROOT / top).rglob("*.py"))}


def _module(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def unreached_definitions() -> list[str]:
    trees = _trees()
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _appearances(tree):
            seen.setdefault(name, []).append((path, line))
    unreached = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        module = _module(path)
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated `@dataclass` or `@dataclass(...)`."""
    return any(ast.unparse(getattr(d, "func", d)) == "dataclass"
               for d in node.decorator_list)


def unread_fields() -> list[str]:
    trees = _trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                read.update(node.value.split("."))
    unread = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name) \
                        and item.target.id not in read:
                    unread.append(
                        f"{_module(path)}.{node.name}.{item.target.id}")
    return sorted(unread)


def test_src_holds_no_field_that_nothing_reads():
    unread = unread_fields()
    assert unread == sorted(ALLOWED_FIELDS), (
        "dataclass fields that no src/ or bench/ code reads (delete each "
        "with what fills it, or allow one in ALLOWED_FIELDS with its "
        "reason): " + ", ".join(unread))


def _scopes(tree: ast.Module):
    """The module and each function, with the imports made directly in it
    (not in a nested function)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, functions)]:
        imports, todo = [], list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imports.append(node)
            elif not isinstance(node, functions):
                todo.extend(ast.iter_child_nodes(node))
        yield scope, imports


def unused_imports() -> list[str]:
    unused = []
    for path, tree in _trees(("src", "bench", "tests")).items():
        for scope, imports in _scopes(tree):
            used = {node.id for node in ast.walk(scope)
                    if isinstance(node, ast.Name)}
            if scope is tree:   # names a package re-exports
                used.update(elt.value for node in tree.body
                            if isinstance(node, ast.Assign)
                            and any(getattr(t, "id", None) == "__all__"
                                    for t in node.targets)
                            for elt in node.value.elts)
            for node in imports:
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append((str(path.relative_to(ROOT)),
                                       node.lineno, bound))
    return [f"{path}:{line}: {name}" for path, line, name in sorted(unused)]


def test_no_unused_imports():
    unused = unused_imports()
    assert not unused, "imported names that nothing uses: " \
        + ", ".join(unused)


def _constant_patterns(tree: ast.Module) -> set[str]:
    """The upper-case names the module binds at its top level, by
    assignment or import."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return {name for name in names if name.isupper()}


def term_space_reads(package: Path = PACKAGE) -> list[str]:
    reads = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = _constant_patterns(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "attr", None) == "match" \
                    and getattr(node.func.value, "id", None) not in constants:
                reads.append(f"{path.relative_to(package)}:{node.lineno}")
    return reads


def test_no_reader_goes_through_the_term_space_match():
    reads = term_space_reads()
    assert not reads, ("`.match` calls on anything but a constant pattern "
                       "of the module (read Graph.edges, Graph.columns or "
                       "Graph.key_ids instead): " + ", ".join(reads))


def test_the_term_space_scan_flags_a_graph_match(tmp_path):
    (tmp_path / "reader.py").write_text(
        "import re\n"
        "PATTERN = re.compile('x')\n"
        "def read(graph, text):\n"
        "    PATTERN.match(text)\n"
        "    return graph.match(None, None, None)\n", encoding="utf-8")
    assert term_space_reads(tmp_path) == ["reader.py:5"]
