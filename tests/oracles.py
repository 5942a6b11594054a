"""Independent reference implementations used to cross-check the engines.

Everything here works by linear scans and literal set definitions: no
indexes, no closure caches, no shared code with the modules under test
beyond the Term/Triple data model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from onokg import dlx
from onokg.kg import (BLANK, Graph, Term, Triple, ValidationError, blank,
                      iri, literal)
from onokg.ontology import RDF_TYPE, RDFS_SUBCLASS
from onokg.sparql import (AndExpr, Comparison, NotExpr, OrExpr, Regex,
                          SelectQuery, SubSelect, TriplePattern, Values,
                          Var, _compile_regex)

_META = {iri("http://www.w3.org/2002/07/owl#Class"),
         iri("http://www.w3.org/2000/01/rdf-schema#Class"),
         iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#Property"),
         iri("http://www.w3.org/2002/07/owl#ObjectProperty"),
         iri("http://www.w3.org/2002/07/owl#DatatypeProperty")}


# ---------------------------------------------------------------------------
# description-logic instance retrieval by direct recursion on the set
# definitions

def _scan(graph: Graph):
    return list(graph)


def _subclass_ancestors(triples, cls: Term) -> set[Term]:
    out = {cls}
    changed = True
    while changed:
        changed = False
        for t in triples:
            if t.predicate == RDFS_SUBCLASS and t.subject in out \
                    and t.object not in out:
                out.add(t.object)
                changed = True
    return out


def _class_members(triples, cls: Term) -> set[Term]:
    return {t.subject for t in triples if t.predicate == RDF_TYPE
            and cls in _subclass_ancestors(triples, t.object)}


def class_instances(graph: Graph, cls: Term) -> set[Term]:
    """Subjects typed with cls or a class below it, by fixpoint scans; a
    cyclic hierarchy only makes the fixpoint stop sooner."""
    return _class_members(_scan(graph), cls)


def _universe(triples) -> set[Term]:
    out = set()
    for t in triples:
        out.add(t.subject)
        if t.object.kind != "literal":
            out.add(t.object)
    return out


def dl_instances(graph: Graph, expr) -> set[Term]:
    triples = _scan(graph)
    universe = _universe(triples)

    def successors(prop: dlx.PropRef, x: Term) -> set[Term]:
        out = set()
        for t in triples:
            if t.predicate != prop.term:
                continue
            src, dst = (t.object, t.subject) if prop.inverse \
                else (t.subject, t.object)
            if src == x and src.kind != "literal":
                out.add(dst)
        return out

    def evaluate(node) -> set[Term]:
        if isinstance(node, dlx.Atomic):
            out = _class_members(triples, node.term)
            for t in triples:
                if t.predicate == RDF_TYPE and t.subject == node.term \
                        and t.object not in _META:
                    out.add(node.term)
            return out
        if isinstance(node, dlx.And):
            parts = [evaluate(p) for p in node.parts]
            out = parts[0]
            for p in parts[1:]:
                out = out & p
            return out
        if isinstance(node, dlx.Or):
            out = set()
            for p in node.parts:
                out |= evaluate(p)
            return out
        if isinstance(node, dlx.Some):
            filler = evaluate(node.filler)
            return {x for x in universe
                    if successors(node.prop, x) & filler}
        if isinstance(node, dlx.Only):
            filler = evaluate(node.filler)
            return {x for x in universe
                    if successors(node.prop, x) <= filler}
        if isinstance(node, dlx.MinCard):
            return {x for x in universe
                    if len(successors(node.prop, x)) >= node.n}
        if isinstance(node, dlx.MaxCard):
            return {x for x in universe
                    if len(successors(node.prop, x)) <= node.n}
        raise TypeError(node)

    return evaluate(expr)


def reachability_closure(graph: Graph) -> set[tuple[Term, Term]]:
    """Reflexive-transitive subclass pairs via boolean matrix powers."""
    nodes = sorted({t for tr in graph.match(None, RDFS_SUBCLASS, None)
                    for t in (tr.subject, tr.object)},
                   key=lambda t: t.lexical)
    index = {t: i for i, t in enumerate(nodes)}
    n = len(nodes)
    mat = np.eye(n, dtype=bool)
    for tr in graph.match(None, RDFS_SUBCLASS, None):
        mat[index[tr.subject], index[tr.object]] = True
    changed = True
    while changed:
        nxt = mat | (mat @ mat)
        changed = not np.array_equal(nxt, mat)
        mat = nxt
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n)
            if mat[i, j]}


# ---------------------------------------------------------------------------
# SPARQL subset by nested-loop scans

def _numeric_value(term: Term):
    if term.kind != "literal":
        raise ValueError("not a literal")
    return float(term.lexical)


def _filter_holds(node, row) -> bool:
    if isinstance(node, OrExpr):
        return any(_filter_holds(p, row) for p in node.parts)
    if isinstance(node, AndExpr):
        return all(_filter_holds(p, row) for p in node.parts)
    if isinstance(node, NotExpr):
        return not _filter_holds(node.operand, row)
    if isinstance(node, Regex):
        value = row.get(node.var.name)
        if value is None or value.kind != "literal":
            return False
        return _compile_regex(node.pattern).search(value.lexical) is not None
    if isinstance(node, Comparison):
        try:
            left = _numeric_value(row[node.lhs.name]
                                  if isinstance(node.lhs, Var) else node.lhs)
            right = _numeric_value(row[node.rhs.name]
                                   if isinstance(node.rhs, Var) else node.rhs)
        except (KeyError, ValueError):
            return False
        if node.op == ">=":
            return left >= right
        if node.op == "<=":
            return left <= right
        if node.op == ">":
            return left > right
        if node.op == "<":
            return left < right
        return left == right
    raise TypeError(node)


def sparql_rows(graph: Graph, query: SelectQuery) -> list[tuple[Term, ...]]:
    triples = _scan(graph)
    if query.values is not None:
        rows = [{query.values.var.name: term} for term in query.values.terms]
    else:
        rows = [{}]
    for element in query.pattern:
        new_rows = []
        if isinstance(element, TriplePattern):
            for row in rows:
                for t in triples:
                    binding = dict(row)
                    good = True
                    for node, value in ((element.s, t.subject),
                                        (element.p, t.predicate),
                                        (element.o, t.object)):
                        if isinstance(node, Var):
                            seen = binding.get(node.name)
                            if seen is None:
                                binding[node.name] = value
                            elif seen != value:
                                good = False
                                break
                        elif node != value:
                            good = False
                            break
                    if good:
                        new_rows.append(binding)
        elif isinstance(element, SubSelect):
            sub_rows = sparql_rows(graph, element.query)
            header = [v.name for v in element.query.projection]
            for row in rows:
                for sub in sub_rows:
                    binding = dict(row)
                    good = True
                    for name, value in zip(header, sub):
                        seen = binding.get(name)
                        if seen is None:
                            binding[name] = value
                        elif seen != value:
                            good = False
                            break
                    if good:
                        new_rows.append(binding)
        rows = new_rows
    rows = [row for row in rows
            if all(_filter_holds(f, row) for f in query.filters)]
    if query.group_by:
        seen_keys = set()
        kept = []
        for row in rows:
            key = tuple(row[v.name] for v in query.group_by)
            if key not in seen_keys:
                seen_keys.add(key)
                kept.append(row)
        rows = kept
    projected = [tuple(row[v.name] for v in query.projection)
                 for row in rows]
    if query.distinct:
        seen_rows = set()
        kept_rows = []
        for row in projected:
            if row not in seen_rows:
                seen_rows.add(row)
                kept_rows.append(row)
        projected = kept_rows
    return projected


# ---------------------------------------------------------------------------
# numeric oracles

def central_difference(function, x: np.ndarray, h: float = 1e-5
                       ) -> np.ndarray:
    grad = np.zeros(len(x))
    for d in range(len(x)):
        bump = np.zeros(len(x))
        bump[d] = h
        grad[d] = (function(x + bump) - function(x - bump)) / (2 * h)
    return grad


def spans_by_regex(tags: list[str]) -> list[tuple[int, int]]:
    """Reference span finder over the word-level tag string."""
    import re
    text = "".join({"B": "B", "I": "I"}.get(t, "O") for t in tags)
    out = []
    for m in re.finditer(r"BI*|(?<!B)(?<!I)I+", text):
        out.append((m.start(), m.end()))
    return out


# ---------------------------------------------------------------------------
# N-Triples parsing by scanning every line character by character, the
# parser as it was before it worked in term-id space: every term of every
# line is read and validated, and each triple goes through Graph.insert.

_NT_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


class _NtScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_term(self) -> Term:
        self.skip_ws()
        ch = self.peek()
        if ch == "<":
            return self._read_iri()
        if ch == '"':
            return self._read_literal()
        if ch == "_" and self.text[self.pos:self.pos + 2] == "_:":
            return self._read_blank()
        if ch == "":
            raise ValidationError("unexpected end of line, expected a term")
        raise ValidationError(f"unexpected character {ch!r}, expected a term")

    def _read_iri(self) -> Term:
        end = self.text.find(">", self.pos + 1)
        if end < 0:
            raise ValidationError("unterminated IRI (missing '>')")
        value = self.text[self.pos + 1:end]
        self.pos = end + 1
        if ":" not in value:
            raise ValidationError(f"relative IRI not allowed: <{value}>")
        if any(c in value for c in ' "<'):
            raise ValidationError(f"invalid character in IRI: <{value}>")
        return iri(value)

    def _read_blank(self) -> Term:
        self.pos += 2
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] in "_-"):
            self.pos += 1
        label = self.text[start:self.pos]
        if not label:
            raise ValidationError("blank node with empty label")
        return blank(label)

    def _read_literal(self) -> Term:
        self.pos += 1
        out = []
        while True:
            if self.pos >= len(self.text):
                raise ValidationError("unterminated literal")
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                break
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    raise ValidationError("unterminated literal")
                esc = self.text[self.pos + 1]
                if esc not in _NT_ESCAPES:
                    raise ValidationError(f"unsupported escape \\{esc}")
                out.append(_NT_ESCAPES[esc])
                self.pos += 2
                continue
            out.append(ch)
            self.pos += 1
        value = "".join(out)
        if self.text[self.pos:self.pos + 2] == "^^":
            self.pos += 2
            if self.peek() != "<":
                raise ValidationError("datatype must be an IRI in angle brackets")
            dt = self._read_iri()
            return literal(value, datatype=dt.lexical)
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                                 or self.text[self.pos] == "-"):
                self.pos += 1
            tag = self.text[start:self.pos]
            if not tag:
                raise ValidationError("empty language tag")
            return literal(value, language=tag)
        return literal(value)

    def read_terminator(self):
        self.skip_ws()
        if self.peek() != ".":
            raise ValidationError("missing '.' terminator")
        self.pos += 1
        self.skip_ws()
        rest = self.text[self.pos:]
        if rest and not rest.startswith("#"):
            raise ValidationError(f"unexpected trailing content {rest!r}")


def parse_ntriples_scan(text: str) -> tuple[Graph, list[tuple[int, str]]]:
    """The graph and the (line, message) issues of an N-Triples text."""
    graph = Graph()
    issues: list[tuple[int, str]] = []
    blank_map: dict[str, Term] = {}
    counter = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        scanner = _NtScanner(raw)
        try:
            s = scanner.read_term()
            p = scanner.read_term()
            o = scanner.read_term()
            scanner.read_terminator()
            if s.kind == BLANK:
                if s.lexical not in blank_map:
                    blank_map[s.lexical] = blank(f"b{counter}")
                    counter += 1
                s = blank_map[s.lexical]
            if o.kind == BLANK:
                if o.lexical not in blank_map:
                    blank_map[o.lexical] = blank(f"b{counter}")
                    counter += 1
                o = blank_map[o.lexical]
            graph.insert(Triple(s, p, o))
        except ValidationError as exc:
            issues.append((lineno, str(exc)))
    return graph, issues


# ---------------------------------------------------------------------------
# random structure generators

EX = "http://example.org/x#"


def random_graph(rng: np.random.Generator, max_triples: int = 200) -> Graph:
    graph = Graph()
    entities = [iri(EX + f"e{i}") for i in range(rng.integers(4, 16))]
    classes = [iri(EX + f"C{i}") for i in range(rng.integers(2, 6))]
    props = [iri(EX + f"p{i}") for i in range(rng.integers(2, 5))]
    # acyclic hierarchy: edges only from lower to strictly higher index
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if rng.random() < 0.3:
                graph.insert(Triple(classes[i], RDFS_SUBCLASS, classes[j]))
    graph.insert(Triple(entities[0], RDF_TYPE, classes[0]))
    n = int(rng.integers(1, max_triples))
    for _ in range(n):
        kind = rng.random()
        if kind < 0.35:
            graph.insert(Triple(entities[rng.integers(len(entities))],
                                RDF_TYPE,
                                classes[rng.integers(len(classes))]))
        elif kind < 0.85:
            graph.insert(Triple(entities[rng.integers(len(entities))],
                                props[rng.integers(len(props))],
                                entities[rng.integers(len(entities))]))
        else:
            graph.insert(Triple(entities[rng.integers(len(entities))],
                                props[rng.integers(len(props))],
                                literal(str(rng.integers(0, 50)))))
    return graph


def graph_vocabulary(graph: Graph):
    classes = sorted({t.object for t in graph.match(None, RDF_TYPE, None)}
                     | {x for t in graph.match(None, RDFS_SUBCLASS, None)
                        for x in (t.subject, t.object)},
                     key=lambda t: t.lexical)
    props = sorted({t.predicate for t in graph} - {RDF_TYPE, RDFS_SUBCLASS},
                   key=lambda t: t.lexical)
    individuals = sorted({t.subject for t in graph.match(None, RDF_TYPE,
                                                         None)},
                         key=lambda t: t.lexical)
    return classes, props, individuals


def random_dl_expr(rng: np.random.Generator, graph: Graph, depth: int = 3):
    classes, props, individuals = graph_vocabulary(graph)
    names = classes + individuals

    def atom():
        return dlx.Atomic(names[rng.integers(len(names))])

    def prop_ref():
        return dlx.PropRef(props[rng.integers(len(props))],
                           inverse=bool(rng.random() < 0.25))

    def build(level: int):
        if level <= 0 or not props:
            return atom()
        choice = rng.random()
        if choice < 0.2:
            return dlx.And(tuple(build(level - 1)
                                 for _ in range(rng.integers(2, 4))))
        if choice < 0.4:
            return dlx.Or(tuple(build(level - 1)
                                for _ in range(rng.integers(2, 4))))
        if choice < 0.6:
            return dlx.Some(prop_ref(), build(level - 1))
        if choice < 0.8:
            return dlx.Only(prop_ref(), build(level - 1))
        if choice < 0.9:
            return dlx.MinCard(prop_ref(), int(rng.integers(0, 4)))
        return dlx.MaxCard(prop_ref(), int(rng.integers(0, 4)))

    return build(depth)


def random_sparql_query(rng: np.random.Generator, graph: Graph
                        ) -> SelectQuery:
    from onokg.kg import PrefixTable, literal
    classes, props, individuals = graph_vocabulary(graph)
    pool = classes + props + individuals
    var_names = ["a", "b", "c"]

    def node(position: int):
        roll = rng.random()
        if roll < 0.55:
            return Var(var_names[rng.integers(len(var_names))])
        if position == 1:
            options = props + [RDF_TYPE]
            return options[rng.integers(len(options))]
        if position == 2 and roll < 0.65:
            return literal(str(rng.integers(0, 50)))
        return pool[rng.integers(len(pool))]

    patterns = []
    for _ in range(int(rng.integers(1, 4))):
        patterns.append(TriplePattern(node(0), node(1), node(2)))
    scope = sorted({v for p in patterns for v in p.variables()})
    values = None
    if rng.random() < 0.3 and individuals:
        extra = "v"
        terms = tuple(individuals[rng.integers(len(individuals))]
                      for _ in range(int(rng.integers(1, 3))))
        values = Values(Var(extra), terms)
        scope.append(extra)
    if not scope:
        patterns.append(TriplePattern(Var("a"), RDF_TYPE, Var("b")))
        scope = ["a", "b"]
    projection = [Var(v) for v in
                  sorted(rng.choice(scope,
                                    size=int(rng.integers(1,
                                                          len(scope) + 1)),
                                    replace=False))]
    filters = []
    if rng.random() < 0.4:
        target = Var(scope[rng.integers(len(scope))])
        if rng.random() < 0.5:
            filters.append(Regex(target, "^e"))
        else:
            filters.append(Comparison(">=", target,
                                      literal(str(rng.integers(0, 50)))))
    distinct = bool(rng.random() < 0.5)
    group_by = list(projection) if rng.random() < 0.3 else []
    return SelectQuery(PrefixTable(), projection, distinct, patterns,
                       values, filters, group_by)


def random_rich_sparql_query(rng: np.random.Generator, graph: Graph,
                             depth: int = 1,
                             names: Optional[dict] = None) -> SelectQuery:
    """Like `random_sparql_query`, but reaching the cases a join planner
    and filter push-down can get wrong: sub-selects whose inner variables
    stay hidden, `&&` of 2-3 conjuncts under `||` and `!`, filters over a
    variable no pattern binds, VALUES terms the graph lacks or repeats, a
    variable repeated in one pattern, and constants the graph lacks.

    Patterns are walks over stored triples, so that joins often match:
    `names` maps a term to the variable that stands for it.
    """
    from onokg.kg import PrefixTable, literal
    individuals = graph_vocabulary(graph)[2]
    ghosts = [iri(EX + "ghost"), literal("77")]
    names = {} if names is None else names
    # a sub-select's own variables may reuse an outer name for another
    # term; unprojected, they must stay hidden from the outer query
    fresh = ["a", "b", "c"] if depth else ["c", "h"]

    def pick(items):
        return items[int(rng.integers(len(items)))]

    def node(term: Term, position: int):
        roll = rng.random()
        if roll < 0.05:
            return pick(ghosts)
        if term in names and roll < 0.8:
            return Var(names[term])
        unused = [n for n in fresh if n not in names.values()]
        if unused and roll < (0.3 if position == 1 else 0.7):
            names[term] = unused[0]
            return Var(unused[0])
        if roll > 0.95:  # a variable already standing for another term
            return Var(pick(fresh))
        return term

    triples = list(graph)
    pattern = []
    for _ in range(int(rng.integers(1, 4 if depth else 3))):
        linked = [t for t in triples if any(x in names for x in t)]
        triple = pick(linked if linked and rng.random() < 0.8 else triples)
        s, p, o = (node(term, i) for i, term in enumerate(triple))
        if rng.random() < 0.1:
            o = s = Var(pick(fresh))
        pattern.append(TriplePattern(s, p, o))
    scope = {v for t in pattern for v in t.variables()}
    if depth and rng.random() < 0.35:
        sub = random_rich_sparql_query(rng, graph, depth - 1, dict(names))
        pattern.insert(int(rng.integers(len(pattern) + 1)), SubSelect(sub))
        scope |= {v.name for v in sub.projection}
    values = None
    if rng.random() < 0.4:
        name = pick(sorted(scope) + ["v"])
        known = [t for t, n in names.items() if n == name]
        terms = tuple(pick(known * 3 + individuals + ghosts)
                      for _ in range(int(rng.integers(1, 5))))
        values = Values(Var(name), terms)
        scope.add(name)
    if not scope:
        pattern.append(TriplePattern(Var("a"), RDF_TYPE, Var("b")))
        scope = {"a", "b"}
    scope = sorted(scope)

    def leaf():
        # ?z is never bound
        target = Var("z" if rng.random() < 0.1 else pick(scope))
        roll = rng.random()
        if roll < 0.3:
            return Regex(target, pick(["^1", "5", "^e"]))
        op = pick([">=", "<=", ">", "<", "="])
        if roll < 0.45:
            return Comparison(op, target, Var(pick(scope)))
        return Comparison(op, target, literal(str(rng.integers(0, 50))))

    def expr(level: int):
        roll = rng.random()
        if level <= 0 or roll < 0.35:
            return leaf()
        if roll < 0.65:
            return AndExpr(tuple(expr(level - 1)
                                 for _ in range(int(rng.integers(2, 4)))))
        if roll < 0.85:
            return OrExpr(tuple(expr(level - 1)
                                for _ in range(int(rng.integers(2, 4)))))
        return NotExpr(expr(level - 1))

    filters = [expr(2) for _ in range(int(rng.integers(0, 3)))]
    projection = [Var(v) for v in
                  sorted(rng.choice(scope, size=int(rng.integers(
                      1, len(scope) + 1)), replace=False))]
    distinct = bool(rng.random() < 0.5)
    group_by = list(projection) if rng.random() < 0.3 else []
    return SelectQuery(PrefixTable(), projection, distinct, pattern,
                       values, filters, group_by)
