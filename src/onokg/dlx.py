"""Class-expression query language over the ABox.

Grammar (keywords case-insensitive, `and` binds tighter than `or`):

    expr        := conj ('or' conj)*
    conj        := unit ('and' unit)*
    unit        := '(' expr ')' | restriction | NAME
    restriction := ['inverse'] NAME ('some' unit | 'only' unit
                                     | 'min' INT | 'max' INT)

A parenthesized expression and a `some`/`only` filler each open one
nesting level; an expression nested deeper than `MAX_NESTING` levels is a
`DlxParseError` at the token that opens the level too many.

Evaluation is closed-world instance retrieval: an atomic name denotes the
instances of the class it resolves to (through the asserted subclass
hierarchy) plus the resolved node itself when that node is also used as an
individual. The nominal half is what makes fillers like `some BRCA` or
`some High` work, since cohorts, significance levels, and evidence sources
are individuals in the graph.

Names resolve to Terms, but evaluation runs over term ids: the graph's
shared `ontology.ClassIndex` gives class extents as id sets, `AboxIndex`
builds per-property successor maps from `Graph.match_ids`, and every node
of an expression evaluates to a set of ids. Only `instances` turns ids
back into Terms, sorted for output. The index, the `AboxIndex` built on it
and the `NameResolver` are memoized with `Graph.cached`, so repeated
queries share them and a graph write makes the next query rebuild them. A
cyclic subclass hierarchy raises `HierarchyCycleError` in DL queries,
while `ontology.check_ontology_pitfalls` (the `qa` command) reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .kg import LITERAL, Graph, KgError, Term, Triple
from .ontology import (OWL, RDF, RDF_TYPE, RDFS, RDFS_LABEL, SCHEMA,
                       ClassIndex, iri)

_META_TYPES = {
    iri(OWL + "Class"), iri(RDFS + "Class"), iri(RDF + "Property"),
    iri(OWL + "ObjectProperty"), iri(OWL + "DatatypeProperty"),
}

KEYWORDS = {"and", "or", "some", "only", "min", "max", "inverse"}

# The parser recurses once per nesting level; this bound keeps it far from
# the interpreter's recursion limit.
MAX_NESTING = 100

# The query tables use both have-/has- spellings for these properties.
_PROPERTY_ALIASES = {
    "haveevidence": "hasEvidence",
    "havecitations": "hasCitations",
    "havesignificance": "hasSignificance",
    "instanceof": "type",
}


class DlxError(KgError):
    pass


class DlxParseError(DlxError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownNameError(DlxError):
    def __init__(self, name: str):
        super().__init__(f"unknown class or property name {name!r}")
        self.name = name


class HierarchyCycleError(DlxError):
    def __init__(self, cycle: list[Term]):
        names = ", ".join(t.local_name() for t in cycle)
        super().__init__(f"subclass hierarchy contains a cycle among {names}")
        self.cycle = cycle


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class PropRef:
    term: Term
    inverse: bool = False

    def __repr__(self):
        mark = "inverse " if self.inverse else ""
        return f"{mark}{self.term.local_name()}"


@dataclass(frozen=True)
class Atomic:
    term: Term

    def __repr__(self):
        return self.term.local_name()


@dataclass(frozen=True)
class And:
    parts: tuple

    def __repr__(self):
        return "(" + " and ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Or:
    parts: tuple

    def __repr__(self):
        return "(" + " or ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Some:
    prop: PropRef
    filler: "ClassExpression"

    def __repr__(self):
        return f"({self.prop!r} some {self.filler!r})"


@dataclass(frozen=True)
class Only:
    prop: PropRef
    filler: "ClassExpression"

    def __repr__(self):
        return f"({self.prop!r} only {self.filler!r})"


@dataclass(frozen=True)
class MinCard:
    prop: PropRef
    n: int

    def __repr__(self):
        return f"({self.prop!r} min {self.n})"


@dataclass(frozen=True)
class MaxCard:
    prop: PropRef
    n: int

    def __repr__(self):
        return f"({self.prop!r} max {self.n})"


ClassExpression = Union[Atomic, And, Or, Some, Only, MinCard, MaxCard]


# ---------------------------------------------------------------------------
# name resolution

class NameResolver:
    """Resolve atomic names against the graph's IRIs and labels.

    Lookup order: exact local-name or label match, then unique
    case-insensitive match. Property names additionally normalize the
    have-/has- alias spellings.
    """

    def __init__(self, graph: Graph):
        self._exact: dict[str, set[Term]] = {}
        self._folded: dict[str, set[Term]] = {}
        for term in SCHEMA.classes() + SCHEMA.properties():
            self._register(term.local_name(), term)
        for term in graph.terms():
            if term.kind == "iri":
                self._register(term.local_name(), term)
        term = graph.term
        for s, _, o in graph.match_ids(None, graph.term_id(RDFS_LABEL)):
            label = term(o)
            if label.kind == LITERAL:
                self._register(label.lexical, term(s))

    def _register(self, name: str, term: Term) -> None:
        self._exact.setdefault(name, set()).add(term)
        self._folded.setdefault(name.casefold(), set()).add(term)

    def resolve(self, name: str) -> Term:
        found = self._exact.get(name) or self._folded.get(name.casefold())
        if not found:
            raise UnknownNameError(name)
        if len(found) > 1:
            options = ", ".join(sorted(t.lexical for t in found))
            raise DlxError(f"ambiguous name {name!r}: {options}")
        return next(iter(found))

    def resolve_property(self, name: str) -> Term:
        alias = _PROPERTY_ALIASES.get(name.casefold())
        if alias == "type":
            return RDF_TYPE
        return self.resolve(alias or name)


# ---------------------------------------------------------------------------
# parser

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch in "()":
                self.items.append(("punct", ch, pos))
                pos += 1
                continue
            if ch in _NAME_CHARS:
                start = pos
                while pos < len(text) and text[pos] in _NAME_CHARS:
                    pos += 1
                word = text[start:pos]
                if word.isdigit():
                    self.items.append(("int", word, start))
                elif word.casefold() in KEYWORDS:
                    self.items.append(("kw", word.casefold(), start))
                else:
                    self.items.append(("name", word, start))
                continue
            raise DlxParseError(f"unexpected character {ch!r}", pos)
        self.index = 0
        self.depth = 0

    def enter(self, pos: int) -> None:
        """Open one nesting level at offset `pos`; the caller closes it."""
        if self.depth == MAX_NESTING:
            raise DlxParseError(f"expression nested deeper than "
                                f"{MAX_NESTING} levels", pos)
        self.depth += 1

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.items[self.index] if self.index < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise DlxParseError("unexpected end of expression", len(self.text))
        self.index += 1
        return tok


def parse_dlx(text: str, graph: Graph) -> ClassExpression:
    """Parse a class expression, resolving names against the graph and the
    ONO schema."""
    if not text.strip():
        raise DlxParseError("empty expression", 0)
    resolver = graph.cached(NameResolver)
    tokens = _Tokens(text)
    expr = _parse_or(tokens, resolver)
    trailing = tokens.peek()
    if trailing is not None:
        raise DlxParseError(f"unexpected token {trailing[1]!r}", trailing[2])
    return expr


def _parse_or(tokens: _Tokens, resolver: NameResolver) -> ClassExpression:
    parts = [_parse_and(tokens, resolver)]
    while True:
        tok = tokens.peek()
        if tok and tok[0] == "kw" and tok[1] == "or":
            tokens.next()
            parts.append(_parse_and(tokens, resolver))
        else:
            break
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _parse_and(tokens: _Tokens, resolver: NameResolver) -> ClassExpression:
    parts = [_parse_unit(tokens, resolver)]
    while True:
        tok = tokens.peek()
        if tok and tok[0] == "kw" and tok[1] == "and":
            tokens.next()
            parts.append(_parse_unit(tokens, resolver))
        else:
            break
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _parse_unit(tokens: _Tokens, resolver: NameResolver) -> ClassExpression:
    tok = tokens.next()
    kind, value, pos = tok
    if kind == "punct" and value == "(":
        tokens.enter(pos)
        inner = _parse_or(tokens, resolver)
        closing = tokens.next()
        if closing[0] != "punct" or closing[1] != ")":
            raise DlxParseError("expected ')'", closing[2])
        tokens.depth -= 1
        return inner
    if kind == "kw" and value == "inverse":
        name_tok = tokens.next()
        if name_tok[0] != "name":
            raise DlxParseError("expected a property name after 'inverse'",
                                name_tok[2])
        return _parse_restriction(tokens, resolver, name_tok[1],
                                  inverse=True, pos=name_tok[2])
    if kind == "name":
        nxt = tokens.peek()
        if nxt and nxt[0] == "kw" and nxt[1] in ("some", "only", "min", "max"):
            return _parse_restriction(tokens, resolver, value,
                                      inverse=False, pos=pos)
        return Atomic(resolver.resolve(value))
    raise DlxParseError(f"unexpected token {value!r}", pos)


def _parse_restriction(tokens: _Tokens, resolver: NameResolver, name: str,
                       inverse: bool, pos: int) -> ClassExpression:
    prop = PropRef(resolver.resolve_property(name), inverse)
    op = tokens.next()
    if op[0] != "kw" or op[1] not in ("some", "only", "min", "max"):
        raise DlxParseError("expected some/only/min/max after a property",
                            op[2])
    if op[1] in ("min", "max"):
        num = tokens.next()
        if num[0] != "int":
            raise DlxParseError(f"expected a nonnegative integer after "
                                f"'{op[1]}'", num[2])
        n = int(num[1])
        return MinCard(prop, n) if op[1] == "min" else MaxCard(prop, n)
    tokens.enter(op[2])
    filler = _parse_unit(tokens, resolver)
    tokens.depth -= 1
    return Some(prop, filler) if op[1] == "some" else Only(prop, filler)


# ---------------------------------------------------------------------------
# evaluation

class AboxIndex:
    """Per-graph evaluation index over the graph's `ClassIndex`, in term
    ids: typed individuals, per-property successor maps, and the queried
    universe (every non-literal subject or object).

    Raises HierarchyCycleError, naming the members of the first cyclic
    component, when the subclass hierarchy has a cycle. Get it through
    `graph.cached(AboxIndex)` so it is built once per graph state.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.hierarchy = graph.cached(ClassIndex)
        if self.hierarchy.cycles:
            raise HierarchyCycleError(list(self.hierarchy.cycles[0]))
        meta = {graph.term_id(t) for t in _META_TYPES}
        self._individuals: set[int] = set()
        for cls, members in self.hierarchy.direct.items():
            if cls not in meta:
                self._individuals |= members
        self._literal = [t.kind == LITERAL for t in graph.id_terms()]
        self._succ: dict[tuple[Term, bool], dict[int, set[int]]] = {}
        rows = graph.match_ids()
        literal = self._literal
        self.universe: frozenset[int] = frozenset(
            {s for s, _, _ in rows}.union(
                o for _, _, o in rows if not literal[o]))

    def successors(self, prop: PropRef) -> dict[int, set[int]]:
        key = (prop.term, prop.inverse)
        cached = self._succ.get(key)
        if cached is None:
            cached = {}
            literal = self._literal
            for s, _, o in self.graph.match_ids(
                    None, self.graph.term_id(prop.term)):
                src, dst = (o, s) if prop.inverse else (s, o)
                if not literal[src]:
                    cached.setdefault(src, set()).add(dst)
            self._succ[key] = cached
        return cached

    def evaluate(self, expr: ClassExpression) -> set[int]:
        if isinstance(expr, Atomic):
            tid = self.graph.term_id(expr.term)
            out = self.hierarchy.instances(tid)
            if tid in self._individuals:
                out.add(tid)
            return out
        if isinstance(expr, And):
            parts = [self.evaluate(p) for p in expr.parts]
            out = parts[0]
            for p in parts[1:]:
                out = out & p
            return out
        if isinstance(expr, Or):
            out: set[int] = set()
            for p in expr.parts:
                out |= self.evaluate(p)
            return out
        if isinstance(expr, Some):
            filler = self.evaluate(expr.filler)
            succ = self.successors(expr.prop)
            return {x for x, targets in succ.items() if targets & filler}
        if isinstance(expr, Only):
            filler = self.evaluate(expr.filler)
            succ = self.successors(expr.prop)
            return {x for x in self.universe
                    if succ.get(x, set()) <= filler}
        if isinstance(expr, MinCard):
            if expr.n == 0:
                return set(self.universe)
            succ = self.successors(expr.prop)
            return {x for x, targets in succ.items() if len(targets) >= expr.n}
        if isinstance(expr, MaxCard):
            succ = self.successors(expr.prop)
            return {x for x in self.universe
                    if len(succ.get(x, ())) <= expr.n}
        raise DlxError(f"unknown expression node {expr!r}")


def instances(graph: Graph, expr: ClassExpression) -> list[Term]:
    """Members of the class expression, sorted for deterministic output."""
    return sorted(map(graph.term, graph.cached(AboxIndex).evaluate(expr)),
                  key=lambda t: (t.kind, t.lexical))


def query(graph: Graph, text: str) -> list[Term]:
    return instances(graph, parse_dlx(text, graph))


# ---------------------------------------------------------------------------
# syllogistic deduction

@dataclass
class Deduction:
    derived: Optional[Triple]
    trace: list[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.derived is not None


SYLLOGISM_RULES = {
    # every member of Oncogene causes (a representative of) Cancer
    "oncogene-rule": (SCHEMA.oncogene, SCHEMA.causes, SCHEMA.cancer),
}


def deduce_syllogism(graph: Graph, rule: tuple[Term, Term, Term],
                     instance: Term) -> Deduction:
    """Apply `every A <property> B` to an asserted member of A.

    Returns the derived triple plus a two-premise proof trace; with no
    membership premise the deduction is empty. The derived triple is not
    added to the graph.
    """
    class_a, prop, class_b = rule
    members = graph.cached(AboxIndex).hierarchy.instances(
        graph.term_id(class_a))
    if graph.term_id(instance) not in members:
        return Deduction(derived=None, trace=[])
    derived = Triple(instance, prop, class_b)
    trace = [
        f"premise: {instance.local_name()} is a {class_a.local_name()}",
        f"premise: every {class_a.local_name()} {prop.local_name()} "
        f"{class_b.local_name()}",
        f"conclusion: {instance.local_name()} {prop.local_name()} "
        f"{class_b.local_name()}",
    ]
    return Deduction(derived=derived, trace=trace)
