"""Class-expression query language over the ABox.

Grammar (keywords case-insensitive, `and` binds tighter than `or`):

    expr        := conj ('or' conj)*
    conj        := unit ('and' unit)*
    unit        := '(' expr ')' | restriction | NAME
    restriction := ['inverse'] NAME ('some' unit | 'only' unit
                                     | 'min' INT | 'max' INT)

Tokens come from one regex, `_TOKEN`, read with `finditer`: a parenthesis,
a run of ASCII letters, digits, `_` and `-` (an INT when all digits, a
keyword when it is one), or whitespace. Any other character is a
`DlxParseError` at its offset.

A parenthesized expression and a `some`/`only` filler each open one
nesting level; an expression nested deeper than `MAX_NESTING` levels is a
`DlxParseError` at the token that opens the level too many.

Evaluation is closed-world instance retrieval: an atomic name denotes the
instances of the class it resolves to (through the asserted subclass
hierarchy) plus the resolved node itself when that node is also used as an
individual. The nominal half is what makes fillers like `some BRCA` or
`some High` work, since cohorts, significance levels, and evidence sources
are individuals in the graph.

Names resolve to Terms, but evaluation runs over term ids, with no Python
object per triple: every node of an expression evaluates to a boolean mask
indexed by term id. `AboxIndex` reads the folded store's columns: a
property's edges are the (source, target) column pair of its POS run
(`Graph.edges`), and the universe holds the subjects and the non-literal
objects in use (`Graph.key_ids`).
An atomic name's class members are the mask of `instances` of the graph's
shared `ontology.ClassIndex`, which runs one `isin` over the rdf:type
columns for the class and its subclasses; the pitfall checks, quality
metric 3 and `deduce_syllogism` take membership from the same call.
`some` marks the sources of the edges whose target the filler holds,
`only` clears from the universe the sources of the edges whose target it
lacks, `min`/`max` compare a `bincount` of the sources, and `and`/`or`
combine masks. Only the module's `instances` function turns a mask back
into Terms, sorted for output.
The index, the `AboxIndex` built on it and the `NameResolver` are
memoized with `Graph.cached`, so repeated queries share them and a graph
write makes the next query rebuild them. A cyclic subclass hierarchy
raises `HierarchyCycleError` in DL queries, while
`ontology.check_ontology_pitfalls` (the `qa` command) reports it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .kg import LITERAL, Graph, KgError, Term, Triple
from .ontology import (OWL, RDF, RDF_TYPE, RDFS, RDFS_LABEL, SCHEMA,
                       ClassIndex, id_pairs, iri)

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


class UnknownNameError(DlxError):
    def __init__(self, name: str):
        super().__init__(f"unknown class or property name {name!r}")


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


@dataclass(frozen=True)
class Atomic:
    term: Term


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Some:
    prop: PropRef
    filler: "ClassExpression"


@dataclass(frozen=True)
class Only:
    prop: PropRef
    filler: "ClassExpression"


@dataclass(frozen=True)
class MinCard:
    prop: PropRef
    n: int


@dataclass(frozen=True)
class MaxCard:
    prop: PropRef
    n: int


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
        for s, o in id_pairs(graph, RDFS_LABEL):
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

# A parenthesis, a run of name characters, whitespace, or any other
# character, which is refused at its offset. `\s` matches what
# `str.isspace` accepts, and the ASCII ranges match no other letter or digit.
_TOKEN = re.compile(
    r"(?P<punct>[()])|(?P<name>[A-Za-z0-9_-]+)|\s+|(?P<stray>.)")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            kind, word, pos = m.lastgroup, m.group(), m.start()
            if kind == "stray":
                raise DlxParseError(f"unexpected character {word!r}", pos)
            if kind == "name" and word.isdigit():
                kind = "int"
            elif kind == "name" and word.casefold() in KEYWORDS:
                kind, word = "kw", word.casefold()
            if kind:
                self.items.append((kind, word, pos))
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
    return _parse_chain(tokens, resolver, "or", Or, _parse_and)


def _parse_and(tokens: _Tokens, resolver: NameResolver) -> ClassExpression:
    return _parse_chain(tokens, resolver, "and", And, _parse_unit)


def _parse_chain(tokens: _Tokens, resolver: NameResolver, keyword: str,
                 node, parse_part) -> ClassExpression:
    """One or more `parse_part` operands joined by `keyword`, as one `node`
    when there are several."""
    parts = [parse_part(tokens, resolver)]
    while (tok := tokens.peek()) and tok[:2] == ("kw", keyword):
        tokens.next()
        parts.append(parse_part(tokens, resolver))
    return parts[0] if len(parts) == 1 else node(tuple(parts))


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
    ids: the masks of the typed individuals and of the queried universe
    (every non-literal subject or object). A class's members come from the
    `ClassIndex` and a property's edges from `Graph.edges`.

    Raises HierarchyCycleError, naming the members of the first cyclic
    component, when the subclass hierarchy has a cycle. Get it through
    `graph.cached(AboxIndex)` so it is built once per graph state.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.hierarchy = graph.cached(ClassIndex)
        if self.hierarchy.cycles:
            raise HierarchyCycleError(list(self.hierarchy.cycles[0]))
        terms = graph.terms()
        self.size = len(terms)
        self._literal = np.array([t[0] == LITERAL for t in terms], bool)
        typed, types = self.hierarchy.typed, self.hierarchy.types
        meta = np.isin(types, [graph.term_id(t) for t in _META_TYPES])
        self._individuals = self.mask(typed[~meta])
        self.universe = self.mask(graph.key_ids(0)) | (
            self.mask(graph.key_ids(2)) & ~self._literal)

    def mask(self, ids) -> np.ndarray:
        """The mask that holds the term ids `ids`."""
        out = np.zeros(self.size, dtype=bool)
        out[ids] = True
        return out

    def successors(self, prop: PropRef) -> tuple[np.ndarray, np.ndarray]:
        """The property's (source, target) columns, one row per edge;
        `inverse` swaps them and drops the rows with a literal source."""
        src, dst = self.graph.edges(self.graph.term_id(prop.term))
        if prop.inverse:
            keep = ~self._literal[dst]
            return dst[keep], src[keep]
        return src, dst

    def evaluate(self, expr: ClassExpression) -> np.ndarray:
        """The members of `expr` as a new mask over term ids."""
        if isinstance(expr, Atomic):
            tid = self.graph.term_id(expr.term)
            out = self.mask(self.hierarchy.instances(tid))
            if 0 <= tid < self.size:
                out[tid] |= self._individuals[tid]
            return out
        if isinstance(expr, (And, Or)):
            combine = np.logical_and if isinstance(expr, And) \
                else np.logical_or
            return combine.reduce([self.evaluate(p) for p in expr.parts])
        if isinstance(expr, (Some, Only)):
            filler = self.evaluate(expr.filler)
            src, dst = self.successors(expr.prop)
            if isinstance(expr, Some):
                return self.mask(src[filler[dst]])
            return self.universe & ~self.mask(src[~filler[dst]])
        if isinstance(expr, (MinCard, MaxCard)):
            src, _ = self.successors(expr.prop)
            degree = np.bincount(src, minlength=self.size)
            if isinstance(expr, MinCard):
                return self.universe & (degree >= expr.n)
            return self.universe & (degree <= expr.n)
        raise DlxError(f"unknown expression node {expr!r}")


def instances(graph: Graph, expr: ClassExpression) -> list[Term]:
    """Members of the class expression, sorted for deterministic output.
    None is a literal, so ordering the Terms, which are tuples, orders
    them by (kind, lexical)."""
    members = graph.cached(AboxIndex).evaluate(expr)
    return sorted(map(graph.term, np.flatnonzero(members).tolist()))


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
