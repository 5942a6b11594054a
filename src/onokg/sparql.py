"""Parser and evaluator for the SPARQL subset used by the query pack.

Supported: PREFIX headers, SELECT [DISTINCT], basic graph patterns,
`a` for rdf:type, one VALUES clause (single variable), FILTER with
regex / numeric comparisons / && || ! / parentheses, bare GROUP BY, and
nested SELECT inside WHERE. A group, a parenthesized filter expression
and a `!` each open one nesting level; a query nested deeper than
`MAX_NESTING` levels is a `SparqlParseError` at the token that opens the
level too many.

Filter semantics: a filter leaf that cannot be evaluated (regex against a
non-literal, comparison on a non-numeric value, unbound variable) counts
as false for that row; the logical operators are then plain boolean. A
bare GROUP BY with no aggregates collapses each group to one row of its
grouping key. Result rows are sorted by term, so evaluation output is
deterministic across runs and insertion orders.

Evaluation runs on the graph's integer term ids, never on Term objects
per row. A solution set is one int64 table, with a row per solution and a
column per bound variable. Each pattern's constants are looked up once; a
constant the graph lacks makes the result empty, and a VALUES term it
lacks gets a query-local negative id, which no stored id equals, so that
it is still projected. Every step of a query is a table. A triple pattern
is the table of its matches, read once from the predicate's
`Graph.edges` (from `Graph.columns` for a variable predicate), less the
rows where a constant or a repeated variable disagrees. A sub-select is
evaluated once and is the table of its projected rows. One join joins
any step to the rows: it sorts a key over the variables both share and
finds each row's partners with `np.searchsorted`. Each FILTER is split at
its top-level `&&`, and a conjunct is a boolean mask over the rows. Each
leaf runs once per distinct term id of its variable (`np.unique` with
`return_inverse`): a regex on literal lexicals, and a comparison on each
term's number, NaN for a term that has none, which compares false. A
conjunct that is one regex also filters, up front, the table of each
pattern that binds its variable. The steps are joined in one loop. Each
round runs every conjunct whose variables are now all bound, then picks
the next step, joins it and binds its variables. The pick is greedy, in
the style of RDF-3X: the cheapest of the steps sharing a bound variable,
costed by its table's rows (at most 1 for a pattern that no regex
filtered, once all its variables are bound), with ties going to the step
written first. The first step, and the step after one that shares
nothing with what is bound, is the one that, joined with its cheapest
neighbour pattern, gives the fewest rows, so a one-row filtered label
whose value fans out to thousands of rows does not start the order; that
neighbour joins next. Once no step is left, the conjuncts over a variable
that nothing binds run too, where that leaf is false. GROUP BY and
DISTINCT keep the distinct rows of their columns, found on the join's
key. Ids become Terms only for the final rows. The answer, as a bag of
rows, is the same as joining the patterns in written order and filtering
afterwards; `tests/oracles.py` checks that by brute force.
"""
from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .kg import (QUOTED, Graph, KgError, PrefixTable, Term,
                 UnknownPrefixError, ValidationError, iri, literal, unescape)
from .ntriples import read_text
from .ontology import RDF, data_path, default_prefixes

RDF_TYPE = iri(RDF + "type")


class SparqlError(KgError):
    pass


class SparqlParseError(SparqlError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Var:
    name: str


Node = Union[Var, Term]


@dataclass(frozen=True)
class TriplePattern:
    s: Node
    p: Node
    o: Node

    def variables(self) -> set[str]:
        return {n.name for n in (self.s, self.p, self.o)
                if isinstance(n, Var)}


@dataclass(frozen=True)
class Values:
    var: Var
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class Regex:
    var: Var
    pattern: str


@dataclass(frozen=True)
class Comparison:
    op: str
    lhs: Node
    rhs: Node


@dataclass(frozen=True)
class NotExpr:
    operand: "FilterNode"


@dataclass(frozen=True)
class AndExpr:
    parts: tuple


@dataclass(frozen=True)
class OrExpr:
    parts: tuple


FilterNode = Union[Regex, Comparison, NotExpr, AndExpr, OrExpr]


@dataclass
class SubSelect:
    query: "SelectQuery"


@dataclass
class SelectQuery:
    projection: list[Var]
    distinct: bool
    pattern: list[Union[TriplePattern, SubSelect]]
    values: Optional[Values] = None
    filters: list[FilterNode] = field(default_factory=list)
    group_by: list[Var] = field(default_factory=list)

    def in_scope_variables(self) -> set[str]:
        out: set[str] = set()
        for elem in self.pattern:
            if isinstance(elem, TriplePattern):
                out |= elem.variables()
            else:
                out |= {v.name for v in elem.query.projection}
        if self.values is not None:
            out.add(self.values.var.name)
        return out


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<string>{QUOTED.pattern})
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<op>&&|\|\||>=|<=|!=|[><=!])
  | (?P<punct>[{{}}().;,])
  | (?P<pname>[A-Za-z_][A-Za-z0-9_\-]*:[A-Za-z0-9_\-.]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
""", re.VERBOSE)

KEYWORDS = {"prefix", "select", "distinct", "where", "filter", "values",
            "group", "by", "regex"}

# The parser recurses once per nesting level; this bound keeps it far from
# the interpreter's recursion limit.
MAX_NESTING = 100


@dataclass
class _Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SparqlParseError(f"unexpected character {text[pos]!r}",
                                   line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    return tokens


def _checked(tok: _Token, make, value: str):
    """`make(value)`; a ValidationError becomes a parse error at `tok`."""
    try:
        return make(value)
    except ValidationError as exc:
        raise SparqlParseError(str(exc), tok.line, tok.col) from None


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text: str, prefixes: Optional[PrefixTable] = None):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        self.prefixes = prefixes.copy() if prefixes else PrefixTable()

    def enter(self, tok: _Token) -> None:
        """Open one nesting level at `tok`; the caller closes it."""
        if self.depth == MAX_NESTING:
            raise SparqlParseError(f"query nested deeper than {MAX_NESTING} "
                                   "levels", tok.line, tok.col)
        self.depth += 1

    def error(self, message: str):
        tok = self.peek()
        if tok is None:
            tok = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
        raise SparqlParseError(message, tok.line, tok.col)

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.index] if self.index < len(self.tokens) \
            else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of query")
        self.index += 1
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return (tok is not None and tok.kind == "name"
                and tok.value.casefold() == word)

    def expect_keyword(self, word: str) -> _Token:
        if not self.at_keyword(word):
            self.error(f"expected {word.upper()}")
        return self.next()

    def expect_punct(self, value: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind not in ("punct", "op") \
                or tok.value != value:
            self.error(f"expected {value!r}")
        return self.next()

    # grammar

    def parse_query(self) -> SelectQuery:
        while self.at_keyword("prefix"):
            self.next()
            tok = self.next()
            if tok.kind != "pname" or not tok.value.endswith(":"):
                raise SparqlParseError("expected a prefix declaration like "
                                       "'ono:'", tok.line, tok.col)
            prefix = tok.value[:-1]
            iri_tok = self.next()
            if iri_tok.kind != "iri":
                raise SparqlParseError("expected a namespace IRI",
                                       iri_tok.line, iri_tok.col)
            self.prefixes.bind(prefix, iri_tok.value[1:-1])
        query = self.parse_select()
        if self.peek() is not None:
            self.error("trailing content after query")
        return query

    def parse_select(self) -> SelectQuery:
        self.expect_keyword("select")
        distinct = False
        if self.at_keyword("distinct"):
            self.next()
            distinct = True
        projected = self.parse_vars()
        if not projected:
            self.error("expected at least one projected ?variable")
        self.expect_keyword("where")
        pattern, values, filters = self.parse_group()
        grouped: list[_Token] = []
        if self.at_keyword("group"):
            self.next()
            self.expect_keyword("by")
            grouped = self.parse_vars()
            if not grouped:
                self.error("expected at least one grouping ?variable")
        query = SelectQuery([Var(t.value[1:]) for t in projected], distinct,
                            pattern, values, filters,
                            [Var(t.value[1:]) for t in grouped])
        self.validate(query, projected, grouped)
        return query

    def parse_vars(self) -> list[_Token]:
        """The run of ?variable tokens at the cursor."""
        tokens = []
        while self.peek() is not None and self.peek().kind == "var":
            tokens.append(self.next())
        return tokens

    def parse_group(self):
        self.enter(self.expect_punct("{"))
        pattern: list[Union[TriplePattern, SubSelect]] = []
        values: Optional[Values] = None
        filters: list[FilterNode] = []
        while True:
            tok = self.peek()
            if tok is None:
                self.error("unterminated group, expected '}'")
            if tok.kind == "punct" and tok.value == "}":
                self.next()
                break
            if tok.kind == "punct" and tok.value == "{":
                self.next()
                sub = self.parse_select()
                self.expect_punct("}")
                pattern.append(SubSelect(sub))
                continue
            if self.at_keyword("select"):
                pattern.append(SubSelect(self.parse_select()))
                continue
            if self.at_keyword("values"):
                if values is not None:
                    self.error("only one VALUES clause is supported")
                values = self.parse_values()
                continue
            if self.at_keyword("filter"):
                self.next()
                self.expect_punct("(")
                filters.append(self.parse_or_expr())
                self.expect_punct(")")
                continue
            pattern.append(self.parse_triple_pattern())
        self.depth -= 1
        return pattern, values, filters

    def parse_values(self) -> Values:
        self.expect_keyword("values")
        tok = self.next()
        if tok.kind != "var":
            raise SparqlParseError("VALUES needs a variable",
                                   tok.line, tok.col)
        var = Var(tok.value[1:])
        self.expect_punct("{")
        terms: list[Term] = []
        while True:
            nxt = self.peek()
            if nxt is None:
                self.error("unterminated VALUES block, expected '}'")
            if nxt.kind == "punct" and nxt.value == "}":
                self.next()
                break
            node = self.parse_node(allow_var=False)
            terms.append(node)
        return Values(var, tuple(terms))

    def parse_triple_pattern(self) -> TriplePattern:
        s = self.parse_node()
        p = self.parse_node(predicate=True)
        o = self.parse_node()
        tok = self.peek()
        if tok is not None and tok.kind == "punct" and tok.value == ".":
            self.next()
        elif tok is not None and tok.kind == "punct" and tok.value in (";", ","):
            raise SparqlParseError("predicate/object lists are not part of "
                                   "the subset; write full triples",
                                   tok.line, tok.col)
        elif tok is None or tok.value != "}":
            # '.' is optional only before the closing brace
            self.error("expected '.' after triple pattern")
        return TriplePattern(s, p, o)

    def parse_node(self, predicate: bool = False,
                   allow_var: bool = True) -> Node:
        tok = self.next()
        if tok.kind == "var":
            if not allow_var:
                raise SparqlParseError("variable not allowed here",
                                       tok.line, tok.col)
            return Var(tok.value[1:])
        if tok.kind == "iri":
            return _checked(tok, iri, tok.value[1:-1])
        if tok.kind == "pname":
            prefix, _, local = tok.value.partition(":")
            try:
                return _checked(tok, iri,
                                self.prefixes.namespace(prefix) + local)
            except UnknownPrefixError:
                raise SparqlParseError(f"unknown prefix {prefix!r}",
                                       tok.line, tok.col) from None
        if tok.kind == "name" and tok.value == "a" and predicate:
            return RDF_TYPE
        if tok.kind == "string":
            return literal(_checked(tok, unescape, tok.value[1:-1]))
        if tok.kind == "number":
            return literal(tok.value)
        raise SparqlParseError(f"unexpected token {tok.value!r} in pattern",
                               tok.line, tok.col)

    # filter expressions

    def parse_or_expr(self) -> FilterNode:
        return self.parse_chain("||", OrExpr, self.parse_and_expr)

    def parse_and_expr(self) -> FilterNode:
        return self.parse_chain("&&", AndExpr, self.parse_unary_expr)

    def parse_chain(self, op: str, node, parse_part) -> FilterNode:
        """One or more `parse_part` operands joined by `op`, as one `node`
        when there are several."""
        parts = [parse_part()]
        while (tok := self.peek()) is not None and tok.value == op:
            self.next()
            parts.append(parse_part())
        return parts[0] if len(parts) == 1 else node(tuple(parts))

    def parse_unary_expr(self) -> FilterNode:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.value == "!":
            self.enter(self.next())
            inner = NotExpr(self.parse_unary_expr())
            self.depth -= 1
            return inner
        if tok is not None and tok.kind == "punct" and tok.value == "(":
            self.enter(self.next())
            inner = self.parse_or_expr()
            self.expect_punct(")")
            self.depth -= 1
            return inner
        if tok is not None and tok.kind == "name" \
                and tok.value.casefold() == "regex":
            return self.parse_regex()
        return self.parse_comparison()

    def parse_regex(self) -> Regex:
        self.expect_keyword("regex")
        self.expect_punct("(")
        tok = self.next()
        if tok.kind != "var":
            raise SparqlParseError("regex takes a variable first",
                                   tok.line, tok.col)
        var = Var(tok.value[1:])
        self.expect_punct(",")
        pat = self.next()
        if pat.kind != "string":
            raise SparqlParseError("regex takes a quoted pattern",
                                   pat.line, pat.col)
        pattern = _checked(pat, unescape, pat.value[1:-1])
        _compile_regex(pattern, pat.line, pat.col)
        self.expect_punct(")")
        return Regex(var, pattern)

    def parse_comparison(self) -> Comparison:
        lhs = self.parse_operand()
        tok = self.peek()
        if tok is None or tok.kind != "op" \
                or tok.value not in (">=", "<=", ">", "<", "="):
            self.error("expected a comparison operator: >=, <=, >, < or =")
        op = self.next().value
        rhs = self.parse_operand()
        return Comparison(op, lhs, rhs)

    def parse_operand(self) -> Node:
        tok = self.next()
        if tok.kind == "var":
            return Var(tok.value[1:])
        if tok.kind == "number":
            return literal(tok.value)
        if tok.kind == "string":
            return literal(_checked(tok, unescape, tok.value[1:-1]))
        raise SparqlParseError(f"unexpected operand {tok.value!r}",
                               tok.line, tok.col)

    def validate(self, query: SelectQuery, projected: list[_Token],
                 grouped: list[_Token]) -> None:
        """Report an unbound projected or grouping variable, or a projected
        one that is not grouped, at its token."""
        scope = query.in_scope_variables()
        for tok in projected:
            if tok.value[1:] not in scope:
                raise SparqlParseError(
                    f"projected variable {tok.value} is unbound",
                    tok.line, tok.col)
        for tok in grouped:
            if tok.value[1:] not in scope:
                raise SparqlParseError(
                    f"grouping variable {tok.value} is unbound",
                    tok.line, tok.col)
        if grouped:
            keys = {tok.value for tok in grouped}
            for tok in projected:
                if tok.value not in keys:
                    raise SparqlParseError(
                        f"{tok.value} is projected but not grouped",
                        tok.line, tok.col)


def parse_select(text: str,
                 prefixes: Optional[PrefixTable] = None) -> SelectQuery:
    return _Parser(text, prefixes).parse_query()


# ---------------------------------------------------------------------------
# regex dialect: anchors, character classes, alternation, * + ?, grouping.
# '.' is a literal character; everything else unsupported is rejected,
# including Python's extensions that these characters spell: outside a
# character class, '(?' groups (such as the flags "(?i)") and possessive
# quantifiers ("*+", which Python before 3.11 rejects as a repeat); inside
# one, the future set syntax '[', '--' and '||' (a FutureWarning today).

_REGEX_ALLOWED = re.compile(r"^[A-Za-z0-9 _\-^$\[\]|*+?()@#/,.:']*$")
# a character class, all of whose characters are literal; a ']' right
# after '[' or '[^' is one of them
_REGEX_CLASS = re.compile(r"\[\^?\]?[^\]]*\]")
_REGEX_EXTENSION = re.compile(r"(\(\?|[*+?]\+)")
_REGEX_SET_SYNTAX = re.compile(r"\[\^?\]?[^\]]*?(\[|--|\|\|)")
# an innermost group, then its quantifier if it has one
_REGEX_GROUP = re.compile(r"\(([^()]*)\)([*+?]?)")


def _compile_regex(pattern: str, line: int = 1, col: int = 1):
    """The compiled pattern, or a `SparqlParseError` that names it.

    Besides characters and Python extensions outside the dialect, three
    kinds of pattern are refused, since Python's `re` backtracks and can
    take exponential time on the first, such as `^(a|a)*$` on a run of
    `a`s, time of a high power of n on the second, and time exponential
    in the pattern's length on the third, such as `a?` 7 times then `a` 7
    times:
    - a quantifier on a group that holds a quantifier or `|`;
    - more than two unbounded quantifiers (`*`, `+`);
    - a branching factor over 64. The factor is the product of 2 per `?`
      outside a character class (a lazy `*?` or `+?` included) and of
      each alternation's branch count, the top level's included.
    So each repeat of a quantified group matches one fixed-length run of
    characters in one way, and a match path passes at most two unbounded
    repeats. A match attempt from one start position on a label of n
    characters then takes O(n²) steps, times the branching factor, which
    is at most 64. A search tries each start position, so it takes at
    most O(n³) steps, and O(n²) when the pattern is anchored by a leading
    `^` without a top-level `|`.
    """
    if not _REGEX_ALLOWED.match(pattern):
        raise SparqlParseError(f"regex pattern {pattern!r} uses characters "
                               "outside the supported dialect", line, col)
    # a class becomes one plain character, so "*[a]+" shows no "*+"
    plain = _REGEX_CLASS.sub("x", pattern)
    extension = (_REGEX_EXTENSION.search(plain)
                 or _REGEX_SET_SYNTAX.search(pattern))
    if extension:
        raise SparqlParseError(
            f"regex pattern {pattern!r} uses {extension[1]!r}, which "
            "is outside the supported dialect", line, col)
    escaped = pattern.replace(".", r"\.")
    try:
        compiled = re.compile(escaped)
    except re.error as exc:
        raise SparqlParseError(f"bad regex pattern {pattern!r}: {exc}",
                               line, col) from None
    if plain.count("*") + plain.count("+") > 2:
        raise SparqlParseError(
            f"regex pattern {pattern!r} has more than two unbounded "
            "quantifiers ('*', '+')", line, col)
    factor = 2 ** plain.count("?")
    # innermost group first: one that holds a quantifier or "|" becomes
    # "!", so that each group that encloses it holds one too, and each
    # alternation's branches are counted once
    while group := _REGEX_GROUP.search(plain):
        branching = re.search(r"[*+?|!]", group[1]) is not None
        if branching and group[2]:
            raise SparqlParseError(
                f"regex pattern {pattern!r} repeats a group that holds a "
                "quantifier or '|', which can take exponential time",
                line, col)
        factor *= group[1].count("|") + 1
        plain = (plain[:group.start()] + ("!" if branching else "x")
                 + group[2] + plain[group.end():])
    if factor * (plain.count("|") + 1) > 64:
        raise SparqlParseError(
            f"regex pattern {pattern!r} branches more than 64 ways (2 per "
            "'?', times each alternation's branch count)", line, col)
    return compiled


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class SolutionTable:
    header: list[str]
    rows: list[tuple[Term, ...]]

    def to_dict(self) -> dict:
        """The header, and each row's terms in N-Triples form."""
        return {"header": self.header,
                "rows": [[t.n3() for t in row] for row in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        import csv as _csv
        import io
        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        for row in self.rows:
            writer.writerow([t.n3() for t in row])
        return buf.getvalue()

    def render(self) -> str:
        cells = [self.header, *([t.n3() for t in row] for row in self.rows)]
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines = ["  ".join(cell.ljust(width) for cell, width
                           in zip(row, widths)).rstrip() for row in cells]
        lines.insert(1, "  ".join("-" * w for w in widths))
        lines.append(f"({len(self.rows)} rows)")
        return "\n".join(lines)


def _term_sort_key(term: Term):
    return (term.kind, term.lexical, term.datatype or "", term.language or "")


class _IdSpace:
    """The graph's term ids, plus negative query-local ids for terms the
    graph lacks, such as VALUES terms, so that every bound value is an int.
    Within one space, id equality is term equality."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._local_ids: dict[Term, int] = {}
        self._local: list[Term] = []

    def id_of(self, term: Term) -> int:
        tid = self.graph.term_id(term)
        if tid < 0:
            tid = self._local_ids.get(term)
            if tid is None:
                self._local.append(term)
                tid = self._local_ids[term] = -len(self._local)
        return tid

    def term(self, tid: int) -> Term:
        return self.graph.term(tid) if tid >= 0 else self._local[-tid - 1]


def _conjuncts(filters: list[FilterNode]) -> list[FilterNode]:
    """The top-level `&&` operands of every FILTER. Only these are split:
    an operand of `||` or `!` stays inside its conjunct."""
    out = []
    for node in filters:
        out.extend(node.parts if isinstance(node, AndExpr) else (node,))
    return out


def _filter_vars(node: FilterNode) -> set[str]:
    if isinstance(node, (AndExpr, OrExpr)):
        return set().union(*(_filter_vars(p) for p in node.parts))
    if isinstance(node, NotExpr):
        return _filter_vars(node.operand)
    if isinstance(node, Regex):
        return {node.var.name}
    return {n.name for n in (node.lhs, node.rhs) if isinstance(n, Var)}


def _number(term: Term) -> float:
    """A term's numeric value; NaN, which compares false, where it has
    none."""
    if term.kind == "literal":
        try:
            return float(term.lexical)
        except ValueError:
            pass
    return np.nan


def _mask(node: FilterNode, rows: np.ndarray, slots: dict[str, int],
          space: _IdSpace) -> np.ndarray:
    """Which rows pass a filter tree. A leaf is evaluated once per distinct
    term id of its variable, and is false where that has no slot."""
    if isinstance(node, (AndExpr, OrExpr)):
        combine = np.logical_and if isinstance(node, AndExpr) \
            else np.logical_or
        return combine.reduce([_mask(p, rows, slots, space)
                               for p in node.parts])
    if isinstance(node, NotExpr):
        return ~_mask(node.operand, rows, slots, space)

    def per_term(name: str, value, missing) -> np.ndarray:
        if name not in slots:
            return np.full(len(rows), missing)
        ids, inverse = np.unique(rows[:, slots[name]], return_inverse=True)
        return np.array([value(space.term(i)) for i in ids.tolist()],
                        dtype=type(missing))[inverse]
    if isinstance(node, Regex):
        search = _compile_regex(node.pattern).search
        return per_term(node.var.name, lambda term: term.kind == "literal"
                        and search(term.lexical) is not None, False)
    left, right = (per_term(n.name, _number, np.nan) if isinstance(n, Var)
                   else np.full(len(rows), _number(n))
                   for n in (node.lhs, node.rhs))
    # an operator is spelled by the outcomes it admits
    return (("<" in node.op) & (left < right)
            | ("=" in node.op) & (left == right)
            | (">" in node.op) & (left > right))


@dataclass(eq=False)
class _Step:
    """One pattern or sub-select of a query, as the id table of its
    matches."""
    index: int                   # position in the query, breaks ties
    variables: list[str]         # each column's; a repeated one per column
    table: np.ndarray
    pattern: bool = False        # a pattern that no regex has filtered


def _matches(graph: Graph, pattern: tuple) -> tuple[list[str], np.ndarray]:
    """The variables of a triple pattern, each position an id or a Var,
    and the table of the triples that match its constants, with a column
    per variable position: the predicate's edges, or every triple for a
    variable predicate."""
    if isinstance(pattern[1], Var):
        off, predicates, objects = graph.columns()
        subjects = np.repeat(np.arange(len(off) - 1), np.diff(off))
    else:
        subjects, objects = graph.edges(pattern[1])
        predicates = np.full(len(subjects), pattern[1])
    keep = np.ones(len(subjects), dtype=bool)
    names, columns = [], []
    for node, column in zip(pattern, (subjects, predicates, objects)):
        if isinstance(node, Var):
            names.append(node.name)
            columns.append(column)
        else:
            keep &= column == node
    table = np.empty((np.count_nonzero(keep), len(names)), dtype=np.int64)
    for i, column in enumerate(columns):
        table[:, i] = column[keep]
    return names, table


def _consistent(table: np.ndarray, names: list[str]) -> np.ndarray:
    """Which rows of a table with a column per name give each repeated
    name one value."""
    keep = np.ones(len(table), dtype=bool)
    for i, name in enumerate(names):
        keep &= table[:, i] == table[:, names.index(name)]
    return keep


def _key(columns: np.ndarray) -> np.ndarray:
    """One int64 per row of an id table, equal where the rows are: its one
    column, or each column's rank folded into the key so far and ranked
    again, so that the key never overflows."""
    if columns.shape[1] == 1:
        return columns[:, 0]
    key = np.zeros(len(columns), dtype=np.int64)
    for column in columns.T:
        values, rank = np.unique(column, return_inverse=True)
        key = np.unique(key * len(values) + rank, return_inverse=True)[1]
    return key


def _distinct(table: np.ndarray) -> np.ndarray:
    """The distinct rows of an id table."""
    return table[np.unique(_key(table), return_index=True)[1]]


def _spans(rows: np.ndarray, step: _Step, slots: dict[str, int]):
    """The step's table rows sorted on its columns whose variables have a
    slot, and for each row the slice [lo, hi) of them that agrees with it
    there."""
    shared = [i for i, name in enumerate(step.variables) if name in slots]
    key = _key(np.concatenate((
        rows[:, [slots[step.variables[i]] for i in shared]],
        step.table[:, shared])))
    order = np.argsort(key[len(rows):], kind="stable")
    ordered = key[len(rows):][order]
    return (order, np.searchsorted(ordered, key[:len(rows)], "left"),
            np.searchsorted(ordered, key[:len(rows)], "right"))


def _join(rows: np.ndarray, step: _Step, slots: dict[str, int]
          ) -> np.ndarray:
    """Each row extended by each row of the step's table that agrees with
    it on their shared variables and gives a repeated variable one value;
    the step's other variables are appended in its order."""
    order, lo, hi = _spans(rows, step, slots)
    counts = hi - lo
    which = np.repeat(np.arange(len(rows)), counts)
    table = step.table[order[np.arange(len(which)) + np.repeat(
        lo - np.cumsum(counts) + counts, counts)]]
    added = [step.variables.index(name)
             for name in dict.fromkeys(step.variables) if name not in slots]
    return np.hstack((rows[which], table[:, added]))[
        _consistent(table, step.variables)]


def _start(steps: list[_Step], rows: np.ndarray, slots: dict[str, int]
           ) -> tuple[list[_Step], np.ndarray]:
    """The step to join `rows` with first and the pattern to join next,
    with the rows that joining the first step gives: the pair that yields
    the fewest rows, counted on the pattern's table from the rows the
    first step actually gives. So a small filtered table whose values fan
    out widely does not start the order. Steps are tried smallest table
    first, and none whose table reaches the best pair found so far; a step
    with no pattern to pair with costs its own rows."""
    best: Optional[tuple[int, list[_Step], np.ndarray]] = None
    for first in sorted(steps, key=lambda s: (len(s.table), s.index)):
        if best is not None and len(rows) * len(first.table) >= best[0]:
            break
        joined = _join(rows, first, slots)
        after = dict(slots)
        for name in first.variables:
            after.setdefault(name, len(after))
        size, pair = len(joined), [first]
        for step in steps:
            if step is first or not step.pattern \
                    or not after.keys() & set(step.variables):
                continue
            _, lo, hi = _spans(joined, step, after)
            total = len(joined) + int((hi - lo).sum())
            if len(pair) == 1 or total < size:
                size, pair = total, [first, step]
        if best is None or size < best[0]:
            best = (size, pair, joined)
    return best[1], best[2]


def _solve(graph: Graph, query: SelectQuery,
           space: _IdSpace) -> tuple[list[str], np.ndarray]:
    """The projected, grouped and deduplicated rows of a query, as an id
    table."""
    header = [v.name for v in query.projection]
    slots: dict[str, int] = {}
    rows = np.zeros((1, 0), dtype=np.int64)
    if query.values is not None:
        slots[query.values.var.name] = 0
        rows = np.array([space.id_of(t) for t in query.values.terms],
                        dtype=np.int64).reshape(-1, 1)
    conjuncts = _conjuncts(query.filters)
    steps = []
    for index, elem in enumerate(query.pattern):
        if isinstance(elem, SubSelect):
            steps.append(_Step(index, *_solve(graph, elem.query, space)))
            continue
        pattern = []
        for node in (elem.s, elem.p, elem.o):
            if not isinstance(node, Var):
                node = graph.term_id(node)
                if node < 0:  # a constant the graph lacks matches nothing
                    return header, np.empty((0, len(header)), dtype=np.int64)
            pattern.append(node)
        variables, table = _matches(graph, tuple(pattern))
        regexes = [c for c in conjuncts
                   if isinstance(c, Regex) and c.var.name in variables]
        if regexes:  # costed by the matches that pass them
            table = table[_consistent(table, variables)]
            for regex in regexes:
                table = table[_mask(regex, table, {
                    name: i for i, name in enumerate(variables)}, space)]
        steps.append(_Step(index, variables, table, pattern=not regexes))

    def cost(step: _Step):
        estimate = len(step.table)
        if step.pattern and slots.keys() >= set(step.variables):
            estimate = min(estimate, 1)
        return estimate, step.index

    # each round runs the conjuncts whose variables are all bound, then
    # joins the next step; once no step is left, the conjuncts over a
    # variable that nothing binds run too, where that leaf is false.
    # `chosen` keeps the second step of a pair that `_start` picked, and
    # `joined` the rows `_start` got by joining the first step of its pair
    chosen: list[_Step] = []
    started = False
    while True:
        waiting = []
        for conjunct in conjuncts:
            if steps and not slots.keys() >= _filter_vars(conjunct):
                waiting.append(conjunct)
                continue
            rows = rows[_mask(conjunct, rows, slots, space)]
        conjuncts = waiting
        if not steps:
            break
        if not chosen:
            if not started:
                chosen, joined = _start(steps, rows, slots)
            elif linked := [s for s in steps
                            if slots.keys() & set(s.variables)]:
                chosen = [min(linked, key=cost)]
            else:  # a step that shares nothing with what is bound
                chosen, _ = _start(steps, np.zeros((1, 0), np.int64), {})
        step = chosen.pop(0)
        steps.remove(step)
        rows = _join(rows, step, slots) if started else joined
        started = True
        for name in step.variables:
            slots.setdefault(name, len(slots))

    if query.group_by:
        # every projected variable is grouped, so a group is its key
        rows = _distinct(rows[:, [slots[v.name] for v in query.group_by]])
        slots = {v.name: i for i, v in enumerate(query.group_by)}
    rows = rows[:, [slots[name] for name in header]]
    return header, _distinct(rows) if query.distinct else rows


def evaluate(graph: Graph, query: SelectQuery) -> SolutionTable:
    """Natural join of pattern matches, cross-joined with VALUES, filtered,
    grouped, projected, deduplicated and sorted; see the module docstring
    for how it is evaluated."""
    space = _IdSpace(graph)
    header, rows = _solve(graph, query, space)
    term = space.term
    projected = [tuple([term(i) for i in row]) for row in rows.tolist()]
    projected.sort(key=lambda r: tuple(_term_sort_key(t) for t in r))
    return SolutionTable(header, projected)


def run_query(graph: Graph, text: str) -> SolutionTable:
    return evaluate(graph, parse_select(text, default_prefixes()))


# ---------------------------------------------------------------------------
# bundled query pack

@dataclass
class PackResult:
    name: str
    table: SolutionTable
    seconds: float


def load_query_pack() -> list[tuple[str, str]]:
    """The bundled (name, text) queries, in file-name order.

    q2 and q4 filter on the cancers CARC, CRC and ESO, which only the test
    query fixtures (`tests/data/`) add and no command loads. So both
    return 0 rows on the seed KG that `build` writes (`build`, then
    `query --pack`), and on the benchmark's M scale-up KG, where query-M
    times empty answers for both.
    """
    directory = data_path("sparql_pack")
    queries = [(path.stem, read_text(path))
               for path in sorted(directory.glob("*.rq"))]
    if not queries:
        raise SparqlError(f"no .rq files in {directory}")
    return queries


def run_query_pack(graph: Graph) -> list[PackResult]:
    results = []
    for name, text in load_query_pack():
        query = parse_select(text, default_prefixes())
        start = time.perf_counter()
        table = evaluate(graph, query)
        elapsed = time.perf_counter() - start
        results.append(PackResult(name, table, elapsed))
    return results
