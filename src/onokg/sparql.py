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
per row. Each pattern's constants are looked up once; a constant the
graph lacks makes the result empty, and a VALUES term it lacks gets a
query-local negative id so that it is still projected. A sub-select is
evaluated once and joined as a table on the variables it projects.
Each FILTER is split at its top-level `&&`. A conjunct that is one regex
also filters, up front, the matches of each pattern that binds its
variable, and that pattern joins as the table of the matches left.
Patterns are joined greedily, in the style of RDF-3X: the next one is
the cheapest of those sharing a bound variable, costed by its match count
on the SPO/POS/OSP index sizes, narrowed by the values any table allows
for a shared variable, with ties going to the pattern written first. The
first step is the one that, joined with its cheapest neighbour pattern,
gives the fewest rows, counted on the index, so a one-row filtered label
whose value fans out to thousands of rows does not start the order. Each
conjunct runs right after the join that binds the last of its variables
(a conjunct over a variable nothing binds runs at the end, where that
leaf is false).
Regexes compile once per query and each filter leaf caches its result per
term id. Ids become Terms only for the final rows. The answer, as a bag
of rows, is the same as joining the patterns in written order and
filtering afterwards; `tests/oracles.py` checks that by brute force.
"""
from __future__ import annotations

import json
import operator
import re
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .kg import (QUOTED, Graph, KgError, PrefixTable, Term,
                 UnknownPrefixError, ValidationError, iri, literal, unescape)
from .ntriples import read_text
from .ontology import RDF, data_path, default_prefixes

RDF_TYPE = iri(RDF + "type")


class SparqlError(KgError):
    pass


class SparqlParseError(SparqlError):
    def __init__(self, message: str, line: int, col: int,
                 expected: Optional[str] = None):
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")
        self.line = line
        self.col = col
        self.expected = expected


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"?{self.name}"


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
    prefixes: PrefixTable
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

    def error(self, message: str, expected: Optional[str] = None):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            raise SparqlParseError(message, last.line, last.col, expected)
        raise SparqlParseError(message, tok.line, tok.col, expected)

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
            self.error(f"expected {word.upper()}", expected=word.upper())
        return self.next()

    def expect_punct(self, value: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind not in ("punct", "op") \
                or tok.value != value:
            self.error(f"expected {value!r}", expected=value)
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
        projection: list[Var] = []
        while self.peek() is not None and self.peek().kind == "var":
            projection.append(Var(self.next().value[1:]))
        if not projection:
            self.error("expected at least one projected variable",
                       expected="?variable")
        self.expect_keyword("where")
        pattern, values, filters = self.parse_group()
        group_by: list[Var] = []
        if self.at_keyword("group"):
            self.next()
            self.expect_keyword("by")
            while self.peek() is not None and self.peek().kind == "var":
                group_by.append(Var(self.next().value[1:]))
            if not group_by:
                self.error("expected grouping variables", expected="?variable")
        query = SelectQuery(self.prefixes, projection, distinct, pattern,
                            values, filters, group_by)
        self.validate(query)
        return query

    def parse_group(self):
        self.enter(self.expect_punct("{"))
        pattern: list[Union[TriplePattern, SubSelect]] = []
        values: Optional[Values] = None
        filters: list[FilterNode] = []
        while True:
            tok = self.peek()
            if tok is None:
                self.error("unterminated group, expected '}'", expected="}")
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
                self.error("unterminated VALUES block", expected="}")
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
            self.error("expected '.' after triple pattern", expected=".")
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
        parts = [self.parse_and_expr()]
        while self.peek() is not None and self.peek().value == "||":
            self.next()
            parts.append(self.parse_and_expr())
        return parts[0] if len(parts) == 1 else OrExpr(tuple(parts))

    def parse_and_expr(self) -> FilterNode:
        parts = [self.parse_unary_expr()]
        while self.peek() is not None and self.peek().value == "&&":
            self.next()
            parts.append(self.parse_unary_expr())
        return parts[0] if len(parts) == 1 else AndExpr(tuple(parts))

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
            self.error("expected a comparison operator",
                       expected=">= <= > < =")
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

    def validate(self, query: SelectQuery) -> None:
        scope = query.in_scope_variables()
        for var in query.projection:
            if var.name not in scope:
                raise SparqlParseError(
                    f"projected variable ?{var.name} is unbound", 1, 1)
        for var in query.group_by:
            if var.name not in scope:
                raise SparqlParseError(
                    f"grouping variable ?{var.name} is unbound", 1, 1)
        if query.group_by:
            keys = {v.name for v in query.group_by}
            for var in query.projection:
                if var.name not in keys:
                    raise SparqlParseError(
                        f"?{var.name} is projected but not grouped", 1, 1)


def parse_select(text: str,
                 prefixes: Optional[PrefixTable] = None) -> SelectQuery:
    return _Parser(text, prefixes).parse_query()


# ---------------------------------------------------------------------------
# regex dialect: anchors, character classes, alternation, * + ?, grouping.
# '.' is a literal character; everything else unsupported is rejected.

_REGEX_ALLOWED = re.compile(r"^[A-Za-z0-9 _\-^$\[\]|*+?()@#/,.:']*$")


def _compile_regex(pattern: str, line: int = 1, col: int = 1):
    if not _REGEX_ALLOWED.match(pattern):
        raise SparqlParseError(f"regex pattern {pattern!r} uses characters "
                               "outside the supported dialect", line, col)
    escaped = pattern.replace(".", r"\.")
    try:
        return re.compile(escaped)
    except re.error as exc:
        raise SparqlParseError(f"bad regex pattern {pattern!r}: {exc}",
                               line, col) from None


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class SolutionTable:
    header: list[str]
    rows: list[tuple[Term, ...]]

    def to_json(self) -> str:
        return json.dumps({
            "header": self.header,
            "rows": [[t.n3() for t in row] for row in self.rows],
        }, indent=2)

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
        cells = [[t.n3() for t in row] for row in self.rows]
        widths = [len(h) for h in self.header]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = ["  ".join(h.ljust(widths[i])
                           for i, h in enumerate(self.header)).rstrip()]
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)).rstrip())
        lines.append(f"({len(self.rows)} rows)")
        return "\n".join(lines)


def _term_sort_key(term: Term):
    return (term.kind, term.lexical, term.datatype or "", term.language or "")


def _numeric(term: Term) -> float:
    if term.kind != "literal":
        raise ValueError("not a literal")
    return float(term.lexical)


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


_COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
            "<": operator.lt, "=": operator.eq}


def _number_or_none(term: Term) -> Optional[float]:
    try:
        return _numeric(term)
    except ValueError:
        return None


def _compile_filter(node: FilterNode, slots: dict[str, int],
                    space: _IdSpace, numbers: dict[int, Optional[float]]):
    """A predicate over id rows for a filter tree. Regexes compile once;
    a regex leaf caches its result per term id, and `numbers` caches
    numeric values per term id across leaves. A leaf over a variable
    that has no slot is false."""
    if isinstance(node, (AndExpr, OrExpr)):
        parts = [_compile_filter(p, slots, space, numbers)
                 for p in node.parts]
        combine = all if isinstance(node, AndExpr) else any
        return lambda row: combine(f(row) for f in parts)
    if isinstance(node, NotExpr):
        inner = _compile_filter(node.operand, slots, space, numbers)
        return lambda row: not inner(row)
    if isinstance(node, Regex):
        slot = slots.get(node.var.name)
        if slot is None:
            return lambda row: False
        search = _compile_regex(node.pattern).search
        cache: dict[int, bool] = {}

        def matches(row):
            tid = row[slot]
            hit = cache.get(tid)
            if hit is None:
                term = space.term(tid)
                hit = cache[tid] = term.kind == "literal" \
                    and search(term.lexical) is not None
            return hit
        return matches
    if isinstance(node, Comparison):
        def operand(n: Node):
            if not isinstance(n, Var):
                value = _number_or_none(n)
                return lambda row: value
            slot = slots.get(n.name)
            if slot is None:
                return lambda row: None

            def number(row):
                tid = row[slot]
                if tid not in numbers:
                    numbers[tid] = _number_or_none(space.term(tid))
                return numbers[tid]
            return number

        lhs, rhs, compare = operand(node.lhs), operand(node.rhs), \
            _COMPARE[node.op]

        def holds(row):
            left, right = lhs(row), rhs(row)
            return left is not None and right is not None \
                and compare(left, right)
        return holds
    raise SparqlError(f"unknown filter node {node!r}")


@dataclass
class _Step:
    """One pattern or sub-select table of a query, compiled to ids."""
    index: int                   # position in the query, breaks ties
    variables: list[str]         # distinct, in order of first position
    estimate: int                # rows it matches on its constants alone
    pattern: Optional[tuple] = None  # (s, p, o), each a term id or a Var
    table: Optional[tuple[list[str], list]] = None  # sub-select result


def _join_pattern(graph: Graph, rows: list[tuple], step: _Step,
                  slots: dict[str, int]) -> list[tuple]:
    """Extend each row by the matches of a triple pattern, probing the
    index with every position a constant or an already bound variable
    fixes. New variables are appended to the row in `step.variables`
    order; a variable repeated in the pattern must match one term."""
    fixed, take, same = [], [], []
    first: dict[str, int] = {}
    for pos, node in enumerate(step.pattern):
        if not isinstance(node, Var):
            fixed.append((False, node))
        elif node.name in slots:
            fixed.append((True, slots[node.name]))
        else:
            fixed.append((False, None))
            if node.name in first:
                same.append((first[node.name], pos))
            else:
                first[node.name] = pos
                take.append(pos)
    (s_var, s), (p_var, p), (o_var, o) = fixed
    if not take:  # a lookup: each row is kept or dropped
        count = graph.count_ids
        return [row for row in rows
                if count(row[s] if s_var else s, row[p] if p_var else p,
                         row[o] if o_var else o)]
    match_ids = graph.match_ids
    width = len(take)
    pick = operator.itemgetter(*take)
    out = []
    for row in rows:
        for t in match_ids(row[s] if s_var else s, row[p] if p_var else p,
                           row[o] if o_var else o):
            if same and any(t[i] != t[j] for i, j in same):
                continue
            out.append(row + (pick(t),) if width == 1 else row + pick(t))
    return out


def _join_table(rows: list[tuple], step: _Step,
                slots: dict[str, int]) -> list[tuple]:
    """Hash join with a sub-select's rows on the variables both share."""
    header, table = step.table
    column = {}
    for i, name in enumerate(header):
        column.setdefault(name, i)
    shared = [(column[n], slots[n]) for n in step.variables if n in slots]
    added = [column[n] for n in step.variables if n not in slots]
    index: dict[tuple, list[tuple]] = {}
    for sub in table:
        index.setdefault(tuple([sub[i] for i, _ in shared]), []).append(
            tuple([sub[i] for i in added]))
    out = []
    for row in rows:
        for ext in index.get(tuple([row[j] for _, j in shared]), ()):
            out.append(row + ext)
    return out


def _prefiltered(graph: Graph, step: _Step, regexes: list[Regex],
                 space: _IdSpace,
                 numbers: dict[int, Optional[float]]) -> _Step:
    """A pattern as the table of its matches that pass the regexes over
    its variables, so that the planner costs it by the rows that survive
    them. Each regex still runs where it is pushed down; a kept row passes
    it again."""
    slots = {name: i for i, name in enumerate(step.variables)}
    rows = _join_pattern(graph, [()], step, {})
    for regex in regexes:
        keep = _compile_filter(regex, slots, space, numbers)
        rows = [row for row in rows if keep(row)]
    return _Step(step.index, step.variables, len(rows),
                 table=(step.variables, rows))


def _plan(graph: Graph, steps: list[_Step], rows: list[tuple],
          slots: dict[str, int]) -> list[_Step]:
    """Greedy join order: among the steps that share a variable with what
    is already bound, take the one whose estimate is smallest; a pattern
    all of whose variables are bound is a lookup and estimates at most 1.
    Ties go to the step written first. The first steps, and those after
    a step that shares nothing with what came before, come from
    `_start`."""
    bound = set(slots)
    remaining = list(steps)
    order: list[_Step] = []
    narrowed = _narrowed_estimates(graph, steps)

    def cost(step: _Step):
        estimate = narrowed.get(step.index, step.estimate)
        if step.pattern is not None and bound.issuperset(step.variables):
            estimate = min(estimate, 1)
        return estimate, step.index

    while remaining:
        linked = [s for s in remaining if bound.intersection(s.variables)]
        if order and linked:
            chosen = [min(linked, key=cost)]
        elif order:
            chosen = _start(graph, remaining, [()], {})
        else:
            chosen = _start(graph, remaining, rows, slots)
        for step in chosen:
            remaining.remove(step)
            order.append(step)
            bound.update(step.variables)
    return order


def _start(graph: Graph, steps: list[_Step], rows: list[tuple],
           slots: dict[str, int]) -> list[_Step]:
    """The step to join `rows` with first, and the pattern to join next:
    the pair that yields the fewest rows, counted on the index from the
    rows the first step actually gives. So a small filtered table whose
    values fan out widely does not start the order. Steps are tried
    smallest estimate first, and none whose estimate reaches the best
    pair found so far; a step with no pattern to pair with costs its own
    rows."""
    best: Optional[tuple[int, list[_Step]]] = None
    for first in sorted(steps, key=lambda s: (s.estimate, s.index)):
        if best is not None and len(rows) * first.estimate >= best[0]:
            break
        joined = _join(graph, rows, first, slots)
        after = dict(slots)
        for name in first.variables:
            after.setdefault(name, len(after))
        size, pair = len(joined), [first]
        for step in steps:
            if step is first or step.pattern is None \
                    or not after.keys() & set(step.variables):
                continue
            total = len(joined) + sum(
                graph.count_ids(*_probe(step.pattern, row, after))
                for row in joined)
            if len(pair) == 1 or total < size:
                size, pair = total, [first, step]
        if best is None or size < best[0]:
            best = (size, pair)
    return best[1]


def _narrowed_estimates(graph: Graph, steps: list[_Step]) -> dict[int, int]:
    """Pattern estimates narrowed by the tables: a pattern that shares a
    variable with a table step matches at most the triples whose value
    there is one the table holds, counted on the index. This is how a
    regex pre-filter on one pattern reaches the patterns around it."""
    narrowed: dict[int, int] = {}
    for table in steps:
        if table.table is None:
            continue
        header, rows = table.table
        for step in steps:
            if step.pattern is None:
                continue
            for name in table.variables:
                if name not in step.variables:
                    continue
                column = header.index(name)
                total = sum(graph.count_ids(*_probe(step.pattern, (value,),
                                                    {name: 0}))
                            for value in {row[column] for row in rows})
                narrowed[step.index] = min(
                    total, narrowed.get(step.index, step.estimate))
    return narrowed


def _probe(pattern: tuple, row: tuple,
           slots: dict[str, int]) -> list[Optional[int]]:
    """The ids to probe the index with for a pattern: its constants, the
    values `row` holds for the variables in `slots`, None for the rest."""
    return [n if not isinstance(n, Var) else
            row[slots[n.name]] if n.name in slots else None for n in pattern]


def _join(graph: Graph, rows: list[tuple], step: _Step,
          slots: dict[str, int]) -> list[tuple]:
    if step.pattern is not None:
        return _join_pattern(graph, rows, step, slots)
    return _join_table(rows, step, slots)


def _solve(graph: Graph, query: SelectQuery,
           space: _IdSpace) -> tuple[list[str], list[tuple[int, ...]]]:
    """The projected, grouped and deduplicated rows of a query, as ids."""
    header = [v.name for v in query.projection]
    slots: dict[str, int] = {}
    rows: list[tuple] = [()]
    if query.values is not None:
        slots[query.values.var.name] = 0
        rows = [(space.id_of(t),) for t in query.values.terms]
    conjuncts = _conjuncts(query.filters)
    numbers: dict[int, Optional[float]] = {}
    steps = []
    for index, elem in enumerate(query.pattern):
        if isinstance(elem, SubSelect):
            table = _solve(graph, elem.query, space)
            steps.append(_Step(index, list(dict.fromkeys(table[0])),
                               len(table[1]), table=table))
            continue
        pattern = []
        for node in (elem.s, elem.p, elem.o):
            if not isinstance(node, Var):
                node = graph.term_id(node)
                if node < 0:  # a constant the graph lacks matches nothing
                    return header, []
            pattern.append(node)
        names = [n.name for n in pattern if isinstance(n, Var)]
        ids = [None if isinstance(n, Var) else n for n in pattern]
        step = _Step(index, list(dict.fromkeys(names)),
                     graph.count_ids(*ids), pattern=tuple(pattern))
        regexes = [c for c in conjuncts
                   if isinstance(c, Regex) and c.var.name in step.variables]
        if regexes:
            step = _prefiltered(graph, step, regexes, space, numbers)
        steps.append(step)
    order = _plan(graph, steps, rows, slots)

    # push each conjunct down to the first step that binds all of its
    # variables; one over a never-bound variable runs after the last step
    bind_step = dict.fromkeys(slots, 0)
    for n, step in enumerate(order, start=1):
        for name in step.variables:
            bind_step.setdefault(name, n)
    final = {name: slot for slot, name in enumerate(bind_step)}
    pending: dict[int, list] = {}
    for conjunct in conjuncts:
        at = max((bind_step.get(v, len(order)) for v in
                  _filter_vars(conjunct)), default=0)
        pending.setdefault(at, []).append(
            _compile_filter(conjunct, final, space, numbers))

    def apply(n: int, rows: list[tuple]) -> list[tuple]:
        for keep in pending.get(n, ()):
            rows = [row for row in rows if keep(row)]
        return rows

    rows = apply(0, rows)
    for n, step in enumerate(order, start=1):
        rows = _join(graph, rows, step, slots)
        for name in step.variables:
            slots.setdefault(name, len(slots))
        rows = apply(n, rows)

    if query.group_by:
        key_slots = [slots[v.name] for v in query.group_by]
        groups: dict[tuple, tuple] = {}
        for row in rows:
            groups.setdefault(tuple([row[i] for i in key_slots]), row)
        rows = list(groups.values())
    take = [slots[name] for name in header]
    projected = [tuple([row[i] for i in take]) for row in rows]
    if query.distinct:
        projected = list(dict.fromkeys(projected))
    return header, projected


def evaluate(graph: Graph, query: SelectQuery) -> SolutionTable:
    """Natural join of pattern matches, cross-joined with VALUES, filtered,
    grouped, projected, deduplicated and sorted; see the module docstring
    for how it is evaluated."""
    space = _IdSpace(graph)
    header, rows = _solve(graph, query, space)
    term = space.term
    projected = [tuple([term(i) for i in row]) for row in rows]
    projected.sort(key=lambda r: tuple(_term_sort_key(t) for t in r))
    return SolutionTable(header, projected)


def run_query(graph: Graph, text: str,
              prefixes: Optional[PrefixTable] = None) -> SolutionTable:
    return evaluate(graph, parse_select(text, prefixes or default_prefixes()))


# ---------------------------------------------------------------------------
# bundled query pack

@dataclass
class PackResult:
    name: str
    text: str
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
        results.append(PackResult(name, text, table, elapsed))
    return results
