"""Line-oriented N-Triples subset parser and serializer.

Subset: IRIs in angle brackets, quoted literals with the escape set
\\" \\\\ \\n \\t, optional ^^<datatype> or @lang suffix, blank nodes
`_:label`, one `.`-terminated triple per line, `#` comment lines.
Files are UTF-8 with LF line endings.

The parser recovers at line granularity: every malformed line produces one
issue (with its line number) and parsing continues, so a single call
reports all problems. Each call parses into a fresh graph, and blank-node
labels are renamed to fresh sequential labels (b0, b1, ...) per call, so
labels are not stable across a load and never meet those of another graph.

Parsing works in term-id space and by slice. The text is cut at line ends
into slices of about `SLICE_CHARS` characters, so neither a list of all
its lines nor a copy of the whole text is made. Each slice is first read
with one `findall` of the line pattern, anchored per line; a comment or
blank line matches as a row of empty tokens. When every line of the slice
matched, its rows go to `_Parser.take` at once, which serves whole slices
only. A dict maps the raw text of each token already read (`<a:x>`,
`"v"@en`, `_:n`) to its term id. Each token not read before makes its
`Term` once, from its own text (`_token_term`): the line pattern has fixed
its extent, so its first character tells its kind, a literal's closing
quote is the one search made, and `Term` checks the rest. Once all of them
are valid, blank labels are handed out and the Terms interned in the order
the tokens first appear, and the slice's tokens map to their ids with one
`itemgetter` call on the dict. If one makes no Term, `take` adds nothing.
A slice that fails (a CRLF or malformed line, or a new token that makes
no Term) is read in two halves, cut at a line end near its middle, each
by the same rule, while it has more than one line and more than half of
its lines matched; so a few bad lines send only themselves, not their
whole slice, to the line loop. Any other failing slice (a CRLF file, where
no line matches) is read line by line by `_LineScanner`, from the same
blank labels and line number, and the line loop is the only code that
reports issues. The scanner finds each token's extent, or reports why
there is none, and makes its Term with `_token_term` too. Every way
gives term ids and blank labels in first use on valid lines, as inserting
the triples one by one would give them, since `take` adds all of a slice
or nothing. An IRI or a quoted literal can match across a newline, so a
slice counts as matched only when it has as many matches as lines.

The flat id rows go straight to the store's bulk base build
(`Graph.add_ids`) at the end, with no tuple per triple: one sort for the
whole file, which also drops repeated lines.

Serialization works by columns too. Each term is rendered once, into two
words: its form and a space, for a subject or a predicate, and its form
and " .\n", for an object. The id-sorted triples come as one int64 table
(`Graph.id_table`, which the sorted base gives without a sort and which
never folds), and each slice of `CHUNK_LINES` rows becomes its lines with
one numpy gather of the three columns' words and one join: no tuple, no
f-string and no loop step per triple. `save_file` writes those chunks one
by one, so the whole text is never held; `serialize_ntriples` joins the
same chunks. `rendered_rows` (the json and csv exports) is one gather of
the same table from the plain forms.

The package's two file boundaries live here. Every input file (KG, query,
text, corpus, config, checkpoint, bundled and `--data-dir` data) is read by
`read_text`. Every output file is written all or nothing by `write_atomic`:
the text, a string or chunks, goes to a temporary file in the target's
directory, which then replaces the target, and a failed write leaves the
target's bytes as they were.
"""

from __future__ import annotations

import contextlib
import os
import re
import secrets
import shutil
from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .kg import (BLANK, BLANK_LABEL, LANGUAGE_TAG, QUOTED, Graph, KgError,
                 Term, Triple, ValidationError, blank, iri, literal, unescape)

# One triple line cut into its subject, predicate and object tokens, with
# the scanner's gaps and terminator. The tokens are the patterns that
# `_LineScanner` reads (an IRI ends at the first '>'), so a match splits a
# line as the scanner would; a literal subject or a non-IRI predicate does
# not match. A line whose three token texts all made valid Terms before is
# valid: the match alone checks no token text, `Term` does. The triple is
# optional, so a comment or whitespace-only line is one row of empty
# tokens, which `take` skips.
_IRI = r"<[^>]*>"
_BLANK = rf"_:{BLANK_LABEL.pattern}"
_LITERAL = rf"{QUOTED.pattern}(?:\^\^{_IRI}|@{LANGUAGE_TAG.pattern})?"
# The pattern is anchored per line of a slice: an IRI or a quoted literal
# can match across a newline, so `findall` must give one match per line.
# The triple is an alternative to nothing: as `(?:...)?` it runs slower.
_SLICE_LINE = re.compile(
    rf"^[ \t]*(?:({_IRI}|{_BLANK})[ \t]*({_IRI})"
    rf"[ \t]*({_IRI}|{_BLANK}|{_LITERAL})[ \t]*\.[ \t]*|)(?:#.*)?$", re.M)

# Text is parsed in slices of about this many characters, cut at line
# ends, and written in chunks of this many lines.
SLICE_CHARS = 1 << 20
CHUNK_LINES = 8192


@dataclass
class ParseIssue:
    line: int
    message: str

    def __str__(self):
        return f"line {self.line}: {self.message}"


@dataclass
class ParseResult:
    graph: Graph
    issues: list[ParseIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


class EncodingError(KgError):
    """A file whose bytes are not UTF-8."""


def _token_term(token: str) -> Term:
    """The Term of one whole token, whose extent the line pattern or the
    scanner has already fixed: the first character tells its kind, and
    only a literal's closing quote is searched for. `Term` checks the
    rest; an unsupported escape is raised before a bad datatype."""
    if token[0] == "<":
        return iri(token[1:-1])
    if token[0] == "_":
        return blank(token[2:])
    end = QUOTED.match(token).end()
    value, mark = unescape(token[1:end - 1]), token[end:end + 1]
    return literal(value, token[end + 3:-1] if mark == "^" else None,
                   token[end + 1:] if mark == "@" else None)


class _LineScanner:
    """Reads a line's terms in turn: it finds each token's extent, reporting
    what makes none, and `_token_term` makes its Term."""

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
        start, ch = self.pos, self.peek()
        if ch == "<":
            self._skip_iri()
        elif ch == '"':
            self._skip_literal()
        elif ch == "_" and self.text.startswith("_:", start):
            m = BLANK_LABEL.match(self.text, start + 2)
            if m is None:
                raise ValidationError("blank node with empty label")
            self.pos = m.end()
        elif ch == "":
            raise ValidationError("unexpected end of line, expected a term")
        else:
            raise ValidationError(
                f"unexpected character {ch!r}, expected a term")
        return _token_term(self.text[start:self.pos])

    def _skip_iri(self):
        end = self.text.find(">", self.pos + 1)
        if end < 0:
            raise ValidationError("unterminated IRI (missing '>')")
        self.pos = end + 1

    def _skip_literal(self):
        m = QUOTED.match(self.text, self.pos)
        # an unsupported escape is reported before a missing quote or a bad
        # suffix, so the body is unescaped before either is looked for
        unescape(m.group()[1:-1] if m else self.text[self.pos + 1:])
        if m is None:
            raise ValidationError("unterminated literal")
        self.pos = m.end()
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            if self.peek() != "<":
                raise ValidationError(
                    "datatype must be an IRI in angle brackets")
            self._skip_iri()
        elif self.peek() == "@":
            m = LANGUAGE_TAG.match(self.text, self.pos + 1)
            if m is None:
                raise ValidationError("empty language tag")
            self.pos = m.end()

    def read_terminator(self):
        self.skip_ws()
        if self.peek() != ".":
            raise ValidationError("missing '.' terminator")
        self.pos += 1
        self.skip_ws()
        rest = self.text[self.pos:]
        if rest and not rest.startswith("#"):
            raise ValidationError(f"unexpected trailing content {rest!r}")


def parse_ntriples(text: str) -> ParseResult:
    """Parse N-Triples subset text into a fresh graph, recovering per line.

    Returns the (possibly partial) graph together with all issues found.
    """
    parser = _Parser()
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + SLICE_CHARS)
        if end < 0:
            end = len(text)
            if text.endswith("\n"):
                end -= 1  # the empty line after it holds nothing
        parser.read_slice(text, pos, end)
        pos = end + 1
    parser.graph.add_ids(parser.ids)
    return ParseResult(parser.graph, parser.issues)


class _Parser:
    """One parse's state: the dict from token text to term id, the blank
    labels handed out, the flat id rows, the issues and the lines read."""

    def __init__(self):
        self.graph = Graph()
        self.lineno = 0
        self.issues: list[ParseIssue] = []
        self.token_ids: dict[str, int] = {}
        self.blank_map: dict[str, Term] = {}
        self.ids = array("q")

    def fresh(self, term: Term) -> Term:
        """The term, with a blank node's label renamed fresh."""
        if term.kind != BLANK:
            return term
        if term.lexical not in self.blank_map:
            self.blank_map[term.lexical] = blank(f"b{len(self.blank_map)}")
        return self.blank_map[term.lexical]

    def read_slice(self, text: str, pos: int, end: int):
        """Read the lines of `text[pos:end]`, which follow the lines read.

        A failing slice of several lines, more than half of which matched,
        is read as two halves, cut at a line end near its middle; any other
        failing slice, line by line."""
        lines = text.count("\n", pos, end) + 1
        rows = _SLICE_LINE.findall(text, pos, end)
        if len(rows) == lines and self.take(rows):
            self.lineno += lines
        elif lines > 1 and 2 * len(rows) > lines:
            # the last line end before the middle, else the first one
            cut = max(text.rfind("\n", pos, (pos + end) // 2),
                      text.find("\n", pos))
            self.read_slice(text, pos, cut)
            self.read_slice(text, cut + 1, end)
        else:
            for n, raw in enumerate(text[pos:end].split("\n"),
                                    start=self.lineno + 1):
                self.read_line(raw, n)
            self.lineno += lines

    def take(self, rows: list[tuple[str, str, str]]) -> bool:
        """Add the token rows of a whole slice, every line of which the
        line pattern matched, unless some token read for the first time
        makes no Term; then add nothing and return False. The empty tokens
        of comment and blank lines are skipped."""
        token_ids = self.token_ids
        tokens = list(chain.from_iterable(rows))
        first = dict.fromkeys(tokens)
        if "" in first:
            del first[""]
            tokens = list(filter(None, tokens))
        new = {}
        for token in first:
            if token not in token_ids:
                try:
                    new[token] = _token_term(token)
                except ValidationError:
                    return False
        # in first use, as the line loop hands out blank labels and ids
        for token, term in new.items():
            token_ids[token] = self.graph.intern(self.fresh(term))
        # three or more tokens, so `itemgetter` gives a tuple; `fromlist`
        # stores a list's ids in one pass, where `extend` iterates
        if tokens:
            self.ids.fromlist(list(itemgetter(*tokens)(token_ids)))
        return True

    def read_line(self, raw: str, lineno: int):
        """Read one line of a failing slice with `_LineScanner`: add its
        triple, skip a comment or blank line, or report one issue."""
        line = raw.strip()
        if not line or line.startswith("#"):
            return
        scanner = _LineScanner(raw)
        try:
            s, p, o = [scanner.read_term() for _ in range(3)]
            scanner.read_terminator()
            triple = Triple(s, p, o)
        except ValidationError as exc:
            self.issues.append(ParseIssue(lineno, str(exc)))
            return
        # a blank node takes its label only once its line is a triple
        self.ids.extend(self.graph.intern(self.fresh(t)) for t in triple)


def rendered_rows(graph: Graph) -> list[list[str]]:
    """Each triple's three terms in N-Triples form, in id-sorted order:
    every term is rendered once, however many triples use it, and the rows
    are one gather of `Graph.id_table` from those forms."""
    n3 = np.array([term.n3() for term in graph.terms()], dtype=object)
    return n3[graph.id_table()].tolist()


def _chunks(graph: Graph) -> Iterator[str]:
    """The graph's N-Triples text, `CHUNK_LINES` lines at a time.

    Each term is rendered once, as two words: row 0 of `words` holds its
    form and a space, row 1 its form and " .\n". A line is word 0 of its
    subject and of its predicate and word 1 of its object, so a chunk of
    the id-sorted table (`Graph.id_table`) is one gather of words and one
    join, with nothing made per triple in Python.
    """
    words = np.array([t.n3() + " " for t in graph.terms()], dtype=object)
    words = np.stack((words, words + ".\n"))
    table = graph.id_table()
    for rows in np.split(table, range(CHUNK_LINES, len(table), CHUNK_LINES)):
        yield "".join(words[(0, 0, 1), rows].flat)


def serialize_ntriples(graph: Graph) -> str:
    """One line per triple, sorted by term ids for determinism."""
    return "".join(_chunks(graph))


def load_file(path) -> ParseResult:
    return parse_ntriples(read_text(path))


def save_file(graph: Graph, path) -> None:
    """Write the graph's N-Triples to `path`, all or nothing, a chunk at a
    time: the whole text is never held."""
    write_atomic(path, _chunks(graph))


def read_text(path) -> str:
    """The text of the UTF-8 file `path`, with line endings as stored.

    An OSError is raised again as `cannot read <path>: <reason>`; bytes
    that are not UTF-8 raise `EncodingError`, which names the file.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path} is not UTF-8: {exc}") from exc


def write_atomic(path, text: str | Iterable[str]) -> None:
    """Write `text`, a string or an iterable of string chunks, to `path`
    as UTF-8, all or nothing.

    The text goes to a temporary file next to the target, which then
    replaces it; on any failure, between chunks or while one is made, the
    temporary file is removed and the target keeps its old bytes. A
    symlink is followed, so its target is replaced and the link kept; an
    existing target keeps its permissions. Line endings are written as
    given. An OSError is raised again as `cannot write <path>: [Errno N]
    <reason>`, without the temporary file's name.
    """
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(6)}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                for chunk in [text] if isinstance(text, str) else text:
                    fh.write(chunk)
            if os.path.exists(target):
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        # the file names an OSError holds include the temporary file's
        reason = exc if exc.filename is None \
            else OSError(exc.errno, exc.strerror)
        raise OSError(f"cannot write {path}: {reason}") from exc
