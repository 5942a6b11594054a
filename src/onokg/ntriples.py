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

Parsing works in term-id space. A dict maps the raw text of each token
already read (`<a:x>`, `"v"@en`, `_:n`) to its term id. A line whose three
tokens are all in it becomes an id triple with no further work; any other
line, a malformed one included, goes through `_LineScanner`, whose Terms
validate it, and its tokens enter the dict once the whole line is valid.
Term ids therefore follow first use on valid lines, as inserting the
triples one by one would give them. The id rows go straight to the
store's bulk base build (`Graph.add_ids`) at the end: one sort for the
whole file, which also drops repeated lines. Serialization renders each
term id once and joins the id-sorted triples, which the sorted base gives
without a sort.

The package's two file boundaries live here. Every input file (KG, query,
text, corpus, config, checkpoint, bundled and `--data-dir` data) is read by
`read_text`. Every output file is written all or nothing by `write_atomic`:
the text goes to a temporary file in the target's directory, which then
replaces the target, and a failed write leaves the target's bytes as they
were.
"""

from __future__ import annotations

import contextlib
import os
import re
import secrets
import shutil
from dataclasses import dataclass, field
from typing import Iterator

from .kg import (BLANK, BLANK_LABEL, LANGUAGE_TAG, QUOTED, Graph, KgError,
                 Term, Triple, ValidationError, blank, iri, literal, unescape)

# One triple line cut into its subject, predicate and object tokens, with
# the scanner's gaps and terminator. The tokens are the patterns that
# `_LineScanner` reads (an IRI ends at the first '>'), so a match splits a
# line as the scanner would; a literal subject or a non-IRI predicate does
# not match. A line whose three token texts all made valid Terms before is
# valid: the match alone checks no token text, `Term` does.
_IRI = r"<[^>]*>"
_BLANK = rf"_:{BLANK_LABEL.pattern}"
_LITERAL = rf"{QUOTED.pattern}(?:\^\^{_IRI}|@{LANGUAGE_TAG.pattern})?"
_TRIPLE_LINE = re.compile(
    rf"[ \t]*({_IRI}|{_BLANK})[ \t]*({_IRI})[ \t]*({_IRI}|{_BLANK}|{_LITERAL})"
    r"[ \t]*\.[ \t]*(?:#.*)?")


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


class _LineScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_token(self) -> tuple[str, Term]:
        """The next term and the text it was read from."""
        self.skip_ws()
        start = self.pos
        term = self.read_term()
        return self.text[start:self.pos], term

    def read_term(self) -> Term:
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
        start = self.pos + 1
        end = self.text.find(">", start)
        if end < 0:
            raise ValidationError("unterminated IRI (missing '>')")
        self.pos = end + 1
        return iri(self.text[start:end])

    def _read_blank(self) -> Term:
        m = BLANK_LABEL.match(self.text, self.pos + 2)
        if m is None:
            raise ValidationError("blank node with empty label")
        self.pos = m.end()
        return blank(m.group())

    def _read_literal(self) -> Term:
        m = QUOTED.match(self.text, self.pos)
        if m is None:
            # an unsupported escape is reported before the missing quote
            unescape(self.text[self.pos + 1:])
            raise ValidationError("unterminated literal")
        self.pos = m.end()
        value = unescape(m.group()[1:-1])
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            if self.peek() != "<":
                raise ValidationError("datatype must be an IRI in angle brackets")
            return literal(value, datatype=self._read_iri().lexical)
        if self.peek() == "@":
            m = LANGUAGE_TAG.match(self.text, self.pos + 1)
            if m is None:
                raise ValidationError("empty language tag")
            self.pos = m.end()
            return literal(value, language=m.group())
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


def parse_ntriples(text: str) -> ParseResult:
    """Parse N-Triples subset text into a fresh graph, recovering per line.

    Returns the (possibly partial) graph together with all issues found.
    """
    graph = Graph()
    issues: list[ParseIssue] = []
    token_ids: dict[str, int] = {}
    blank_map: dict[str, Term] = {}
    rows: list[tuple[int, int, int]] = []

    # A blank node's label is handed out once its line has passed the
    # scanner, before the subject and predicate kinds are checked.
    def fresh(term: Term) -> Term:
        if term.kind != BLANK:
            return term
        if term.lexical not in blank_map:
            blank_map[term.lexical] = blank(f"b{len(blank_map)}")
        return blank_map[term.lexical]

    for lineno, raw in enumerate(text.split("\n"), start=1):
        m = _TRIPLE_LINE.fullmatch(raw)
        if m is not None:
            s, p, o = m.groups()
            try:
                rows.append((token_ids[s], token_ids[p], token_ids[o]))
                continue
            except KeyError:
                pass  # a token not read before: scan the line
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        scanner = _LineScanner(raw)
        try:
            tokens = [scanner.read_token() for _ in range(3)]
            scanner.read_terminator()
            (_, s), (_, p), (_, o) = tokens
            triple = Triple(fresh(s), p, fresh(o))
        except ValidationError as exc:
            issues.append(ParseIssue(lineno, str(exc)))
            continue
        row = tuple(map(graph.intern, triple))
        for (token, _), tid in zip(tokens, row):
            token_ids[token] = tid
        rows.append(row)
    graph.add_ids(rows)
    return ParseResult(graph, issues)


def rendered_rows(graph: Graph) -> Iterator[tuple[str, str, str]]:
    """Each triple's three terms in N-Triples form, in id-sorted order.

    Every term id is rendered once, however many triples use it.
    """
    n3 = [term.n3() for term in graph.id_terms()]
    for s, p, o in graph.id_rows():
        yield n3[s], n3[p], n3[o]


def serialize_ntriples(graph: Graph) -> str:
    """One line per triple, sorted by term ids for determinism."""
    return "".join([f"{s} {p} {o} .\n" for s, p, o in rendered_rows(graph)])


def load_file(path) -> ParseResult:
    return parse_ntriples(read_text(path))


def save_file(graph: Graph, path) -> None:
    """Write the graph's N-Triples to `path`, all or nothing."""
    write_atomic(path, serialize_ntriples(graph))


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


def write_atomic(path, text: str) -> None:
    """Write `text` to `path` as UTF-8, all or nothing.

    The text goes to a temporary file next to the target, which then
    replaces it; on any failure the temporary file is removed and the
    target keeps its old bytes. A symlink is followed, so its target is
    replaced and the link kept; an existing target keeps its permissions.
    Line endings are written as given. An OSError that names a file is
    raised again without the names, as they include the temporary file's;
    the caller knows the target.
    """
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(6)}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise _unnamed(exc) from exc
    try:
        with fh:
            fh.write(text)
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise _unnamed(exc) from exc
        raise


def _unnamed(exc: OSError) -> OSError:
    return type(exc)(exc.errno, exc.strerror)
