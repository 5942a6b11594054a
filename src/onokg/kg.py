"""Dictionary-encoded in-memory triple store.

Terms are interned to integer ids in first-insertion order, which makes id
ordering (and everything sorted by it, such as serialization and query
output) deterministic for a deterministic build sequence.

Term syntax lives here, one rule per term kind, in the terms of the
N-Triples subset. `Term` applies it, so every term the API accepts loads
back from a saved file, and the N-Triples and SPARQL parsers read terms
with the same patterns:
- an IRI or datatype: absolute (a `:`), no space, `"`, `<`, `>` or newline;
- a blank label (`BLANK_LABEL`): alphanumerics, `_` and `-`, non-empty;
- a language tag (`LANGUAGE_TAG`): alphanumerics and `-`, non-empty;
- a literal: any text. Quoted (`QUOTED`), it escapes `"`, `\\`, newline
  and tab (`escape_literal`, undone by `unescape`).

Terms and Triples are validated tuples. A `Term` is the tuple (kind,
lexical, datatype, language) and a `Triple` the tuple (subject, predicate,
object) of Terms. Each `__new__` applies the rules, and a copy or an
unpickle constructs again, so no path makes an unchecked one. Each equals,
hashes and orders as the plain tuple of its fields, in C.

The triples live in two disjoint parts:

- the base, an immutable sorted triple set: the SPO and POS permutations
  as read-only int64 numpy columns with offsets per first key. One bulk
  sort builds it and drops duplicates;
- the buffer, the id triples inserted since, as the keys of one dict in
  insertion order (a dict used as an ordered set). It answers membership,
  its size and its keys, nothing else.

Sort rule: every sort of id rows (the base's SPO and POS orders and
`id_table`) is `_order`, one stable `argsort` of a packed int64 key per
row, (s * n + p) * n + o for n terms, while n³ < 2⁶³. From n = 2,097,152
on a key could overflow, and `_order` falls back to a `lexsort` of the
three columns.

Write rule: the store is append-only, as the KG only grows by integrated
sources and extracted facts. `insert` and `add_ids` are its only writers,
and nothing removes a triple. `insert` is the one writer of single
triples, and nothing wraps it: the ontology API calls it with a plain
(subject, predicate, object) tuple, and it applies the triple kind rules
itself, so no `Triple` is built. It looks the three ids up with one dict
probe each and interns, in (s, p, o) order, only on a miss, so ids come
out in first-insertion order. Each writer interns only the terms of the
rows it stores, so every interned term is in some stored triple:
`terms()`, the id-indexed term list, is exactly the terms in use. There
are no tombstones: every stored triple is in exactly one part.

Readers work on ids, and each read shape has one reader:
- membership (`in`, and `insert`'s check): a dict probe of the buffer,
  then `searchsorted` in the subject's SPO run of the base;
- every triple, sorted on (subject, predicate, object): `id_table`;
- a subject's (predicate, object) rows, or every triple as columns:
  `columns`, the SPO permutation as read-only views of the base's
  columns and key offsets, with no copy and no tuple per triple;
- one predicate's (subject, object) pairs: `edges`, its POS run;
- the ids in use at one position: `key_ids`, off the SPO and POS key
  offsets for subjects and predicates, and a `bincount` of SPO's object
  column for objects.
`term_id` gives -1 for a term never interned (which matches nothing), and
Terms are looked up only for output. The class index, the DL evaluator,
the pitfall checks, the quality metrics, the seed statistics and SPARQL
compute over `columns`, `edges` and `key_ids` as arrays. `match` is the
one Term-space view, for outside callers: one mask of `id_table` per
bound position, with a `Triple` built for every hit.

Fold rule: the shape of a read decides, not a size. `insert`, membership,
`len`, `terms`, `add_ids`, the sorted reader `id_table` and `match` on it
read the two parts as they are. `columns`, `edges` and `key_ids` first
fold a non-empty buffer into the base: `add_ids` of no new ids, one bulk
build of the base and buffer triples, which sorts them, so the fold reads
the buffer's keys unsorted. A graph built by inserts, as the ontology API
builds one, is saved from `id_table`, one `_order` of the buffer's keys
with no tuple per triple, and folded once, when it is first queried.
`add_ids` (the N-Triples parse) always builds the base, from the stored
triples and its flat ids, and leaves the buffer empty.

Derived values (class indexes, name tables) are memoized on the graph by
`Graph.cached` and dropped by every write that changes the triple set, so
a derived value never outlives the graph state it was built from. A fold
changes no triple and keeps them.

Concurrency contract: many concurrent readers or one writer. The store
takes no locks itself; Graph values can be handed between threads. The
base and the buffer are held as one (base, buffer) pair in one
attribute, so a reader takes both at once and answers from that pair. A
read may replace the pair only by a fold, and only with an equal pair:
the fold builds a new base from the pair it took and publishes it with a
new, empty buffer in one assignment, and it never mutates a base or a
buffer that has been published. So readers that race on a fold each
build an equal base and the last assignment is kept, and a reader that
took the old pair finishes on it. Readers may fill the derived-value
cache in the same way: two that race on an entry each build an equal
value and one of them is kept. A write (insert, add_ids) changes the
buffer in place or replaces the pair, and clears the cache; writes
already exclude readers.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import itemgetter
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"


class KgError(Exception):
    """Base class for store errors."""


class ValidationError(KgError):
    """A term or triple violates the data model."""


class UnknownPrefixError(KgError):
    def __init__(self, prefix: str):
        super().__init__(f"unknown prefix {prefix!r}")


# Term syntax (see the module docstring); the parsers reuse `.pattern`
BLANK_LABEL = re.compile(r"[\w-]+")
LANGUAGE_TAG = re.compile(r"(?:[^\W_]|-)+")
QUOTED = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _check_iri(value: str) -> None:
    """Raise ValidationError unless `value` may stand inside `<...>`."""
    if ":" not in value:
        raise ValidationError(f"relative IRI not allowed: <{value}>")
    if (" " in value or '"' in value or "<" in value or ">" in value
            or "\n" in value):
        raise ValidationError(f"invalid character in IRI: <{value}>")


def escape_literal(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t"))


def unescape(body: str) -> str:
    """The text of a quoted literal's body (quotes excluded), unescaped."""
    return _ESCAPE.sub(_unescape_one, body)


def _unescape_one(match: re.Match) -> str:
    try:
        return _ESCAPES[match.group(1)]
    except KeyError:
        raise ValidationError(
            f"unsupported escape \\{match.group(1)}") from None


class Term(tuple):
    """An RDF-style term: IRI, literal, or blank node, as the validated
    tuple (kind, lexical, datatype, language).

    Equality, hashing and order are those of that plain tuple, computed in
    C; lexical comparison is exact code-point equality (no Unicode
    normalization). Every construction runs `__new__`'s checks: a copy or
    an unpickle calls `Term(*fields)`.
    """

    __slots__ = ()

    def __new__(cls, kind: str, lexical: str, datatype: Optional[str] = None,
                language: Optional[str] = None):
        if kind == IRI:
            _check_iri(lexical)
        elif kind == BLANK and not BLANK_LABEL.fullmatch(lexical):
            raise ValidationError(f"invalid blank node label: {lexical!r}")
        elif kind not in (LITERAL, BLANK):
            raise ValidationError(f"unknown term kind {kind!r}")
        if datatype is not None or language is not None:
            if kind != LITERAL:
                raise ValidationError(
                    "datatype/language are only valid on literals")
            if datatype is not None and language is not None:
                raise ValidationError(
                    "a literal has at most one of datatype, language")
            if datatype is not None:
                _check_iri(datatype)
            elif not LANGUAGE_TAG.fullmatch(language):
                raise ValidationError(f"invalid language tag: {language!r}")
        return tuple.__new__(cls, (kind, lexical, datatype, language))

    kind = property(itemgetter(0))
    lexical = property(itemgetter(1))
    datatype = property(itemgetter(2))
    language = property(itemgetter(3))

    def __reduce__(self):
        return Term, tuple(self)

    def local_name(self) -> str:
        """Last path/fragment segment of an IRI (the name after '#' or '/')."""
        lex = self[1]
        if self[0] != IRI:
            return lex
        for sep in ("#", "/", ":"):
            idx = lex.rfind(sep)
            if idx >= 0 and idx < len(lex) - 1:
                return lex[idx + 1:]
        return lex

    def n3(self) -> str:
        """N-Triples rendering of the term. The fields are read by index,
        which is faster than through their properties."""
        kind = self[0]
        if kind == IRI:
            return f"<{self[1]}>"
        if kind == BLANK:
            return f"_:{self[1]}"
        out = '"' + escape_literal(self[1]) + '"'
        if self[2] is not None:
            out += f"^^<{self[2]}>"
        elif self[3] is not None:
            out += f"@{self[3]}"
        return out

    def __repr__(self):
        return self.n3()


def iri(value: str) -> Term:
    return Term(IRI, value)


def literal(value: str, datatype: Optional[str] = None,
            language: Optional[str] = None) -> Term:
    return Term(LITERAL, value, datatype, language)


def blank(label: str) -> Term:
    return Term(BLANK, label)


XSD = "http://www.w3.org/2001/XMLSchema#"


def typed_int(value: int) -> Term:
    return Term(LITERAL, str(int(value)), datatype=XSD + "integer")


def _check_triple(subject: Term, predicate: Term) -> None:
    """The two kind rules of a triple: no literal subject, an IRI
    predicate."""
    if subject.kind == LITERAL:
        raise ValidationError("triple subject must not be a literal")
    if predicate.kind != IRI:
        raise ValidationError("triple predicate must be an IRI")


class Triple(tuple):
    """A validated (subject, predicate, object) tuple of Terms; it equals,
    hashes and orders as that plain tuple."""

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term):
        _check_triple(subject, predicate)
        return tuple.__new__(cls, (subject, predicate, object))

    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))

    def __reduce__(self):
        return Triple, tuple(self)

    def __repr__(self):
        return f"({self.subject!r} {self.predicate!r} {self.object!r})"


class PrefixTable:
    """prefix -> namespace IRI mapping, mirroring PREFIX headers."""

    def __init__(self, mapping: Optional[dict[str, str]] = None):
        self._ns: dict[str, str] = dict(mapping or {})

    def bind(self, prefix: str, namespace: str) -> None:
        self._ns[prefix] = namespace

    def namespace(self, prefix: str) -> str:
        try:
            return self._ns[prefix]
        except KeyError:
            raise UnknownPrefixError(prefix) from None

    def expand(self, qname: str) -> Term:
        """Expand 'prefix:local' to an IRI term."""
        prefix, sep, local = qname.partition(":")
        if not sep:
            raise ValidationError(f"not a prefixed name: {qname!r}")
        return iri(self.namespace(prefix) + local)

    def copy(self) -> "PrefixTable":
        return PrefixTable(self._ns)


def _order(a, b, c, size: int) -> np.ndarray:
    """The stable order of the id rows (a, b, c), every id below `size`:
    ascending on (a, b, c), with equal rows in their given order.

    While size³ < 2⁶³, that is below 2,097,152 terms, each row packs into
    one int64 key, (a * size + b) * size + c, which orders as the row does.
    The key is built in place, so one n-element temporary exists, and one
    stable `argsort` orders it. At and above that limit a key could
    overflow, and `np.lexsort` of the three columns gives the order.
    """
    if size ** 3 >= 2 ** 63:
        return np.lexsort((c, b, a))
    key = a * size
    key += b
    key *= size
    key += c
    return np.argsort(key, kind="stable")


class _Sorted:
    """One sorted permutation of the base, as read-only int64 columns. The
    rows whose first key is `a` sit at `off[a]:off[a + 1]` of `second` and
    `third`, sorted on (second, third). The columns are taken as given and
    must own their data, as a gather's result does, so that no view of one
    can be made writeable."""

    __slots__ = ("off", "second", "third")

    def __init__(self, first, second, third, size: int):
        self.off = np.concatenate(
            ([0], np.cumsum(np.bincount(first, minlength=size))))
        self.second, self.third = second, third
        for column in (self.off, second, third):
            column.flags.writeable = False

    def table(self) -> np.ndarray:
        """Every row as (first, second, third), in stored order, as one
        (n, 3) array."""
        first = np.repeat(np.arange(len(self.off) - 1), np.diff(self.off))
        return np.column_stack((first, self.second, self.third))


class _Base:
    """An immutable set of id triples in two sorted permutations (SPO and
    POS), built in bulk from flat ids (s0, p0, o0, s1, ...), every id below
    `size`. `_order` sorts the rows on their packed keys, or with `lexsort`
    from 2,097,152 terms on, and they are gathered in that order once. A
    row equal to the one before it is dropped, and `_order` sorts the
    distinct rows again on (p, o, s) for POS."""

    def __init__(self, flat: np.ndarray, size: int):
        rows = flat.reshape(-1, 3)
        s, p, o = rows[_order(*rows.T, size)].T
        new = np.ones(len(s), bool)
        new[1:] = (s[1:] != s[:-1]) | (p[1:] != p[:-1]) | (o[1:] != o[:-1])
        s, p, o = s[new], p[new], o[new]
        pos = _order(p, o, s, size)
        self.n = len(s)
        self.spo = _Sorted(s, p, o, size)
        self.pos = _Sorted(p[pos], o[pos], s[pos], size)

    def has(self, key: tuple[int, int, int]) -> bool:
        """Whether the triple is stored: `searchsorted` finds its predicate
        within its subject's SPO run, then its object within that."""
        s, p, o = key
        off, second, third = self.spo.off, self.spo.second, self.spo.third
        if not 0 <= s < len(off) - 1:
            return False
        lo, hi = off[s], off[s + 1]
        run = second[lo:hi]
        lo, hi = lo + run.searchsorted(p), lo + run.searchsorted(p, "right")
        i = lo + third[lo:hi].searchsorted(o)
        return bool(i < hi and third[i] == o)


def _stored(base: _Base, buffer: dict) -> np.ndarray:
    """The triples of a (base, buffer) pair as one (n, 3) int64 array: the
    base's SPO table, then the buffer's keys in insertion order. Only a
    pair with triples in both parts is concatenated."""
    if not buffer:
        return base.spo.table()
    keys = np.fromiter(chain.from_iterable(buffer), dtype=np.int64,
                       count=3 * len(buffer)).reshape(-1, 3)
    return np.concatenate((base.spo.table(), keys)) if base.n else keys


_EMPTY = _Base(np.empty(0, dtype=np.int64), 0)


class Graph:
    """Set of triples over a term dictionary: a sorted base and a buffer of
    later inserts, a dict whose keys are id triples in insertion order,
    held as one (base, buffer) pair. A read that needs an index the buffer
    lacks folds the buffer into the base first and publishes the equal,
    folded pair in one assignment."""

    def __init__(self):
        self._term_ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._store: tuple[_Base, dict[tuple[int, int, int], None]] = (
            _EMPTY, {})
        self._derived: dict[Callable, object] = {}

    # dictionary

    def intern(self, term: Term) -> int:
        """The term's id, given out if new. Writers intern only the terms
        of the rows they store (see the write rule)."""
        tid = self._term_ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._term_ids[term] = tid
            self._terms.append(term)
        return tid

    def term_id(self, term: Term) -> int:
        """The term's id, or -1 (which matches nothing) if never interned."""
        return self._term_ids.get(term, -1)

    def term(self, tid: int) -> Term:
        return self._terms[tid]

    def terms(self) -> list[Term]:
        """Every interned term, indexed by its id: the terms that some
        stored triple uses, in id order. Reads no triple, so never folds."""
        return list(self._terms)

    # mutation

    def insert(self, t: Sequence[Term]) -> bool:
        """Insert a triple, given as a Triple or any (subject, predicate,
        object) sequence of Terms; True iff it was not already present.
        The one writer of single triples: it applies the triple kind rules
        before it interns a term, so a rejected triple changes nothing.
        Known terms cost one dict probe each, and only a miss interns the
        three in (s, p, o) order."""
        s, p, o = t
        if s[0] == LITERAL or p[0] != IRI:
            _check_triple(s, p)
        term_ids = self._term_ids
        try:
            key = (term_ids[s], term_ids[p], term_ids[o])
        except KeyError:
            key = (self.intern(s), self.intern(p), self.intern(o))
        base, buffer = self._store
        if key in buffer or base.n and base.has(key):
            return False
        buffer[key] = None
        if self._derived:
            self._derived.clear()
        return True

    def add_ids(self, ids: Sequence[int]) -> int:
        """Add id triples, given as flat ids (s0, p0, o0, s1, ...) that
        `intern` gave out, each with an IRI predicate and a subject that
        is no literal; how many were not yet stored. `ids` is a list, a
        tuple or an `array.array`, read without a tuple per triple.

        The base is built again from the stored triples and `ids`, and
        published with an empty buffer in one assignment. With no ids this
        is the fold, which readers may run.
        """
        base, buffer = self._store
        before = base.n + len(buffer)
        flat = np.asarray(ids, dtype=np.int64)
        if before:
            flat = np.concatenate((_stored(base, buffer).ravel(), flat))
        base = _Base(flat, len(self._terms))
        self._store = (base, {})
        added = base.n - before
        if added and self._derived:
            self._derived.clear()
        return added

    def cached(self, build: Callable[["Graph"], T]) -> T:
        """`build(self)`, built once per graph state.

        The value is kept until the next write that changes the graph, so
        it must be derived from the triples alone and must not be mutated
        by callers.
        """
        try:
            return self._derived[build]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    # access

    def _folded(self) -> _Base:
        """The base, after folding the buffer into it if it holds any
        triple."""
        if self._store[1]:
            self.add_ids(())
        return self._store[0]

    def __len__(self) -> int:
        base, buffer = self._store
        return base.n + len(buffer)

    def __contains__(self, t: Sequence[Term]) -> bool:
        """Whether a Triple, or any (subject, predicate, object) sequence
        of Terms, is stored: a probe of each part, so never folds."""
        get = self._term_ids.get
        key = (get(t[0], -1), get(t[1], -1), get(t[2], -1))
        base, buffer = self._store
        return key in buffer or base.has(key)

    def id_table(self) -> np.ndarray:
        """The stored id triples as one (n, 3) int64 array, sorted on
        (subject, predicate, object). Reads the (base, buffer) pair as it
        is, so never folds.

        With an empty buffer this is the base's SPO table. Otherwise the
        base's table and the buffer's keys (`_stored`) are ordered by
        `_order`, one stable `argsort` of their packed int64 keys (a
        `lexsort` from 2,097,152 terms on), and gathered in that order; a
        buffered key is never in the base, so nothing is dropped.
        """
        base, buffer = self._store
        table = _stored(base, buffer)
        return table[_order(*table.T, len(self._terms))] if buffer else table

    def match(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> list[Triple]:
        """Triples matching all bound positions, sorted on (subject,
        predicate, object), with a `Triple` built for each hit. `id_table`
        is masked on each bound position, so this never folds, and a term
        never interned (id -1) matches nothing."""
        table = self.id_table()
        keep = np.ones(len(table), dtype=bool)
        for column, term in zip(table.T, (s, p, o)):
            if term is not None:
                keep &= column == self.term_id(term)
        terms = self._terms
        return [Triple(terms[a], terms[b], terms[c])
                for a, b, c in table[keep].tolist()]

    def columns(self) -> tuple[np.ndarray, ...]:
        """The SPO permutation as views of the folded base's read-only
        int64 columns: the subject offsets `off`, with the rows of subject
        `a` at `off[a]:off[a + 1]`, and the predicate and object columns,
        sorted on (predicate, object) within each subject; folds. Nothing
        is copied, and no view can be made writeable, since the columns it
        shows own their data and are read-only. A published base is never
        mutated, so a view stays valid, but it shows the graph as it was
        read. Keep one past a write only in a `cached` value, which that
        write drops."""
        spo = self._folded().spo
        return spo.off.view(), spo.second.view(), spo.third.view()

    def edges(self, predicate: int) -> tuple[np.ndarray, np.ndarray]:
        """The (subjects, objects) of the triples with predicate id
        `predicate`: slices of the folded base's POS columns, sorted on
        object and then subject, which follow the rules of `columns`;
        folds. Both are empty for an id that no triple holds as a
        predicate, -1 included."""
        pos = self._folded().pos
        lo, hi = (pos.off[predicate:predicate + 2]
                  if 0 <= predicate < len(pos.off) - 1 else (0, 0))
        return pos.third[lo:hi], pos.second[lo:hi]

    def key_ids(self, position: int) -> list[int]:
        """The ids that some stored triple holds at `position` (0 subject,
        1 predicate, 2 object), ascending; folds. Subjects and predicates
        are read off the SPO and POS key offsets, and objects off a
        `bincount` of SPO's object column, with no tuple per triple."""
        base = self._folded()
        counts = (np.bincount(base.spo.third) if position == 2
                  else np.diff((base.spo, base.pos)[position].off))
        return np.flatnonzero(counts).tolist()

    def check_indexes(self) -> bool:
        """The base permutations hold one sorted, duplicate-free set, and
        no buffered triple is in the base."""
        base, buffer = self._store
        spo, pos = ([tuple(row) for row in perm.table().tolist()]
                    for perm in (base.spo, base.pos))
        ordered = all(a < b for rows in (spo, pos)
                      for a, b in zip(rows, rows[1:]))
        same = (len(spo) == base.n
                and {(s, p, o) for p, o, s in pos} == set(spo))
        return ordered and same and not any(map(base.has, buffer))
