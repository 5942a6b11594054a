"""Dictionary-encoded in-memory triple store.

Terms are interned to integer ids in first-insertion order, which makes id
ordering (and everything sorted by it, such as serialization and query
output) deterministic for a deterministic build sequence. Triples are kept
as a set of id-triples plus three nested indexes (SPO, POS, OSP) so any
combination of bound/unbound pattern positions is answered from an index.
An index entry goes with the last triple under it, so a term is in use
exactly when some index has it as a key; its id stays reserved regardless.

Readers in this package work on ids: `match_ids` and `count_ids` answer a
pattern from the indexes, `term_id` gives -1 for a term never interned
(which matches nothing), and Terms are looked up only for output. `match`
is the Term-space convenience for outside callers: it builds and sorts a
`Triple` for every hit.

Derived values (class indexes, name tables) are memoized on the graph by
`Graph.cached` and dropped by every `insert` or `remove` that changes the
triple set, so a derived value never outlives the graph state it was built
from.

Concurrency contract: many concurrent readers or one writer. The store
takes no locks itself; Graph values can be handed between threads. Readers
may fill the derived-value cache: two readers that race on the same entry
each build an equal value and one of them is kept, which is benign. A write
clears the cache, and writes already exclude readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, TypeVar

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
        self.prefix = prefix


@dataclass(frozen=True)
class Term:
    """An RDF-style term: IRI, literal, or blank node.

    Equality and hashing are structural over all four fields; lexical
    comparison is exact code-point equality (no Unicode normalization).
    """

    kind: str
    lexical: str
    datatype: Optional[str] = None
    language: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (IRI, LITERAL, BLANK):
            raise ValidationError(f"unknown term kind {self.kind!r}")
        if self.kind == IRI and ":" not in self.lexical:
            raise ValidationError(f"IRI must be absolute: {self.lexical!r}")
        if self.kind != LITERAL and (self.datatype or self.language):
            raise ValidationError("datatype/language are only valid on literals")
        if self.datatype is not None and self.language is not None:
            raise ValidationError("a literal has at most one of datatype, language")
        if self.datatype is not None and ":" not in self.datatype:
            raise ValidationError(f"datatype IRI must be absolute: {self.datatype!r}")

    def local_name(self) -> str:
        """Last path/fragment segment of an IRI (the name after '#' or '/')."""
        if self.kind != IRI:
            return self.lexical
        lex = self.lexical
        for sep in ("#", "/", ":"):
            idx = lex.rfind(sep)
            if idx >= 0 and idx < len(lex) - 1:
                return lex[idx + 1:]
        return lex

    def n3(self) -> str:
        """N-Triples rendering of the term."""
        if self.kind == IRI:
            return f"<{self.lexical}>"
        if self.kind == BLANK:
            return f"_:{self.lexical}"
        out = '"' + escape_literal(self.lexical) + '"'
        if self.datatype is not None:
            out += f"^^<{self.datatype}>"
        elif self.language is not None:
            out += f"@{self.language}"
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


def escape_literal(text: str) -> str:
    # Normative escape set for the N-Triples subset: \" \\ \n \t
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t"))


@dataclass(frozen=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if self.subject.kind == LITERAL:
            raise ValidationError("triple subject must not be a literal")
        if self.predicate.kind != IRI:
            raise ValidationError("triple predicate must be an IRI")

    def __iter__(self):
        return iter((self.subject, self.predicate, self.object))

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

    def items(self):
        return self._ns.items()

    def copy(self) -> "PrefixTable":
        return PrefixTable(self._ns)

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._ns


class Graph:
    """Set of triples over a term dictionary, with SPO/POS/OSP indexes."""

    def __init__(self):
        self._term_ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._triples: set[tuple[int, int, int]] = set()
        self._spo: dict[int, dict[int, set[int]]] = {}
        self._pos: dict[int, dict[int, set[int]]] = {}
        self._osp: dict[int, dict[int, set[int]]] = {}
        self._derived: dict[Callable, object] = {}

    # dictionary

    def intern(self, term: Term) -> int:
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

    def terms(self) -> Iterator[Term]:
        """Terms that some stored triple uses, in id order.

        A term whose last triple was removed is left out, but it keeps its
        id: ids are never reused or renumbered.
        """
        spo, pos, osp = self._spo, self._pos, self._osp
        return (term for tid, term in enumerate(self._terms)
                if tid in spo or tid in pos or tid in osp)

    def id_terms(self) -> list[Term]:
        """Every interned term, indexed by its id (unused ones included)."""
        return list(self._terms)

    # mutation

    def insert(self, t: Triple) -> bool:
        """Insert a triple; True iff it was not already present."""
        return self._add_id((self.intern(t.subject), self.intern(t.predicate),
                             self.intern(t.object)))

    def add_ids(self, rows: Iterable[tuple[int, int, int]]) -> int:
        """Add id triples whose ids `intern` gave out and whose predicate is
        an IRI and subject not a literal; how many were not yet stored."""
        return sum(map(self._add_id, rows))

    def _add_id(self, key: tuple[int, int, int]) -> bool:
        if key in self._triples:
            return False
        self._triples.add(key)
        s, p, o = key
        self._spo.setdefault(s, {}).setdefault(p, set()).add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        if self._derived:
            self._derived.clear()
        return True

    def add(self, subject: Term, predicate: Term, object: Term) -> bool:
        return self.insert(Triple(subject, predicate, object))

    def remove(self, t: Triple) -> bool:
        """Remove a triple; False (and no change) if absent."""
        ids = (self.term_id(t.subject), self.term_id(t.predicate),
               self.term_id(t.object))
        if ids not in self._triples:
            return False
        s, p, o = ids
        self._triples.discard(ids)
        for index, a, b, c in ((self._spo, s, p, o), (self._pos, p, o, s),
                               (self._osp, o, s, p)):
            inner = index[a]
            inner[b].discard(c)
            if not inner[b]:
                del inner[b]
                if not inner:
                    del index[a]
        self._derived.clear()
        return True

    def cached(self, build: Callable[["Graph"], T]) -> T:
        """`build(self)`, built once per graph state.

        The value is kept until the next insert or remove that changes the
        graph, so it must be derived from the triples alone and must not be
        mutated by callers.
        """
        try:
            return self._derived[build]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    # access

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return (self.term_id(t.subject), self.term_id(t.predicate),
                self.term_id(t.object)) in self._triples

    def __iter__(self) -> Iterator[Triple]:
        for s, p, o in self.id_rows():
            yield Triple(self._terms[s], self._terms[p], self._terms[o])

    def id_rows(self) -> list[tuple[int, int, int]]:
        """The stored id triples, sorted: the order iteration yields."""
        return sorted(self._triples)

    def match(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> list[Triple]:
        """Triples matching all bound positions, in id-sorted order."""
        get = self.term_id
        keys = self.match_ids(None if s is None else get(s),
                              None if p is None else get(p),
                              None if o is None else get(o))
        terms = self._terms
        return [Triple(terms[a], terms[b], terms[c])
                for a, b, c in sorted(keys)]

    def match_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                  o: Optional[int] = None) -> list[tuple[int, int, int]]:
        """Id triples matching all bound id positions, in no set order.

        An id that no stored triple uses (say -1 for an unknown term)
        matches nothing.
        """
        if s is not None and p is not None and o is not None:
            return [(s, p, o)] if (s, p, o) in self._triples else []
        if s is not None and p is not None:
            return [(s, p, x) for x in self._spo.get(s, {}).get(p, ())]
        if s is not None and o is not None:
            return [(s, x, o) for x in self._osp.get(o, {}).get(s, ())]
        if p is not None and o is not None:
            return [(x, p, o) for x in self._pos.get(p, {}).get(o, ())]
        if s is not None:
            return [(s, a, b) for a, objs in self._spo.get(s, {}).items()
                    for b in objs]
        if p is not None:
            return [(b, p, a) for a, subjs in self._pos.get(p, {}).items()
                    for b in subjs]
        if o is not None:
            return [(a, b, o) for a, preds in self._osp.get(o, {}).items()
                    for b in preds]
        return list(self._triples)

    def count_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                  o: Optional[int] = None) -> int:
        """How many triples `match_ids` would return, read off the index
        sizes without building them."""
        if s is not None and p is not None and o is not None:
            return int((s, p, o) in self._triples)
        if s is not None and p is not None:
            return len(self._spo.get(s, {}).get(p, ()))
        if s is not None and o is not None:
            return len(self._osp.get(o, {}).get(s, ()))
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None:
            return sum(map(len, self._spo.get(s, {}).values()))
        if p is not None:
            return sum(map(len, self._pos.get(p, {}).values()))
        if o is not None:
            return sum(map(len, self._osp.get(o, {}).values()))
        return len(self._triples)

    def copy(self) -> "Graph":
        """A graph of the same triples, its ids given out in id-row order."""
        g = Graph()
        terms, intern = self._terms, g.intern
        g.add_ids([(intern(terms[s]), intern(terms[p]), intern(terms[o]))
                   for s, p, o in self.id_rows()])
        return g

    def check_indexes(self) -> bool:
        """All three indexes hold exactly the stored triple set."""
        spo = {(s, p, o) for s, ps in self._spo.items()
               for p, os_ in ps.items() for o in os_}
        pos = {(s, p, o) for p, os_ in self._pos.items()
               for o, ss in os_.items() for s in ss}
        osp = {(s, p, o) for o, ss in self._osp.items()
               for s, ps in ss.items() for p in ps}
        return spo == pos == osp == self._triples

