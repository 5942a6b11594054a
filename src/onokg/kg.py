"""Dictionary-encoded in-memory triple store.

Terms are interned to integer ids in first-insertion order, which makes id
ordering (and everything sorted by it, such as serialization and query
output) deterministic for a deterministic build sequence.

The triples live in two parts, so that any combination of bound and
unbound pattern positions is answered from an index:

- the base, an immutable sorted triple set: the SPO, POS and OSP
  permutations (as in RDF-3X) as `array.array` id columns with offsets per
  first key. One bulk sort builds it and drops duplicates; probes search
  its columns with `bisect`, and numpy only builds it;
- the delta, the triples inserted since, in three nested-dict indexes
  (SPO, POS, OSP, as in a Hexastore). It is the only code that writes
  single triples.

Removing a delta triple deletes it and every index entry left empty;
removing a base triple records a tombstone. Readers see the base minus the
tombstones plus the delta: the delta and the base are disjoint, and the
tombstones are base triples. A term is in use exactly when some stored
triple has it; its id stays reserved regardless.

Merge rule: only a bulk `add_ids` (the N-Triples parse and `copy`) builds
the base. On a non-empty graph it builds it again from the stored triples
and the new rows, and the delta and tombstones start empty. `insert` never
merges, so a graph built by inserts alone, as the ontology API builds one,
stays all delta and pays no sort.

Readers in this package work on ids: `match_ids` and `count_ids` answer a
pattern from the indexes, `term_id` gives -1 for a term never interned
(which matches nothing), and Terms are looked up only for output. `match`
is the Term-space convenience for outside callers: it builds and sorts a
`Triple` for every hit.

Derived values (class indexes, name tables) are memoized on the graph by
`Graph.cached` and dropped by every write that changes the triple set, so
a derived value never outlives the graph state it was built from.

Concurrency contract: many concurrent readers or one writer. A read
changes nothing: the base is never modified after its build, and readers
only look at the delta and the tombstones. The store takes no locks
itself; Graph values can be handed between threads. Readers may fill the
derived-value cache: two readers that race on the same entry each build
an equal value and one of them is kept, which is benign. A write (insert,
remove, add_ids) clears the cache, and writes already exclude readers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, TypeVar

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


class _Sorted:
    """One sorted permutation of the base, in columns. The rows whose first
    key is `a` sit at `off[a]:off[a + 1]` of `second` and `third`, sorted
    on (second, third); probes search them with `bisect`."""

    __slots__ = ("keys", "off", "second", "third")

    def __init__(self, first, second, third, size: int):
        counts = np.bincount(first, minlength=size)
        self.keys = len(counts)
        self.off = _column(np.concatenate(([0], np.cumsum(counts))))
        self.second = _column(second)
        self.third = _column(third)

    def span(self, a: int, b: Optional[int] = None) -> tuple[int, int]:
        """The slice of rows with first key `a` (and second key `b`)."""
        if not 0 <= a < self.keys:
            return 0, 0
        off = self.off
        lo = off[a]
        hi = off[a + 1]
        if b is None or lo == hi:
            return lo, hi
        second = self.second
        lo = bisect_left(second, b, lo, hi)
        # most runs of one second key are one row long: test before bisecting
        if lo == hi or second[lo] != b:
            return lo, lo
        if lo + 1 == hi or second[lo + 1] != b:
            return lo, lo + 1
        return lo, bisect_right(second, b, lo + 2, hi)

    def pairs(self, lo: int, hi: int):
        return zip(self.second[lo:hi], self.third[lo:hi])

    def triples(self) -> list[tuple[int, int, int]]:
        """Every row as (first, second, third), in stored order."""
        off, second, third = self.off, self.second, self.third
        return [(a, second[i], third[i]) for a in range(len(off) - 1)
                for i in range(off[a], off[a + 1])]


def _column(values) -> array:
    return array("q", np.ascontiguousarray(values, dtype=np.int64).tobytes())


class _Base:
    """An immutable set of id triples in three sorted permutations (SPO,
    POS, OSP), built in bulk from an (n, 3) id array; duplicates dropped.
    Numpy builds it; probes read plain arrays."""

    def __init__(self, rows: np.ndarray, size: int):
        spo = rows[np.lexsort(rows.T[::-1])]
        if len(spo) > 1:
            spo = spo[np.concatenate(([True], (spo[1:] != spo[:-1]).any(1)))]
        s, p, o = spo.T
        # stable sorts of the SPO order keep its later keys in order
        pos = spo[np.lexsort((o, p))]
        osp = spo[np.argsort(o, kind="stable")]
        self.n = len(spo)
        self.subjects = _column(s)
        self.spo = _Sorted(s, p, o, size)
        self.pos = _Sorted(pos[:, 1], pos[:, 2], pos[:, 0], size)
        self.osp = _Sorted(osp[:, 2], osp[:, 0], osp[:, 1], size)
        used = np.zeros(size, dtype=np.uint8)
        used[spo.ravel()] = 1
        self.used = used.tobytes()  # used[tid] is 1 iff some row has tid

    def has(self, key: tuple[int, int, int]) -> bool:
        s, p, o = key
        lo, hi = self.spo.span(s, p)
        third = self.spo.third
        i = bisect_left(third, o, lo, hi) if hi - lo > 1 else lo
        return i < hi and third[i] == o

    def rows(self) -> list[tuple[int, int, int]]:
        """Every triple, sorted."""
        return list(zip(self.subjects, self.spo.second, self.spo.third))

    def count(self, s, p, o) -> int:
        if s is not None and p is not None and o is not None:
            return int(self.has((s, p, o)))
        if s is not None and p is not None:
            lo, hi = self.spo.span(s, p)
        elif s is not None and o is not None:
            lo, hi = self.osp.span(o, s)
        elif p is not None and o is not None:
            lo, hi = self.pos.span(p, o)
        elif s is not None:
            lo, hi = self.spo.span(s)
        elif p is not None:
            lo, hi = self.pos.span(p)
        elif o is not None:
            lo, hi = self.osp.span(o)
        else:
            return self.n
        return hi - lo


_EMPTY = _Base(np.empty((0, 3), dtype=np.int64), 0)


class _Delta:
    """Triples written since the base was built, in three nested-dict
    indexes (SPO, POS, OSP). An index entry goes with the last triple
    under it."""

    def __init__(self):
        self.spo: dict[int, dict[int, set[int]]] = {}
        self.pos: dict[int, dict[int, set[int]]] = {}
        self.osp: dict[int, dict[int, set[int]]] = {}
        self.n = 0

    def has(self, key: tuple[int, int, int]) -> bool:
        s, p, o = key
        return o in self.spo.get(s, {}).get(p, ())

    def add(self, key: tuple[int, int, int]) -> bool:
        s, p, o = key
        objs = self.spo.setdefault(s, {}).setdefault(p, set())
        if o in objs:
            return False
        objs.add(o)
        self.pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self.osp.setdefault(o, {}).setdefault(s, set()).add(p)
        self.n += 1
        return True

    def discard(self, key: tuple[int, int, int]) -> bool:
        if not self.has(key):
            return False
        s, p, o = key
        for index, a, b, c in ((self.spo, s, p, o), (self.pos, p, o, s),
                               (self.osp, o, s, p)):
            inner = index[a]
            inner[b].discard(c)
            if not inner[b]:
                del inner[b]
                if not inner:
                    del index[a]
        self.n -= 1
        return True

    def uses(self, tid: int) -> bool:
        return tid in self.spo or tid in self.pos or tid in self.osp

    def rows(self) -> list[tuple[int, int, int]]:
        """Every triple, sorted: keys are read in order, no tuple sort."""
        spo = self.spo
        return [(s, p, o) for s in sorted(spo) for p in sorted(spo[s])
                for o in sorted(spo[s][p])]

    def match(self, s, p, o) -> list[tuple[int, int, int]]:
        if s is not None and p is not None and o is not None:
            return [(s, p, o)] if self.has((s, p, o)) else []
        if s is not None and p is not None:
            return [(s, p, x) for x in self.spo.get(s, {}).get(p, ())]
        if s is not None and o is not None:
            return [(s, x, o) for x in self.osp.get(o, {}).get(s, ())]
        if p is not None and o is not None:
            return [(x, p, o) for x in self.pos.get(p, {}).get(o, ())]
        if s is not None:
            return [(s, a, b) for a, objs in self.spo.get(s, {}).items()
                    for b in objs]
        if p is not None:
            return [(b, p, a) for a, subjs in self.pos.get(p, {}).items()
                    for b in subjs]
        if o is not None:
            return [(a, b, o) for a, preds in self.osp.get(o, {}).items()
                    for b in preds]
        return [(a, b, c) for a, ps in self.spo.items()
                for b, objs in ps.items() for c in objs]

    def count(self, s, p, o) -> int:
        if s is not None and p is not None and o is not None:
            return int(self.has((s, p, o)))
        if s is not None and p is not None:
            return len(self.spo.get(s, {}).get(p, ()))
        if s is not None and o is not None:
            return len(self.osp.get(o, {}).get(s, ()))
        if p is not None and o is not None:
            return len(self.pos.get(p, {}).get(o, ()))
        if s is not None:
            return sum(map(len, self.spo.get(s, {}).values()))
        if p is not None:
            return sum(map(len, self.pos.get(p, {}).values()))
        if o is not None:
            return sum(map(len, self.osp.get(o, {}).values()))
        return self.n

    def check(self) -> bool:
        """All three indexes hold the same `n` triples."""
        spo = {(s, p, o) for s, ps in self.spo.items()
               for p, os_ in ps.items() for o in os_}
        pos = {(s, p, o) for p, os_ in self.pos.items()
               for o, ss in os_.items() for s in ss}
        osp = {(s, p, o) for o, ss in self.osp.items()
               for s, ps in ss.items() for p in ps}
        return spo == pos == osp and len(spo) == self.n


class Graph:
    """Set of triples over a term dictionary: a sorted base, a dict delta
    of later inserts and tombstones for base triples removed since."""

    def __init__(self):
        self._term_ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._base = _EMPTY
        self._delta = _Delta()
        self._dead: set[tuple[int, int, int]] = set()
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
        used, delta = self._base.used, self._delta
        gone = {tid for row in self._dead for tid in row
                if not (self.count_ids(tid) or self.count_ids(None, tid)
                        or self.count_ids(None, None, tid))}
        return (term for tid, term in enumerate(self._terms)
                if (tid < len(used) and used[tid] and tid not in gone)
                or delta.uses(tid))

    def id_terms(self) -> list[Term]:
        """Every interned term, indexed by its id (unused ones included)."""
        return list(self._terms)

    # mutation

    def insert(self, t: Triple) -> bool:
        """Insert a triple; True iff it was not already present."""
        key = (self.intern(t.subject), self.intern(t.predicate),
               self.intern(t.object))
        if self._base.n and self._base.has(key):
            if key not in self._dead:
                return False
            self._dead.remove(key)
        elif not self._delta.add(key):
            return False
        if self._derived:
            self._derived.clear()
        return True

    def add_ids(self, rows: Iterable[tuple[int, int, int]]) -> int:
        """Add id triples whose ids `intern` gave out and whose predicate is
        an IRI and subject not a literal; how many were not yet stored.

        The base is built again from the stored triples and `rows`, and the
        delta and tombstones start empty.
        """
        before = len(self)
        if before:
            rows = chain(self.id_rows(), rows)
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64)
        self._base = _Base(flat.reshape(-1, 3), len(self._terms))
        self._delta = _Delta()
        self._dead = set()
        added = len(self) - before
        if added and self._derived:
            self._derived.clear()
        return added

    def add(self, subject: Term, predicate: Term, object: Term) -> bool:
        return self.insert(Triple(subject, predicate, object))

    def remove(self, t: Triple) -> bool:
        """Remove a triple; False (and no change) if absent."""
        key = (self.term_id(t.subject), self.term_id(t.predicate),
               self.term_id(t.object))
        if not self._delta.discard(key):
            if key in self._dead or not self._base.has(key):
                return False
            self._dead.add(key)
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
        return self._base.n - len(self._dead) + self._delta.n

    def __contains__(self, t: Triple) -> bool:
        return bool(self.match_ids(self.term_id(t.subject),
                                   self.term_id(t.predicate),
                                   self.term_id(t.object)))

    def __iter__(self) -> Iterator[Triple]:
        for s, p, o in self.id_rows():
            yield Triple(self._terms[s], self._terms[p], self._terms[o])

    def id_rows(self) -> list[tuple[int, int, int]]:
        """The stored id triples, sorted: the order iteration yields.

        The base and the delta are each read in sorted order, so this is
        one merge of two sorted runs.
        """
        rows = self._base.rows()
        if self._dead:
            rows = [row for row in rows if row not in self._dead]
        if not self._delta.n:
            return rows
        if not rows:
            return self._delta.rows()
        rows += self._delta.rows()
        rows.sort()
        return rows

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
        base, delta = self._base, self._delta
        if s is not None and p is not None and o is not None:
            key = (s, p, o)
            if base.has(key):
                return [] if key in self._dead else [key]
            return [key] if delta.n and delta.has(key) else []
        if s is not None and p is not None:
            lo, hi = base.spo.span(s, p)
            third = base.spo.third
            rows = ([(s, p, third[lo])] if hi - lo == 1
                    else [(s, p, x) for x in third[lo:hi]])
        elif s is not None and o is not None:
            lo, hi = base.osp.span(o, s)
            third = base.osp.third
            rows = ([(s, third[lo], o)] if hi - lo == 1
                    else [(s, x, o) for x in third[lo:hi]])
        elif p is not None and o is not None:
            lo, hi = base.pos.span(p, o)
            third = base.pos.third
            rows = ([(third[lo], p, o)] if hi - lo == 1
                    else [(x, p, o) for x in third[lo:hi]])
        elif s is not None:
            rows = [(s, a, b) for a, b in base.spo.pairs(*base.spo.span(s))]
        elif p is not None:
            rows = [(b, p, a) for a, b in base.pos.pairs(*base.pos.span(p))]
        elif o is not None:
            rows = [(a, b, o) for a, b in base.osp.pairs(*base.osp.span(o))]
        else:
            rows = base.rows()
        if delta.n:
            rows += delta.match(s, p, o)
        if self._dead:
            rows = [row for row in rows if row not in self._dead]
        return rows

    def count_ids(self, s: Optional[int] = None, p: Optional[int] = None,
                  o: Optional[int] = None) -> int:
        """How many triples `match_ids` would return; read off the index
        sizes without building them while no base triple is removed."""
        if self._dead:
            return len(self.match_ids(s, p, o))
        n = self._base.count(s, p, o)
        return n + self._delta.count(s, p, o) if self._delta.n else n

    def copy(self) -> "Graph":
        """A graph of the same triples, its ids given out in id-row order."""
        g = Graph()
        terms, intern = self._terms, g.intern
        g.add_ids([(intern(terms[s]), intern(terms[p]), intern(terms[o]))
                   for s, p, o in self.id_rows()])
        return g

    def check_indexes(self) -> bool:
        """The base permutations hold one sorted, duplicate-free set, the
        delta indexes another, disjoint from it, the tombstones are base
        triples, and the sizes agree."""
        base = self._base
        spo, pos, osp = (base.spo.triples(), base.pos.triples(),
                         base.osp.triples())
        stored = set(spo)
        ordered = all(a < b for rows in (spo, pos, osp)
                      for a, b in zip(rows, rows[1:]))
        same = (base.rows() == spo and len(spo) == base.n
                and {(s, p, o) for p, o, s in pos} == stored
                and {(s, p, o) for o, s, p in osp} == stored)
        delta = self._delta
        return (ordered and same and delta.check() and self._dead <= stored
                and not any(map(delta.has, stored)))
