import copy
import itertools
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from helpers import copy_graph, split_graph
from oracles import DataclassTerm, DataclassTriple, random_graph
from onokg import kg
from onokg.kg import (Graph, PrefixTable, Term, Triple, UnknownPrefixError,
                      ValidationError, blank, iri, literal)
from onokg.ntriples import parse_ntriples
from onokg.ontology import ONO, ono


def t(s, p, o):
    return Triple(s, p, o)


class TestTerm:
    def test_iri_requires_scheme(self):
        with pytest.raises(ValidationError):
            iri("relative")

    @pytest.mark.parametrize("value, message", [
        ("a b", "relative IRI not allowed: <a b>"),
        ("a:x y", "invalid character in IRI: <a:x y>"),
        ('a:x"', 'invalid character in IRI: <a:x">'),
        ("a:<x", "invalid character in IRI: <a:<x>"),
        ("a:x>", "invalid character in IRI: <a:x>>"),
        # the names that `tests/oracles.random_graph` once planted
        (ONO + "Lesion\n", f"invalid character in IRI: <{ONO}Lesion\n>"),
        (ONO + "hasStage\n", f"invalid character in IRI: <{ONO}hasStage\n>"),
    ])
    def test_iri_rule(self, value, message):
        with pytest.raises(ValidationError) as info:
            iri(value)
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            literal("v", datatype=value)
        assert str(info.value) == message

    def test_iri_may_hold_a_tab_or_carriage_return(self):
        assert iri("a:x\ty\r").lexical == "a:x\ty\r"

    @pytest.mark.parametrize("label", ["", "a b", "a:b", "a.b", "x\n"])
    def test_blank_label_rule(self, label):
        with pytest.raises(ValidationError, match="invalid blank node label"):
            blank(label)
        assert blank("bé_-1").lexical == "bé_-1"

    @pytest.mark.parametrize("tag", ["", "en US", "en_US", "en\n"])
    def test_language_tag_rule(self, tag):
        with pytest.raises(ValidationError, match="invalid language tag"):
            literal("x", language=tag)
        assert literal("x", language="en-é").language == "en-é"

    def test_literal_datatype_language_exclusive(self):
        with pytest.raises(ValidationError):
            Term("literal", "x", datatype="a:b", language="en")

    def test_language_only_on_literals(self):
        with pytest.raises(ValidationError):
            Term("iri", "a:b", language="en")

    def test_equality_is_structural(self):
        assert literal("5") != literal("5", datatype="a:int")
        assert literal("x", language="en") != literal("x", language="de")
        assert iri("a:b") == iri("a:b")

    def test_local_name(self):
        assert ono("TP53").local_name() == "TP53"
        assert iri("http://x.org/a/b").local_name() == "b"
        assert iri("urn:x").local_name() == "x"


class TestTriple:
    def test_literal_subject_rejected(self):
        with pytest.raises(ValidationError, match="subject"):
            t(literal("v"), iri("a:p"), iri("a:o"))

    def test_non_iri_predicate_rejected(self):
        with pytest.raises(ValidationError, match="predicate"):
            t(iri("a:s"), blank("b"), iri("a:o"))

    def test_blank_subject_allowed(self):
        t(blank("b0"), iri("a:p"), literal("v"))


class TestTuples:
    """Terms and Triples are validated tuples: they equal, hash and order
    as the plain tuples of their fields, and a copy or an unpickle runs the
    checks again."""

    FIELDS = {iri("a:b"): ("iri", "a:b", None, None),
              literal("x"): ("literal", "x", None, None),
              literal("5", datatype="a:int"): ("literal", "5", "a:int", None),
              literal("x", language="en"): ("literal", "x", None, "en"),
              blank("b0"): ("blank", "b0", None, None)}
    TERMS = list(FIELDS)
    TRIPLES = [t(iri("a:s"), iri("a:p"), literal("v", language="en")),
               t(blank("b0"), iri("a:p"), iri("a:o"))]

    def test_term_is_the_tuple_of_its_fields(self):
        for term, fields in self.FIELDS.items():
            assert (term.kind, term.lexical, term.datatype,
                    term.language) == fields
            assert term == fields and tuple(term) == fields
            assert hash(term) == hash(fields)
            assert {fields: 1}[term] == 1

    def test_triple_is_the_tuple_of_its_terms(self):
        for triple in self.TRIPLES:
            terms = (triple.subject, triple.predicate, triple.object)
            assert triple == terms and hash(triple) == hash(terms)
            assert triple in {terms} and terms in {triple}
            assert list(triple) == list(terms)

    def test_hashes_are_tuple_hashes(self):
        # the hash runs in C; a Python-level __hash__ would cost a call
        # and a tuple per hash on every intern and lookup
        assert Term.__hash__ is tuple.__hash__
        assert Triple.__hash__ is tuple.__hash__
        assert Term.__eq__ is tuple.__eq__ and Triple.__eq__ is tuple.__eq__

    def test_terms_sort_as_tuples(self):
        assert sorted([iri("a:c"), blank("z"), literal("y"), iri("a:b")]) \
            == [blank("z"), iri("a:b"), iri("a:c"), literal("y")]
        # None against a string, as a tuple comparison raises
        with pytest.raises(TypeError):
            sorted([literal("x"), literal("x", language="en")])
        with pytest.raises(TypeError):
            literal("x", datatype="a:int") < literal("x", language="en")

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        *(lambda x, p=p: pickle.loads(pickle.dumps(x, p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_copies_and_pickles_round_trip(self, clone):
        for value in self.TERMS + self.TRIPLES:
            twin = clone(value)
            assert twin == value and type(twin) is type(value)
            assert hash(twin) == hash(value) and repr(twin) == repr(value)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_a_pickled_invalid_tuple_does_not_load(self, protocol):
        # the same bytes with the IRI's ':' made a space: loading calls
        # Term(...) again, which rejects it, whatever the protocol
        data = pickle.dumps(iri("a:xy"), protocol)
        assert data.count(b"a:xy") == 1
        forged = data.replace(b"a:xy", b"a xy")
        with pytest.raises(ValidationError,
                           match="relative IRI not allowed"):
            pickle.loads(forged)

    def test_insert_of_a_plain_tuple_builds_no_triple(self, monkeypatch):
        writes = []
        insert = Graph.insert

        def traced(graph, triple):
            writes.append(triple)
            return insert(graph, triple)

        def no_triple(*_args):
            raise AssertionError("a Triple was built")

        monkeypatch.setattr(Graph, "insert", traced)
        monkeypatch.setattr(Triple, "__new__", no_triple)
        g = Graph()
        assert g.insert((iri("a:s"), iri("a:p"), literal("v"))) is True
        assert g.insert((iri("a:s"), iri("a:p"), literal("v"))) is False
        assert g.insert((iri("a:s"), iri("a:q"), blank("b"))) is True
        assert (iri("a:s"), iri("a:q"), blank("b")) in g
        assert writes == [(iri("a:s"), iri("a:p"), literal("v"))] * 2 + [
            (iri("a:s"), iri("a:q"), blank("b"))]
        assert len(g) == 2


def construction_error(build, *args):
    """The message of the ValidationError that `build(*args)` raises, or
    None if it returns."""
    try:
        build(*args)
    except ValidationError as exc:
        return str(exc)
    return None


# hostile text: every character some term rule is about, and a few others;
# about half of it holds a ':', as an absolute IRI does
_TEXT = st.text(st.sampled_from(list('ab:_-é1 "<>\n\t\r#/\\.@^')),
                max_size=6)
_IRI_TEXT = st.one_of(_TEXT, st.builds("{}:{}".format, _TEXT, _TEXT))


def _term_args():
    """(kind, lexical, datatype, language): about half valid terms of each
    kind, half an unknown kind, text that breaks one rule, or fields that
    do not go together."""
    word = st.from_regex(r"[a-zé0-9_-]{1,5}", fullmatch=True)
    valid = st.one_of(
        st.builds(lambda w: ("iri", "a:" + w, None, None), word),
        st.builds(lambda w: ("blank", w, None, None), word),
        st.tuples(st.just("literal"), _TEXT, st.sampled_from(
            [None, "a:int"]), st.none()),
        st.tuples(st.just("literal"), _TEXT, st.none(),
                  st.sampled_from(["en", "en-GB"])))
    hostile = st.one_of(
        st.tuples(st.sampled_from(["iri", "literal", "blank", "uri", ""]),
                  _IRI_TEXT, st.one_of(st.none(), _IRI_TEXT),
                  st.one_of(st.none(), st.sampled_from(["en", "en-GB"]),
                            _TEXT)),
        st.tuples(st.just("literal"), _TEXT, st.none(), _TEXT))
    return st.booleans().flatmap(lambda ok: valid if ok else hostile)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_term_args())
def test_term_validation_matches_the_dataclass_oracle(args):
    expected = construction_error(DataclassTerm, *args)
    assert construction_error(Term, *args) == expected
    if expected is None:
        fields = DataclassTerm(*args)
        assert Term(*args) == (fields.kind, fields.lexical, fields.datatype,
                               fields.language)


_SOME_TERMS = [iri("a:s"), iri("a:p"), literal("v"), literal("v", "a:int"),
               literal("v", language="en"), blank("b0")]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.tuples(*[st.sampled_from(_SOME_TERMS)] * 3),
       st.sampled_from(["insert", "insert_triple"]))
def test_triple_validation_matches_the_dataclass_oracle(terms, write):
    expected = construction_error(DataclassTriple, *terms)
    assert construction_error(Triple, *terms) == expected
    # a write of the plain tuple checks the same rules, and a rejected one
    # changes neither the triples nor the term list
    g = Graph()
    g.insert((iri("a:x"), iri("a:p"), literal("v")))
    before = (g.id_table().tolist(), g.terms(), len(g))
    writes = {"insert": lambda: g.insert(terms),
              "insert_triple": lambda: g.insert(Triple(*terms))}
    assert construction_error(writes[write]) == expected
    if expected is None:
        assert terms in g and Triple(*terms) in g
    else:
        assert (g.id_table().tolist(), g.terms(), len(g)) == before


class TestGraph:
    def test_insert_reports_novelty(self):
        g = Graph()
        triple = t(ono("TP53"), ono("causes"), ono("BRCA"))
        assert g.insert(triple) is True
        assert g.insert(triple) is False
        assert len(g) == 1

    def test_terms_are_those_in_use(self):
        # the term list is the terms of the stored triples, in id order:
        # inserts and `add_ids` intern only the terms of the rows they
        # store, and a parse interns nothing for a line it rejects
        def stored(g):
            return sorted({term for triple in g.match() for term in triple},
                          key=g.term_id)

        g = Graph()
        for _ in range(2):
            g.insert(t(iri("a:s"), iri("a:p"), literal("v")))
        assert g.terms() == stored(g) == [iri("a:s"), iri("a:p"),
                                          literal("v")]
        g.add_ids([g.intern(term) for term in
                   (iri("a:o"), iri("a:q"), blank("n"))])
        assert g.terms() == stored(g) == [iri("a:s"), iri("a:p"),
                                          literal("v"), iri("a:o"),
                                          iri("a:q"), blank("n")]
        # a slice whose lines all match the line pattern but hold a token
        # that makes no Term, then one with lines that do not match
        for text in ('<a:s> <a:p> "v" .\n<a:s> <a:p> <a:bad iri> .\n'
                     '<a:s> <a:q> <a:o> .\n',
                     '<a:s> <a:p> "v" .\n"lit" <a:p> <a:x> .\n'
                     '<a:s> _:n <a:y> .\n<a:s> <a:p> <a:z> junk\n'
                     '<a:s> <a:q> <a:o> .\n'):
            result = parse_ntriples(text)
            assert result.issues and len(result.graph) == 2
            assert result.graph.terms() == stored(result.graph) == [
                iri("a:s"), iri("a:p"), literal("v"), iri("a:q"),
                iri("a:o")]

    def test_cached_value_lives_until_a_change(self):
        g = Graph()
        first = t(iri("a:s"), iri("a:p"), iri("a:o"))
        second = t(iri("a:s"), iri("a:p"), iri("a:o2"))
        g.insert(first)
        builds = []

        def size(graph):
            builds.append(len(graph))
            return len(graph)

        assert g.cached(size) == g.cached(size) == 1
        g.insert(first)    # already present: no change
        assert g.cached(size) == 1 and builds == [1]
        g.insert(second)
        assert g.cached(size) == 2
        assert builds == [1, 2]
        assert copy_graph(g).cached(size) == 2 and builds == [1, 2, 2]

    def test_match_bound_positions(self):
        g = Graph()
        g.insert(t(ono("TP53"), ono("causes"), ono("BRCA")))
        g.insert(t(ono("TP53"), ono("hasType"), ono("POTSF")))
        g.insert(t(ono("RB1"), ono("causes"), ono("BLCA")))
        subject_hits = g.match(ono("TP53"), None, None)
        assert {(x.predicate, x.object) for x in subject_hits} == {
            (ono("causes"), ono("BRCA")), (ono("hasType"), ono("POTSF"))}
        assert len(g.match(None, ono("causes"), None)) == 2
        assert g.match(None, None, ono("BLCA"))[0].subject == ono("RB1")
        assert g.match(iri("a:absent"), None, None) == []

    def test_match_empty_graph(self):
        assert Graph().match() == []

    def test_match_is_id_sorted_and_deterministic(self):
        g = Graph()
        triples = [t(iri(f"a:s{i}"), iri("a:p"), iri(f"a:o{i}"))
                   for i in range(10)]
        for trip in reversed(triples):
            g.insert(trip)
        assert g.match(None, iri("a:p"), None) == \
            g.match(None, iri("a:p"), None)

    def test_dictionary_bijection(self):
        g = Graph()
        terms = [ono("TP53"), literal("x"), blank("b"),
                 literal("5", datatype="a:int")]
        for term in terms:
            tid = g.intern(term)
            assert g.term(tid) == term
            assert g.term_id(term) == tid

    def test_index_coherence_on_seed(self, seed_graph):
        assert seed_graph.check_indexes()


def test_only_indexed_reads_fold_the_buffer():
    # the reads the ontology API, ingest and save make keep the insert
    # buffer, and so do membership, the term list and `match`; the column
    # readers fold it into a new base and leave the published (base,
    # buffer) pair as it was
    from onokg.ontology import build_seed_ontology
    g = build_seed_ontology()
    published = g._store
    rows = g.id_table().tolist()
    first = g.match()[0]
    assert g.insert(first) is False and first in g and len(g) == len(rows)
    assert set(g.terms()) == {term for triple in g.match() for term in triple}
    assert set(copy_graph(g).match()) == set(g.match())
    assert g._store is published
    p = rows[0][1]
    reads = ([lambda g: g.columns(), lambda g: g.edges(p)]
             + [lambda g, k=k: g.key_ids(k) for k in range(3)])
    for read in reads:
        g = build_seed_ontology()
        base, buffer = published = g._store
        read(g)
        assert g._store[0].n == len(rows) and not g._store[1]
        assert g._store[0] is not base and g._store[1] is not buffer
        assert published == (base, buffer) and base.n == 0
        assert sorted(map(list, buffer)) == rows
        assert g.id_table().tolist() == rows and g.check_indexes()


def test_columns_are_read_only_views_of_each_permutation():
    from onokg.ontology import build_seed_ontology
    g = build_seed_ontology()
    rows = g.id_table().tolist()
    off, second, third = g.columns()
    assert not any(view.flags.writeable for view in (off, second, third))
    got = [[a, second[i], third[i]] for a in range(len(off) - 1)
           for i in range(off[a], off[a + 1])]
    assert got == rows
    got = [[s, p, o] for p in g.key_ids(1)
           for s, o in zip(*(column.tolist() for column in g.edges(p)))]
    assert got == sorted(rows, key=lambda row: (row[1], row[2], row[0]))
    with pytest.raises(ValueError):
        g.columns()[1][0] = 0
    # no caller can turn writes back on through a view
    handed_out = [*g.columns(),
                  *(array for p in g.key_ids(1) for array in g.edges(p))]
    for array in handed_out:
        assert len(array)
        with pytest.raises(ValueError):
            array.flags.writeable = True
    assert g.check_indexes()


def test_edges_match_the_predicate_scan_on_split_graphs():
    rng = np.random.default_rng(37)
    for _ in range(30):
        built = random_graph(rng, max_triples=80, planted=True)
        graph = split_graph(built, int(rng.integers(len(built))))
        # the last triple is buffered, so the first read must fold
        last = graph.term_id(built.match()[-1].predicate)
        rows = graph.id_table().tolist()
        first = graph.edges(last)
        assert last in graph.key_ids(1) and len(first[0])
        for position in range(3):
            assert graph.key_ids(position) == \
                sorted({row[position] for row in rows})
        size = len(graph.terms())
        for p in [-1, *range(size + 2)]:
            subjects, objects = graph.edges(p)
            assert subjects.dtype == objects.dtype == np.int64
            assert not (subjects.flags.writeable or objects.flags.writeable)
            pairs = sorted((o, s) for s, q, o in rows if q == p)
            assert list(zip(objects.tolist(), subjects.tolist())) == pairs
            if p == last:
                assert all(np.array_equal(a, b)
                           for a, b in zip(first, (subjects, objects)))
        with pytest.raises(ValueError):
            first[0][0] = 0
        with pytest.raises(ValueError):
            first[1][0] = 0


def test_match_equals_the_scan_on_split_graphs():
    # every bound/unbound shape, each bound position a Term in use there,
    # one never interned, or one only ever seen in another position. The
    # scan reads the built graph's id table; `match` reads the split
    # graph's (base, buffer) pair as it is, so it never folds
    rng = np.random.default_rng(43)
    absent = iri("a:absent")
    for _ in range(30):
        built = random_graph(rng, max_triples=60, planted=True)
        triples = [Triple(*map(built.term, row))
                   for row in built.id_table().tolist()]
        graph = split_graph(built, int(rng.integers(1, len(built) + 1)))
        used = {term for triple in triples for term in triple}
        choices = []
        for position in range(3):
            here = sorted({x[position] for x in triples}, key=graph.term_id)
            elsewhere = sorted(used - set(here), key=graph.term_id)
            choices.append([None, absent, here[rng.integers(len(here))],
                            elsewhere[rng.integers(len(elsewhere))]])
        store = graph._store
        for pattern in itertools.product(*choices):
            expected = sorted(
                (x for x in triples
                 if all(b in (None, v) for b, v in zip(pattern, x))),
                key=lambda x: tuple(map(graph.term_id, x)))
            assert graph.match(*pattern) == expected
        assert graph._store is store
        assert graph.match() == sorted(
            triples, key=lambda x: tuple(map(graph.term_id, x)))


# the fewest terms whose packed row key, (s * size + p) * size + o, could
# overflow int64: 2**21, since (2**21)**3 == 2**63
PACKED_LIMIT = 2_097_152


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_packed_order_matches_lexsort(data):
    # at the largest size that packs, ids near size - 1 give keys just
    # below 2**63, so a key built in a narrower type overflows; one more
    # term forces the lexsort fallback. Every row over the ids 0, 1,
    # size - 2 and size - 1 is in each case, so two rows whose keys a
    # wrong packing makes equal, such as (0, 0, size - 1) and (0, 1, 0),
    # meet in a drawn order
    size = data.draw(st.sampled_from([PACKED_LIMIT - 1, PACKED_LIMIT]))
    ids = st.one_of(st.integers(0, 2), st.integers(size - 3, size - 1),
                    st.integers(0, size - 1))
    drawn = data.draw(st.lists(st.tuples(ids, ids, ids), max_size=30))
    grid = list(itertools.product([0, 1, size - 2, size - 1], repeat=3))
    rows = np.array(drawn + grid, dtype=np.int64)
    rows = np.concatenate((rows, rows[:data.draw(
        st.integers(0, len(rows)))]))
    rows = rows[data.draw(st.permutations(range(len(rows))))]
    s, p, o = rows.T
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        order = kg._order(s, p, o, size)
    assert lexsort.called is (size >= PACKED_LIMIT)
    assert order.tolist() == np.lexsort((o, p, s)).tolist()

    base = kg._Base(rows.ravel(), size)
    graph = Graph()
    graph._store = (base, {})
    assert graph.check_indexes()
    spo = np.unique(rows, axis=0)
    pos = spo[np.lexsort((spo[:, 0], spo[:, 2], spo[:, 1]))][:, [1, 2, 0]]
    assert base.n == len(spo)
    assert base.spo.table().tolist() == spo.tolist()
    assert base.pos.table().tolist() == pos.tolist()
    assert len(base.spo.off) == len(base.pos.off) == size + 1


# pools kept tiny so patterns actually overlap
_SUBJECTS = [iri("a:s1"), iri("a:s2"), blank("n1")]
_PREDICATES = [iri("a:p1"), iri("a:p2")]
_OBJECTS = [iri("a:o1"), literal("v"), literal("5", datatype="a:int"),
            blank("n1")]

triples_strategy = st.lists(
    st.builds(Triple,
              st.sampled_from(_SUBJECTS),
              st.sampled_from(_PREDICATES),
              st.sampled_from(_OBJECTS)),
    max_size=30)


@settings(max_examples=100, deadline=None)
@given(triples_strategy)
def test_match_equals_linear_scan(triples):
    g = Graph()
    for triple in triples:
        g.insert(triple)
    assert g.check_indexes()
    patterns = itertools.product([None] + _SUBJECTS, [None] + _PREDICATES,
                                 [None] + _OBJECTS)
    all_triples = set(triples)
    for s, p, o in patterns:
        expected = [x for x in all_triples
                    if (s is None or x.subject == s)
                    and (p is None or x.predicate == p)
                    and (o is None or x.object == o)]
        assert sorted(g.match(s, p, o), key=repr) == \
            sorted(expected, key=repr)


_POOL_TRIPLES = [Triple(s, p, o) for s in _SUBJECTS for p in _PREDICATES
                 for o in _OBJECTS]


def _snapshot(graph):
    return frozenset(map(tuple, graph.id_table().tolist()))


class GraphMachine(RuleBasedStateMachine):
    """`Graph` against a plain set of triples, through every write path:
    single inserts and bulk `add_ids` (which builds the sorted base, or
    rebuilds it on a non-empty graph), and copies of the graph. With so
    few terms, inserts often hit triples of the base."""

    def __init__(self):
        super().__init__()
        self.graph = Graph()
        self.model: set[Triple] = set()

    @rule(triple=st.sampled_from(_POOL_TRIPLES))
    def insert(self, triple):
        assert self.graph.insert(triple) is (triple not in self.model)
        self.model.add(triple)

    @rule(triples=st.lists(st.sampled_from(_POOL_TRIPLES), max_size=12))
    def add_ids(self, triples):
        g = self.graph
        ids = [g.intern(term) for triple in triples for term in triple]
        assert g.add_ids(ids) == len(set(triples) - self.model)
        self.model.update(triples)

    @rule()
    def copy(self):
        before = self.graph.terms()
        self.graph = copy_graph(self.graph)
        assert set(self.graph.terms()) == set(before)

    @invariant()
    def agrees_with_model(self):
        g = self.graph
        ids = {(g.term_id(s), g.term_id(p), g.term_id(o))
               for s, p, o in self.model}
        assert g.check_indexes()
        assert len(g) == len(ids)
        assert list(map(tuple, g.id_table().tolist())) == sorted(ids)
        assert g.cached(_snapshot) == ids  # a stale memo would differ
        assert all((t in g) is (t in self.model) for t in _POOL_TRIPLES)
        used = {term for triple in self.model for term in triple}
        assert g.terms() == sorted(used, key=g.term_id)
        # `match` of every bound/unbound shape, with Terms in use, one
        # never interned and one only ever seen in another position, in id
        # order and without a fold
        def keys(terms, other):
            return [None, iri("a:absent")] + terms + [other]
        store = g._store
        for pattern in itertools.product(
                keys(_SUBJECTS, literal("v")), keys(_PREDICATES, iri("a:s1")),
                keys(_OBJECTS, iri("a:p1"))):
            bound = [None if x is None else g.term_id(x) for x in pattern]
            expected = sorted(row for row in ids if all(
                b in (None, v) for b, v in zip(bound, row)))
            got = g.match(*pattern)
            assert [tuple(map(g.term_id, x)) for x in got] == expected
        assert g._store is store


TestGraphMachine = GraphMachine.TestCase
TestGraphMachine.settings = settings(max_examples=60, stateful_step_count=25,
                                     derandomize=True, deadline=None)


@settings(max_examples=60, deadline=None)
@given(triples_strategy)
def test_insert_remove_idempotence(triples):
    g = Graph()
    for triple in triples:
        g.insert(triple)
    count = len(g)
    for triple in triples:
        assert g.insert(triple) is False
    assert len(g) == count


class TestPrefixTable:
    def test_expand(self):
        table = PrefixTable({"ono": ONO})
        assert table.expand("ono:TP53") == ono("TP53")

    def test_unknown_prefix_names_it(self):
        table = PrefixTable()
        with pytest.raises(UnknownPrefixError, match="xyz"):
            table.expand("xyz:Foo")

    def test_empty_local_part(self):
        table = PrefixTable({"ono": ONO})
        assert table.expand("ono:") == iri(ONO)


def test_concurrent_readers_see_consistent_results(seed_graph):
    # reader-or-writer contract: many readers may share one graph value,
    # also a fresh insert-built one, whose first indexed read (`key_ids`)
    # folds its buffer. Thread 0 reads at once and folds; the others poll
    # `len` for a while first, so some of them read while a fold publishes.
    # Each call into the store pauses first, which widens every gap between
    # two steps of a fold, as a preemptive scheduler might.
    import sys
    import threading
    import time
    from onokg.ontology import SCHEMA, build_seed_ontology

    def read(graph):
        return (len(graph), graph.id_table().tolist(),
                [t.subject for t in graph.match(None, SCHEMA.has_type,
                                                SCHEMA.potsf)],
                graph.key_ids(1))

    def pause(frame, event, _arg):
        if event == "call" and frame.f_globals.get("__name__") == "onokg.kg":
            time.sleep(1e-4)

    def race(graph):
        outputs = [None] * 8
        start = threading.Barrier(8, timeout=60)

        def run(slot):
            sys.setprofile(pause)
            start.wait()
            polled = {len(graph) for _ in range(30 * slot)}
            outputs[slot] = (polled, [read(graph) for _ in range(3)])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        return outputs

    expected = read(build_seed_ontology())
    assert len(expected[2]) == 83
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [race(seed_graph)] + [race(build_seed_ontology())
                                     for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for outputs in runs:
        for polled, reads in outputs:
            assert polled <= {expected[0]} and reads == [expected] * 3
