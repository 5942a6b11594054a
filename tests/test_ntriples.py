import errno
import os
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (_NtScanner, parse_ntriples_scan,
                     serialize_ntriples_scan)
from onokg import ntriples
from onokg.kg import (Graph, KgError, Triple, ValidationError, blank, iri,
                      literal)
from onokg.ntriples import (EncodingError, parse_ntriples, read_text,
                            rendered_rows, save_file, serialize_ntriples)


class TestParse:
    def test_minimal_line(self):
        result = parse_ntriples('<a:s> <a:p> "v" .')
        assert result.ok
        (triple,) = result.graph.match()
        assert triple.object == literal("v")

    def test_datatype_and_language(self):
        result = parse_ntriples(
            '<a:s> <a:p> "5"^^<a:int> .\n<a:s> <a:p> "x"@en .')
        assert result.ok
        objects = {t.object for t in result.graph.match()}
        assert literal("5", datatype="a:int") in objects
        assert literal("x", language="en") in objects

    def test_escapes(self):
        result = parse_ntriples('<a:s> <a:p> "a\\"b\\\\c\\nd\\te" .')
        assert result.ok
        (triple,) = result.graph.match()
        assert triple.object.lexical == 'a"b\\c\nd\te'

    def test_an_unsupported_escape_is_reported_first(self):
        # before a missing quote, a datatype that is no IRI, an
        # unterminated datatype IRI, an empty language tag and a bad
        # datatype IRI
        text = "\n".join(f'<a:s> <a:p> "a\\rb{rest} .' for rest in
                         ("", '"^^x', '"^^<a:int', '"@', '"^^<a int>'))
        result = parse_ntriples(text)
        assert [str(issue) for issue in result.issues] == [
            f"line {n}: unsupported escape \\r" for n in range(1, 6)]
        _assert_matches_oracle(text)

    def test_comments_and_blank_lines(self):
        result = parse_ntriples('# header\n\n<a:s> <a:p> <a:o> .\n')
        assert result.ok and len(result.graph) == 1

    def test_blank_nodes_renamed_fresh(self):
        result = parse_ntriples('_:x <a:p> _:y .\n_:y <a:p> _:x .')
        assert result.ok
        labels = {t.subject.lexical for t in result.graph.match()}
        assert labels == {"b0", "b1"}
        assert len(result.graph) == 2

    def test_rejected_line_takes_no_blank_label(self):
        # a literal subject or a non-IRI predicate rejects the line before
        # its blank nodes are labelled, so the next blank node is b0
        for rejected in ('"v" <a:p> _:y .', '_:y _:q <a:o> .'):
            text = f"{rejected}\n_:x <a:p> <a:o> ."
            result = parse_ntriples(text)
            assert [issue.line for issue in result.issues] == [1]
            assert result.graph.match() == [Triple(blank("b0"), iri("a:p"),
                                                   iri("a:o"))]
            _assert_matches_oracle(text)

    def test_missing_terminator_reports_line(self):
        result = parse_ntriples('<a:s> <a:p> <a:o> .\n<a:s> <a:p> <a:o>')
        assert len(result.issues) == 1
        assert result.issues[0].line == 2
        assert "terminator" in result.issues[0].message

    def test_arity_violation_recovers(self):
        text = '<a:s> <a:p> .\n<a:s> <a:p> "kept" .'
        result = parse_ntriples(text)
        assert len(result.issues) == 1
        assert result.issues[0].line == 1
        assert len(result.graph) == 1

    def test_unterminated_literal(self):
        result = parse_ntriples('<a:s> <a:p> "never ends .')
        assert "unterminated literal" in result.issues[0].message

    def test_relative_iri(self):
        result = parse_ntriples('<relative> <a:p> <a:o> .')
        assert "relative IRI" in result.issues[0].message

    def test_literal_subject(self):
        result = parse_ntriples('"v" <a:p> <a:o> .')
        assert result.issues and len(result.graph) == 0

    def test_non_iri_predicate(self):
        result = parse_ntriples('<a:s> "p" <a:o> .')
        assert result.issues

    def test_all_errors_reported(self):
        text = "\n".join(['<a:s> <a:p> .',
                          '<a:s> <a:p> <a:o> .',
                          '<bad> <a:p> <a:o> .',
                          '<a:s> <a:p> "v" .'])
        result = parse_ntriples(text)
        assert [i.line for i in result.issues] == [1, 3]
        assert len(result.graph) == 2

    def test_strict_raises(self):
        result = parse_ntriples('<a:s> <a:p> .')
        assert [str(issue) for issue in result.issues] == [
            "line 1: unexpected character '.', expected a term"]

    def test_each_parse_starts_a_fresh_graph(self):
        # Parsing into an existing graph used to hand out b0 again, which
        # merged the new blank node with the graph's own _:b0.
        first = parse_ntriples("_:a <a:p> <a:o> .")
        assert first.ok
        existing = first.graph
        with pytest.raises(TypeError):
            parse_ntriples("_:x <a:q> <a:o> .", graph=existing)
        result = parse_ntriples("_:x <a:q> <a:o> .")
        assert result.graph is not existing
        assert result.graph.match() == [Triple(blank("b0"), iri("a:q"),
                                               iri("a:o"))]
        assert existing.match() == [Triple(blank("b0"), iri("a:p"),
                                           iri("a:o"))]

    def test_repeated_tokens_share_one_id(self):
        result = parse_ntriples('<a:s> <a:p> "x\ty" .\n'
                                '<a:s> <a:p> "x\\ty" .\n'
                                '<a:s>\t<a:p>"x\ty".# same triple\n'
                                '_:n <a:p> <a:s> .\n_:n <a:p> <a:s> .')
        assert result.ok
        g = result.graph
        assert len(g) == 2
        assert list(g.terms()) == [iri("a:s"), iri("a:p"),
                                   literal("x\ty"), blank("b0")]


class TestSave:
    def test_failed_write_keeps_target(self, tmp_path, failing_writes,
                                       seed_graph):
        target = tmp_path / "kg.nt"
        target.write_bytes(b"<a:s> <a:p> <a:o> .\n")
        with pytest.raises(OSError, match="No space"):
            save_file(seed_graph, target)
        assert target.read_bytes() == b"<a:s> <a:p> <a:o> .\n"
        assert os.listdir(tmp_path) == ["kg.nt"]

    def test_failed_write_creates_nothing(self, tmp_path, failing_writes,
                                          seed_graph):
        with pytest.raises(OSError):
            save_file(seed_graph, tmp_path / "new.nt")
        assert os.listdir(tmp_path) == []

    def test_replaces_through_symlink_keeping_mode(self, tmp_path,
                                                   seed_graph):
        real = tmp_path / "real.nt"
        real.write_text("old\n", encoding="utf-8")
        real.chmod(0o640)
        link = tmp_path / "link.nt"
        link.symlink_to(real)
        save_file(seed_graph, link)
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == \
            serialize_ntriples(seed_graph)
        assert real.stat().st_mode & 0o777 == 0o640
        assert sorted(os.listdir(tmp_path)) == ["link.nt", "real.nt"]

    def test_write_failing_after_first_chunk_keeps_target(
            self, tmp_path, monkeypatch, seed_graph):
        monkeypatch.setattr(ntriples, "CHUNK_LINES", 50)
        assert len(seed_graph) > 3 * ntriples.CHUNK_LINES
        written = []

        class FailsOnSecondChunk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                if written:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(chunk)
                self.fh.write(chunk)

        def failing_open(file, mode="r", **kwargs):
            return FailsOnSecondChunk(open(file, mode, **kwargs))

        monkeypatch.setattr(ntriples, "open", failing_open, raising=False)
        target = tmp_path / "kg.nt"
        target.write_bytes(b"<a:s> <a:p> <a:o> .\n")
        with pytest.raises(OSError, match="No space"):
            save_file(seed_graph, target)
        assert written[0].count("\n") == ntriples.CHUNK_LINES
        assert target.read_bytes() == b"<a:s> <a:p> <a:o> .\n"
        assert os.listdir(tmp_path) == ["kg.nt"]

    def test_error_names_the_target_only(self, tmp_path, seed_graph):
        target = tmp_path / "missing" / "kg.nt"
        with pytest.raises(OSError) as caught:
            save_file(seed_graph, target)
        prefix = f"cannot write {target}: "
        text = str(caught.value)
        assert text.startswith(prefix)
        assert str(tmp_path) not in text[len(prefix):]

    @pytest.mark.parametrize("chunk_lines", [1, 7, 64])
    def test_chunked_save_equals_serialization(self, tmp_path, monkeypatch,
                                               seed_graph, chunk_lines):
        expected = serialize_ntriples(seed_graph)
        monkeypatch.setattr(ntriples, "CHUNK_LINES", chunk_lines)
        assert serialize_ntriples(seed_graph) == expected
        # a graph of whole chunks ends exactly on a chunk boundary
        whole = parse_ntriples("".join(
            expected.splitlines(keepends=True)[:3 * chunk_lines])).graph
        for graph in (seed_graph, whole):
            target = tmp_path / "kg.nt"
            save_file(graph, target)
            assert target.read_bytes() == \
                serialize_ntriples(graph).encode("utf-8")
        assert target.read_bytes().count(b"\n") == 3 * chunk_lines


class TestReadText:
    def test_keeps_line_endings(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("a\r\nb\rc\n\u00e9".encode("utf-8"))
        assert read_text(path) == "a\r\nb\rc\n\u00e9"

    @pytest.mark.parametrize("name", ["missing.txt", "."])
    def test_os_error_names_the_file(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(OSError) as info:
            read_text(path)
        assert str(info.value).startswith(f"cannot read {path}: ")

    def test_bytes_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(EncodingError, match=f"{path} is not UTF-8"):
            read_text(path)
        assert issubclass(EncodingError, KgError)


class TestSerialize:
    def test_empty_graph(self, tmp_path):
        assert serialize_ntriples(Graph()) == ""
        save_file(Graph(), tmp_path / "kg.nt")
        assert (tmp_path / "kg.nt").read_bytes() == b""
        assert rendered_rows(Graph()) == []
        assert Graph().id_table().shape == (0, 3)

    def test_saving_does_not_fold(self, tmp_path):
        # a parsed base with two buffered inserts: every serializer reads
        # the (base, buffer) pair as it is and leaves the graph's state,
        # its derived values included, as it was
        g = parse_ntriples('<a:s> <a:p> <a:o> .\n<a:t> <a:p> "v" .\n').graph
        g.insert(Triple(iri("a:s"), iri("a:q"), literal("w")))
        g.insert(Triple(blank("n"), iri("a:p"), iri("a:o")))

        def build(graph):
            return object()
        derived = g.cached(build)
        store, keys = g._store, list(g._store[1])
        terms, size = g.terms(), len(g)
        text = serialize_ntriples(g)
        save_file(g, tmp_path / "kg.nt")
        rows = rendered_rows(g)
        assert g._store is store and list(store[1]) == keys
        assert (g.terms(), len(g)) == (terms, size)
        assert g.cached(build) is derived
        assert (tmp_path / "kg.nt").read_text(encoding="utf-8") == text
        assert text == "".join(f"{s} {p} {o} .\n" for s, p, o in rows)
        assert text.splitlines()[1] == '<a:s> <a:q> "w" .'

    def test_single_triple_single_line(self):
        g = Graph()
        g.insert(Triple(iri("a:s"), iri("a:p"), literal("v")))
        text = serialize_ntriples(g)
        assert text == '<a:s> <a:p> "v" .\n'

    def test_seed_round_trip(self, seed_graph):
        text = serialize_ntriples(seed_graph)
        result = parse_ntriples(text)
        assert result.ok
        reparsed = result.graph
        assert len(reparsed) == len(seed_graph)
        assert set(reparsed.match()) == set(seed_graph.match())

    def test_serialization_deterministic(self, seed_graph):
        assert serialize_ntriples(seed_graph) == \
            serialize_ntriples(seed_graph)


_terms = st.one_of(
    st.sampled_from([iri("a:s"), iri("a:o"), iri("b:x")]),
    st.builds(literal,
              st.text(alphabet='ab"\\\n\t Z', max_size=6),
              st.sampled_from([None, "a:int"])),
)
_subjects = st.sampled_from([iri("a:s"), iri("b:x")])
_predicates = st.sampled_from([iri("a:p"), iri("a:q")])


@settings(max_examples=120, deadline=None)
@given(st.lists(st.builds(Triple, _subjects, _predicates, _terms),
                max_size=25))
def test_round_trip_identity(triples):
    g = Graph()
    for triple in triples:
        g.insert(triple)
    result = parse_ntriples(serialize_ntriples(g))
    assert result.ok
    reparsed = result.graph
    assert set(reparsed.match()) == set(g.match())
    assert len(reparsed) == len(g)


def _made(make, *args):
    """`make(*args)`, or None where the term rule rejects it."""
    try:
        return make(*args)
    except ValidationError:
        return None


_hostile = st.text(st.sampled_from('ab:"<> \r\n\t\\\u2028\u00e9\u4e2d_-@^#.'),
                   max_size=6)
_iri_texts = st.builds(str.__add__, st.sampled_from(["a:", "", "h://x/#"]),
                       _hostile)
_hostile_iris = _iri_texts.map(lambda v: _made(iri, v))
_hostile_blanks = _hostile.map(lambda v: _made(blank, v))
_hostile_literals = st.builds(
    lambda v, dt, lang: _made(literal, v, dt, lang), _hostile,
    st.none() | _iri_texts, st.none() | _hostile)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_hostile_iris | _hostile_blanks, _hostile_iris,
                          _hostile_iris | _hostile_blanks | _hostile_literals),
                max_size=8))
def test_every_term_the_api_accepts_loads_back(rows):
    g = Graph()
    for row in rows:
        if None not in row:
            g.insert(Triple(*row))
    result = parse_ntriples(serialize_ntriples(g))
    assert result.ok, result.issues
    # the parser names blank nodes b0, b1, ... in the order the file
    # meets them, which is the graph's sorted order
    names = {}

    def renamed(term):
        if term.kind != "blank":
            return term
        return names.setdefault(term.lexical, blank(f"b{len(names)}"))
    assert set(result.graph.match()) == {Triple(renamed(s), p, renamed(o))
                                         for s, p, o in g.match()}
    assert len(result.graph) == len(g)


# Raw token texts, valid or not, for the token reader: IRIs, blank labels
# and quoted literals with any escape, datatype or language suffix, as well
# as the N-Triples form of a term the API accepts.
_raw = st.text(st.sampled_from('ab:"<\\ \té中_-@^#.nrt'), max_size=6)
_raw_iris = _raw.map("<{}>".format)
_raw_tokens = st.one_of(
    _raw_iris, _raw.map("_:".__add__),
    st.builds('"{}"{}'.format, _raw,
              st.sampled_from(["", "@en", "@en-GB", "@", "^^"])
              | _raw_iris.map("^^".__add__)),
    (_hostile_iris | _hostile_blanks | _hostile_literals).map(
        lambda term: term.n3() if term else "<a:x>"))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.tuples(_raw_tokens, _raw_tokens, _raw_tokens).map(
    lambda row: " ".join(row) + " ."))
@example('<a:s> <a:p> "a\tb" .')          # a raw tab inside the quotes
@example('<a:s> <a:p> "say \\"hi\\"" .')
@example('<a:s> <a:p> "a\\rb" .')        # an unsupported escape
@example('<a:s> <a:p> "v"^^<a:b"c> .')  # a datatype holding '"'
@example('_:x <a:p> "v"@en-GB .')
def test_a_token_makes_the_term_the_scanners_read(line):
    # every token that the line pattern cuts out makes the Term that both
    # scanners read from its text, ending at its end, or none of them does
    for token in filter(None, chain.from_iterable(
            ntriples._SLICE_LINE.findall(line))):
        term = _made(ntriples._token_term, token)
        scanner, oracle = ntriples._LineScanner(token), _NtScanner(token)
        assert _made(scanner.read_term) == _made(oracle.read_term) == term
        if term is not None:
            assert scanner.pos == oracle.pos == len(token)


@pytest.mark.parametrize("token, term", [
    ('"a\tb"', literal("a\tb")),
    ('"say \\"hi\\""', literal('say "hi"')),
    ('"a\\rb"', None),
    ('"v"^^<a:b"c>', None),
    ('"v"@en-GB', literal("v", language="en-GB")),
    ('"7"^^<a:int>', literal("7", "a:int")),
    ("_:x-1", blank("x-1")),
])
def test_a_token_of_each_shape_makes_its_term(token, term):
    rows = ntriples._SLICE_LINE.findall(f"<a:s> <a:p> {token} .")
    assert [row[2] for row in rows] == [token]
    assert _made(ntriples._token_term, token) == term


# Terms for the serializer's differential test: literals with every escape,
# a language tag, a datatype and astral code points, and blank nodes.
_ser_text = st.text(alphabet='a"\\\n\t \u00e9\U0001f600\U00010348', max_size=4)
_ser_nodes = st.sampled_from([iri("a:s"), iri("a:o"), iri("b:\U0001f600"),
                              blank("x"), blank("y")])
_ser_objects = _ser_nodes | st.builds(literal, _ser_text) | st.builds(
    literal, _ser_text, st.just("a:int")) | st.builds(
    lambda v, tag: literal(v, language=tag), _ser_text,
    st.sampled_from(["en", "en-GB"]))
_ser_rows = st.lists(st.tuples(_ser_nodes, st.sampled_from(
    [iri("a:p"), iri("a:q")]), _ser_objects), max_size=20)


@pytest.fixture(scope="module")
def save_target(tmp_path_factory):
    return tmp_path_factory.mktemp("serialize") / "kg.nt"


def _parsed(rows):
    """The graph parsed from `rows`, written a line each in their order,
    and its Term rows: blank labels renamed b0, b1, ... in the order the
    text meets them."""
    result = parse_ntriples(
        "".join(f"{s.n3()} {p.n3()} {o.n3()} .\n" for s, p, o in rows))
    assert result.ok, result.issues
    names = {}

    def renamed(term):
        if term.kind != "blank":
            return term
        return names.setdefault(term.lexical, blank(f"b{len(names)}"))
    return result.graph, [(renamed(s), p, renamed(o)) for s, p, o in rows]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_ser_rows, _ser_rows)
# a parsed base, then inserts whose ids sort between the base's rows
@example([(iri("a:s"), iri("a:p"), iri("a:o")),
          (iri("a:o"), iri("a:p"), literal("v"))],
         [(iri("a:s"), iri("a:q"), literal("w")),
          (iri("a:o"), iri("a:p"), iri("a:s"))])
def test_serialization_matches_scan_oracle(save_target, first, later):
    built = Graph()
    for row in first + later:
        built.insert(row)
    parsed, parsed_rows = _parsed(first + later)
    extended, extended_rows = _parsed(first)
    for row in later:
        extended.insert(row)
    # all buffer, all base, and a base with a buffer
    cases = [(built, first + later), (parsed, parsed_rows),
             (extended, extended_rows + later)]
    for graph, rows in cases:
        expected = serialize_ntriples_scan(graph, rows)
        store = graph._store
        # chunks of 1, 2 and 7 lines end inside a subject's run
        for chunk_lines in (1, 2, 7, ntriples.CHUNK_LINES):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ntriples, "CHUNK_LINES", chunk_lines)
                assert serialize_ntriples(graph) == expected
                save_file(graph, save_target)
                assert save_target.read_bytes() == expected.encode("utf-8")
        assert "".join(f"{s} {p} {o} .\n"
                       for s, p, o in rendered_rows(graph)) == expected
        assert graph._store is store


# Token pools for the differential test, (good, bad) per line position.
# Each text keeps a few good tokens per position, and a line draws from the
# bad pool of a position one time in ten. So most lines are valid and
# repeat tokens that earlier lines already read, and the faulty ones reuse
# those tokens around the fault.
_NT_POOLS = [
    (['', '', ' ', '\t'], ['\r']),
    (['<a:s>', '<a:s2>', '_:x', '_:y', '_:e-1', '_:\u00e91'],
     ['"v"', '"5"^^<x:int>', '<rel>', '_:', '<a:s', '<a: s>']),
    ([' ', ' ', '\t', '', '  '], []),
    (['<a:p>', '<a:q>'], ['_:x', '"v"', '<a"p>', '<rel>']),
    ([' ', ' ', '\t', '', '  '], []),
    (['<a:o>', '<a:s>', '_:x', '_:z', '"v"', '"v"@en', '"v"@en-GB',
      '"v"@\u00df', '"5"^^<x:int>', '"a\\"b"', '"t\\tb"', '"t\tb"',
      '"q\\\\"', '"n\\nl"', '"# not"', '"\\""'],
     ['"bad\\q"', '"open', '"x"@', '"x"^^y', '"x"^^<rel>', '<rel>',
      '<a:o b>', '"\\"']),
    ([' .', ' .', '.', ' . # note', '\t.\t', ' .  #x\r'],
     [' .\r', '', ' .x', ' . .', ' . <a:o>']),
]
_NT_OTHER = ['', '# comment', '  # indented', '\r', '   ', '\t# tab']


@st.composite
def _nt_text(draw):
    palette = [draw(st.lists(st.sampled_from(good), min_size=1, max_size=3))
               for good, _ in _NT_POOLS]
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(_NT_OTHER)))
            continue
        parts = []
        for (_, bad), good in zip(_NT_POOLS, palette):
            faulty = bad and draw(st.integers(0, 9)) == 0
            parts.append(draw(st.sampled_from(bad if faulty else good)))
        lines.append("".join(parts))
    return "\n".join(lines)


def _assert_matches_oracle(text):
    result = parse_ntriples(text)
    graph, issues = parse_ntriples_scan(text)
    assert [(i.line, i.message) for i in result.issues] == issues
    assert list(result.graph.terms()) == list(graph.terms())
    assert result.graph.id_table().tolist() == graph.id_table().tolist()
    assert serialize_ntriples(result.graph) == serialize_ntriples(graph)
    assert result.graph.check_indexes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_nt_text())
def test_parser_matches_scan_oracle(text):
    _assert_matches_oracle(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_nt_text())
def test_parser_matches_scan_oracle_across_slices(text):
    # slices of a few lines, so most texts span several
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ntriples, "SLICE_CHARS", 40)
        _assert_matches_oracle(text)


class TestSlices:
    """Texts cut into slices of two lines each, checked against the scan
    oracle, with the lines that take the line loop. A slice runs to the
    first line end at or after 40 characters, and every line here is
    padded to at least 20."""

    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        monkeypatch.setattr(ntriples, "SLICE_CHARS", 40)
        self.scanned = []
        read_line = ntriples._Parser.read_line

        def spy(parser, raw, lineno):
            self.scanned.append(lineno)
            return read_line(parser, raw, lineno)

        monkeypatch.setattr(ntriples._Parser, "read_line", spy)

    def check(self, lines, scanned, final_newline=True):
        lines = [line.ljust(20) for line in lines]
        assert max(map(len, lines)) < 40
        text = "\n".join(lines) + ("\n" if final_newline else "")
        _assert_matches_oracle(text)
        self.scanned.clear()
        parse_ntriples(text)
        assert self.scanned == scanned

    def test_clean_slice_then_bad_token(self):
        # the pattern takes <a:o b>; its Term does not
        self.check(['<a:s> <a:p> <a:o> .', '<a:s> <a:q> "v"@en .',
                    '<a:s> <a:p> <a:o2> .', '<a:s> <a:p> <a:o b> .',
                    '<a:s> <a:q> "v"@en .'], [4])

    def test_crlf_slice(self):
        self.check(['<a:s> <a:p> <a:o> .', '<a:s> <a:q> "v" .',
                    '<a:s> <a:p> <a:o2> .\r', '<a:s> <a:p> <a:o3> .\r',
                    '<a:s> <a:p> <a:o4> .', '<a:s> <a:p> <a:o2> .'], [3, 4])

    @pytest.mark.parametrize("bad", ['<a:s> <a:p> .',
                                     '<a:s> <a:p> <a:o b> .'])
    def test_one_bad_line_in_a_long_slice(self, monkeypatch, bad):
        # one slice of 10 lines, halved while most of its lines match:
        # lines 1-4 and 5-10, 5-6 and 7-10, 7 and 8-10, then 8 and 9-10
        monkeypatch.setattr(ntriples, "SLICE_CHARS", 200)
        lines = [f'<a:s> <a:p> "v{i}" .' for i in range(10)]
        lines[7] = bad
        self.check(lines, [8])

    def test_crlf_long_slice(self, monkeypatch):
        # no line of a CRLF slice matches, so each takes the line loop
        monkeypatch.setattr(ntriples, "SLICE_CHARS", 200)
        self.check([f'<a:s> <a:p> "v{i}" .\r' for i in range(10)],
                   list(range(1, 11)))

    def test_slice_of_comments(self):
        # a comment or blank line (`check` pads it with spaces) is a row
        # of empty tokens, so no line takes the line loop
        self.check(['<a:s> <a:p> <a:o> .', '<a:s> <a:q> "v" .',
                    '# a comment', '  # an indented one',
                    '<a:s> <a:p> <a:o2> .', '', '_:x <a:p> _:y .',
                    '<a:s> <a:p> <a:o> .'], [])

    def test_no_final_newline(self):
        self.check(['<a:s> <a:p> <a:o> .', '<a:s> <a:q> "v" .',
                    '<a:s> <a:p> <a:o2> .', '<a:s> <a:p> "last" .'], [],
                   final_newline=False)

    def test_blank_node_first_seen_in_later_slice(self):
        self.check(['_:x <a:p> <a:o> .', '<a:s> <a:p> _:y .',
                    '_:z <a:p> _:x .', '<a:s> <a:p> _:z .',
                    '_:w <a:q> _:y .', '_:v <a:p> <a:o> .'], [])

    def test_rejected_line_takes_no_blank_label_before_a_slice(self):
        # the rejected line takes no label for _:y, so the later slice
        # hands out b0 to _:x and b1 to _:y
        self.check(['"v" <a:p> _:y .', '<a:s> <a:p> <a:o> .',
                    '_:x <a:p> _:y .', '<a:s> <a:p> <a:o2> .'], [1, 2])
