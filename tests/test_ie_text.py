"""Preprocessing, WordPiece, linking, relations, and enrichment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onokg.ie.decode import EntityMention
from onokg.ie.enrich import enrich_kg
from onokg.ie.linking import AliasTable, link_entity, mint_normalized_id
from onokg.ie.preprocess import preprocess, stem, stopwords
from onokg.ie.relations import RelationCandidate, extract_relations
from onokg.ie.wordpiece import SubwordVocab, demo_vocab
from onokg.kg import Triple, iri
from onokg.ntriples import parse_ntriples, serialize_ntriples
from onokg.ontology import SCHEMA, build_seed_ontology, data_path, ono
from helpers import conll, covers, join_pieces
from oracles import enriched

FIG4 = ("TP53 is responsible for a disease called Breast Cancer. "
        "TP53 has POTSF functionality, which is mentioned in numerous "
        "PubMed articles.")


class TestPreprocess:
    def test_short_sentence_tokens_and_stopwords(self):
        doc = preprocess("TP53 is an oncogene.")
        (sentence,) = doc.sentences
        assert sentence == ["TP53", "is", "an", "oncogene", "."]
        assert [w.lower() in stopwords() for w in sentence] == \
            [False, True, True, False, False]

    def test_conll_deterministic(self):
        text = "BRCA1 causes Ovarian Cancer. It was reported twice."
        assert conll(preprocess(text)) == conll(preprocess(text))

    def test_conll_format(self):
        doc = preprocess("TP53 is an oncogene.")
        lines = conll(doc).strip().split("\n")
        assert lines[0].split("\t") == ["1", "TP53", "tp53", "PROPN", "0"]
        assert lines[1].split("\t") == ["2", "is", "is", "VERB", "1"]

    def test_fig4_content_words_not_stopworded(self):
        doc = preprocess(FIG4)
        content = {w for s in doc.sentences for w in s
                   if w.lower() not in stopwords()}
        assert {"TP53", "Breast", "Cancer", "POTSF", "PubMed"} <= content

    def test_empty_text(self):
        doc = preprocess("")
        assert doc.sentences == []
        assert conll(doc) == ""

    def test_two_sentences(self):
        doc = preprocess(FIG4)
        assert len(doc.sentences) == 2


class TestStem:
    @pytest.mark.parametrize("word,expected", [
        ("articles", "article"),
        ("mentioned", "mention"),
        ("syndromes", "syndrome"),
        ("classes", "class"),
        ("studies", "studi"),
        ("is", "is"),
    ])
    def test_suffix_table(self, word, expected):
        assert stem(word) == expected


class TestWordPiece:
    def test_syndromes_example(self):
        assert demo_vocab().tokenize("syndromes") == \
            ["s", "##yn", "##dr", "##om", "##es"]

    def test_whole_word_piece(self):
        vocab = SubwordVocab({"cancer", "c", "##a", "##n", "##c", "##e",
                              "##r"})
        assert vocab.tokenize("cancer") == ["cancer"]

    def test_unknown_character_collapses(self):
        vocab = SubwordVocab({"a", "##a"})
        assert vocab.tokenize("aXa") == ["[UNK]"]

    def test_empty_word(self):
        assert demo_vocab().tokenize("") == []

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="abcdefgXYZ079", min_size=1, max_size=14))
    def test_round_trip_over_alphabet(self, word):
        pieces = demo_vocab().tokenize(word)
        assert join_pieces(pieces) == word

    def test_demo_vocab_covers_ascii_words(self):
        vocab = demo_vocab()
        assert covers(vocab, "PubMed")
        assert covers(vocab, "cystadenocarcinoma")


@pytest.fixture(scope="module")
def table(seed_graph):
    return AliasTable.build(seed_graph, data_path("aliases.csv"))


class TestLinking:
    def test_alias_resolution(self, table):
        assert link_entity("Li-Fraumeni syndrome", "Gene", table) == \
            ono("TP53")

    def test_exact_symbol(self, table):
        assert link_entity("TP53", "Gene", table) == ono("TP53")

    def test_case_and_stem_insensitive(self, table):
        assert link_entity("breast CANCERS", "Disease", table) == ono("BRCA")
        assert link_entity("Breast invasive carcinomas", "Disease",
                           table) == ono("BRCA")

    def test_minted_id_is_deterministic(self, table):
        first = link_entity("XYZ999", "Gene", table)
        second = link_entity("XYZ999", "Gene", table)
        assert first == second
        assert first == iri("http://www.example.com/ontologies/ono/norm/"
                            "gene/xyz999")

    def test_type_scoping(self, table):
        # same surface, different types, different namespaces
        assert link_entity("mystery", "Gene", table) != \
            link_entity("mystery", "Disease", table)

    def test_mint_slug(self):
        minted = mint_normalized_id("Some Odd-Name", "Disease")
        assert minted.lexical.endswith("disease/some-odd-name")


def _mention(surface, etype, start, end, target):
    return EntityMention(doc_id="d", sentence_index=0, start=start, end=end,
                         surface=surface, entity_type=etype, score=1.0,
                         normalized_id=target)


class TestRelations:
    def test_fig4_first_sentence(self):
        words = ["TP53", "is", "responsible", "for", "a", "disease",
                 "called", "Breast", "Cancer", "."]
        mentions = [_mention("TP53", "Gene", 0, 1, ono("TP53")),
                    _mention("Breast Cancer", "Disease", 7, 9, ono("BRCA"))]
        candidates = extract_relations(words, mentions)
        fired = {(c.subject, c.label, c.object)
                 for c in candidates if c.label != "none"}
        assert fired == {(ono("TP53"), "causes", ono("BRCA")),
                         (ono("BRCA"), "isA", SCHEMA.disease)}
        anonymized = candidates[0].anonymized
        assert "@GENE$" in anonymized and "@DISEASE$" in anonymized
        assert "TP53" not in anonymized

    def test_fig4_second_sentence(self):
        words = ["TP53", "has", "POTSF", "functionality", ",", "which",
                 "is", "mentioned", "in", "numerous", "PubMed",
                 "articles", "."]
        mentions = [_mention("TP53", "Gene", 0, 1, ono("TP53"))]
        candidates = extract_relations(words, mentions)
        fired = {(c.subject, c.label, c.object)
                 for c in candidates if c.label != "none"}
        assert fired == {(ono("TP53"), "hasType", SCHEMA.potsf),
                         (SCHEMA.potsf, "hasEvidence", SCHEMA.pubmed)}

    def test_single_mention_no_type_term(self):
        words = ["TP53", "gene", "was", "sequenced", "."]
        mentions = [_mention("TP53", "Gene", 0, 1, ono("TP53"))]
        assert extract_relations(words, mentions) == []

    def test_nonsense_pair_labels_none(self):
        words = ["banana", "TP53", "quietly", "BRCA", "swims", "."]
        mentions = [_mention("TP53", "Gene", 1, 2, ono("TP53")),
                    _mention("BRCA", "Disease", 3, 4, ono("BRCA"))]
        candidates = extract_relations(words, mentions)
        assert len(candidates) == 1
        assert candidates[0].label == "none"
        assert candidates[0].confidence == 0.0

    def test_is_an_oncogene(self):
        words = ["TP53", "is", "an", "oncogene", "."]
        mentions = [_mention("TP53", "Gene", 0, 1, ono("TP53"))]
        candidates = extract_relations(words, mentions)
        fired = {(c.subject, c.label, c.object) for c in candidates}
        assert (ono("TP53"), "isA", SCHEMA.oncogene) in fired

    def test_vocabulary_word_mentions_stay_literal(self):
        # a spurious mention over "PubMed" must not hide the source word
        words = ["TP53", "has", "POTSF", "functionality", ",", "mentioned",
                 "in", "PubMed", "articles", "."]
        mentions = [_mention("TP53", "Gene", 0, 1, ono("TP53")),
                    _mention("PubMed", "Gene", 7, 8, iri("a:x"))]
        candidates = extract_relations(words, mentions)
        fired = {(c.subject, c.label, c.object) for c in candidates}
        assert (SCHEMA.potsf, "hasEvidence", SCHEMA.pubmed) in fired


class TestEnrich:
    def _fig4_candidates(self):
        first = extract_relations(
            ["TP53", "is", "responsible", "for", "a", "disease", "called",
             "Breast", "Cancer", "."],
            [_mention("TP53", "Gene", 0, 1, ono("TP53")),
             _mention("Breast Cancer", "Disease", 7, 9, ono("BRCA"))],
            doc_id="doc1")
        second = extract_relations(
            ["TP53", "has", "POTSF", "functionality", ",", "which", "is",
             "mentioned", "in", "numerous", "PubMed", "articles", "."],
            [_mention("TP53", "Gene", 0, 1, ono("TP53"))],
            doc_id="doc1")
        return first + second

    def test_enrichment_counts_and_idempotence(self, seed_copy):
        candidates = self._fig4_candidates()
        report = enrich_kg(seed_copy, candidates, threshold=0.5)
        assert report.proposed == 4
        assert report.accepted == 4
        # the seed already carries (TP53, causes, BRCA) and its hasType
        assert report.duplicates == 2
        assert report.newly_added == 2
        size = len(seed_copy)
        again = enrich_kg(seed_copy, candidates, threshold=0.5)
        assert again.newly_added == 0
        assert again.duplicates == again.accepted
        assert len(seed_copy) == size

    def test_threshold_one_rejects_everything(self, seed_copy):
        report = enrich_kg(seed_copy, self._fig4_candidates(),
                           threshold=1.0)
        assert report.accepted == 0
        assert report.rejected == report.proposed

    def test_provenance_recorded(self, seed_copy):
        enrich_kg(seed_copy, self._fig4_candidates(), threshold=0.5)
        sources = seed_copy.match(None, SCHEMA.source_document, None)
        assert sources
        assert all(t.object.lexical == "doc1" for t in sources)

    def test_accepted_triples_present(self, seed_copy):
        enrich_kg(seed_copy, self._fig4_candidates(), threshold=0.5)
        assert Triple(ono("BRCA"), SCHEMA.is_a, SCHEMA.disease) in seed_copy
        assert Triple(SCHEMA.potsf, SCHEMA.has_evidence,
                      SCHEMA.pubmed) in seed_copy


_LABEL_OF = {SCHEMA.causes: "causes", SCHEMA.has_type: "hasType",
             SCHEMA.is_a: "isA", SCHEMA.has_evidence: "hasEvidence"}
_NEW_SUBJECTS = [ono("TP53"), ono("NEWGENE"), SCHEMA.potsf,
                 iri("http://example.org/g1")]
_NEW_OBJECTS = [ono("BRCA"), ono("NEWCANCER"), SCHEMA.disease,
                SCHEMA.pubmed]
_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


@st.composite
def _candidates(draw, stored):
    """Candidates over seed triples (duplicates of stored ones), new pairs
    and earlier candidates repeated, with confidences on the threshold
    grid and between."""
    drawn = []
    for _ in range(draw(st.integers(0, 12))):
        source = draw(st.sampled_from(["stored", "new", "again"]))
        if source == "again" and drawn:
            subject, label, obj = draw(st.sampled_from(drawn))
        elif source == "stored":
            subject, label, obj = draw(st.sampled_from(stored))
        else:
            subject = draw(st.sampled_from(_NEW_SUBJECTS))
            label = draw(st.sampled_from(["causes", "hasType", "isA",
                                          "hasEvidence", "none"]))
            obj = draw(st.sampled_from(_NEW_OBJECTS))
        drawn.append((subject, label, obj))
    return [RelationCandidate(
        doc_id=draw(st.sampled_from(["d1", "d2"])), sentence_index=0,
        anonymized="", label=label,
        confidence=draw(st.sampled_from(_GRID) | st.floats(0.0, 1.0)),
        subject=subject, object=obj) for subject, label, obj in drawn]


_STORED = [(t.subject, _LABEL_OF[t.predicate], t.object)
           for t in build_seed_ontology() if t.predicate in _LABEL_OF]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(candidates=_candidates(_STORED), threshold=st.sampled_from(_GRID))
def test_enrichment_matches_oracle(seed_graph, candidates, threshold):
    # a parsed graph holds the seed in its sorted base; an insert-built one
    # holds it in the insert buffer
    parsed = parse_ntriples(serialize_ntriples(seed_graph)).graph
    for graph in (parsed, build_seed_ontology()):
        expected, triples = enriched(graph, candidates, threshold)
        report = enrich_kg(graph, candidates, threshold)
        assert {name: getattr(report, name) for name in expected} == expected
        assert set(graph) == triples and len(graph) == len(triples)
        assert graph.check_indexes()
        assert graph.count_ids() == len(triples)  # folds the buffer
