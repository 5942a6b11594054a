"""Preprocessing, WordPiece, linking, relations, and enrichment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onokg.ie import relations
from onokg.ie.decode import EntityMention
from onokg.ie.enrich import enrich_kg
from onokg.ie.linking import AliasTable, link_entity, mint_normalized_id
from onokg.ie.preprocess import preprocess, stem, stopwords
from onokg.ie.relations import RelationCandidate, extract_relations
from onokg.ie.wordpiece import SubwordVocab, demo_vocab
from onokg.kg import Triple, iri
from onokg.ntriples import parse_ntriples, serialize_ntriples
from onokg.ontology import SCHEMA, build_seed_ontology, data_path, ono
import oracles
from helpers import conll, covers, join_pieces
from oracles import (SLOT_G, SLOT_SOURCE, SLOT_TYPE, TEMPLATES, Lit,
                     enriched, match_patterns_scan)

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
    return EntityMention(sentence_index=0, start=start, end=end,
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

    def test_last_mention_of_an_equal_start_wins(self):
        words = ["TP53", "causes", "Big", "Tumor", "."]
        mentions = [_mention("Big Tumor", "Disease", 2, 4, ono("BRCA")),
                    _mention("TP53", "Disease", 0, 1, ono("DLBC")),
                    _mention("TP53", "Gene", 0, 1, ono("TP53"))]
        candidates = extract_relations(words, mentions, "d")
        assert candidates == match_patterns_scan(
            oracles.anonymize(words, mentions), "d")
        assert [(c.anonymized, c.label, c.subject, c.object)
                for c in candidates] \
            == [("@GENE$ causes @DISEASE$ .", "causes", ono("TP53"),
                 ono("BRCA"))]


_LITERALS = sorted({option for template in TEMPLATES
                    for element in template.elements
                    if isinstance(element, Lit)
                    for option in element.options})
_TYPE_WORDS = ["POTSF", "Oncogene", "oncogenes", "ProteinCoding"]
_SOURCE_WORDS = ["PubMed", "MeSH", "CancerIndex"]
# a mention's type, linked target (None: unlinked) and words; a mention over
# a type or source word stays literal in the anonymized sentence
_MENTIONS = st.tuples(
    st.sampled_from(["Gene", "Disease"]),
    st.sampled_from([None, "TP53", "EZH2", "BRCA", "DLBC"]),
    st.sampled_from([("X1",), ("Big", "Tumor"), ("PubMed",), ("POTSF",)]))
_ITEMS = st.one_of(
    st.sampled_from(_LITERALS + [w.title() for w in _LITERALS]
                    + _TYPE_WORDS + _SOURCE_WORDS + ["banana", ",", "."]),
    _MENTIONS)


def _mixed_case(word: str) -> str:
    return "".join(c.upper() if i % 2 else c for i, c in enumerate(word))


# Spellings whose case does not round-trip: `lower()` keeps "ſ" (long s)
# and turns "İ" into "i" plus a combining dot, so neither word equals a
# literal; the Kelvin sign lowers to "k", so "LIN\u212aED" is "linked".
_HOSTILE_CASES = [
    str.lower, str.title, str.upper, _mixed_case,
    lambda w: w.replace("s", "\u017f"), lambda w: w.replace("i", "\u0130"),
    lambda w: w.upper().replace("K", "\u212a")]
_HOSTILE_WORDS = ["@GENE$", "@DISEASE$", "ONCOGENE", "PUBMED", "\u212a",
                  "\u017f", "\u0130s", "\u0130", "i\u0307s"]


@st.composite
def _template_run(draw, cases=(str.lower, str.title, str.upper)):
    """The items of one relation template, each element filled with a
    token that fits it; a literal comes in any of `cases`, and an optional
    one is sometimes left out."""
    items = []
    for element in draw(st.sampled_from(TEMPLATES)).elements:
        if isinstance(element, Lit):
            if not (element.optional and draw(st.booleans())):
                case = draw(st.sampled_from(cases))
                items.append(case(draw(st.sampled_from(element.options))))
        elif element == SLOT_TYPE:
            items.append(draw(st.sampled_from(_TYPE_WORDS)))
        elif element == SLOT_SOURCE:
            items.append(draw(st.sampled_from(_SOURCE_WORDS)))
        else:
            etype = "Gene" if element == SLOT_G else "Disease"
            items.append(draw(_MENTIONS.map(lambda m: (etype,) + m[1:])))
    return items


def _sentence(runs):
    """The words and mentions of a list of runs of items."""
    words, mentions = [], []
    for item in (item for run in runs for item in run):
        if isinstance(item, str):
            words.append(item)
            continue
        etype, target, surface = item
        mentions.append(_mention(" ".join(surface), etype, len(words),
                                 len(words) + len(surface),
                                 ono(target) if target else None))
        words.extend(surface)
    return words, mentions


class TestAnchoredMatching:
    """Each template is one regular expression over the lowercased words;
    the candidates equal those of the element templates tried at every
    position."""

    def test_templates_agree_with_oracle(self):
        assert len(relations.PATTERNS) == len(TEMPLATES)
        for pattern, template in zip(relations.PATTERNS, TEMPLATES):
            assert (pattern.label, pattern.confidence, pattern.subject_slot,
                    pattern.object_slot) \
                == (template.label, template.confidence,
                    template.subject_slot, template.object_slot)
            assert set(pattern.regex.groupindex) \
                == {e for e in template.elements if not isinstance(e, Lit)}

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(runs=st.lists(st.one_of(_ITEMS.map(lambda item: [item]),
                                   _template_run()), max_size=10))
    def test_matches_all_positions_oracle(self, runs):
        words, mentions = _sentence(runs)
        assert extract_relations(words, mentions, "d") \
            == match_patterns_scan(oracles.anonymize(words, mentions), "d")

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(runs=st.lists(st.one_of(
        st.sampled_from(_HOSTILE_WORDS).map(lambda word: [word]),
        _ITEMS.map(lambda item: [item]),
        _template_run(_HOSTILE_CASES)), max_size=10))
    def test_hostile_words_match_oracle(self, runs):
        words, mentions = _sentence(runs)
        assert extract_relations(words, mentions, "d") \
            == match_patterns_scan(oracles.anonymize(words, mentions), "d")

    @pytest.mark.parametrize("sentence, labels", [
        ("TP53 CaUsEs BRCA", ["causes"]),
        ("TP53 cau\u017fes BRCA", ["none"]),
        ("TP53 is an oncogene", ["isA"]),
        ("TP53 \u0130s an oncogene", []),
        ("Mutations in TP53 are LIN\u212aED with BRCA", ["causes"]),
        ("@GENE$ causes BRCA , @gene$ has POTSF functionality", [])])
    def test_hostile_words(self, sentence, labels):
        # a word fills a literal when its lower() is the literal, and a
        # slot only as a mention: "@GENE$" typed in the text is a word
        words = sentence.split()
        mentions = [_mention(w, etype, i, i + 1, ono(w))
                    for i, w in enumerate(words)
                    for etype, name in (("Gene", "TP53"), ("Disease", "BRCA"))
                    if w == name]
        assert [c.label for c in extract_relations(words, mentions)] \
            == labels


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
        doc_id=draw(st.sampled_from(["d1", "d2"])), anonymized="",
        label=label,
        confidence=draw(st.sampled_from(_GRID) | st.floats(0.0, 1.0)),
        subject=subject, object=obj) for subject, label, obj in drawn]


_STORED = [(t.subject, _LABEL_OF[t.predicate], t.object)
           for t in build_seed_ontology().match()
           if t.predicate in _LABEL_OF]


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
        assert set(graph.match()) == triples and len(graph) == len(triples)
        assert graph.check_indexes()
        graph.columns()  # folds the buffer
        assert len(graph) == len(triples)
