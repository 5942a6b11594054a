"""Document-level extraction and ingest (trained model end to end)."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import copy_graph
from oracles import _tag_probabilities, decode_entities, feature_rows
from onokg.ie import corpus as corpus_mod
from onokg.ie.corpus import make_corpus, tag_sentence
from onokg.ie.linking import AliasTable, link_entity
from onokg.ie.pipeline import (MAX_PIECES, extract_document,
                               ingest_documents, read_corpus_dir,
                               split_to_fit)
from onokg.ie.preprocess import preprocess
from onokg.ie.relations import extract_relations
from onokg.ie.tagger import Checkpoint, encode_sentence
from onokg.kg import Triple
from onokg.ontology import SCHEMA, data_path, ono

FIG4 = ("TP53 is responsible for a disease called Breast Cancer. "
        "TP53 has POTSF functionality, which is mentioned in numerous "
        "PubMed articles.")


@pytest.fixture(scope="module")
def checkpoint(trained):
    return Checkpoint(trained.models, trained.vocab, trained.gazetteers)


@pytest.fixture(scope="module")
def alias_table(seed_graph):
    return AliasTable.build(seed_graph, data_path("aliases.csv"))


class TestSplitToFit:
    def test_short_sentence_untouched(self, trained):
        words = ["TP53", "is", "here", "."]
        chunks = split_to_fit(words, trained.vocab, 128, trained.gazetteers)
        assert chunks == [(0, words)]

    def test_long_sentence_splits_at_stopword(self, trained):
        words = (["alpha", "beta", "of"] * 30) + ["."]
        chunks = split_to_fit(words, trained.vocab, 64, trained.gazetteers)
        assert len(chunks) > 1
        rebuilt = []
        for offset, chunk in chunks:
            assert offset == len(rebuilt)
            rebuilt.extend(chunk)
        assert rebuilt == words
        for _offset, chunk in chunks[:-1]:
            assert chunk[-1].lower() in {"of"}

    def test_never_cuts_inside_gazetteer_span(self, trained):
        filler = ["word"] * 40
        words = filler + ["of", "Breast", "invasive", "carcinoma"] + filler
        chunks = split_to_fit(words, trained.vocab, 64, trained.gazetteers)
        for _offset, chunk in chunks:
            if "Breast" in chunk:
                i = chunk.index("Breast")
                assert chunk[i:i + 3] == ["Breast", "invasive", "carcinoma"]


def _oracle_tags(models, encoded):
    """Each type's (argmax tags, distributions) for one sentence, from one
    oracle logits call."""
    tagged = {}
    for etype in sorted(models):
        probs = _tag_probabilities(
            models[etype], feature_rows(encoded.flat, encoded.counts))
        tagged[etype] = (probs.argmax(axis=1), probs)
    return tagged


def _encoder(checkpoint):
    def encode(words):
        return encode_sentence([words], checkpoint.vocab,
                               checkpoint.models["Gene"].space,
                               checkpoint.gazetteers)[0]
    return encode


class TestGroupedTagging:
    """`tag_sentence` packs up to 64 sentences into one logits call per
    model; each sentence's tags and distributions equal those of one
    oracle call for that sentence alone, to the bit."""

    def assert_matches_oracle(self, checkpoint, group, monkeypatch,
                              logits_calls):
        calls = []
        logits = corpus_mod.logits

        def counted(*args):
            calls.append(args)
            return logits(*args)

        monkeypatch.setattr(corpus_mod, "logits", counted)
        tagged = tag_sentence(checkpoint.models, group)
        assert len(calls) == logits_calls
        assert len(tagged) == len(group)
        for encoded, by_type in zip(group, tagged):
            expected = _oracle_tags(checkpoint.models, encoded)
            assert list(by_type) == list(expected)
            for etype, (tags, probs) in by_type.items():
                assert np.array_equal(probs, expected[etype][1])
                assert np.array_equal(tags, expected[etype][0])

    @pytest.mark.parametrize("size,groups", [(0, 0), (1, 1), (65, 2)])
    def test_group_matches_per_sentence_oracle(self, checkpoint, monkeypatch,
                                               size, groups):
        encode = _encoder(checkpoint)
        group = [encode(s.words) for s in make_corpus(size, seed=8)]
        self.assert_matches_oracle(checkpoint, group, monkeypatch,
                                   groups * len(checkpoint.models))

    def test_chunks_of_a_cut_sentence(self, checkpoint, monkeypatch):
        encode = _encoder(checkpoint)
        clauses = [" ".join(w for w in s.words if w != ".")
                   for s in make_corpus(40, seed=5)]
        words = preprocess(" ; ".join(clauses) + ".", "long").sentences[0]
        chunks = split_to_fit(words, checkpoint.vocab, MAX_PIECES,
                              checkpoint.gazetteers)
        assert len(chunks) > 2
        short = encode(make_corpus(1, seed=9)[0].words)
        group = [short] + [encode(chunk) for _, chunk in chunks] \
            + [encode(words), short]
        assert len(group[-2]) > 2 * MAX_PIECES
        self.assert_matches_oracle(checkpoint, group, monkeypatch,
                                   len(checkpoint.models))


class TestLongSentences:
    """A sentence longer than MAX_PIECES is tagged chunk by chunk."""

    def test_matches_hand_encoded_chunks(self, checkpoint, alias_table):
        clauses = [" ".join(w for w in s.words if w != ".")
                   for s in make_corpus(60, seed=5)]
        text = " ; ".join(clauses[:40]) + ". " + clauses[40] + ". " \
            + " ; ".join(clauses[41:]) + "."
        doc = preprocess(text, "long")
        extraction = extract_document(doc, checkpoint, alias_table)
        encode = _encoder(checkpoint)

        mentions, candidates, lengths, shifted = [], [], [], 0
        for sent_idx, words in enumerate(doc.sentences):
            lengths.append(len(encode(words)))
            chunks = split_to_fit(words, checkpoint.vocab, MAX_PIECES,
                                  checkpoint.gazetteers)
            for offset, chunk in chunks:
                encoded = encode(chunk)
                assert len(encoded) <= MAX_PIECES
                found = decode_entities(
                    encoded, _oracle_tags(checkpoint.models, encoded),
                    sent_idx)
                for m in found:
                    m.normalized_id = link_entity(m.surface, m.entity_type,
                                                  alias_table)
                candidates += extract_relations(chunk, found, doc.id)
                mentions += [replace(m, start=m.start + offset,
                                     end=m.end + offset) for m in found]
                shifted += len(found) if offset else 0
        assert lengths[0] > 2 * MAX_PIECES and lengths[1] <= MAX_PIECES \
            and lengths[2] > MAX_PIECES
        assert shifted
        assert [c for c in candidates if c.label != "none"]
        assert extraction.mentions == mentions
        assert extraction.candidates == candidates


    def test_each_word_is_encoded_once(self, checkpoint, alias_table,
                                       monkeypatch):
        # the CLI smoke test's long document: one sentence of 200 words,
        # cut into chunks that are each encoded, and nothing encoded whole
        text = " ; ".join(
            ["TP53 is responsible for a disease called Breast Cancer"] * 20)
        doc = preprocess(text + ".", "long")
        assert [len(words) for words in doc.sentences] == [200]
        encoded = []

        def counted(sentences, *args):
            encoded.extend(len(words) for words in sentences)
            return encode_sentence(sentences, *args)

        monkeypatch.setattr(corpus_mod, "encode_sentence", counted)
        extract_document(doc, checkpoint, alias_table)
        assert len(encoded) > 1 and sum(encoded) == 200


class TestFig4Extraction:
    def test_exact_four_triples(self, checkpoint, alias_table):
        doc = preprocess(FIG4, "fig4")
        extraction = extract_document(doc, checkpoint, alias_table)
        triples = {(c.subject, c.label, c.object)
                   for c in extraction.candidates if c.label != "none"}
        assert triples == {
            (ono("TP53"), "causes", ono("BRCA")),
            (ono("TP53"), "hasType", SCHEMA.potsf),
            (ono("BRCA"), "isA", SCHEMA.disease),
            (SCHEMA.potsf, "hasEvidence", SCHEMA.pubmed),
        }

    def test_mentions_linked(self, checkpoint, alias_table):
        doc = preprocess(FIG4, "fig4")
        extraction = extract_document(doc, checkpoint, alias_table)
        linked = {(m.surface, m.normalized_id) for m in extraction.mentions}
        assert ("Breast Cancer", ono("BRCA")) in linked
        assert ("TP53", ono("TP53")) in linked


class TestDemoCorpusIngest:
    def test_corpus_reader(self):
        docs = read_corpus_dir(data_path("demo_corpus"))
        assert [d.id for d in docs] == ["doc1", "doc2", "doc3"]

    def test_ingest_accepts_and_is_idempotent(self, seed_copy, checkpoint,
                                              alias_table):
        docs = read_corpus_dir(data_path("demo_corpus"))
        report = ingest_documents(seed_copy, docs, checkpoint, alias_table,
                                  threshold=0.5)
        assert report.accepted >= 4
        assert Triple(ono("TP53"), SCHEMA.causes, ono("BRCA")) in seed_copy
        assert Triple(ono("EZH2"), SCHEMA.causes, ono("DLBC")) in seed_copy
        size = len(seed_copy)
        again = ingest_documents(seed_copy, docs, checkpoint, alias_table,
                                 threshold=0.5)
        assert again.newly_added == 0
        assert len(seed_copy) == size

    def test_order_independence(self, seed_graph, checkpoint, alias_table):
        docs = read_corpus_dir(data_path("demo_corpus"))
        forward = copy_graph(seed_graph)
        backward = copy_graph(seed_graph)
        ingest_documents(forward, docs, checkpoint, alias_table, 0.5)
        ingest_documents(backward, list(reversed(docs)), checkpoint,
                         alias_table, 0.5)
        assert set(forward.match()) == set(backward.match())

    def test_jsonl_corpus(self, tmp_path, checkpoint, alias_table,
                          seed_copy):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "j1", "text": "RB1 is responsible for a '
                        'disease called BLCA."}\n', encoding="utf-8")
        docs = read_corpus_dir(tmp_path)
        assert [d.id for d in docs] == ["j1"]
        report = ingest_documents(seed_copy, docs, checkpoint, alias_table,
                                  0.5)
        assert report.proposed >= 1

    def test_template_corpus_skips_no_document(self, seed_copy, checkpoint,
                                               alias_table, caplog):
        """A document that extraction raises on is skipped with a log
        line; template documents of more than one group, one of them with
        a sentence cut into chunks, raise nothing."""
        texts = [" ".join(s.words) for s in make_corpus(200, seed=31)]
        texts[150] = " ; ".join(texts[150:170]).replace(" .", "")
        docs = [preprocess(" ".join(texts[a:a + 100]), f"t{a}")
                for a in (0, 100)]
        with caplog.at_level("WARNING"):
            report = ingest_documents(seed_copy, docs, checkpoint,
                                      alias_table, 0.5)
        assert report.accepted
        assert not [r for r in caplog.records
                    if "skipping document" in r.getMessage()]

    def test_malformed_jsonl_lines_are_skipped(self, tmp_path, caplog):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "j1", "text": "RB1 causes BLCA."}\n'
                        '{"id": "j2", "text": \n'
                        '{"text": "no id"}\n'
                        '["a", "list"]\n'
                        '{"id": "j5", "text": 5}\n'
                        '{"id": 6, "text": "TP53 causes BRCA."}\n'
                        '{"id": "j7", "text": "TP53 causes BRCA."}\n',
                        encoding="utf-8")
        with caplog.at_level("WARNING"):
            docs = read_corpus_dir(tmp_path)
        assert [d.id for d in docs] == ["j1", "j7"]
        skipped = [r.getMessage() for r in caplog.records
                   if "malformed record" in r.getMessage()]
        assert [m.split(": ")[0].rsplit(":", 1)[1] for m in skipped] \
            == ["2", "3", "4", "5", "6"]
        assert all(str(path) in m for m in skipped)
