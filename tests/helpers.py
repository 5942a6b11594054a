"""Helpers that only the tests call.

The CoNLL rendering of a preprocessed document with its rule-based PoS
tags, the spans that `decode.decode_entities` finds in a list of word
tags and the inverse of that, the inverse of `SubwordVocab.tokenize`, a
graph copy for the tests that write to a shared graph, a copy whose
triples are split between the store's base and its buffer, feature-id rows
packed as `EncodedSentence` holds them, a sentence's tag distributions
from one `logits` call, and the query
fixtures: the cancers CARC, CRC and ESO and their associations,
which the bundled SPARQL and DL packs filter on and which no command
loads. `fixture_genes.csv` stays bundled with the package because the
tagger's gene gazetteer reads it; the other two fixture files live in
`tests/data/`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from onokg.ie.preprocess import Document, stem, stopwords
from onokg.ie.decode import decode_entities
from onokg.ie.tagger import (K, TAG_INDEX, EncodedSentence, TaggerModel,
                             logits, softmax)
from onokg.ie.wordpiece import CONTINUATION, SubwordVocab
from onokg.kg import Graph
from onokg.ontology import (_assert_association_rows, _row_of, add_biomarker,
                            add_cancer, data_path, read_csv)

DATA = Path(__file__).parent / "data"

_DETERMINERS = {"a", "an", "the", "this", "that", "these", "those"}
_ADPOSITIONS = {"in", "of", "for", "with", "on", "at", "by", "from", "to",
                "as", "into", "across", "over", "under"}
_CONJUNCTIONS = {"and", "or", "but", "nor"}
_PRONOUNS = {"it", "he", "she", "they", "we", "you", "i", "which", "who",
             "whom", "its", "their", "his", "her", "our"}
_VERBS = {"is", "are", "was", "were", "be", "been", "being", "has", "have",
          "had", "can", "could", "may", "might", "will", "would", "do",
          "does", "did", "cause", "causes", "remains", "carry"}


def pos_tag(word: str) -> str:
    lower = word.lower()
    if not any(c.isalnum() for c in word):
        return "PUNCT"
    if all(c.isdigit() or c in ".,-/" for c in word):
        return "NUM"
    if lower in _DETERMINERS:
        return "DET"
    if lower in _ADPOSITIONS:
        return "ADP"
    if lower in _CONJUNCTIONS:
        return "CONJ"
    if lower in _PRONOUNS:
        return "PRON"
    if lower in _VERBS or lower.endswith(("ized", "ised")):
        return "VERB"
    if lower.endswith("ly"):
        return "ADV"
    if lower.endswith(("ous", "ive", "ible", "able", "ic", "ical", "al")):
        return "ADJ"
    if lower.endswith(("ed", "ing")) and len(lower) > 4:
        return "VERB"
    if word[0].isupper() or any(c.isdigit() for c in word):
        return "PROPN"
    return "NOUN"


def conll(doc: Document) -> str:
    """One word per line: index, form, stem, PoS, stopword flag."""
    stop = stopwords()
    blocks = []
    for sentence in doc.sentences:
        lines = [f"{i}\t{word}\t{stem(word)}\t{pos_tag(word)}"
                 f"\t{1 if word.lower() in stop else 0}"
                 for i, word in enumerate(sentence, start=1)]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def decode_word_tags(word_tags: Sequence[str]) -> list[tuple[int, int]]:
    """The (start, end) word spans that `decode_entities` finds in one
    type's word tags ("B", "I", "O"), each word one piece between [CLS]
    and [SEP]."""
    n = len(word_tags)
    words = [f"w{i}" for i in range(n)]
    encoded = EncodedSentence(words, ["[CLS]", *words, "[SEP]"],
                              [-1, *range(n), -1],
                              [False, *[True] * n, False],
                              *pack([np.zeros(0, np.int64)] * (n + 2)))
    tags = [TAG_INDEX[tag] for tag in ("[CLS]", *word_tags, "[SEP]")]
    mentions, = decode_entities([encoded], [{"Gene": (
        tags, np.full((n + 2, K), 1.0 / K))}])
    return [(m.start, m.end) for m in mentions]


def encode_word_tags(spans: Sequence[tuple[int, int]], n: int) -> list[str]:
    """The word tags of non-overlapping spans: the inverse of
    `decode_word_tags`."""
    tags = ["O"] * n
    for start, end in spans:
        tags[start] = "B"
        for i in range(start + 1, end):
            tags[i] = "I"
    return tags


def join_pieces(pieces: list[str]) -> str:
    """Inverse of tokenize for in-vocabulary words."""
    return "".join(p[len(CONTINUATION):] if p.startswith(CONTINUATION) else p
                   for p in pieces)


def covers(vocab: SubwordVocab, word: str) -> bool:
    """Every character of word is present as head and continuation."""
    return all(c in vocab.pieces and CONTINUATION + c in vocab.pieces
               for c in word)


def pack(rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of feature ids as one flat array and a count per row."""
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    if not len(rows):
        return np.zeros(0, dtype=np.int64), counts
    return np.concatenate(rows), counts


def tag_probabilities(model: TaggerModel,
                      feature_ids: Sequence[np.ndarray]) -> np.ndarray:
    """Per-token distributions over the 7 tags; rows sum to 1."""
    return softmax(logits(model, *pack(feature_ids)))


def copy_graph(graph: Graph) -> Graph:
    """A graph of the same triples, its ids given out in id-row order."""
    g = Graph()
    terms, intern = graph.terms(), g.intern
    g.add_ids([intern(terms[i]) for row in graph.id_table().tolist()
               for i in row])
    return g


def split_graph(graph: Graph, head: int) -> Graph:
    """A graph of the same triples: the first `head` in sorted order
    bulk-loaded into the base, the rest inserted after them, so a read
    that folds finds both a base and a buffer."""
    g = Graph()
    rows = graph.match()
    g.add_ids([g.intern(term) for triple in rows[:head] for term in triple])
    for triple in rows[head:]:
        g.insert(triple)
    return g


def load_extension(graph: Graph, cancers_csv: Optional[Path] = None,
                   genes_csv: Optional[Path] = None,
                   associations_csv: Optional[Path] = None) -> None:
    """Extend a graph with additional cancers, genes, and associations."""
    if cancers_csv is not None:
        for row in read_csv(Path(cancers_csv), ("code", "name")):
            with _row_of(cancers_csv, *row.values()):
                add_cancer(graph, row["code"], row["name"])
    if genes_csv is not None:
        for row in read_csv(Path(genes_csv), ("symbol", "geneType")):
            with _row_of(genes_csv, *row.values()):
                add_biomarker(graph, row["symbol"], row["geneType"])
    if associations_csv is not None:
        _assert_association_rows(graph, Path(associations_csv))


def apply_query_fixtures(graph: Graph) -> None:
    """Demo cancers/genes used by the bundled query packs (not seed data)."""
    load_extension(graph,
                   cancers_csv=DATA / "fixture_cancers.csv",
                   genes_csv=data_path("fixture_genes.csv"),
                   associations_csv=DATA / "fixture_associations.csv")
