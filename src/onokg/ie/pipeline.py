"""End-to-end document processing: preprocess, tag, decode, link, relate,
and enrich. Documents are committed in sorted-id order so the result does
not depend on arrival order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..kg import Graph
from ..ntriples import EncodingError, read_text
from .decode import EntityMention, decode_entities
from .enrich import EnrichmentReport, enrich_kg
from .linking import AliasTable, link_entity
from .preprocess import Document, preprocess, stopwords
from .relations import RelationCandidate, extract_relations
from .tagger import Checkpoint, EncodedSentence, encode_sentence
from .corpus import tag_sentence

log = logging.getLogger(__name__)

# The longest encoding ([CLS] + pieces + [SEP]) tagged at once; a longer
# sentence is cut by split_to_fit, and each chunk is encoded and tagged on
# its own.
MAX_PIECES = 128


def split_to_fit(words: list[str], vocab, max_len: int,
                 gazetteers) -> list[tuple[int, list[str]]]:
    """Chunk a long sentence so each piece sequence fits max_len.

    The cut lands on the last stopword before the limit, and never inside
    a gazetteer span.
    """
    piece_counts = [max(1, len(vocab.tokenize(w))) for w in words]
    if sum(piece_counts) + 2 <= max_len:
        return [(0, words)]
    stop = stopwords()
    inside = [False] * len(words)
    for gaz in gazetteers.values():
        for i, mark in enumerate(gaz.mark(words)):
            if mark == "I":
                inside[i] = True
    chunks = []
    start = 0
    while start < len(words):
        total = 2
        end = start
        last_safe = None
        while end < len(words) and total + piece_counts[end] <= max_len:
            total += piece_counts[end]
            end += 1
            before_next_inside = end < len(words) and inside[end]
            if words[end - 1].lower() in stop and not before_next_inside:
                last_safe = end
        if end == len(words):
            chunks.append((start, words[start:end]))
            break
        cut = last_safe if last_safe and last_safe > start else end
        if cut == start:  # single oversized word; take it anyway
            cut = start + 1
        chunks.append((start, words[start:cut]))
        start = cut
    return chunks


@dataclass
class DocumentExtraction:
    doc_id: str
    mentions: list[EntityMention] = field(default_factory=list)
    candidates: list[RelationCandidate] = field(default_factory=list)


def extract_document(doc: Document, checkpoint: Checkpoint,
                     alias_table: AliasTable) -> DocumentExtraction:
    result = DocumentExtraction(doc.id)
    space = next(iter(checkpoint.models.values())).space

    def encode(words: list[str]) -> EncodedSentence:
        return encode_sentence(words, checkpoint.vocab, space,
                               checkpoint.gazetteers)

    for sent_idx, words in enumerate(doc.sentences):
        encoded = encode(words)
        if len(encoded) <= MAX_PIECES:
            chunks = [(0, encoded)]
        else:
            chunks = [(offset, encode(chunk)) for offset, chunk in
                      split_to_fit(words, checkpoint.vocab, MAX_PIECES,
                                   checkpoint.gazetteers)]
        for offset, encoded in chunks:
            mentions = decode_entities(
                encoded, tag_sentence(checkpoint.models, encoded),
                doc.id, sent_idx)
            for mention in mentions:
                mention.normalized_id = link_entity(
                    mention.surface, mention.entity_type, alias_table)
            # relations see chunk-local spans; the result holds sentence
            # spans
            result.candidates.extend(extract_relations(
                encoded.words, mentions, doc.id, sent_idx))
            if offset:
                mentions = [replace(m, start=m.start + offset,
                                    end=m.end + offset) for m in mentions]
            result.mentions.extend(mentions)
    return result


def ingest_documents(graph: Graph, docs: Sequence[Document],
                     checkpoint: Checkpoint, alias_table: AliasTable,
                     threshold: float = 0.5) -> EnrichmentReport:
    candidates: list[RelationCandidate] = []
    for doc in sorted(docs, key=lambda d: d.id):
        try:
            extraction = extract_document(doc, checkpoint, alias_table)
        except Exception as exc:  # a bad document must not sink the batch
            log.warning("skipping document %s: %s", doc.id, exc)
            continue
        candidates.extend(extraction.candidates)
    return enrich_kg(graph, candidates, threshold)


def read_corpus_dir(path) -> list[Document]:
    """One document per *.txt file, or JSON-lines {id, text} in *.jsonl."""
    import json
    from pathlib import Path
    docs = []
    root = Path(path)
    for file in sorted(root.glob("*.txt")):
        try:
            docs.append(preprocess(read_text(file), file.stem))
        except (OSError, EncodingError) as exc:
            log.warning("skipping unreadable document: %s", exc)
    for file in sorted(root.glob("*.jsonl")):
        try:
            lines = read_text(file).splitlines()
        except (OSError, EncodingError) as exc:
            log.warning("skipping unreadable corpus file: %s", exc)
            continue
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                text, doc_id = record["text"], record["id"]
                if not (isinstance(text, str) and isinstance(doc_id, str)):
                    raise TypeError("id and text must be strings")
            except (ValueError, KeyError, TypeError) as exc:
                log.warning("skipping malformed record %s:%d: %s", file,
                            number, exc)
                continue
            docs.append(preprocess(text, doc_id))
    return docs
