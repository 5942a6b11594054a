"""End-to-end document processing: preprocess, tag, decode, link, relate,
and enrich. Documents are committed in sorted-id order so the result does
not depend on arrival order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..kg import Graph
from ..ontology import SCHEMA, OnoSchema
from .decode import EntityMention, decode_entities
from .enrich import EnrichmentReport, enrich_kg
from .linking import AliasTable, link_entity
from .preprocess import Document, preprocess, stopwords
from .relations import RelationCandidate, extract_relations
from .tagger import Checkpoint, encode_sentence
from .corpus import tag_sentence

log = logging.getLogger(__name__)


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
                     alias_table: AliasTable,
                     schema: OnoSchema = SCHEMA,
                     max_len: int = 128) -> DocumentExtraction:
    result = DocumentExtraction(doc.id)
    space = next(iter(checkpoint.models.values())).space
    for sent_idx, sentence in enumerate(doc.sentences):
        words = [t.form for t in sentence]
        for offset, chunk in split_to_fit(words, checkpoint.vocab, max_len,
                                          checkpoint.gazetteers):
            encoded = encode_sentence(chunk, checkpoint.vocab, space,
                                      checkpoint.gazetteers)
            mentions = decode_entities(
                encoded, tag_sentence(checkpoint.models, encoded),
                doc.id, sent_idx)
            for mention in mentions:
                mention.start += offset
                mention.end += offset
                mention.normalized_id = link_entity(
                    mention.surface, mention.entity_type, alias_table)
            result.mentions.extend(mentions)
            local = [EntityMention(
                doc_id=m.doc_id, sentence_index=m.sentence_index,
                start=m.start - offset, end=m.end - offset,
                surface=m.surface, entity_type=m.entity_type,
                score=m.score, type_distribution=m.type_distribution,
                normalized_id=m.normalized_id) for m in mentions]
            result.candidates.extend(extract_relations(
                chunk, local, doc.id, sent_idx, schema))
    return result


def ingest_documents(graph: Graph, docs: Sequence[Document],
                     checkpoint: Checkpoint, alias_table: AliasTable,
                     threshold: float = 0.5,
                     schema: OnoSchema = SCHEMA) -> EnrichmentReport:
    candidates: list[RelationCandidate] = []
    for doc in sorted(docs, key=lambda d: d.id):
        try:
            extraction = extract_document(doc, checkpoint, alias_table,
                                          schema)
        except Exception as exc:  # a bad document must not sink the batch
            log.warning("skipping document %s: %s", doc.id, exc)
            continue
        candidates.extend(extraction.candidates)
    return enrich_kg(graph, candidates, threshold, schema)


def read_corpus_dir(path) -> list[Document]:
    """One document per *.txt file, or JSON-lines {id, text} in *.jsonl."""
    import json
    from pathlib import Path
    docs = []
    root = Path(path)
    for file in sorted(root.glob("*.txt")):
        try:
            docs.append(preprocess(file.read_text(encoding="utf-8"),
                                   file.stem))
        except (OSError, UnicodeDecodeError) as exc:
            log.warning("skipping unreadable document %s: %s", file, exc)
    for file in sorted(root.glob("*.jsonl")):
        try:
            lines = file.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            log.warning("skipping unreadable corpus file %s: %s", file, exc)
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
