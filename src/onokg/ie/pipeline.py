"""End-to-end document processing: preprocess, tag, decode, link, relate,
and enrich. A document's sentences, and the chunks of any sentence too
long to tag at once, are encoded, tagged and decoded in groups of
`tagger.LOSS_CHUNK` (see `corpus.encode_and_tag`); linking and the
relation rules run per sentence or chunk. Documents are committed in
sorted-id order so the result does not depend on arrival order.
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
from .tagger import LOSS_CHUNK, Checkpoint
from .corpus import encode_and_tag

log = logging.getLogger(__name__)

# The longest encoding ([CLS] + pieces + [SEP]) tagged as one sequence; a
# longer sentence is cut by split_to_fit, and each chunk is encoded and
# tagged as a sequence of its own.
MAX_PIECES = 128


def split_to_fit(words: list[str], vocab, max_len: int,
                 gazetteers) -> list[tuple[int, list[str]]]:
    """Chunk a sentence so each piece sequence fits max_len; a sentence
    that fits is one chunk, (0, words).

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
    mentions: list[EntityMention] = field(default_factory=list)
    candidates: list[RelationCandidate] = field(default_factory=list)


def extract_document(doc: Document, checkpoint: Checkpoint,
                     alias_table: AliasTable) -> DocumentExtraction:
    result = DocumentExtraction()
    space = next(iter(checkpoint.models.values())).space
    vocab, gazetteers = checkpoint.vocab, checkpoint.gazetteers
    # (sentence index, word offset, words) of each sentence, or of each
    # chunk of a sentence too long to tag at once
    units = [(sent_idx, offset, chunk)
             for sent_idx, words in enumerate(doc.sentences)
             for offset, chunk in split_to_fit(words, vocab, MAX_PIECES,
                                               gazetteers)]
    groups = encode_and_tag(checkpoint.models, [c for _, _, c in units],
                            vocab, space, gazetteers)
    for first, (encodings, tagged) in zip(range(0, len(units), LOSS_CHUNK),
                                          groups):
        group = units[first:first + LOSS_CHUNK]
        decoded = decode_entities(encodings, tagged,
                                  [sent_idx for sent_idx, _, _ in group])
        for (_sent_idx, offset, chunk), mentions in zip(group, decoded):
            for mention in mentions:
                mention.normalized_id = link_entity(
                    mention.surface, mention.entity_type, alias_table)
            # relations see chunk-local spans; the result holds sentence
            # spans
            result.candidates.extend(extract_relations(chunk, mentions,
                                                       doc.id))
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
