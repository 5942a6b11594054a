"""IOB decoding: subword tags back to word-level entity mentions.

Continuation (X) pieces are merged into their head word before span
construction, [CLS]/[SEP]/PAD never enter a span, and an I without a
preceding B is repaired to B (logged). When span candidates from
different entity-type models overlap, the span with the highest mean tag
probability wins; exact ties break lexicographically by type name.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..kg import Term
from .tagger import TAGS, EncodedSentence

log = logging.getLogger(__name__)


@dataclass
class EntityMention:
    sentence_index: int
    start: int
    end: int           # exclusive word index
    surface: str
    entity_type: str
    score: float
    normalized_id: Optional[Term] = None


def word_level_tags(encoded: EncodedSentence, tags: Sequence[int],
                    probabilities: np.ndarray
                    ) -> tuple[list[str], list[float]]:
    """Project piece-level tags onto words via each word's head piece."""
    if len(tags) != len(encoded.pieces) or len(probabilities) != len(tags):
        raise ValueError("tags/probabilities misaligned with pieces")
    word_tags = ["O"] * len(encoded.words)
    word_probs = [1.0] * len(encoded.words)
    tag_ids = np.asarray(tags)
    picked = probabilities[np.arange(len(tag_ids)), tag_ids].tolist()
    for word_idx, head, tag_id, prob in zip(encoded.word_of_piece,
                                            encoded.is_head_piece,
                                            tag_ids.tolist(), picked):
        if word_idx < 0 or not head:
            continue
        tag = TAGS[tag_id]
        if tag in ("X", "[CLS]", "[SEP]", "PAD"):
            tag = "O"
        word_tags[word_idx] = tag
        word_probs[word_idx] = prob
    return word_tags, word_probs


def find_spans(word_tags: Sequence[str]) -> list[tuple[int, int]]:
    """Maximal B I* spans; a dangling I opens a new span (decode repair)."""
    spans = []
    start = None
    for i, tag in enumerate(word_tags):
        if tag == "B":
            if start is not None:
                spans.append((start, i))
            start = i
        elif tag == "I":
            if start is None:
                log.warning("I tag without preceding B at word %d; "
                            "treating it as B", i)
                start = i
        else:
            if start is not None:
                spans.append((start, i))
                start = None
    if start is not None:
        spans.append((start, len(word_tags)))
    return spans


def _span_candidates(word_tags, word_probs, entity_type):
    out = []
    for start, end in find_spans(word_tags):
        score = float(np.mean(word_probs[start:end]))
        out.append((start, end, entity_type, score))
    return out


def decode_entities(encoded: EncodedSentence,
                    tagged: dict[str, tuple[Sequence[int], np.ndarray]],
                    sentence_index: int = 0) -> list[EntityMention]:
    """Merge the per-type tag sequences into typed, non-overlapping
    mentions."""
    candidates = []
    for entity_type in sorted(tagged):
        tags, probs = tagged[entity_type]
        word_tags, word_probs = word_level_tags(encoded, tags, probs)
        candidates.extend(_span_candidates(word_tags, word_probs,
                                           entity_type))
    ordered = sorted(candidates,
                     key=lambda c: (-c[3], c[2], c[0], c[1]))
    taken: list[tuple[int, int]] = []
    mentions = []
    for start, end, etype, score in ordered:
        if any(s < end and start < e for s, e in taken):
            continue
        taken.append((start, end))
        mentions.append(EntityMention(
            sentence_index=sentence_index, start=start, end=end,
            surface=" ".join(encoded.words[start:end]),
            entity_type=etype, score=score))
    mentions.sort(key=lambda m: (m.start, m.end))
    return mentions

