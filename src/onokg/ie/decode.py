"""IOB decoding: subword tags back to word-level entity mentions.

Continuation (X) pieces are merged into their head word before span
construction, [CLS]/[SEP]/PAD never enter a span, and an I without a
preceding B is repaired to B (logged). When span candidates from
different entity-type models overlap, the span with the highest mean tag
probability wins; exact ties break lexicographically by type name.

`decode_entities` decodes a tagged group of sentences with array
operations, and it is the only code that turns piece tags into spans. A
span's score is its mean word probability, equal to `np.mean` to the bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
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


# A span of fewer words than this is scored as its word probabilities
# added left to right and divided by its length, which is np.mean to the
# bit: numpy sums fewer than 8 values one by one, and pairwise from 8 on,
# so a longer span is scored with np.mean itself. (np.add.reduceat is not
# np.mean from 3 values on.)
_SHORT_SPAN = 8


def decode_entities(encoded: Sequence[EncodedSentence],
                    tagged: Sequence[dict[str, tuple[Sequence[int],
                                                     np.ndarray]]],
                    sentence_indices: Optional[Sequence[int]] = None
                    ) -> list[list[EntityMention]]:
    """Each sentence's typed, non-overlapping mentions, for a group of
    sentences and their `corpus.tag_sentence` results (every sentence is
    tagged by the same types); `sentence_indices` gives each sentence's
    `EntityMention.sentence_index` (by default its place in the group).

    For each type, one gather over the group's head pieces gives every
    word the tag and probability of its head piece (a word without one
    reads as O), and spans are the maximal B I* runs inside a sentence,
    where a dangling I opens a span. The repairs are logged after all
    types are decoded, sentence by sentence, type by type in name order,
    word by word. Overlaps are resolved per sentence.
    """
    if sentence_indices is None:
        sentence_indices = range(len(encoded))
    types = sorted(tagged[0]) if tagged else []
    lengths = np.array([len(e.words) for e in encoded], dtype=np.int64)
    starts_of = np.cumsum(lengths) - lengths
    n_words = int(lengths.sum())
    word_of_piece = np.fromiter(
        chain.from_iterable(e.word_of_piece for e in encoded), np.int64)
    head = np.fromiter(chain.from_iterable(e.is_head_piece for e in encoded),
                       bool, len(word_of_piece))
    piece_lengths = [len(e.pieces) for e in encoded]
    heads = np.flatnonzero(head & (word_of_piece >= 0))
    head_words = (word_of_piece + np.repeat(starts_of, piece_lengths))[heads]
    first = np.zeros(n_words, dtype=bool)
    first[starts_of[lengths > 0]] = True
    sentence_of = np.repeat(np.arange(len(encoded)), lengths)
    found = []      # per type: sentence, start, end, rank, score
    repairs = []
    for rank, entity_type in enumerate(types):
        by_sentence = [by_type[entity_type] for by_type in tagged]
        if any(len(tags) != n or len(probs) != n for (tags, probs), n
               in zip(by_sentence, piece_lengths)):
            raise ValueError("tags/probabilities misaligned with pieces")
        tags = np.concatenate([np.asarray(t) for t, _ in by_sentence]
                              or [np.empty(0, np.int64)])[heads]
        probs = np.concatenate([p for _, p in by_sentence]
                               or [np.empty((0, len(TAGS)))])
        # B is tag 0 and I tag 1; X, [CLS], [SEP] and PAD read as O
        word_tags = np.full(n_words, 2)
        word_tags[head_words] = np.minimum(tags, 2)
        word_probs = np.ones(n_words)
        word_probs[head_words] = probs[heads, tags]
        inside = word_tags < 2
        after_inside = np.roll(inside, 1) & ~first
        dangling = (word_tags == 1) & ~after_inside
        cont = (word_tags == 1) & after_inside
        span_starts = np.flatnonzero(inside & ~cont)
        breaks = np.append(np.flatnonzero(~cont), n_words)
        span_ends = breaks[np.searchsorted(breaks, span_starts,
                                           side="right")]
        found.append((sentence_of[span_starts], span_starts, span_ends,
                      np.full(len(span_starts), rank),
                      _span_scores(word_probs, span_starts, span_ends)))
        at = np.flatnonzero(dangling)
        repairs += zip(sentence_of[at].tolist(), [rank] * len(at),
                       (at - starts_of[sentence_of[at]]).tolist())
    for _sentence, _rank, word in sorted(repairs):
        log.warning("I tag without preceding B at word %d; "
                    "treating it as B", word)
    mentions: list[list[EntityMention]] = [[] for _ in encoded]
    if not found:
        return mentions
    sentence, start, end, rank, score = map(np.concatenate, zip(*found))
    order = np.lexsort((end, start, rank, -score, sentence))
    offset = starts_of[sentence]
    taken: list[list[tuple[int, int]]] = [[] for _ in encoded]
    for s, a, b, r, score in zip(*(column[order].tolist() for column in (
            sentence, start - offset, end - offset, rank, score))):
        if any(x < b and a < y for x, y in taken[s]):
            continue
        taken[s].append((a, b))
        mentions[s].append(EntityMention(
            sentence_index=sentence_indices[s], start=a, end=b,
            surface=" ".join(encoded[s].words[a:b]),
            entity_type=types[r], score=score))
    for found_in_sentence in mentions:
        found_in_sentence.sort(key=lambda m: (m.start, m.end))
    return mentions


def _span_scores(word_probs: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray) -> np.ndarray:
    """Mean word probability of each span, equal to np.mean to the bit."""
    lengths = ends - starts
    at = starts[:, None] + np.arange(_SHORT_SPAN - 1)
    padded = np.where(at < ends[:, None],
                      word_probs[np.minimum(at, len(word_probs) - 1)], 0.0)
    total = padded[:, 0].copy()
    for column in padded.T[1:]:
        total += column
    scores = total / lengths
    for k in np.flatnonzero(lengths >= _SHORT_SPAN).tolist():
        scores[k] = np.mean(word_probs[starts[k]:ends[k]])
    return scores
