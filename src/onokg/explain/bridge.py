"""Token relevance for tagger predictions.

The tagger head is a one-layer network over multi-hot features, so
relevance lands on individual features; each feature describes a sentence
position (its own word, or the previous/next word for context features),
and per-word scores are the sums of their features' relevances.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..ie.decode import decode_entities
from ..ie.tagger import EncodedSentence, TaggerModel, tag_probabilities
from .net import FeedForwardNet, Layer
from .relevance import RelevanceMap, lrp, sensitivity

_CONTEXT_OFFSET = {"prev": -1, "prevcase": -1, "next": 1, "nextcase": 1}


def head_network(model: TaggerModel) -> FeedForwardNet:
    return FeedForwardNet([Layer(model.weights, model.bias, "identity")])


def _feature_offset(model: TaggerModel, fid: int) -> int:
    """Word offset of the position a feature describes (-1, 0 or +1)."""
    family = model.space.name(fid).split("=", 1)[0]
    return _CONTEXT_OFFSET.get(family, 0)


def piece_relevance(model: TaggerModel, encoded: EncodedSentence,
                    piece_index: int, target: Optional[int] = None,
                    method: str = "lrp", epsilon: float = 0.01,
                    delta: float = 1.0) -> tuple[RelevanceMap, int]:
    """Relevance map for one piece's prediction; returns (map, class)."""
    ids = encoded.feature_ids[piece_index]
    x = np.zeros(model.hidden_size)
    x[ids] = 1.0
    net = head_network(model)
    if target is None:
        target = int(net.output(x).argmax())
    if method == "lrp":
        rmap = lrp(net, x, target, epsilon=epsilon, delta=delta)
    elif method == "sensitivity":
        rmap = sensitivity(net, x, target)
    else:
        raise ValueError(f"unknown method {method!r}")
    return rmap, target


def sentence_token_relevance(model: TaggerModel, encoded: EncodedSentence,
                             method: str = "lrp", epsilon: float = 0.01,
                             delta: float = 1.0) -> np.ndarray:
    """Per-word relevance toward the predicted entity tags.

    Every word predicted inside a mention span contributes the relevance
    of its head piece's prediction; feature scores fold back onto the
    words they describe (subword scores sum into words).
    """
    probs = tag_probabilities(model, encoded.feature_ids)
    tags = probs.argmax(axis=1)
    mentions = decode_entities(encoded, {model.entity_type: (tags, probs)})
    scores = np.zeros(len(encoded.words))
    entity_words = {i for m in mentions for i in range(m.start, m.end)}
    for pos, (word_idx, head) in enumerate(zip(encoded.word_of_piece,
                                               encoded.is_head_piece)):
        if word_idx < 0 or not head or word_idx not in entity_words:
            continue
        rmap, _cls = piece_relevance(model, encoded, pos, None, method,
                                     epsilon, delta)
        ids = encoded.feature_ids[pos]
        for fid in ids:
            target_word = word_idx + _feature_offset(model, int(fid))
            if 0 <= target_word < len(scores):
                scores[target_word] += rmap.scores[fid]
    return scores
