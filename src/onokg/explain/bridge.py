"""Token relevance for tagger predictions.

The tagger head is a one-layer network over multi-hot features, so
relevance lands on individual features; each feature describes a sentence
position (its own word, or the previous/next word for context features),
and per-word scores are the sums of their features' relevances.
"""

from __future__ import annotations

import numpy as np

from ..ie.decode import decode_entities
from ..ie.tagger import EncodedSentence, TaggerModel, tag_probabilities
from .net import FeedForwardNet, Layer
from .relevance import lrp, sensitivity

_CONTEXT_OFFSET = {"prev": -1, "prevcase": -1, "next": 1, "nextcase": 1}


def _feature_offset(model: TaggerModel, fid: int) -> int:
    """Word offset of the position a feature describes (-1, 0 or +1)."""
    family = model.space.name(fid).split("=", 1)[0]
    return _CONTEXT_OFFSET.get(family, 0)


def sentence_token_relevance(model: TaggerModel, encoded: EncodedSentence,
                             method: str = "lrp", epsilon: float = 0.01,
                             delta: float = 1.0) -> np.ndarray:
    """Per-word relevance toward the predicted entity tags.

    Every word predicted inside a mention span contributes the relevance
    of its head piece's prediction, explained toward the class the head
    network predicts for that piece; feature scores fold back onto the
    words they describe (subword scores sum into words).
    """
    probs = tag_probabilities(model, encoded.feature_ids)
    tags = probs.argmax(axis=1)
    mentions = decode_entities(encoded, {model.entity_type: (tags, probs)})
    scores = np.zeros(len(encoded.words))
    entity_words = {i for m in mentions for i in range(m.start, m.end)}
    net = FeedForwardNet([Layer(model.weights, model.bias, "identity")])
    for pos, (word_idx, head) in enumerate(zip(encoded.word_of_piece,
                                               encoded.is_head_piece)):
        if word_idx < 0 or not head or word_idx not in entity_words:
            continue
        ids = encoded.feature_ids[pos]
        x = np.zeros(model.hidden_size)
        x[ids] = 1.0
        target = int(net.output(x).argmax())
        if method == "lrp":
            rmap = lrp(net, x, target, epsilon=epsilon, delta=delta)
        elif method == "sensitivity":
            rmap = sensitivity(net, x, target)
        else:
            raise ValueError(f"unknown method {method!r}")
        for fid in ids:
            target_word = word_idx + _feature_offset(model, int(fid))
            if 0 <= target_word < len(scores):
                scores[target_word] += rmap.scores[fid]
    return scores
