"""Token relevance for tagger predictions.

The tagger head is a one-layer network over multi-hot features, so
relevance lands on individual features; each feature describes a sentence
position (its own word, or the previous/next word for context features),
and per-word scores are the sums of their features' relevances.

An entity word is one whose head piece is tagged B or I: exactly the
words of the mention spans that `decode.decode_entities` finds, since a
dangling I opens a span and X, [CLS], [SEP] and PAD at a head piece read
as O. Its head piece is explained toward the class c that the dense
forward pass z = W @ x + b predicts for it, where x is the piece's
multi-hot vector over the H features. Only the piece's active feature ids
reach a word, and for those ε-LRP of the one layer has a closed form:

    R[ids] = (W[c, ids] * 1.0 + (ε·sign[c] + δ·b[c]) / H) / denom[c] * z[c]

with sign = +1 where z >= 0 and -1 elsewhere, and denom = z + ε·sign. The
operations run in exactly that order, which is that of `relevance.lrp`,
where only class c holds relevance and so only c sends messages: the
scores are lrp's to the bit. Sensitivity is W[c, ids] ** 2,
the squared gradient of z[c]. As in lrp, a non-finite z raises
`NumericError` and the first zero denominator among the K classes raises
`SingularDenominatorError`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..ie.tagger import EncodedSentence, FeatureSpace, TaggerModel
from .net import NumericError
from .relevance import SingularDenominatorError

_CONTEXT_OFFSET = {"prev": -1, "prevcase": -1, "next": 1, "nextcase": 1}


def feature_offsets(space: FeatureSpace) -> np.ndarray:
    """Word offset (-1, 0 or +1) of the position each feature describes."""
    return np.array([_CONTEXT_OFFSET.get(space.name(fid).split("=", 1)[0], 0)
                     for fid in range(len(space))], dtype=np.int64)


def sentence_token_relevance(model: TaggerModel, encoded: EncodedSentence,
                             tags: Sequence[int], offsets: np.ndarray,
                             method: str = "lrp", epsilon: float = 0.01,
                             delta: float = 1.0) -> np.ndarray:
    """Per-word relevance toward the predicted entity tags.

    `tags` is the model's argmax tagging of the sentence's pieces, and
    `offsets` is `feature_offsets` of its feature space. Every word whose
    head piece is tagged B or I contributes the relevance of its head
    piece's prediction; feature scores fold back onto the words they
    describe (subword scores sum into words, in piece and feature order).
    A tag list whose length is not the number of pieces raises ValueError.
    """
    if method not in ("lrp", "sensitivity"):
        raise ValueError(f"unknown method {method!r}")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if len(tags) != len(encoded.pieces):
        raise ValueError(f"{len(tags)} tags for a sentence of "
                         f"{len(encoded.pieces)} pieces")
    weights, bias = model.weights, model.bias
    hidden = model.hidden_size
    x = np.zeros(hidden)
    targets, values = [], []
    ends = np.cumsum(encoded.counts).tolist()
    for word_idx, head, tag, start, end in zip(encoded.word_of_piece,
                                               encoded.is_head_piece,
                                               np.asarray(tags).tolist(),
                                               [0] + ends, ends):
        if not head or tag > 1:     # B is tag 0 and I tag 1
            continue
        ids = encoded.flat[start:end]
        x[ids] = 1.0
        z = weights @ x + bias
        x[ids] = 0.0
        if not np.isfinite(z).all():
            raise NumericError(0)
        c = int(z.argmax())
        if method == "sensitivity":
            relevance = weights[c, ids] ** 2
        else:
            sign = np.where(z >= 0, 1.0, -1.0)
            denom = z + epsilon * sign
            zero = np.nonzero(denom == 0.0)[0]
            if len(zero):
                raise SingularDenominatorError(0, int(zero[0]))
            relevance = (weights[c, ids] * 1.0
                         + (epsilon * sign[c] + delta * bias[c]) / hidden) \
                / denom[c] * z[c]
        targets.append(word_idx + offsets[ids])
        values.append(relevance)
    n = len(encoded.words)
    if not targets:
        return np.zeros(n)
    # bins shifted by one, so the words before the first and after the last
    # take what falls outside the sentence; bincount adds in input order
    return np.bincount(np.concatenate(targets) + 1,
                       weights=np.concatenate(values),
                       minlength=n + 2)[1:n + 1]
