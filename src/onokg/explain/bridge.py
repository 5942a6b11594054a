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

`sentence_token_relevance` explains a group of sentences (one
`encode_and_tag` group) for one head. The entity pieces of the whole group
come from one mask. Each piece's z is still one `weights @ x + bias`
product of its own, run in piece order: that is the only per-piece loop,
and it is what pins the scores' bits. A GEMM over the group (`W @ X.T` or
`X @ W.T`) sums in another order and changes them; a stacked
`np.matmul(W, X[:, :, None])` keeps them but was no faster at this size.
Everything after the product is array code that runs, element for
element, the IEEE operations of one piece at a time: the finiteness
check, argmax, sign, denominator, zero check and relevance. The word
scores are one `bincount` over the group, each sentence's bins shifted so
that its words sit between a bin before its first word and one after its
last (what context features send out of the sentence); `bincount` adds in
input order, so each word's sum keeps its order and bits.

An error is that of the first failing piece in the group, as if the
pieces ran one at a time, and it carries that piece's sentence index. The
products and the failure checks run under `np.errstate(all="ignore")`.
The relevance of the pieces before the first failing one runs outside it,
and so does the failing piece's product, run again: only the warnings
that a piece-at-a-time run meets are raised.
"""

from __future__ import annotations

import math
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


def sentence_token_relevance(
        model: TaggerModel, encodings: Sequence[EncodedSentence],
        tags: Sequence[Sequence[int]], offsets: np.ndarray,
        method: str = "lrp", epsilon: float = 0.01,
        delta: float = 1.0) -> list[np.ndarray]:
    """Per-word relevance toward the predicted entity tags, per sentence.

    `tags[i]` is the model's argmax tagging of `encodings[i]`'s pieces, and
    `offsets` is `feature_offsets` of its feature space. Every word whose
    head piece is tagged B or I contributes the relevance of its head
    piece's prediction; feature scores fold back onto the words they
    describe (subword scores sum into words, in piece and feature order).
    A tag list whose length is not the number of pieces, a NaN or infinite
    epsilon or delta, or a negative epsilon raises ValueError. The errors
    of the first failing piece carry its sentence index as `sentence`.
    """
    if method not in ("lrp", "sensitivity"):
        raise ValueError(f"unknown method {method!r}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError("epsilon must be a finite number >= 0")
    if not math.isfinite(delta):
        raise ValueError("delta must be a finite number")
    for encoded, sentence_tags in zip(encodings, tags, strict=True):
        if len(sentence_tags) != len(encoded.pieces):
            raise ValueError(f"{len(sentence_tags)} tags for a sentence of "
                             f"{len(encoded.pieces)} pieces")
    if not encodings:
        return []
    weights, bias, hidden = model.weights, model.bias, model.hidden_size
    counts = np.concatenate([e.counts for e in encodings])
    flat = np.concatenate([e.flat for e in encodings])
    # sentence i's bins start at bases[i]: one bin before its first word,
    # one per word, one after its last
    bases = np.cumsum([0] + [len(e.words) + 2 for e in encodings])
    sentence = np.repeat(np.arange(len(encodings)), list(map(len, encodings)))
    bins = np.concatenate([e.word_of_piece for e in encodings]) \
        + bases[sentence] + 1
    head = np.concatenate([e.is_head_piece for e in encodings])
    pieces = np.flatnonzero(head & (np.concatenate(tags) <= 1))  # B 0, I 1
    ends = np.cumsum(counts)[pieces].tolist()
    rows = [flat[end - n:end] for n, end in zip(counts[pieces].tolist(), ends)]
    z = np.empty((len(rows), len(bias)))
    x = np.zeros(hidden)
    # an error stops at the first failing piece, so what is computed for
    # the pieces after it must not warn
    with np.errstate(all="ignore"):
        for row, ids in enumerate(rows):
            x[ids] = 1.0
            z[row] = weights @ x + bias
            x[ids] = 0.0
        sign = np.where(z >= 0, 1.0, -1.0)
        failing = ~np.isfinite(z).all(axis=1)
        if method == "lrp":
            failing |= (z + epsilon * sign == 0.0).any(axis=1)
    kept = int(failing.argmax()) if failing.any() else len(rows)
    c = z[:kept].argmax(axis=1)
    ids = np.concatenate([flat[:0], *rows[:kept]])
    per_id = np.repeat(np.arange(kept), counts[pieces[:kept]])
    if method == "sensitivity":
        relevance = weights[c[per_id], ids] ** 2
    else:
        picked = np.arange(kept), c
        denom = (z[:kept] + epsilon * sign[:kept])[picked]
        shift = (epsilon * sign[picked] + delta * bias[c]) / hidden
        relevance = (weights[c[per_id], ids] * 1.0 + shift[per_id]) \
            / denom[per_id] * z[picked][per_id]
    if kept < len(rows):
        # the failing piece's product again, outside the errstate, so that
        # it warns as it does when the pieces run one at a time
        x[rows[kept]] = 1.0
        z = weights @ x + bias
        error = NumericError(0) if not np.isfinite(z).all() else \
            SingularDenominatorError(0, int(np.flatnonzero(
                z + epsilon * sign[kept] == 0.0)[0]))
        error.sentence = int(sentence[pieces[kept]])
        raise error
    # bincount adds in input order, so each word's sum keeps its order
    scores = np.bincount(bins[pieces][per_id] + offsets[ids],
                         weights=relevance, minlength=bases[-1])
    return [scores[a + 1:b - 1] for a, b in zip(bases[:-1].tolist(),
                                                bases[1:].tolist())]
