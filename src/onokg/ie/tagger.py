"""Linear softmax sequence tagger over the 7-tag scheme.

Each subword piece is represented by a multi-hot feature vector T_i built
from an embedding table of engineered features (piece identity, word
identity, casing, neighbor context, gazetteer hits). Tag probabilities
are p(T_i) = softmax(T_i W^T + b) over K = 7 tags, and the training loss
is the mean negative log-likelihood per sequence, averaged over the batch.
A 1e-12 probability floor keeps the loss finite.

One model is trained per entity type; the decoder reconciles overlapping
spans from different type models by their probabilities.

Training works on packed batches. The piece rows of a batch's sentences
are taken in order: their feature ids run into one flat array, with a
count per piece, and each sentence keeps the bounds of its rows. One
`logits` call scores every piece (one `np.add.reduceat` segment per
piece), and the weight gradient is one `np.bincount` per tag over the
flat ids, weighted by each piece's delta. A checkpoint stays the same to
the bit as under a per-sentence loop: a piece's logit sums the same
weights in the same order; bincount adds to each weight column in index
order, which is piece order; and the per-sentence mean NLL and bias sums
stay one `mean` / `sum` per sentence segment, as one reduceat over the
sentences would reassociate their additions. `tagging_loss` scores a
corpus `LOSS_CHUNK` sentences at a time, so its (K, features) gather stays
near 1 MB on the template corpus whatever the corpus size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..ntriples import read_text, write_atomic
from .preprocess import stopwords
from .wordpiece import SubwordVocab

TAGS = ("B", "I", "O", "X", "[CLS]", "[SEP]", "PAD")
TAG_INDEX = {tag: i for i, tag in enumerate(TAGS)}
K = len(TAGS)

PROB_FLOOR = 1e-12

class DimensionError(ValueError):
    pass


class CheckpointError(ValueError):
    """A checkpoint whose content cannot describe a model."""


def _case_class(word: str) -> str:
    if word.isupper() and len(word) > 1:
        return "upper"
    if word[:1].isupper():
        return "title"
    if any(c.isdigit() for c in word):
        return "digit"
    if word.islower():
        return "lower"
    return "other"


class Gazetteer:
    """Longest-match dictionary of multi-word surfaces, queried per word."""

    def __init__(self, surfaces: Sequence[str]):
        self._entries: set[tuple[str, ...]] = set()
        self.max_len = 1
        for surface in surfaces:
            words = tuple(w.lower() for w in surface.split())
            if words:
                self._entries.add(words)
                self.max_len = max(self.max_len, len(words))

    def mark(self, words: Sequence[str]) -> list[str]:
        """Per-word B/I/O hit marks using longest-match-first scanning."""
        lower = [w.lower() for w in words]
        marks = ["O"] * len(words)
        i = 0
        while i < len(words):
            matched = 0
            for span in range(min(self.max_len, len(words) - i), 0, -1):
                if tuple(lower[i:i + span]) in self._entries:
                    matched = span
                    break
            if matched:
                marks[i] = "B"
                for j in range(i + 1, i + matched):
                    marks[j] = "I"
                i += matched
            else:
                i += 1
        return marks

    def surfaces(self) -> list[tuple[str, ...]]:
        return sorted(self._entries)


class FeatureSpace:
    """Embedding table mapping engineered feature names to vector slots.

    The table is frozen after building: unseen feature names at encode
    time fall back to a per-family unknown slot.
    """

    def __init__(self):
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self.frozen = False
        # encode_sentence's word types, per vocabulary. They stay valid
        # while the space lives: a name never changes id, and freezing only
        # adds the <unk> slots, which no interned name falls back to.
        self.word_types: dict[SubwordVocab, dict[str, _WordType]] = {}

    def __len__(self):
        return len(self._index)

    def intern(self, name: str) -> Optional[int]:
        idx = self._index.get(name)
        if idx is None:
            if self.frozen:
                family = name.split("=", 1)[0]
                return self._index.get(f"{family}=<unk>")
            idx = len(self._index)
            self._index[name] = idx
            self._names.append(name)
        return idx

    def name(self, idx: int) -> str:
        return self._names[idx]

    def freeze(self):
        if not self.frozen:
            for family in ("p", "w", "prev", "next"):
                self.intern(f"{family}=<unk>")
            self.frozen = True

    def to_dict(self) -> dict[str, int]:
        return dict(self._index)

    @classmethod
    def from_dict(cls, mapping: dict[str, int]) -> "FeatureSpace":
        if not all(isinstance(idx, int) for idx in mapping.values()):
            raise CheckpointError("feature ids must be integers")
        space = cls()
        for name, idx in sorted(mapping.items(), key=lambda kv: kv[1]):
            if space.intern(name) != idx:
                raise CheckpointError(
                    f"feature {name!r} has id {idx!r}; feature ids must "
                    f"run from 0 to {len(mapping) - 1} without gaps")
        space.frozen = True
        return space


@dataclass
class EncodedSentence:
    """A sentence rendered to [CLS] + pieces + [SEP] with feature ids."""

    words: list[str]
    pieces: list[str]
    word_of_piece: list[int]     # -1 for [CLS]/[SEP]
    is_head_piece: list[bool]
    feature_ids: list[np.ndarray]

    def __len__(self):
        return len(self.pieces)


class _WordType:
    """What encode_sentence derives from a word alone: its pieces, its
    lowercase form and case class (also a neighbour's context), and the ids
    of each piece's own features (piece, head/cont, word, case, stopword),
    which are interned at the type's first encoding."""

    __slots__ = ("pieces", "lower", "case", "stop", "own")

    def __init__(self, word: str, vocab: SubwordVocab):
        self.pieces = vocab.tokenize(word)
        self.lower = word.lower()
        self.case = _case_class(word)
        self.stop = ["stop"] if self.lower in stopwords() else []
        self.own: Optional[list[frozenset]] = None

    def intern(self, space: FeatureSpace, context: list[str],
               tail: list[str]) -> None:
        """Intern the word's rows name by name in row order, so that a
        growing space numbers features in first-use order; keep each
        piece's own ids."""
        self.own = []
        for j, piece in enumerate(self.pieces):
            own = [f"p={piece}", "head" if j == 0 else "cont",
                   f"w={self.lower}", f"case={self.case}"]
            for name in own + context + self.stop + tail:
                space.intern(name)
            self.own.append(_interned(space, own + self.stop))


def _interned(space: FeatureSpace, names) -> frozenset:
    return frozenset(fid for fid in map(space.intern, names)
                     if fid is not None)


def encode_sentence(words: Sequence[str], vocab: SubwordVocab,
                    space: FeatureSpace,
                    gazetteers: dict[str, Gazetteer]) -> EncodedSentence:
    """Each piece row holds the sorted ids of its word type's own features
    and of the features of its position: the neighbours' forms and case
    classes, first/last, and one gazetteer mark per gazetteer. Word types
    are cached on the space (see `FeatureSpace.word_types`)."""
    cache = space.word_types.setdefault(vocab, {})
    types = []
    for word in words:
        wtype = cache.get(word)
        if wtype is None:
            wtype = cache[word] = _WordType(word, vocab)
        types.append(wtype)
    marks = [(f"gaz-{name}=", gaz.mark(words))
             for name, gaz in gazetteers.items()]
    last = len(words) - 1
    pieces: list[str] = ["[CLS]"]
    word_of_piece: list[int] = [-1]
    is_head: list[bool] = [False]
    ids = [_row(_interned(space, ["special=[CLS]"]))]
    for i, wtype in enumerate(types):
        if not wtype.pieces:    # no rows, so no names to intern
            continue
        before = types[i - 1] if i > 0 else None
        after = types[i + 1] if i < last else None
        context = [f"prev={before.lower}" if before else "prev=<s>",
                   f"next={after.lower}" if after else "next=</s>",
                   f"prevcase={before.case}" if before else "prevcase=<s>",
                   f"nextcase={after.case}" if after else "nextcase=</s>"]
        tail = (["first"] if i == 0 else []) + (["last"] if i == last else [])
        tail += [prefix + mark[i] for prefix, mark in marks]
        if wtype.own is None:
            wtype.intern(space, context, tail)
        position = _interned(space, context + tail)
        for j, piece in enumerate(wtype.pieces):
            pieces.append(piece)
            word_of_piece.append(i)
            is_head.append(j == 0)
            ids.append(_row(wtype.own[j] | position))
    pieces.append("[SEP]")
    word_of_piece.append(-1)
    is_head.append(False)
    ids.append(_row(_interned(space, ["special=[SEP]"])))
    return EncodedSentence(list(words), pieces, word_of_piece, is_head, ids)


def _row(fids: frozenset) -> np.ndarray:
    return np.asarray(sorted(fids), dtype=np.int64)


def gold_tags(encoded: EncodedSentence,
              spans: Sequence[tuple[int, int]]) -> np.ndarray:
    """Tag indices for [CLS] + pieces + [SEP]: the head piece of a word
    carries B/I/O, continuation pieces are X."""
    word_tags = ["O"] * len(encoded.words)
    for start, end in spans:
        word_tags[start] = "B"
        for i in range(start + 1, end):
            word_tags[i] = "I"
    out = []
    for piece, word_idx, head in zip(encoded.pieces, encoded.word_of_piece,
                                     encoded.is_head_piece):
        if piece == "[CLS]":
            out.append(TAG_INDEX["[CLS]"])
        elif piece == "[SEP]":
            out.append(TAG_INDEX["[SEP]"])
        elif head:
            out.append(TAG_INDEX[word_tags[word_idx]])
        else:
            out.append(TAG_INDEX["X"])
    return np.asarray(out, dtype=np.int64)


@dataclass
class TaggerModel:
    """Eq.-style softmax head: weights (K, H), bias (K,)."""

    space: FeatureSpace
    weights: np.ndarray
    bias: np.ndarray
    entity_type: str = "Gene"

    def __post_init__(self):
        if self.weights.shape[0] != K or self.bias.shape != (K,):
            raise DimensionError(
                f"expected weights (K={K}, H) and bias (K,), got "
                f"{self.weights.shape} and {self.bias.shape}")

    @property
    def hidden_size(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def zeros(cls, space: FeatureSpace, entity_type: str = "Gene"
              ) -> "TaggerModel":
        space.freeze()
        return cls(space, np.zeros((K, len(space))), np.zeros(K),
                   entity_type)


def _pack(feature_ids: Sequence[np.ndarray]
          ) -> tuple[np.ndarray, np.ndarray]:
    """Every token's feature ids run together, and each token's count."""
    counts = np.fromiter(map(len, feature_ids), dtype=np.int64,
                         count=len(feature_ids))
    if not len(feature_ids):
        return np.zeros(0, dtype=np.int64), counts
    return np.concatenate(feature_ids), counts


def logits(model: TaggerModel, flat: np.ndarray, counts: np.ndarray
           ) -> np.ndarray:
    """T_i W^T + b for every token; T_i is the multi-hot feature vector.

    The tokens come packed by `_pack`: token i has the `counts[i]` feature
    ids that follow those of the tokens before it in `flat`.
    """
    out = np.repeat(model.bias[None, :], len(counts), axis=0)
    if len(flat):
        top = int(flat.max())
        if top >= model.hidden_size:
            raise DimensionError(
                f"feature id {top} out of range for hidden size "
                f"{model.hidden_size}")
        cols = model.weights.take(flat, axis=1)            # (K, total)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        nonempty = counts > 0
        sums = np.add.reduceat(cols, offsets[nonempty], axis=1)
        out[nonempty] += sums.T
    return out


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


# tagging_loss scores a corpus this many sentences at a time, which bounds
# the (K, pieces x features) gather inside logits to about 1 MB.
LOSS_CHUNK = 64


def _packed(model: TaggerModel,
            batch: Sequence[tuple[Sequence[np.ndarray], np.ndarray]]):
    """The batch's piece rows in order, packed (flat ids and counts),
    their tag distributions from one logits call, their gold labels, and
    each sentence's row bounds."""
    flat, counts = _pack([row for ids, _labels in batch for row in ids])
    labels = np.concatenate([labels for _ids, labels in batch])
    ends = np.cumsum([len(labels) for _ids, labels in batch])
    return flat, counts, softmax(logits(model, flat, counts)), labels, ends


def _sentence_losses(probs: np.ndarray, labels: np.ndarray,
                     ends: np.ndarray) -> list[float]:
    """Mean NLL of each sentence, one np.mean per sentence segment."""
    picked = np.maximum(probs[np.arange(len(labels)), labels], PROB_FLOOR)
    log_picked = np.log(picked)
    starts = np.concatenate(([0], ends[:-1]))
    return [float(-log_picked[a:b].mean()) for a, b in zip(starts, ends)]


def tagging_loss(model: TaggerModel,
                 batch: Sequence[tuple[Sequence[np.ndarray], np.ndarray]]
                 ) -> float:
    """Mean over sequences of the per-sequence mean NLL."""
    if not batch:
        return 0.0
    losses: list[float] = []
    for start in range(0, len(batch), LOSS_CHUNK):
        _flat, _counts, probs, labels, ends = _packed(
            model, batch[start:start + LOSS_CHUNK])
        losses += _sentence_losses(probs, labels, ends)
    return float(np.mean(losses))


def loss_and_gradients(model: TaggerModel,
                       batch: Sequence[tuple[Sequence[np.ndarray],
                                             np.ndarray]]
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    """Analytic gradient of tagging_loss w.r.t. weights and bias.

    delta = (p - onehot(label)) / (n * batch size) for every piece of an
    n-piece sentence. The bias gradient sums delta sentence by sentence;
    the weight gradient adds each piece's delta to the columns of its
    features with one bincount per tag, in piece order.
    """
    flat, counts, probs, labels, ends = _packed(model, batch)
    total = 0.0
    for loss in _sentence_losses(probs, labels, ends):
        total += loss           # not sum(): it compensates from Python 3.12
    lengths = np.diff(ends, prepend=0)
    delta = probs               # probs is not read again
    delta[np.arange(len(labels)), labels] -= 1.0
    delta /= np.repeat(lengths * len(batch), lengths)[:, None]
    grad_b = np.zeros_like(model.bias)
    for a, b in zip(ends - lengths, ends):
        grad_b += delta[a:b].sum(axis=0)
    per_feature = np.repeat(delta.T, counts, axis=1)       # (K, total)
    grad_w = np.empty_like(model.weights)
    for k in range(K):
        grad_w[k] = np.bincount(flat, weights=per_feature[k],
                                minlength=model.hidden_size)
    return total / len(batch), grad_w, grad_b


# ---------------------------------------------------------------------------
# checkpoint format: one JSON object holding the tag set, the shared feature
# table (name -> id), the subword vocabulary, the gazetteer surfaces, the
# per-type heads (weights and bias) and the training settings ("config",
# kept for a reader of the file; loading does not read it). Checkpoints
# written before the "provenance" key (a table of BERT fine-tuning settings
# nothing read) was dropped still load: unknown keys are ignored.

def save_checkpoint(path, models: dict[str, TaggerModel],
                    vocab: SubwordVocab, gazetteers: dict[str, Gazetteer],
                    config: Optional[dict] = None) -> None:
    spaces = {id(m.space) for m in models.values()}
    if len(spaces) != 1:
        raise ValueError("models in one checkpoint must share a feature space")
    any_model = next(iter(models.values()))
    payload = {
        "tags": list(TAGS),
        "features": any_model.space.to_dict(),
        "vocab": sorted(vocab.pieces),
        "gazetteers": {name: [" ".join(ws) for ws in gaz.surfaces()]
                       for name, gaz in gazetteers.items()},
        "models": {
            name: {"weights": m.weights.tolist(), "bias": m.bias.tolist()}
            for name, m in models.items()
        },
        "config": config or {},
    }
    write_atomic(path, json.dumps(payload))


@dataclass
class Checkpoint:
    models: dict[str, TaggerModel]
    vocab: SubwordVocab
    gazetteers: dict[str, Gazetteer]


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_checkpoint(path) -> Checkpoint:
    payload = json.loads(read_text(path))
    if not isinstance(payload, dict):
        raise CheckpointError("a checkpoint must be a JSON object")
    if not isinstance(payload["features"], dict):
        raise CheckpointError('"features" must be a JSON object')
    if not isinstance(payload["models"], dict) or not payload["models"]:
        raise CheckpointError('"models" must be a JSON object naming at '
                              'least one model')
    if not _is_string_list(payload["vocab"]):
        raise CheckpointError('"vocab" must be a list of strings')
    if not (isinstance(payload["gazetteers"], dict)
            and all(map(_is_string_list, payload["gazetteers"].values()))):
        raise CheckpointError('"gazetteers" must be a JSON object of '
                              'lists of strings')
    space = FeatureSpace.from_dict(payload["features"])
    models = {}
    for name, data in payload["models"].items():
        if not isinstance(data, dict):
            raise CheckpointError(f"model {name!r} must be a JSON object")
        try:
            weights = np.asarray(data["weights"], dtype=float)
            bias = np.asarray(data["bias"], dtype=float)
        except TypeError as exc:
            raise CheckpointError(f"model {name!r}: {exc}") from exc
        if weights.shape != (K, len(space)) or bias.shape != (K,):
            raise CheckpointError(
                f"model {name!r} has weights {weights.shape} and bias "
                f"{bias.shape}; the feature table needs ({K}, "
                f"{len(space)}) and ({K},)")
        models[name] = TaggerModel(space, weights, bias, name)
    vocab = SubwordVocab(payload["vocab"])
    gazetteers = {name: Gazetteer(surfaces)
                  for name, surfaces in payload["gazetteers"].items()}
    return Checkpoint(models, vocab, gazetteers)
