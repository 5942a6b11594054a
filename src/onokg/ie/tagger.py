"""Linear softmax sequence tagger over the 7-tag scheme.

Each subword piece is represented by a multi-hot feature vector T_i built
from an embedding table of engineered features (piece identity, word
identity, casing, neighbor context, gazetteer hits). Tag probabilities
are p(T_i) = softmax(T_i W^T + b) over K = 7 tags, and the training loss
is the mean negative log-likelihood per sequence, averaged over the batch.
A 1e-12 probability floor keeps the loss finite.

One model is trained per entity type; the decoder reconciles overlapping
spans from different type models by their probabilities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..ntriples import write_atomic
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


def encode_sentence(words: Sequence[str], vocab: SubwordVocab,
                    space: FeatureSpace,
                    gazetteers: dict[str, Gazetteer]) -> EncodedSentence:
    stop = stopwords()
    lower = [w.lower() for w in words]
    marks = {name: gaz.mark(words) for name, gaz in gazetteers.items()}
    pieces: list[str] = ["[CLS]"]
    word_of_piece: list[int] = [-1]
    is_head: list[bool] = [False]
    features: list[list[str]] = [["special=[CLS]"]]
    for i, word in enumerate(words):
        word_feats = [
            f"w={lower[i]}",
            f"case={_case_class(word)}",
            f"prev={lower[i - 1] if i > 0 else '<s>'}",
            f"next={lower[i + 1] if i + 1 < len(words) else '</s>'}",
            f"prevcase={_case_class(words[i - 1]) if i > 0 else '<s>'}",
            f"nextcase={_case_class(words[i + 1]) if i + 1 < len(words) else '</s>'}",
        ]
        if lower[i] in stop:
            word_feats.append("stop")
        if i == 0:
            word_feats.append("first")
        if i == len(words) - 1:
            word_feats.append("last")
        for name, mark in marks.items():
            word_feats.append(f"gaz-{name}={mark[i]}")
        for j, piece in enumerate(vocab.tokenize(word)):
            pieces.append(piece)
            word_of_piece.append(i)
            is_head.append(j == 0)
            features.append([f"p={piece}",
                             "head" if j == 0 else "cont"] + word_feats)
    pieces.append("[SEP]")
    word_of_piece.append(-1)
    is_head.append(False)
    features.append(["special=[SEP]"])
    ids = []
    for names in features:
        row = sorted({fid for fid in (space.intern(n) for n in names)
                      if fid is not None})
        ids.append(np.asarray(row, dtype=np.int64))
    return EncodedSentence(list(words), pieces, word_of_piece, is_head, ids)


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


def logits(model: TaggerModel, feature_ids: Sequence[np.ndarray]
           ) -> np.ndarray:
    """T_i W^T + b for every token; T_i is the multi-hot feature vector."""
    counts = np.array([len(r) for r in feature_ids], dtype=np.int64)
    out = np.repeat(model.bias[None, :], len(feature_ids), axis=0)
    if counts.sum():
        flat = np.concatenate(feature_ids)
        top = int(flat.max())
        if top >= model.hidden_size:
            raise DimensionError(
                f"feature id {top} out of range for hidden size "
                f"{model.hidden_size}")
        cols = model.weights[:, flat]                      # (K, total)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        nonempty = counts > 0
        sums = np.add.reduceat(cols, offsets[nonempty], axis=1)
        out[nonempty] += sums.T
    return out


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def tag_probabilities(model: TaggerModel,
                      feature_ids: Sequence[np.ndarray]) -> np.ndarray:
    """Per-token distributions over the 7 tags; rows sum to 1."""
    return softmax(logits(model, feature_ids))


def sequence_loss(model: TaggerModel, feature_ids: Sequence[np.ndarray],
                  labels: np.ndarray) -> float:
    probs = tag_probabilities(model, feature_ids)
    picked = np.maximum(probs[np.arange(len(labels)), labels], PROB_FLOOR)
    return float(-np.mean(np.log(picked)))


def tagging_loss(model: TaggerModel,
                 batch: Sequence[tuple[Sequence[np.ndarray], np.ndarray]]
                 ) -> float:
    """Mean over sequences of the per-sequence mean NLL."""
    if not batch:
        return 0.0
    return float(np.mean([sequence_loss(model, ids, labels)
                          for ids, labels in batch]))


def loss_and_gradients(model: TaggerModel,
                       batch: Sequence[tuple[Sequence[np.ndarray],
                                             np.ndarray]]
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    """Analytic gradient of tagging_loss w.r.t. weights and bias."""
    grad_w = np.zeros_like(model.weights)
    grad_b = np.zeros_like(model.bias)
    total = 0.0
    for ids, labels in batch:
        probs = tag_probabilities(model, ids)
        n = len(labels)
        picked = np.maximum(probs[np.arange(n), labels], PROB_FLOOR)
        total += float(-np.mean(np.log(picked)))
        delta = probs.copy()
        delta[np.arange(n), labels] -= 1.0
        delta /= n * len(batch)
        grad_b += delta.sum(axis=0)
        for i, row in enumerate(ids):
            if len(row):
                grad_w[:, row] += delta[i][:, None]
    return total / len(batch), grad_w, grad_b


# ---------------------------------------------------------------------------
# checkpoint format: one JSON object holding the tag set, the shared feature
# table (name -> id), the subword vocabulary, the gazetteer surfaces, the
# per-type heads (weights and bias) and the training settings. Checkpoints
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
    config: dict = field(default_factory=dict)


def load_checkpoint(path) -> Checkpoint:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise CheckpointError("a checkpoint must be a JSON object")
    if not isinstance(payload["features"], dict):
        raise CheckpointError('"features" must be a JSON object')
    if not isinstance(payload["models"], dict) or not payload["models"]:
        raise CheckpointError('"models" must be a JSON object naming at '
                              'least one model')
    space = FeatureSpace.from_dict(payload["features"])
    models = {}
    for name, data in payload["models"].items():
        weights = np.asarray(data["weights"], dtype=float)
        bias = np.asarray(data["bias"], dtype=float)
        if weights.shape != (K, len(space)) or bias.shape != (K,):
            raise CheckpointError(
                f"model {name!r} has weights {weights.shape} and bias "
                f"{bias.shape}; the feature table needs ({K}, "
                f"{len(space)}) and ({K},)")
        models[name] = TaggerModel(space, weights, bias, name)
    vocab = SubwordVocab(payload["vocab"])
    gazetteers = {name: Gazetteer(surfaces)
                  for name, surfaces in payload["gazetteers"].items()}
    return Checkpoint(models, vocab, gazetteers, payload.get("config", {}))
