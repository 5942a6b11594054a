"""Linear softmax sequence tagger over the 7-tag scheme.

Each subword piece is represented by a multi-hot feature vector T_i built
from an embedding table of engineered features (piece identity, word
identity, casing, neighbor context, gazetteer hits). Tag probabilities
are p(T_i) = softmax(T_i W^T + b) over K = 7 tags, and the training loss
is the mean negative log-likelihood per sequence, averaged over the batch.
A 1e-12 probability floor keeps the loss finite.

One model is trained per entity type; the decoder reconciles overlapping
spans from different type models by their probabilities.

A sentence is encoded once into packed form: one flat array of every
piece's sorted feature ids, piece after piece, and a count per piece
(`EncodedSentence`). `encode_sentence` encodes a group of sentences at
once: the rows of the whole group are gathered from arrays of word types
cached on the feature space into one padded matrix, as ids in a frozen
space, and in a growing one as provisional ids that are then interned in
the order in which they first occur, which numbers features in first-use
order. Every consumer joins the arrays of its sentences: `logits` scores
each piece as one `np.add.reduceat` segment of `flat`, and the weight
gradient is one `np.bincount` per tag over the flat ids, weighted by each
piece's delta. A checkpoint stays the same to the bit as under a
per-sentence loop: a piece's logit sums the same weights in the same
order; bincount adds to each weight column in index order, which is piece
order; and the per-sentence mean NLL and bias sums stay one `mean` / `sum`
per sentence segment, as one reduceat over the sentences would
reassociate their additions. `tagging_loss` scores a corpus `LOSS_CHUNK`
sentences at a time, so its (K, features) gather stays near 1 MB on the
template corpus whatever the corpus size; the encoder's matrix of a group
of `LOSS_CHUNK` sentences stays small the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    """Longest-match dictionary of multi-word surfaces, queried per word.

    For each first word it keeps the length of the longest entry that
    starts with it, so `mark` tries spans only where an entry can start,
    and only up to that length.
    """

    def __init__(self, surfaces: Sequence[str]):
        self._entries: set[tuple[str, ...]] = set()
        self._longest: dict[str, int] = {}
        for surface in surfaces:
            words = tuple(w.lower() for w in surface.split())
            if words:
                self._entries.add(words)
                self._longest[words[0]] = max(
                    self._longest.get(words[0], 0), len(words))

    def mark(self, words: Sequence[str]) -> list[str]:
        """Per-word B/I/O hit marks using longest-match-first scanning."""
        lower = [w.lower() for w in words]
        marks = ["O"] * len(lower)
        end = 0     # the words before end are inside a match
        for i, word in enumerate(lower):
            if i < end or word not in self._longest:
                continue
            for n in range(min(self._longest[word], len(lower) - i), 0, -1):
                if tuple(lower[i:i + n]) in self._entries:
                    marks[i:i + n] = ["B"] + ["I"] * (n - 1)
                    end = i + n
                    break
        return marks

    def surfaces(self) -> list[tuple[str, ...]]:
        return sorted(self._entries)


class FeatureSpace:
    """Embedding table mapping engineered feature names to vector slots.

    While the space grows (`train` encodes its corpus), `intern` gives each
    new name the next id, so ids follow first use. After `freeze` the table
    is fixed: an unseen name falls back to its family's unknown slot.
    """

    def __init__(self):
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self.frozen = False
        # encode_sentence's word types, per vocabulary. A growing space's
        # types hold provisional ids and a frozen space's hold ids, so
        # freezing drops the types.
        self.word_types: dict[SubwordVocab, dict[str, _WordType]] = {}
        # a growing space's provisional ids: each drafted name, and its id
        # once `settle` has interned it (-1 before)
        self._drafts: dict[str, int] = {}
        self._drafted: list[str] = []
        self._settled: list[int] = []

    def __len__(self):
        return len(self._index)

    def intern(self, name: str) -> int:
        """The name's id; a growing space gives a new name the next id. In
        a frozen space an unseen name falls back to its family's <unk>
        slot, or to -1 where the family has none."""
        idx = self._index.get(name)
        if idx is None:
            if self.frozen:
                family = name.split("=", 1)[0]
                return self._index.get(f"{family}=<unk>", -1)
            idx = len(self._index)
            self._index[name] = idx
            self._names.append(name)
        return idx

    def name(self, idx: int) -> str:
        return self._names[idx]

    def draft(self, name: str) -> int:
        """The name's provisional id in a growing space: drafts are
        numbered as they come, and only `settle` gives a name its id."""
        idx = self._drafts.get(name)
        if idx is None:
            idx = self._drafts[name] = len(self._drafted)
            self._drafted.append(name)
            self._settled.append(-1)
        return idx

    def settle(self, drafts: np.ndarray) -> np.ndarray:
        """The ids of an array of provisional ids, where -1 stays -1. A
        name not interned yet is interned where its draft first occurs in
        the array, read row by row, so ids follow first use."""
        table = np.array(self._settled + [-1], dtype=np.int64)
        ids = table[drafts]
        new = drafts[(ids < 0) & (drafts >= 0)]
        if len(new):
            fresh, first = np.unique(new, return_index=True)
            for idx in fresh[np.argsort(first)].tolist():
                self._settled[idx] = self.intern(self._drafted[idx])
            ids = np.array(self._settled + [-1], dtype=np.int64)[drafts]
        return ids

    def freeze(self):
        if not self.frozen:
            for family in ("p", "w", "prev", "next"):
                self.intern(f"{family}=<unk>")
            self.frozen = True
            self.word_types.clear()
            self._drafts.clear()
            self._drafted.clear()
            self._settled.clear()

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
    """A sentence rendered to [CLS] + pieces + [SEP] with packed feature ids.

    `flat` holds every piece's sorted feature ids, piece after piece, and
    `counts[i]` is the number of them that belong to piece i, so piece i's
    ids are `flat[s:s + counts[i]]` with `s = counts[:i].sum()`. Consumers
    join the arrays of several sentences with `np.concatenate`.
    """

    words: list[str]
    pieces: list[str]
    word_of_piece: list[int]     # -1 for [CLS]/[SEP]
    is_head_piece: list[bool]
    flat: np.ndarray
    counts: np.ndarray

    def __len__(self):
        return len(self.pieces)


class _WordType:
    """What encode_sentence derives from a word alone: its pieces, `own`,
    each piece's own features (piece, head/cont, word, case) as a
    (pieces, 4) array, and `gives`: the stopword feature or -1, then the
    context features that the word gives a neighbour (prev=, next=,
    prevcase=, nextcase=). Features are ids in a frozen space and
    provisional ids (`FeatureSpace.draft`) in a growing one."""

    __slots__ = ("pieces", "own", "gives")

    def __init__(self, word: str, vocab: SubwordVocab,
                 look: Callable[[str], int]):
        self.pieces = vocab.tokenize(word)
        lower, case = word.lower(), _case_class(word)
        self.own = np.array(
            [[look(f"p={piece}"), look("head" if j == 0 else "cont"),
              look(f"w={lower}"), look(f"case={case}")]
             for j, piece in enumerate(self.pieces)],
            dtype=np.int64).reshape(-1, 4)
        self.gives = (look("stop") if lower in stopwords() else -1,
                      look(f"prev={lower}"), look(f"next={lower}"),
                      look(f"prevcase={case}"), look(f"nextcase={case}"))


def encode_sentence(sentences: Sequence[Sequence[str]], vocab: SubwordVocab,
                    space: FeatureSpace, gazetteers: dict[str, Gazetteer]
                    ) -> list[EncodedSentence]:
    """Encode a group of sentences (callers pass up to `LOSS_CHUNK`).

    Each piece row holds the sorted ids of its word type's own features
    and of the features of its position: the neighbours' forms and case
    classes, first/last, and one gazetteer mark per gazetteer. Word types
    are cached on the space (see `FeatureSpace.word_types`).

    The rows of the whole group, [CLS], pieces and [SEP] of each sentence
    in turn, are gathered from the word types' arrays into one matrix
    padded with -1, whose columns follow the per-row encoder this one
    replaced (`encode_sentence` in tests/oracles.py): special=[CLS] or
    [SEP], or a piece's piece, head/cont, word, case, prev, next,
    prevcase, nextcase, stop, first, last and gazetteer marks. The matrix
    is sorted along each row and masked into each sentence's `flat` and
    `counts`. The mask also drops an id repeated within a row, so each row
    is a set.

    A growing space (`train`) lays the matrix out on provisional ids and
    then `settle`s it, which interns names where they first occur, read
    row by row: features are numbered in first-use order, the order of
    the checkpoint's feature table.
    """
    if not sentences:
        return []
    look = space.intern if space.frozen else space.draft
    cache = space.word_types.setdefault(vocab, {})
    local: dict[str, int] = {}
    word_type = np.array([local.setdefault(word, len(local))
                          for words in sentences for word in words],
                         dtype=np.int64)
    types = []
    for word in local:
        wtype = cache.get(word)
        if wtype is None:
            wtype = cache[word] = _WordType(word, vocab, look)
        types.append(wtype)
    lengths = np.array([len(words) for words in sentences], dtype=np.int64)
    n_words = len(word_type)
    # per word: its pieces, what its type gives (stop and the context
    # features), and whether it is first or last in its sentence
    type_pieces = np.array([len(t.pieces) for t in types], dtype=np.int64)
    own = np.concatenate([t.own for t in types]
                         or [np.empty((0, 4), dtype=np.int64)])
    gives = np.array([t.gives for t in types],
                     dtype=np.int64).reshape(-1, 5)[word_type]
    n_pieces = type_pieces[word_type]
    ends = np.cumsum(lengths)
    starts = ends - lengths
    first = np.zeros(n_words, dtype=bool)
    first[starts[lengths > 0]] = True
    last = np.zeros(n_words, dtype=bool)
    last[ends[lengths > 0] - 1] = True
    # a row's position features: prev, next, prevcase, nextcase, stop,
    # first, last and the gazetteer marks
    position = np.full((n_words, 7 + len(gazetteers)), -1, dtype=np.int64)
    before, after = np.roll(gives, 1, axis=0), np.roll(gives, -1, axis=0)
    position[:, 0] = np.where(first, look("prev=<s>"), before[:, 1])
    position[:, 1] = np.where(last, look("next=</s>"), after[:, 2])
    position[:, 2] = np.where(first, look("prevcase=<s>"), before[:, 3])
    position[:, 3] = np.where(last, look("nextcase=</s>"), after[:, 4])
    position[:, 4] = gives[:, 0]
    position[first, 5] = look("first")
    position[last, 6] = look("last")
    for column, (name, gaz) in enumerate(gazetteers.items(), start=7):
        mark_ids = {mark: look(f"gaz-{name}={mark}") for mark in "BIO"}
        position[:, column] = [mark_ids[mark] for words in sentences
                               for mark in gaz.mark(words)]
    # rows: [CLS], the pieces and [SEP] of each sentence in turn; each
    # row ends in a -1
    piece_ends = np.concatenate(([0], np.cumsum(n_pieces)))[ends]
    sentence_pieces = np.diff(piece_ends, prepend=0)
    row_ends = np.cumsum(sentence_pieces + 2)
    word_of = np.repeat(np.arange(n_words), n_pieces)
    piece_in_word = np.arange(len(word_of)) \
        - (np.cumsum(n_pieces) - n_pieces)[word_of]
    piece_rows = np.arange(len(word_of)) + 1 + 2 * np.repeat(
        np.arange(len(sentences)), sentence_pieces)
    ids = np.full((int(row_ends[-1]), 12 + len(gazetteers)), -1,
                  dtype=np.int64)
    ids[row_ends - sentence_pieces - 2, 0] = look("special=[CLS]")
    ids[row_ends - 1, 0] = look("special=[SEP]")
    type_first = np.cumsum(type_pieces) - type_pieces
    ids[piece_rows, :4] = own[type_first[word_type][word_of] + piece_in_word]
    ids[piece_rows, 4:-1] = position[word_of]
    if not space.frozen:
        ids = space.settle(ids)
    ids.sort(axis=1)
    # every row holds a -1, which sorts first; keeping each id that exceeds
    # the one before it drops the padding and any repeated id
    keep = ids[:, 1:] > ids[:, :-1]
    counts = keep.sum(axis=1)
    flat = ids[:, 1:][keep]
    flat_ends = np.cumsum(counts)[row_ends - 1]
    # each sentence's pieces, the word of each and whether it is the head
    pieces = [p for index in word_type.tolist() for p in types[index].pieces]
    word_of_piece = (np.arange(n_words)
                     - np.repeat(starts, lengths))[word_of].tolist()
    is_head = (piece_in_word == 0).tolist()
    bounds = [0, *piece_ends.tolist()]
    return [EncodedSentence(list(words), ["[CLS]", *pieces[a:b], "[SEP]"],
                            [-1, *word_of_piece[a:b], -1],
                            [False, *is_head[a:b], False], rows, row_counts)
            for words, a, b, rows, row_counts in zip(
                sentences, bounds, bounds[1:],
                np.split(flat, flat_ends[:-1]),
                np.split(counts, row_ends[:-1]))]


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

    def __post_init__(self):
        if self.weights.shape[0] != K or self.bias.shape != (K,):
            raise DimensionError(
                f"expected weights (K={K}, H) and bias (K,), got "
                f"{self.weights.shape} and {self.bias.shape}")

    @property
    def hidden_size(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def zeros(cls, space: FeatureSpace) -> "TaggerModel":
        space.freeze()
        return cls(space, np.zeros((K, len(space))), np.zeros(K))


def logits(model: TaggerModel, flat: np.ndarray, counts: np.ndarray
           ) -> np.ndarray:
    """T_i W^T + b for every token; T_i is the multi-hot feature vector.

    The tokens come packed as in `EncodedSentence`: token i has the
    `counts[i]` feature ids that follow those of the tokens before it in
    `flat`.
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

# A training example: a sentence's packed feature ids (flat, counts) and
# its gold tag per piece.
Example = tuple[np.ndarray, np.ndarray, np.ndarray]


def _packed(model: TaggerModel, batch: Sequence[Example]):
    """The batch's sentences joined (flat ids, counts and gold labels),
    their tag distributions from one logits call, and each sentence's row
    bounds."""
    flat, counts, labels = map(np.concatenate, zip(*batch))
    ends = np.cumsum([len(example[2]) for example in batch])
    return flat, counts, softmax(logits(model, flat, counts)), labels, ends


def _sentence_losses(probs: np.ndarray, labels: np.ndarray,
                     ends: np.ndarray) -> list[float]:
    """Mean NLL of each sentence, one np.mean per sentence segment."""
    picked = np.maximum(probs[np.arange(len(labels)), labels], PROB_FLOOR)
    log_picked = np.log(picked)
    starts = np.concatenate(([0], ends[:-1]))
    return [float(-log_picked[a:b].mean()) for a, b in zip(starts, ends)]


def tagging_loss(model: TaggerModel, batch: Sequence[Example]) -> float:
    """Mean over sequences of the per-sequence mean NLL."""
    if not batch:
        return 0.0
    losses: list[float] = []
    for start in range(0, len(batch), LOSS_CHUNK):
        _flat, _counts, probs, labels, ends = _packed(
            model, batch[start:start + LOSS_CHUNK])
        losses += _sentence_losses(probs, labels, ends)
    return float(np.mean(losses))


def loss_and_gradients(model: TaggerModel, batch: Sequence[Example]
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
# nothing read) was dropped still load: unknown keys are ignored. Loading
# refuses a "tags" list other than `TAGS`, and a weight or bias that is not
# finite.

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
    if payload.get("tags", list(TAGS)) != list(TAGS):
        raise CheckpointError(f'"tags" must be {list(TAGS)}')
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
        # JSON reads NaN and Infinity, which no trained model holds
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise CheckpointError(f"model {name!r} holds a weight or bias "
                                  "that is not finite")
        models[name] = TaggerModel(space, weights, bias)
    vocab = SubwordVocab(payload["vocab"])
    gazetteers = {name: Gazetteer(surfaces)
                  for name, surfaces in payload["gazetteers"].items()}
    return Checkpoint(models, vocab, gazetteers)
