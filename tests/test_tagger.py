import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from helpers import pack, tag_probabilities
from oracles import central_difference
from onokg.ie.pipeline import MAX_PIECES, split_to_fit
from onokg.ie.tagger import (CheckpointError, DimensionError, FeatureSpace,
                             Gazetteer, K, TAGS, TaggerModel, encode_sentence,
                             gold_tags, load_checkpoint, loss_and_gradients,
                             save_checkpoint, tagging_loss)
from onokg.ie import train as train_mod
from onokg.ie.corpus import (ENTITY_TYPES, build_gazetteers, encode_corpus,
                             make_corpus)
from onokg.ie.train import TrainConfig, train_tagger
from onokg.ie.wordpiece import demo_vocab


def random_model(rng, hidden=12, scale=1.0):
    space = FeatureSpace()
    for i in range(hidden):
        space.intern(f"f{i}")
    space.frozen = True
    return TaggerModel(space, rng.normal(size=(K, hidden)) * scale,
                       rng.normal(size=K) * scale)


def random_ids(rng, hidden, n_tokens):
    return [np.sort(rng.choice(hidden, size=rng.integers(1, 6),
                               replace=False))
            for _ in range(n_tokens)]


class TestTagProbabilities:
    def test_zero_model_is_uniform(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, scale=0.0)
        ids = random_ids(rng, model.hidden_size, 5)
        probs = tag_probabilities(model, ids)
        assert np.allclose(probs, 1.0 / K, atol=1e-12)

    def test_bias_dominance_picks_b(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, scale=0.0)
        model.bias[TAGS.index("B")] = 10.0
        ids = random_ids(rng, model.hidden_size, 7)
        probs = tag_probabilities(model, ids)
        assert (probs.argmax(axis=1) == TAGS.index("B")).all()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            model = random_model(rng, scale=3.0)
            ids = random_ids(rng, model.hidden_size, 9)
            probs = tag_probabilities(model, ids)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            model = random_model(rng)
            ids = random_ids(rng, model.hidden_size, 6)
            probs = tag_probabilities(model, ids)
            for i, row in enumerate(ids):
                x = np.zeros(model.hidden_size)
                x[row] = 1.0
                logits = x @ model.weights.T + model.bias
                expected = np.exp(logits) / np.exp(logits).sum()
                assert np.allclose(probs[i], expected, atol=1e-9)

    def test_argmax_invariant_under_constant_shift(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        ids = random_ids(rng, model.hidden_size, 6)
        before = tag_probabilities(model, ids).argmax(axis=1)
        model.bias += 17.5
        after = tag_probabilities(model, ids).argmax(axis=1)
        assert (before == after).all()

    def test_feature_width_mismatch(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, hidden=4)
        with pytest.raises(DimensionError):
            tag_probabilities(model, [np.array([99])])


class TestTaggingLoss:
    def test_perfect_model_zero_loss(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, scale=0.0)
        model.bias[:] = -1e9
        model.bias[TAGS.index("O")] = 0.0
        ids = random_ids(rng, model.hidden_size, 8)
        labels = np.full(8, TAGS.index("O"))
        assert tagging_loss(model, [(*pack(ids), labels)]) == pytest.approx(
            0.0, abs=1e-9)

    def test_uniform_model_is_ln_k(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, scale=0.0)
        ids = random_ids(rng, model.hidden_size, 11)
        labels = rng.integers(0, K, size=11)
        assert tagging_loss(model, [(*pack(ids), labels)]) == pytest.approx(
            math.log(7), abs=1e-9)

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            model = random_model(rng)
            batch = []
            for _ in range(3):
                ids = random_ids(rng, model.hidden_size, 5)
                labels = rng.integers(0, K, size=5)
                batch.append((ids, labels))
            # oracle: recompute from scratch with plain python sums
            total = 0.0
            for ids, labels in batch:
                seq = 0.0
                for row, label in zip(ids, labels):
                    x = np.zeros(model.hidden_size)
                    x[row] = 1.0
                    logits = x @ model.weights.T + model.bias
                    p = np.exp(logits) / np.exp(logits).sum()
                    seq += -math.log(max(p[label], 1e-12))
                total += seq / len(labels)
            packed = [(*pack(ids), labels) for ids, labels in batch]
            assert tagging_loss(model, packed) == pytest.approx(
                total / len(batch), abs=1e-9)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, hidden=6, scale=0.5)
        batch = []
        for _ in range(2):
            ids = random_ids(rng, model.hidden_size, 4)
            labels = rng.integers(0, K, size=4)
            batch.append((*pack(ids), labels))
        _loss, grad_w, grad_b = loss_and_gradients(model, batch)

        flat = np.concatenate([model.weights.ravel(), model.bias])

        def loss_at(theta):
            trial = TaggerModel(model.space,
                                theta[:K * model.hidden_size].reshape(
                                    K, model.hidden_size),
                                theta[K * model.hidden_size:])
            return tagging_loss(trial, batch)

        numeric = central_difference(loss_at, flat, h=1e-6)
        analytic = np.concatenate([grad_w.ravel(), grad_b])
        denominator = np.maximum(np.abs(numeric), 1e-8)
        assert (np.abs(analytic - numeric) / denominator).max() < 1e-4


class TestTraining:
    def _tiny_examples(self, space):
        vocab = demo_vocab()
        gaz = {}
        sentences = [
            (["TP53", "causes", "illness"], [(0, 1)]),
            (["nothing", "to", "see"], []),
            (["BRCA1", "is", "bad"], [(0, 1)]),
            (["plain", "words", "here"], []),
        ] * 8
        examples = []
        for words, spans in sentences:
            encoded, = encode_sentence([words], vocab, space, gaz)
            examples.append((encoded.flat, encoded.counts,
                             gold_tags(encoded, spans)))
        return examples

    @pytest.mark.parametrize("rate", [0.0, -0.05, float("nan"),
                                      float("inf")])
    def test_learning_rate_is_finite_and_positive(self, rate):
        # a zero rate leaves the weights at zero, and a negative one
        # climbs the loss
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=rate)

    def test_loss_decreases(self):
        space = FeatureSpace()
        examples = self._tiny_examples(space)
        space.freeze()
        _, losses = train_tagger(examples, TrainConfig(epochs=6), space)
        assert losses[-1] < losses[0]

    def test_same_seed_same_curve(self):
        space = FeatureSpace()
        examples = self._tiny_examples(space)
        space.freeze()
        _, first = train_tagger(examples, TrainConfig(epochs=3), space)
        _, second = train_tagger(examples, TrainConfig(epochs=3), space)
        assert first == second

    def test_empty_corpus_rejected(self):
        space = FeatureSpace()
        space.freeze()
        with pytest.raises(ValueError):
            train_tagger([], TrainConfig(), space)


def test_encode_corpus_matches_per_sentence_encoding(trained):
    sentences = trained.train_set[:60]
    space, reference_space = FeatureSpace(), FeatureSpace()
    examples = encode_corpus(sentences, trained.vocab, space,
                             trained.gazetteers)
    assert list(examples) == list(ENTITY_TYPES)
    for i, sentence in enumerate(sentences):
        encoded, = encode_sentence([sentence.words], trained.vocab,
                                   reference_space, trained.gazetteers)
        for etype in ENTITY_TYPES:
            flat, counts, labels = examples[etype][i]
            assert np.array_equal(flat, encoded.flat)
            assert np.array_equal(counts, encoded.counts)
            assert np.array_equal(
                labels, gold_tags(encoded, sentence.spans_for(etype)))
    assert space.to_dict() == reference_space.to_dict()


def _oracle_batch(rng, hidden, sentences):
    """Sentences of 1..12 rows of up to 6 distinct ids, some rows H-1,
    packed as training examples."""
    batch = []
    for _ in range(sentences):
        n = int(rng.integers(1, 13))
        ids = [np.sort(rng.choice(hidden, replace=False,
                                  size=int(rng.integers(min(7, hidden)))))
               for _ in range(n)]
        if rng.random() < 0.3:
            ids[int(rng.integers(n))] = np.array([hidden - 1])
        batch.append((*pack(ids), rng.integers(0, K, size=n)))
    return batch


def assert_same_encoding(got, want):
    """A packed encoding against the oracle's rows: the same pieces, and
    flat ids and counts that are the rows run together and their lengths."""
    assert (got.words, got.pieces, got.word_of_piece, got.is_head_piece) == (
        want.words, want.pieces, want.word_of_piece, want.is_head_piece)
    assert got.flat.dtype == got.counts.dtype == np.int64
    assert np.array_equal(got.flat, np.concatenate(want.feature_ids))
    assert np.array_equal(got.counts, [len(row) for row in want.feature_ids])


# words that stress the encoder: non-ASCII, empty (no pieces), mixed case,
# digits, stopwords, and gazetteer surfaces in several cases
_HOSTILE_WORDS = ["Ω", "", "ΩΩ", "TP53", "tp53", "Tp53", "BRCA1", "123",
                  "a1b2", "MiXeD", "the", "of", "and", "a", "Breast",
                  "Cancer", "breast", "CANCER", "invasive", "carcinoma",
                  "BLCA", ".", ",", "x"]
_WORDS = st.one_of(st.sampled_from(_HOSTILE_WORDS),
                   st.text(alphabet="aZ9Ω.-", max_size=4))
_SENTENCES = st.lists(st.lists(_WORDS, min_size=1, max_size=12), min_size=1,
                      max_size=5)
# long enough for split_to_fit to cut it into chunks
_LONG = " ; ".join(["TP53 is responsible for a disease called Breast "
                    "Cancer"] * 20).split() + ["."]
_TEMPLATE_SENTENCES = [s.words for s in make_corpus(80, seed=73)]
# where a list of sentences is cut into groups; a repeated cut makes an
# empty group
_CUTS = st.lists(st.integers(0, 12), max_size=5)


@pytest.fixture(scope="module")
def gazetteers():
    return build_gazetteers()


# words of overlapping gazetteer entries ("breast cancer", "breast invasive
# carcinoma", "cervical and endocervical cancers", ...) in several cases
_GAZETTEER_WORDS = ["Breast", "breast", "BREAST", "cancer", "Cancer",
                    "invasive", "carcinoma", "acute", "myeloid", "leukemia",
                    "brain", "lower", "grade", "glioma", "cervical", "and",
                    "endocervical", "cancers", "TP53", "BRCA1", "BLCA"]


class TestGazetteer:
    """`Gazetteer.mark` against the scan it replaced (tests/oracles.py)."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(words=st.lists(st.one_of(st.sampled_from(_GAZETTEER_WORDS),
                                    _WORDS), max_size=14),
           surfaces=st.lists(st.lists(st.sampled_from("abcA"), min_size=1,
                                      max_size=3).map(" ".join), max_size=6),
           small=st.lists(st.sampled_from("abcAB"), max_size=10))
    def test_marks_match_scan_oracle(self, gazetteers, words, surfaces,
                                     small):
        """The bundled gazetteers, and small random ones whose entries
        overlap and nest, as in "a b" and "b c" over "a b c"."""
        for gazetteer in gazetteers.values():
            assert gazetteer.mark(words) == oracles.gazetteer_marks(
                gazetteer, words)
        gazetteer = Gazetteer(surfaces)
        assert gazetteer.mark(small) == oracles.gazetteer_marks(gazetteer,
                                                                small)

    def test_corpus_marks_match_scan_oracle(self, gazetteers):
        for sentence in make_corpus(500, seed=75):
            for gazetteer in gazetteers.values():
                assert gazetteer.mark(sentence.words) == \
                    oracles.gazetteer_marks(gazetteer, sentence.words)


class TestPackedTrainingMatchesOracle:
    """The packed loss, gradients and encoder against the per-sentence
    versions they replaced (tests/oracles.py), bit for bit."""

    def test_loss_and_gradients(self):
        rng = np.random.default_rng(71)
        for trial in range(60):
            model = random_model(rng, hidden=int(rng.integers(3, 20)),
                                 scale=float(rng.choice([0.1, 1.0, 30.0])))
            batch = _oracle_batch(rng, model.hidden_size,
                                  1 if trial % 5 == 0 else 16)
            loss, grad_w, grad_b = loss_and_gradients(model, batch)
            want_loss, want_w, want_b = oracles.loss_and_gradients(model,
                                                                   batch)
            assert loss == want_loss
            assert np.array_equal(grad_w, want_w)
            assert np.array_equal(grad_b, want_b)

    def test_tagging_loss_across_chunks(self):
        rng = np.random.default_rng(72)
        for size in (1, 63, 64, 65, 150):
            model = random_model(rng, hidden=9)
            batch = _oracle_batch(rng, model.hidden_size, size)
            assert tagging_loss(model, batch) == oracles.tagging_loss(model,
                                                                      batch)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(growing=_SENTENCES, frozen=_SENTENCES)
    # a one-word sentence first, so that "first" and "last" are new; then
    # template sentences, frozen on the last 17 of them and unseen words
    @example(growing=[["a"], *_TEMPLATE_SENTENCES[:63], _LONG],
             frozen=[*_TEMPLATE_SENTENCES[63:], ["Unseen", "XQZ9"], _LONG])
    def test_encoding_and_feature_order(self, gazetteers, growing, frozen):
        """In a growing space and then, frozen, on unseen words: each
        sentence, and each chunk of one too long to tag whole, encodes as
        the oracle's rows, and features are numbered in the same order."""
        vocab = demo_vocab()
        space, reference = FeatureSpace(), FeatureSpace()
        for sentences in (growing, frozen):
            for words in sentences:
                units = [words]
                pieces = sum(len(vocab.tokenize(word)) for word in words)
                if pieces + 2 > MAX_PIECES:
                    units += [chunk for _offset, chunk in split_to_fit(
                        words, vocab, MAX_PIECES, gazetteers)]
                for unit in units:
                    assert_same_encoding(
                        encode_sentence([unit], vocab, space, gazetteers)[0],
                        oracles.encode_sentence(unit, vocab, reference,
                                                gazetteers))
            assert list(space.to_dict().items()) == list(
                reference.to_dict().items())
            space.freeze()
            reference.freeze()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(growing=_SENTENCES, frozen=_SENTENCES,
           growing_cuts=_CUTS, frozen_cuts=_CUTS)
    # one-word sentences, a sentence too long to tag whole and an empty
    # group in each phase, and a group of one sentence with no word;
    # frozen on the last 17 template sentences
    @example(growing=[["a"], [], *_TEMPLATE_SENTENCES[:63], _LONG],
             frozen=[*_TEMPLATE_SENTENCES[63:], ["Unseen"], _LONG],
             growing_cuts=[1, 1, 2, 40], frozen_cuts=[0, 17, 18])
    def test_groups_encode_as_the_oracle(self, gazetteers, growing, frozen,
                                         growing_cuts, frozen_cuts):
        """Sentences cut into groups anywhere, and each group encoded at
        once, growing and then frozen: every sentence encodes as the
        oracle's rows, and features are numbered in the same order."""
        vocab = demo_vocab()
        space, reference = FeatureSpace(), FeatureSpace()
        for sentences, cuts in ((growing, growing_cuts),
                                (frozen, frozen_cuts)):
            bounds = [0, *sorted(min(c, len(sentences)) for c in cuts),
                      len(sentences)]
            for a, b in zip(bounds, bounds[1:]):
                got = encode_sentence(sentences[a:b], vocab, space,
                                      gazetteers)
                assert len(got) == b - a
                for encoded, words in zip(got, sentences[a:b]):
                    assert_same_encoding(encoded, oracles.encode_sentence(
                        words, vocab, reference, gazetteers))
                assert list(space.to_dict().items()) == list(
                    reference.to_dict().items())
            space.freeze()
            reference.freeze()

    def test_rows_whose_ids_all_fall_back_to_nothing(self, gazetteers):
        """No family of the table has an <unk> slot, so the [SEP] row and
        every piece row are empty, but for the pieces of TP53."""
        table = {"special=[CLS]": 0, "w=tp53": 1}
        sentences = [["x", "Ω"], [], ["TP53"], [""]]
        got = encode_sentence(sentences, demo_vocab(),
                              FeatureSpace.from_dict(table), gazetteers)
        for encoded, words in zip(got, sentences):
            assert_same_encoding(encoded, oracles.encode_sentence(
                words, demo_vocab(), FeatureSpace.from_dict(table),
                gazetteers))
        assert [e.counts.tolist() for e in got] == [
            [1, 0, 0, 0], [1, 0], [1, 1, 1, 1, 1, 0], [1, 0]]

    def test_repeated_id_in_a_row_is_kept_once(self):
        # two gazetteer marks whose names fall back to one <unk> slot
        table = {"special=[CLS]": 0, "gaz-g=<unk>": 1, "w=<unk>": 2}
        gazetteers = {"g": Gazetteer([]), "g=h": Gazetteer([])}
        got, = encode_sentence([["a"]], demo_vocab(),
                               FeatureSpace.from_dict(table), gazetteers)
        assert_same_encoding(got, oracles.encode_sentence(
            ["a"], demo_vocab(), FeatureSpace.from_dict(table), gazetteers))
        assert got.counts.tolist() == [1, 2, 0]

    def test_trained_weights(self, monkeypatch):
        def train(space):
            examples = encode_corpus(make_corpus(60, seed=74), demo_vocab(),
                                     space, build_gazetteers())["Gene"]
            space.freeze()
            return train_tagger(examples, TrainConfig(epochs=2), space)

        model, losses = train(FeatureSpace())
        monkeypatch.setattr(train_mod, "loss_and_gradients",
                            oracles.loss_and_gradients)
        monkeypatch.setattr(train_mod, "tagging_loss", oracles.tagging_loss)
        want_model, want_losses = train(FeatureSpace())
        assert losses == want_losses
        assert np.array_equal(model.weights, want_model.weights)
        assert np.array_equal(model.bias, want_model.bias)

    def test_adam_update(self, monkeypatch):
        """Adam gives the oracle's weights, bias and loss curve to the bit,
        unclipped and with a clip norm low enough to scale the gradients
        (their norm stays under 1.3 on this corpus)."""
        space = FeatureSpace()
        examples = encode_corpus(make_corpus(60, seed=74), demo_vocab(),
                                 space, build_gazetteers())["Gene"]
        space.freeze()
        cfg = TrainConfig(epochs=3)
        runs = []
        for clip_norm in (train_mod.CLIP_NORM, 0.5):
            monkeypatch.setattr(train_mod, "CLIP_NORM", clip_norm)
            model, losses = train_tagger(examples, cfg, space)
            want_model, want_losses = oracles.train_tagger(examples, cfg,
                                                           space)
            assert losses == want_losses
            assert np.array_equal(model.weights, want_model.weights)
            assert np.array_equal(model.bias, want_model.bias)
            runs.append(model.weights)
        assert not np.array_equal(*runs)


@pytest.mark.parametrize("settings", [{"batch_size": 0},
                                      {"learning_rate": float("nan")},
                                      {"learning_rate": float("-inf")},
                                      {"epochs": 0}, {"epochs": -1}])
def test_train_config_rejects(settings):
    with pytest.raises(ValueError):
        TrainConfig(**settings)


class TestCheckpoint:
    def test_round_trip(self, trained, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, trained.models, trained.vocab,
                        trained.gazetteers, config={"seed": 42})
        loaded = load_checkpoint(path)
        assert set(loaded.models) == set(trained.models)
        for name, model in trained.models.items():
            assert np.allclose(loaded.models[name].weights, model.weights)
            assert np.allclose(loaded.models[name].bias, model.bias)
        assert loaded.vocab.pieces == trained.vocab.pieces
        assert json.loads(path.read_text(encoding="utf-8"))["config"] == \
            {"seed": 42}

    def test_loaded_model_tags_identically(self, trained, tmp_path):
        from onokg.ie.tagger import encode_sentence
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, trained.models, trained.vocab,
                        trained.gazetteers)
        loaded = load_checkpoint(path)
        words = ["TP53", "is", "responsible", "for", "Breast", "Cancer",
                 "."]
        original_space = trained.space
        encoded, = encode_sentence([words], trained.vocab, original_space,
                                   trained.gazetteers)
        for name in trained.models:
            reference = tag_probabilities(
                trained.models[name],
                oracles.feature_rows(encoded.flat, encoded.counts))
            loaded_space = loaded.models[name].space
            re_encoded, = encode_sentence([words], loaded.vocab,
                                          loaded_space, loaded.gazetteers)
            observed = tag_probabilities(
                loaded.models[name],
                oracles.feature_rows(re_encoded.flat, re_encoded.counts))
            assert np.allclose(reference, observed, atol=1e-12)


    def test_weights_must_fit_the_feature_table(self, trained, tmp_path):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, trained.models, trained.vocab,
                        trained.gazetteers)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["models"]["Gene"]["weights"] = [
            row[:10] for row in payload["models"]["Gene"]["weights"]]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError, match=r"\(7, 10\)"):
            load_checkpoint(path)

    def test_provenance_key_ignored(self, trained, tmp_path):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, trained.models, trained.vocab,
                        trained.gazetteers)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "provenance" not in payload
        payload["provenance"] = {"BioBERT-cased": {"epochs": 6}}
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_checkpoint(path)
        for name, model in trained.models.items():
            assert np.array_equal(loaded.models[name].weights, model.weights)

    def test_gapped_feature_ids_rejected(self):
        with pytest.raises(CheckpointError, match="without gaps"):
            FeatureSpace.from_dict({"w=a": 0, "w=b": 2})
        with pytest.raises(CheckpointError):
            FeatureSpace.from_dict({"w=a": 0, "w=b": 0})

def test_sequence_loss_floor_keeps_finite():
    rng = np.random.default_rng(10)
    model = random_model(rng, scale=0.0)
    model.bias[:] = 0.0
    model.bias[0] = 1e9  # probability of other tags underflows to 0
    ids = random_ids(rng, model.hidden_size, 3)
    labels = np.array([1, 2, 3])
    loss = tagging_loss(model, [(*pack(ids), labels)])
    assert np.isfinite(loss)
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-6)
