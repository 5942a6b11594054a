import math

import numpy as np
import pytest

from oracles import central_difference
from onokg.ie.tagger import (CheckpointError, DimensionError, FeatureSpace,
                             K, TAGS, TaggerModel, encode_sentence, gold_tags,
                             load_checkpoint, loss_and_gradients,
                             save_checkpoint, sequence_loss,
                             tag_probabilities, tagging_loss)
from onokg.ie.corpus import ENTITY_TYPES, encode_corpus
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
        assert tagging_loss(model, [(ids, labels)]) == pytest.approx(
            0.0, abs=1e-9)

    def test_uniform_model_is_ln_k(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, scale=0.0)
        ids = random_ids(rng, model.hidden_size, 11)
        labels = rng.integers(0, K, size=11)
        assert tagging_loss(model, [(ids, labels)]) == pytest.approx(
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
            assert tagging_loss(model, batch) == pytest.approx(
                total / len(batch), abs=1e-9)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, hidden=6, scale=0.5)
        batch = []
        for _ in range(2):
            ids = random_ids(rng, model.hidden_size, 4)
            labels = rng.integers(0, K, size=4)
            batch.append((ids, labels))
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
            encoded = encode_sentence(words, vocab, space, gaz)
            examples.append((encoded.feature_ids,
                             gold_tags(encoded, spans)))
        return examples

    def test_zero_learning_rate_flat_curve(self):
        space = FeatureSpace()
        examples = self._tiny_examples(space)
        space.freeze()
        _, losses = train_tagger(examples,
                                 TrainConfig(learning_rate=0.0, epochs=4),
                                 space)
        assert len(set(losses)) == 1

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
        encoded = encode_sentence(sentence.words, trained.vocab,
                                  reference_space, trained.gazetteers)
        for etype in ENTITY_TYPES:
            ids, labels = examples[etype][i]
            assert len(ids) == len(encoded.feature_ids)
            assert all(np.array_equal(a, b)
                       for a, b in zip(ids, encoded.feature_ids))
            assert np.array_equal(
                labels, gold_tags(encoded, sentence.spans_for(etype)))
    assert space.to_dict() == reference_space.to_dict()


@pytest.mark.parametrize("settings", [{"batch_size": 0},
                                      {"learning_rate": float("nan")},
                                      {"learning_rate": float("-inf")}])
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
        assert loaded.config["seed"] == 42

    def test_loaded_model_tags_identically(self, trained, tmp_path):
        from onokg.ie.tagger import encode_sentence
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, trained.models, trained.vocab,
                        trained.gazetteers)
        loaded = load_checkpoint(path)
        words = ["TP53", "is", "responsible", "for", "Breast", "Cancer",
                 "."]
        original_space = trained.space
        encoded = encode_sentence(words, trained.vocab, original_space,
                                  trained.gazetteers)
        for name in trained.models:
            reference = tag_probabilities(trained.models[name],
                                          encoded.feature_ids)
            loaded_space = loaded.models[name].space
            re_encoded = encode_sentence(words, loaded.vocab, loaded_space,
                                         loaded.gazetteers)
            observed = tag_probabilities(loaded.models[name],
                                         re_encoded.feature_ids)
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
    loss = sequence_loss(model, ids, labels)
    assert np.isfinite(loss)
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-6)
