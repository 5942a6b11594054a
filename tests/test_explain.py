import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import pack
from oracles import central_difference
from onokg.explain import (FeedForwardNet, Layer, NumericError,
                           SingularDenominatorError, gradient, lrp,
                           render_heatmap, sensitivity)
from onokg.explain.bridge import feature_offsets, sentence_token_relevance
from onokg.ie.corpus import tag_sentence
from onokg.ie.tagger import (K, EncodedSentence, FeatureSpace, TaggerModel,
                             encode_sentence)


def random_relu_net(rng, sizes=(4, 5, 3), bias_free=False, scale=1.0):
    layers = []
    for i in range(len(sizes) - 1):
        weights = rng.normal(size=(sizes[i + 1], sizes[i])) * scale
        bias = np.zeros(sizes[i + 1]) if bias_free \
            else rng.normal(size=sizes[i + 1]) * scale
        activation = "relu" if i < len(sizes) - 2 else "identity"
        layers.append(Layer(weights, bias, activation))
    return FeedForwardNet(layers)


def smooth_point(rng, net, c, tries=50):
    """A point where no pre-activation sits near a ReLU kink."""
    for _ in range(tries):
        x = rng.normal(size=net.input_size)
        if all(np.abs(pre).min() > 1e-2 for pre, _ in net.forward(x)):
            return x
    return None


class TestNet:
    def test_dimension_chain_validated(self):
        with pytest.raises(ValueError, match="chain"):
            FeedForwardNet([Layer(np.ones((2, 3)), np.zeros(2)),
                            Layer(np.ones((2, 4)), np.zeros(2))])

    def test_nonfinite_activation_names_layer(self):
        net = FeedForwardNet([Layer(np.array([[1.0]]), np.zeros(1)),
                              Layer(np.array([[1e308]]), np.zeros(1))])
        with pytest.raises(NumericError, match="layer 1"):
            np.seterr(over="ignore")
            try:
                net.forward(np.array([1e200]))
            finally:
                np.seterr(over="warn")


class TestSensitivity:
    def test_linear_map(self):
        net = FeedForwardNet([Layer(np.array([[2.0, -1.0]]), np.zeros(1))])
        for x in (np.zeros(2), np.array([3.0, 4.0])):
            rmap = sensitivity(net, x, 0)
            assert np.allclose(rmap.scores, [4.0, 1.0])
            assert rmap.total == pytest.approx(5.0)

    def test_constant_network_zero(self):
        net = FeedForwardNet([Layer(np.zeros((2, 3)), np.zeros(2))])
        rmap = sensitivity(net, np.array([1.0, 2.0, 3.0]), 1)
        assert np.allclose(rmap.scores, 0.0)

    def test_scores_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            net = random_relu_net(rng)
            x = rng.normal(size=net.input_size)
            assert (sensitivity(net, x, 0).scores >= 0).all()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        done = 0
        while done < 40:
            net = random_relu_net(rng)
            c = int(rng.integers(net.output_size))
            x = smooth_point(rng, net, c)
            if x is None:
                continue
            done += 1
            grad = gradient(net, x, c)
            numeric = central_difference(lambda v: net.output(v)[c], x)
            denom = np.maximum(np.abs(numeric), 1e-8)
            assert (np.abs(grad - numeric) / denom).max() < 1e-4
            rmap = sensitivity(net, x, c)
            assert np.allclose(rmap.scores, numeric ** 2, rtol=1e-3,
                               atol=1e-10)
            assert rmap.total == pytest.approx(float((grad ** 2).sum()),
                                               abs=1e-8)


class TestLrp:
    def test_single_linear_neuron_proportional(self):
        net = FeedForwardNet([Layer(np.array([[1.0, 1.0]]), np.zeros(1))])
        rmap = lrp(net, np.array([1.0, 2.0]), 0, epsilon=0.0, delta=1.0)
        assert np.allclose(rmap.scores, [1.0, 2.0])
        assert rmap.total == pytest.approx(3.0)

    def test_conservation_bias_free(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            net = random_relu_net(rng, bias_free=True)
            x = rng.normal(size=net.input_size)
            f = net.output(x)
            c = int(np.abs(f).argmax())
            try:
                rmap = lrp(net, x, c, epsilon=0.0, delta=1.0)
            except SingularDenominatorError:
                continue
            for layer_sum in rmap.layer_sums:
                assert abs(layer_sum - f[c]) <= 1e-6

    def test_conservation_with_biases(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            net = random_relu_net(rng, bias_free=False)
            x = rng.normal(size=net.input_size)
            f = net.output(x)
            c = int(np.abs(f).argmax())
            rmap = lrp(net, x, c, epsilon=0.01, delta=1.0)
            for layer_sum in rmap.layer_sums:
                assert abs(layer_sum - f[c]) <= 1e-6

    def test_linearity_in_output_relevance(self):
        rng = np.random.default_rng(59)
        net = random_relu_net(rng)
        x = rng.normal(size=net.input_size)
        base = lrp(net, x, 0, epsilon=0.01)
        doubled_net = FeedForwardNet(
            net.layers[:-1] + [Layer(net.layers[-1].weights * 2,
                                     net.layers[-1].bias * 2,
                                     net.layers[-1].activation)])
        doubled = lrp(doubled_net, x, 0, epsilon=0.01)
        # scaling f_c doubles the initial relevance; denominators of the
        # last layer scale too, so compare against the recomputed base
        assert doubled.layer_sums[0] == pytest.approx(2 * base.layer_sums[0])

    def test_doubling_relevance_doubles_scores(self):
        # Eq. linearity checked directly on one layer: feed 2*R_j
        rng = np.random.default_rng(61)
        weights = rng.normal(size=(3, 4))
        bias = np.zeros(3)
        net = FeedForwardNet([Layer(weights, bias)])
        x = rng.normal(size=4)
        single = lrp(net, x, 1, epsilon=0.0)
        boosted = FeedForwardNet([Layer(weights * 2, bias)])
        # f_c doubles while the mixing ratios stay fixed
        double = lrp(boosted, x, 1, epsilon=0.0)
        assert np.allclose(double.scores, 2 * single.scores, atol=1e-9)

    def test_negative_epsilon_rejected(self):
        net = FeedForwardNet([Layer(np.eye(2), np.zeros(2))])
        with pytest.raises(ValueError, match="epsilon"):
            lrp(net, np.ones(2), 0, epsilon=-0.1)

    def test_singular_denominator_names_neuron(self):
        net = FeedForwardNet([Layer(np.array([[1.0, -1.0]]), np.zeros(1))])
        with pytest.raises(SingularDenominatorError, match="neuron 0"):
            lrp(net, np.array([1.0, 1.0]), 0, epsilon=0.0)

    def test_class_without_relevance_sends_no_messages(self):
        # at epsilon 0 the quotient of class 1 overflows (its logit is
        # 1e-308), but class 1 holds no relevance, so it sends nothing
        net = FeedForwardNet([Layer(np.array([[2.0, 1.0], [4.0, -4.0]]),
                                    np.array([0.0, 1e-308]))])
        with np.errstate(all="raise"):
            rmap = lrp(net, np.ones(2), 0, epsilon=0.0)
        assert rmap.scores.tolist() == [2.0, 1.0]
        assert rmap.layer_sums == [3.0, 3.0]

    def test_bad_class_index(self):
        net = FeedForwardNet([Layer(np.eye(2), np.zeros(2))])
        with pytest.raises(IndexError):
            lrp(net, np.ones(2), 5)


class TestHeatmap:
    def test_all_zero_uniform_minimum(self):
        text = render_heatmap(["a", "b"], [0.0, 0.0])
        assert text.count("48;5;255") == 2

    def test_single_nonzero_is_max_intensity(self):
        text = render_heatmap(["a", "b"], [0.0, 3.5])
        assert "48;5;196mb" in text.replace("\x1b[30m", "")

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="tokens"):
            render_heatmap(["a"], [1.0, 2.0])

    def test_terminal_embeds_scores(self):
        text = render_heatmap(["a"], [1.25])
        line = [l for l in text.splitlines() if l.startswith("# scores:")]
        assert json.loads(line[0].split(":", 1)[1]) == [1.25]

    def test_html_spans_and_scores(self):
        text = render_heatmap(["tok<en"], [2.0], fmt="html")
        assert 'data-score="2.0"' in text
        assert "tok&lt;en" in text
        assert "<!-- scores:" in text

    def test_empty_input(self):
        assert "# scores: []" in render_heatmap([], [])


def _relevance(model, encoded, method="lrp", epsilon=0.01, delta=1.0):
    """The closed-form bridge on the model's own tagging of the sentence,
    or the (type, message) of the error it raises."""
    tags, _probs = tag_sentence({"m": model}, [encoded])[0]["m"]
    try:
        return sentence_token_relevance(
            model, encoded, tags, feature_offsets(model.space),
            method=method, epsilon=epsilon, delta=delta)
    except (NumericError, SingularDenominatorError) as exc:
        return type(exc), str(exc)


def _oracle_relevance(model, encoded, method="lrp", epsilon=0.01,
                      delta=1.0):
    try:
        return oracles.sentence_token_relevance(
            model, encoded, method=method, epsilon=epsilon, delta=delta)
    except (NumericError, SingularDenominatorError) as exc:
        return type(exc), str(exc)


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


_FAMILIES = ("p", "w", "case", "prev", "next", "prevcase", "nextcase")
# magnitudes of at least 1e-3, or zeros; a quotient by a logit that
# overflows is test_overflowing_quotient_of_another_class_matches_oracle
_VALUES = st.one_of(st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3),
                    st.sampled_from([0.0, -0.0]))


@st.composite
def _head_and_sentence(draw):
    """A random head (K = 7, small H) over features of random families, and
    a sentence of random sorted id rows: [CLS], 1-4 words of 1-3 pieces
    each, [SEP]."""
    hidden = draw(st.integers(1, 6))
    space = FeatureSpace()
    for fid in range(hidden):
        space.intern(f"{draw(st.sampled_from(_FAMILIES))}={fid}")
    space.frozen = True
    weights = np.array(draw(st.lists(_VALUES, min_size=K * hidden,
                                     max_size=K * hidden))).reshape(K, hidden)
    bias = np.array(draw(st.lists(_VALUES, min_size=K, max_size=K)))
    # lift B or I in most heads, so that most sentences have entity words
    lifted = draw(st.sampled_from([None, 0, 0, 1]))
    if lifted is not None:
        bias[lifted] += 6.0
    # classes whose logit is exactly 0 (a zero denominator at epsilon 0)
    for k in draw(st.sets(st.integers(0, K - 1), max_size=2)):
        weights[k] = 0.0
        bias[k] = 0.0
    row = st.sets(st.integers(0, hidden - 1), min_size=1).map(
        lambda ids: np.array(sorted(ids), dtype=np.int64))
    words = [f"w{i}" for i in range(draw(st.integers(1, 4)))]
    pieces, word_of_piece, is_head = ["[CLS]"], [-1], [False]
    for i, word in enumerate(words):
        for j in range(draw(st.integers(1, 3))):
            pieces.append(word if j == 0 else f"##{j}")
            word_of_piece.append(i)
            is_head.append(j == 0)
    pieces.append("[SEP]")
    word_of_piece.append(-1)
    is_head.append(False)
    ids = [draw(row) for _ in pieces]
    return (TaggerModel(space, weights, bias),
            EncodedSentence(words, pieces, word_of_piece, is_head,
                            *pack(ids)))


class TestTaggerBridge:
    def test_entity_words_lead_relevance(self, trained):
        words = ["TP53", "is", "responsible", "for", "a", "disease",
                 "called", "Breast", "Cancer", "."]
        encoded, = encode_sentence([words], trained.vocab, trained.space,
                                   trained.gazetteers)
        tagged = tag_sentence(trained.models, [encoded])[0]
        offsets = feature_offsets(trained.space)
        total = np.zeros(len(words))
        for name, model in trained.models.items():
            total += sentence_token_relevance(model, encoded,
                                              tagged[name][0], offsets)
        ranked = [words[i] for i in np.argsort(-np.abs(total))]
        assert {"TP53", "Breast", "Cancer"} <= set(ranked[:3])

    @pytest.mark.parametrize("method", ["lrp", "sensitivity"])
    def test_trained_heads_match_per_piece_oracle(self, trained, method):
        for sentence in trained.test_set[:40]:
            encoded, = encode_sentence([sentence.words], trained.vocab,
                                       trained.space, trained.gazetteers)
            for model in trained.models.values():
                _assert_same(_relevance(model, encoded, method),
                             _oracle_relevance(model, encoded, method))

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(case=_head_and_sentence(),
           method=st.sampled_from(["lrp", "sensitivity"]),
           epsilon=st.one_of(st.floats(1e-3, 5.0), st.just(0.0)),
           delta=st.one_of(st.floats(-3.0, -1e-3), st.floats(1e-3, 3.0),
                           st.just(0.0)))
    def test_closed_form_matches_per_piece_oracle(self, case, method,
                                                  epsilon, delta):
        model, encoded = case
        _assert_same(_relevance(model, encoded, method, epsilon, delta),
                     _oracle_relevance(model, encoded, method, epsilon,
                                       delta))

    @pytest.mark.parametrize("method", ["lrp", "sensitivity"])
    def test_overflowing_logit_raises_numeric_error(self, method):
        space = FeatureSpace()
        space.intern("w=a")
        space.intern("w=b")
        weights = np.zeros((K, 2))
        weights[0] = 1e308              # z[0] = 2e308 overflows
        model = TaggerModel(space, weights, np.zeros(K))
        encoded = EncodedSentence(
            ["a"], ["[CLS]", "a", "[SEP]"], [-1, 0, -1], [False, True, False],
            *pack([np.array([0]), np.array([0, 1]), np.array([1])]))
        with np.errstate(all="ignore"):
            got = _relevance(model, encoded, method)
            want = _oracle_relevance(model, encoded, method)
        assert got == want == (NumericError, "non-finite activations in "
                                             "layer 0")

    def test_overflowing_quotient_of_another_class_matches_oracle(self):
        # B wins with logit 3, and class I's logit is 1e-308: at epsilon 0
        # the generic lrp's quotient for I overflows, yet I holds no
        # relevance, so lrp and the closed form give the same scores
        space = FeatureSpace()
        space.intern("w=a")
        space.intern("w=b")
        weights = np.zeros((K, 2))
        weights[0] = [2.0, 1.0]
        weights[1] = [4.0, -4.0]
        bias = np.full(K, -1.0)
        bias[0], bias[1] = 0.0, 1e-308
        model = TaggerModel(space, weights, bias)
        encoded = EncodedSentence(
            ["a"], ["[CLS]", "a", "[SEP]"], [-1, 0, -1], [False, True, False],
            *pack([np.array([0]), np.array([0, 1]), np.array([1])]))
        with np.errstate(all="raise"):
            got = _relevance(model, encoded, epsilon=0.0)
            want = _oracle_relevance(model, encoded, epsilon=0.0)
        _assert_same(got, want)
        assert np.isfinite(got).all() and got.any()

    def test_misaligned_tags_rejected(self):
        # one tag short of the pieces would drop [SEP] from the piece
        # loop, and one over would be ignored: each names both lengths
        space = FeatureSpace()
        space.intern("w=a")
        model = TaggerModel(space, np.ones((K, 1)), np.zeros(K))
        encoded = EncodedSentence(
            ["a"], ["[CLS]", "a", "[SEP]"], [-1, 0, -1], [False, True, False],
            *pack([np.array([0])] * 3))
        for tags in ([4, 0], [4, 0, 5, 6]):
            with pytest.raises(ValueError,
                               match=f"^{len(tags)} tags for a sentence of "
                                     f"3 pieces$"):
                sentence_token_relevance(model, encoded, tags,
                                         feature_offsets(space))

    def test_zero_logit_at_epsilon_zero_names_the_class(self):
        space = FeatureSpace()
        space.intern("w=a")
        weights = np.ones((K, 1))
        weights[6] = 0.0                # z[PAD] = 0
        model = TaggerModel(space, weights, np.zeros(K))
        encoded = EncodedSentence(
            ["a"], ["[CLS]", "a", "[SEP]"], [-1, 0, -1], [False, True, False],
            *pack([np.array([0])] * 3))
        got = _relevance(model, encoded, epsilon=0.0)
        assert got == _oracle_relevance(model, encoded, epsilon=0.0)
        assert got[0] is SingularDenominatorError and "neuron 6" in got[1]
