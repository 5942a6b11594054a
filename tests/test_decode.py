import numpy as np
import pytest

from helpers import encode_word_tags
from oracles import spans_by_regex
from onokg.ie.decode import decode_entities, find_spans, word_level_tags
from onokg.ie.tagger import (FeatureSpace, TAG_INDEX, encode_sentence,
                             gold_tags)
from onokg.ie.wordpiece import demo_vocab


def _encoded(words):
    space = FeatureSpace()
    return encode_sentence(words, demo_vocab(), space, {})


def _piece_tags(encoded, word_tags):
    """Piece-level tag indices consistent with word-level intent."""
    out = []
    for piece, word_idx, head in zip(encoded.pieces, encoded.word_of_piece,
                                     encoded.is_head_piece):
        if piece == "[CLS]":
            out.append(TAG_INDEX["[CLS]"])
        elif piece == "[SEP]":
            out.append(TAG_INDEX["[SEP]"])
        elif not head:
            out.append(TAG_INDEX["X"])
        else:
            out.append(TAG_INDEX[word_tags[word_idx]])
    return out


def _uniform_probs(n):
    return np.full((n, 7), 1.0 / 7)


class TestFindSpans:
    def test_two_token_mention(self):
        assert find_spans(["O", "O", "B", "I", "O"]) == [(2, 4)]

    def test_all_outside(self):
        assert find_spans(["O"] * 6) == []

    def test_dangling_i_repaired(self):
        assert find_spans(["O", "I", "I", "O"]) == [(1, 3)]

    def test_adjacent_mentions(self):
        assert find_spans(["B", "B", "I"]) == [(0, 1), (1, 3)]

    def test_random_layouts_match_regex_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            tags = [("B", "I", "O")[i]
                    for i in rng.integers(0, 3, size=rng.integers(1, 15))]
            assert find_spans(tags) == spans_by_regex(tags)


class TestEncodeDecodeRoundTrip:
    def test_round_trip_random_layouts(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            n = int(rng.integers(1, 20))
            spans = []
            cursor = 0
            while cursor < n:
                if rng.random() < 0.35:
                    length = int(rng.integers(1, min(4, n - cursor) + 1))
                    spans.append((cursor, cursor + length))
                    cursor += length
                else:
                    cursor += 1
            tags = encode_word_tags(spans, n)
            assert find_spans(tags) == spans


class TestWordLevelProjection:
    def test_x_merges_into_head(self):
        words = ["Breast", "Cancer", "hurts"]
        encoded = _encoded(words)
        tags = _piece_tags(encoded, ["B", "I", "O"])
        probs = _uniform_probs(len(encoded.pieces))
        word_tags, _ = word_level_tags(encoded, tags, probs)
        assert word_tags == ["B", "I", "O"]

    def test_special_tags_never_in_mentions(self):
        words = ["TP53"]
        encoded = _encoded(words)
        tags = [TAG_INDEX["[CLS]"]] + \
            [TAG_INDEX["B"]] + [TAG_INDEX["X"]] * (len(encoded.pieces) - 3) \
            + [TAG_INDEX["[SEP]"]]
        probs = _uniform_probs(len(encoded.pieces))
        word_tags, _ = word_level_tags(encoded, tags, probs)
        assert word_tags == ["B"]

    def test_misaligned_probabilities_rejected(self):
        encoded = _encoded(["one", "two"])
        with pytest.raises(ValueError):
            word_level_tags(encoded, [0], _uniform_probs(1))


class TestTypeResolution:
    def _tagged(self, encoded, word_tags, confidence):
        tags = _piece_tags(encoded, word_tags)
        probs = np.full((len(encoded.pieces), 7), (1 - confidence) / 6)
        for i, t in enumerate(tags):
            probs[i, t] = confidence
        return tags, probs

    def test_higher_probability_type_wins(self):
        words = ["FAS", "matters", "."]
        encoded = _encoded(words)
        tagged = {
            "Gene": self._tagged(encoded, ["B", "O", "O"], 0.9),
            "Disease": self._tagged(encoded, ["B", "O", "O"], 0.6),
        }
        mentions = decode_entities(encoded, tagged)
        assert len(mentions) == 1
        assert mentions[0].entity_type == "Gene"

    def test_tie_breaks_lexicographically(self):
        words = ["FAS", "."]
        encoded = _encoded(words)
        tagged = {
            "Gene": self._tagged(encoded, ["B", "O"], 0.8),
            "Disease": self._tagged(encoded, ["B", "O"], 0.8),
        }
        mentions = decode_entities(encoded, tagged)
        assert mentions[0].entity_type == "Disease"  # "D" < "G"

    def test_overlapping_spans_resolved(self):
        words = ["Breast", "Cancer", "Panel"]
        encoded = _encoded(words)
        tagged = {
            "Disease": self._tagged(encoded, ["B", "I", "O"], 0.95),
            "Gene": self._tagged(encoded, ["O", "B", "I"], 0.7),
        }
        mentions = decode_entities(encoded, tagged)
        assert len(mentions) == 1
        assert (mentions[0].start, mentions[0].end) == (0, 2)
        assert mentions[0].entity_type == "Disease"

    def test_single_type_helper(self):
        words = ["TP53", "acts", "."]
        encoded = _encoded(words)
        tags, probs = self._tagged(encoded, ["B", "O", "O"], 0.9)
        mentions = decode_entities(encoded, {"Gene": (tags, probs)})
        assert [m.surface for m in mentions] == ["TP53"]


class TestTrainedDecoding:
    def test_trained_models_find_fig4_mentions(self, trained):
        words = ["TP53", "is", "responsible", "for", "a", "disease",
                 "called", "Breast", "Cancer", "."]
        encoded = encode_sentence(words, trained.vocab, trained.space,
                                  trained.gazetteers)
        from onokg.ie.corpus import tag_sentence
        mentions = decode_entities(encoded,
                                   tag_sentence(trained.models, [encoded])[0])
        found = {(m.surface, m.entity_type) for m in mentions}
        assert found == {("TP53", "Gene"), ("Breast Cancer", "Disease")}

    def test_gold_tags_shape(self, trained):
        words = ["TP53", "works"]
        encoded = encode_sentence(words, trained.vocab, trained.space,
                                  trained.gazetteers)
        labels = gold_tags(encoded, [(0, 1)])
        assert labels[0] == TAG_INDEX["[CLS]"]
        assert labels[-1] == TAG_INDEX["[SEP]"]
        assert TAG_INDEX["B"] in labels
