import logging

import numpy as np
import pytest

import oracles
from helpers import decode_word_tags, encode_word_tags
from oracles import spans_by_regex
from onokg.ie.decode import decode_entities
from onokg.ie.tagger import (FeatureSpace, TAG_INDEX, encode_sentence,
                             gold_tags)
from onokg.ie.wordpiece import demo_vocab


def _encoded(words):
    space = FeatureSpace()
    return encode_sentence([words], demo_vocab(), space, {})[0]


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


def _spans(caplog, encoded, tags):
    """The spans that `decode_entities` finds in one type's piece tags,
    and the repair lines it logs."""
    (mentions,), log = _decoded_and_logged(caplog, lambda: decode_entities(
        [encoded], [{"Gene": (tags, _uniform_probs(len(tags)))}]))
    return [(m.start, m.end) for m in mentions], log


class TestFindSpans:
    def test_two_token_mention(self):
        assert decode_word_tags(["O", "O", "B", "I", "O"]) == [(2, 4)]

    def test_all_outside(self):
        assert decode_word_tags(["O"] * 6) == []

    def test_dangling_i_repaired(self):
        assert decode_word_tags(["O", "I", "I", "O"]) == [(1, 3)]

    def test_adjacent_mentions(self):
        assert decode_word_tags(["B", "B", "I"]) == [(0, 1), (1, 3)]

    def test_random_layouts_match_regex_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            tags = [("B", "I", "O")[i]
                    for i in rng.integers(0, 3, size=rng.integers(1, 15))]
            assert decode_word_tags(tags) == spans_by_regex(tags)


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
            assert decode_word_tags(tags) == spans


class TestWordLevelProjection:
    # the spans with no repair line pin the word tags: a span opens at a
    # B, and every other word in it is an I
    def test_x_merges_into_head(self, caplog):
        words = ["Breast", "Cancer", "hurts"]
        encoded = _encoded(words)
        tags = _piece_tags(encoded, ["B", "I", "O"])
        assert _spans(caplog, encoded, tags) == ([(0, 2)], [])

    def test_special_tags_never_in_mentions(self, caplog):
        words = ["TP53"]
        encoded = _encoded(words)
        tags = [TAG_INDEX["[CLS]"]] + \
            [TAG_INDEX["B"]] + [TAG_INDEX["X"]] * (len(encoded.pieces) - 3) \
            + [TAG_INDEX["[SEP]"]]
        assert _spans(caplog, encoded, tags) == ([(0, 1)], [])

    def test_misaligned_probabilities_rejected(self):
        encoded = _encoded(["one", "two"])
        with pytest.raises(ValueError):
            decode_entities([encoded], [{"Gene": ([0], _uniform_probs(1))}])


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
        mentions, = decode_entities([encoded], [tagged])
        assert len(mentions) == 1
        assert mentions[0].entity_type == "Gene"

    def test_tie_breaks_lexicographically(self):
        words = ["FAS", "."]
        encoded = _encoded(words)
        tagged = {
            "Gene": self._tagged(encoded, ["B", "O"], 0.8),
            "Disease": self._tagged(encoded, ["B", "O"], 0.8),
        }
        mentions, = decode_entities([encoded], [tagged])
        assert mentions[0].entity_type == "Disease"  # "D" < "G"

    def test_overlapping_spans_resolved(self):
        words = ["Breast", "Cancer", "Panel"]
        encoded = _encoded(words)
        tagged = {
            "Disease": self._tagged(encoded, ["B", "I", "O"], 0.95),
            "Gene": self._tagged(encoded, ["O", "B", "I"], 0.7),
        }
        mentions, = decode_entities([encoded], [tagged])
        assert len(mentions) == 1
        assert (mentions[0].start, mentions[0].end) == (0, 2)
        assert mentions[0].entity_type == "Disease"

    def test_single_type_helper(self):
        words = ["TP53", "acts", "."]
        encoded = _encoded(words)
        tags, probs = self._tagged(encoded, ["B", "O", "O"], 0.9)
        mentions, = decode_entities([encoded], [{"Gene": (tags, probs)}])
        assert [m.surface for m in mentions] == ["TP53"]


class TestTrainedDecoding:
    def test_trained_models_find_fig4_mentions(self, trained):
        words = ["TP53", "is", "responsible", "for", "a", "disease",
                 "called", "Breast", "Cancer", "."]
        encoded = encode_sentence([words], trained.vocab, trained.space,
                                  trained.gazetteers)
        from onokg.ie.corpus import tag_sentence
        mentions, = decode_entities(encoded,
                                    tag_sentence(trained.models, encoded))
        found = {(m.surface, m.entity_type) for m in mentions}
        assert found == {("TP53", "Gene"), ("Breast Cancer", "Disease")}

    def test_gold_tags_shape(self, trained):
        words = ["TP53", "works"]
        encoded, = encode_sentence([words], trained.vocab, trained.space,
                                   trained.gazetteers)
        labels = gold_tags(encoded, [(0, 1)])
        assert labels[0] == TAG_INDEX["[CLS]"]
        assert labels[-1] == TAG_INDEX["[SEP]"]
        assert TAG_INDEX["B"] in labels


# words of one to four demo-vocabulary pieces, and the empty word, which has
# none and so no head piece
_GROUP_WORDS = ["TP53", "Breast", "carcinoma", "a", "of", "Ω", "", "x",
                "BRCA1", "invasive"]
_TYPES = ("Disease", "Gene")


def _tagging(rng, encoded, tie_values):
    """One type's (tags, probs) for a sentence: tags drawn from all seven,
    mostly B, I and O, and probabilities from `tie_values`, so that spans
    of the two types often score the same."""
    n = len(encoded.pieces)
    tags = rng.choice(7, size=n, p=[0.25, 0.35, 0.25, 0.05, 0.04, 0.03,
                                    0.03])
    if rng.random() < 0.2:      # a long run: spans of 8 words and more
        tags[:] = 1
        tags[rng.integers(n)] = 0
    probs = rng.choice(tie_values, size=(n, 7))
    return tags, probs


def _random_group(rng, size):
    vocab = demo_vocab()
    sentences = [list(rng.choice(_GROUP_WORDS, size=rng.integers(1, 15)))
                 for _ in range(size)]
    encodings = encode_sentence(sentences, vocab, FeatureSpace(), {})
    tie_values = [0.25, 0.5, 0.75] if rng.random() < 0.5 else \
        rng.random(5).tolist()
    tagged = []
    for encoded in encodings:
        by_type = {etype: _tagging(rng, encoded, tie_values)
                   for etype in _TYPES}
        if rng.random() < 0.3:
            by_type["Gene"] = tuple(a.copy() for a in by_type["Disease"])
        tagged.append(by_type)
    return encodings, tagged


def _overlapping_ties(encoded, by_type) -> int:
    """Pairs of overlapping spans of different types with equal scores."""
    candidates = [c for etype in _TYPES for c in oracles._span_candidates(
        *oracles.word_level_tags(encoded, *by_type[etype]), etype)]
    return sum(a[2] < b[2] and a[3] == b[3] and a[0] < b[1] and b[0] < a[1]
               for a in candidates for b in candidates)


def _decoded_and_logged(caplog, decode):
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        result = decode()
    return result, [r.getMessage() for r in caplog.records]


def assert_group_matches_oracle(caplog, encodings, tagged, indices):
    """The group decoder against the per-sentence decoder it replaced
    (tests/oracles.py): the same mentions, scores to the bit, and the same
    repair lines in the same order."""
    want, want_log = _decoded_and_logged(caplog, lambda: [
        oracles.decode_entities(encoded, by_type, index)
        for encoded, by_type, index in zip(encodings, tagged, indices)])
    got, got_log = _decoded_and_logged(
        caplog, lambda: decode_entities(encodings, tagged, indices))
    assert got == want
    assert got_log == want_log


class TestGroupDecoder:
    def test_random_groups_match_per_sentence_oracle(self, caplog):
        rng = np.random.default_rng(27)
        lengths, ties, repairs = set(), 0, 0
        for trial in range(300):
            encodings, tagged = _random_group(rng, int(rng.integers(1, 12)))
            indices = (rng.permutation(len(encodings)) + 3).tolist()
            assert_group_matches_oracle(caplog, encodings, tagged, indices)
            for mentions in decode_entities(encodings, tagged):
                lengths |= {m.end - m.start for m in mentions}
            repairs += len(caplog.records)
            ties += sum(_overlapping_ties(e, t)
                        for e, t in zip(encodings, tagged))
        # spans of 8 to 12 words were scored, repairs were logged, and
        # overlapping spans of the two types tied
        assert set(range(8, 13)) <= lengths
        assert repairs > 100 and ties > 100

    def test_i_opening_a_sentence_after_one_that_closes_in_a_span(
            self, caplog):
        """An I that opens sentence k+1 right after a B or an I that
        closes sentence k starts a span of its own, and is logged."""
        words = [["TP53", "Breast"], ["carcinoma", "of", "x"],
                 ["Breast", "carcinoma"], ["a"]]
        encodings = encode_sentence(words, demo_vocab(), FeatureSpace(), {})
        tagged = []
        for encoded, word_tags in zip(encodings, (["O", "B"], ["I", "I",
                                                               "O"],
                                                  ["B", "I"], ["I"])):
            tags = _piece_tags(encoded, word_tags)
            tagged.append({etype: (tags, _uniform_probs(len(tags)))
                           for etype in _TYPES})
        assert_group_matches_oracle(caplog, encodings, tagged, [0, 1, 2, 3])
        mentions = decode_entities(encodings, tagged)
        assert [[(m.start, m.end) for m in found] for found in mentions] \
            == [[(1, 2)], [(0, 2)], [(0, 2)], [(0, 1)]]
        _, log = _decoded_and_logged(
            caplog, lambda: decode_entities(encodings, tagged))
        assert log == ["I tag without preceding B at word 0; treating it "
                       "as B"] * 4

    def test_special_tags_at_head_pieces_read_as_outside(self, caplog):
        words = [["TP53", "Breast", "carcinoma", "x"]] * 4
        encodings = encode_sentence(words, demo_vocab(), FeatureSpace(), {})
        tagged = []
        for special in ("X", "[CLS]", "[SEP]", "PAD"):
            tags = _piece_tags(encodings[0], ["B", "I", "I", "I"])
            tags[encodings[0].is_head_piece.index(True, 2)] = \
                TAG_INDEX[special]
            tagged.append({"Gene": (tags, _uniform_probs(len(tags)))})
        assert_group_matches_oracle(caplog, encodings, tagged, [0, 1, 2, 3])
        assert [[(m.start, m.end) for m in found] for found in
                decode_entities(encodings, tagged)] == [[(0, 1), (2, 4)]] * 4

    def test_empty_group(self):
        assert decode_entities([], []) == []

    def test_misaligned_group_rejected(self):
        encodings = encode_sentence([["one"], ["two", "three"]],
                                    demo_vocab(), FeatureSpace(), {})
        tagged = [{"Gene": ([0, 2, 6], _uniform_probs(3))}] * 2
        with pytest.raises(ValueError):
            decode_entities(encodings, tagged)
