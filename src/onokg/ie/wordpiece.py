"""Greedy longest-match-first subword tokenization.

The first piece of a word is unprefixed; continuation pieces carry the
"##" marker. A word containing a character outside the vocabulary
alphabet collapses to the unknown marker, so tokenization is total.
"""

from __future__ import annotations

from functools import lru_cache

from ..ntriples import read_text
from ..ontology import data_path

UNKNOWN = "[UNK]"
CONTINUATION = "##"


class SubwordVocab:
    def __init__(self, pieces):
        self.pieces = frozenset(pieces)
        self._known: dict[str, list[str]] = {}

    def tokenize(self, word: str) -> list[str]:
        """The word's pieces. The list is kept per word on the vocab, so
        callers must not mutate it."""
        if word not in self._known:
            self._known[word] = self._longest_first(word)
        return self._known[word]

    def _longest_first(self, word: str) -> list[str]:
        if not word:
            return []
        out: list[str] = []
        start = 0
        while start < len(word):
            end = len(word)
            found = None
            while end > start:
                piece = word[start:end]
                if start > 0:
                    piece = CONTINUATION + piece
                if piece in self.pieces:
                    found = piece
                    break
                end -= 1
            if found is None:
                return [UNKNOWN]
            out.append(found)
            start = end
        return out


@lru_cache(maxsize=1)
def demo_vocab() -> SubwordVocab:
    lines = read_text(data_path("demo_vocab.txt")).splitlines()
    return SubwordVocab([line for line in lines if line.strip()])
