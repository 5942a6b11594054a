"""Greedy longest-match-first subword tokenization.

The first piece of a word is unprefixed; continuation pieces carry the
"##" marker. A word containing a character outside the vocabulary
alphabet collapses to the unknown marker, so tokenization is total.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

UNKNOWN = "[UNK]"
CONTINUATION = "##"


class SubwordVocab:
    def __init__(self, pieces, unknown: str = UNKNOWN):
        self.pieces = frozenset(pieces)
        self.unknown = unknown

    def covers(self, word: str) -> bool:
        """Every character of word is present as head and continuation."""
        return all(c in self.pieces and CONTINUATION + c in self.pieces
                   for c in word)

    def tokenize(self, word: str) -> list[str]:
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
                return [self.unknown]
            out.append(found)
            start = end
        return out

    def __len__(self):
        return len(self.pieces)


def join_pieces(pieces: list[str]) -> str:
    """Inverse of tokenize for in-vocabulary words."""
    return "".join(p[len(CONTINUATION):] if p.startswith(CONTINUATION) else p
                   for p in pieces)


@lru_cache(maxsize=1)
def demo_vocab() -> SubwordVocab:
    path = resources.files("onokg").joinpath("data", "demo_vocab.txt")
    with path.open(encoding="utf-8") as fh:
        pieces = [line.rstrip("\n") for line in fh if line.strip()]
    return SubwordVocab(pieces)
