"""Article preprocessing: sentence split and tokenization.

`preprocess` returns a `Document` whose sentences are word lists, in text
order; a sentence with no word is dropped. Everything here is
deterministic: the same text always gives the same words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from ..ntriples import read_text
from ..ontology import data_path

_TOKEN_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9\-']*|[^\sA-Za-z0-9]")
_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")

# Fixed suffix-stripping table, applied in order; first match wins.
_SUFFIX_RULES = (
    ("sses", "ss"),
    ("ies", "i"),
    ("ied", "i"),
    ("ational", "ate"),
    ("tional", "tion"),
    ("ments", "ment"),
    ("ized", "ize"),
    ("izing", "ize"),
    ("edly", ""),
    ("ingly", ""),
    ("ing", ""),
    ("ed", ""),
    ("ly", ""),
    ("s", ""),
)
_KEEP_SHORT = 3  # never strip a word down below this many characters


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    words = {line.strip() for line in
             read_text(data_path("stopwords.txt")).splitlines()
             if line.strip() and not line.startswith("#")}
    return frozenset(words)


def stem(word: str) -> str:
    lower = word.lower()
    if not lower.isalpha():
        return lower
    for suffix, replacement in _SUFFIX_RULES:
        if lower.endswith(suffix) and \
                len(lower) - len(suffix) + len(replacement) >= _KEEP_SHORT:
            return lower[:len(lower) - len(suffix)] + replacement
    return lower


@dataclass
class Document:
    id: str
    sentences: list[list[str]] = field(default_factory=list)


def split_sentences(text: str) -> list[str]:
    parts = [p.strip() for p in _SENTENCE_END.split(text)]
    return [p for p in parts if p]


def tokenize(sentence: str) -> list[str]:
    return _TOKEN_RE.findall(sentence)


def preprocess(text: str, doc_id: str = "") -> Document:
    words = (tokenize(raw) for raw in split_sentences(text))
    return Document(doc_id, [sentence for sentence in words if sentence])
