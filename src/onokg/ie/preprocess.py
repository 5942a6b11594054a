"""Article preprocessing: sentence split, tokenization, stemming, stopword
flagging, coarse rule-based PoS tags, and CoNLL rendering.

Everything here is deterministic: the same text always produces the same
token stream and byte-identical CoNLL output. Dependency parsing and word
sense disambiguation are placeholder-free; the CoNLL layout carries only
the columns the downstream steps consume.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from ..ntriples import read_text
from ..ontology import data_path

_TOKEN_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9\-']*|[^\sA-Za-z0-9]")
_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")

_DETERMINERS = {"a", "an", "the", "this", "that", "these", "those"}
_ADPOSITIONS = {"in", "of", "for", "with", "on", "at", "by", "from", "to",
                "as", "into", "across", "over", "under"}
_CONJUNCTIONS = {"and", "or", "but", "nor"}
_PRONOUNS = {"it", "he", "she", "they", "we", "you", "i", "which", "who",
             "whom", "its", "their", "his", "her", "our"}
_VERBS = {"is", "are", "was", "were", "be", "been", "being", "has", "have",
          "had", "can", "could", "may", "might", "will", "would", "do",
          "does", "did", "cause", "causes", "remains", "carry"}

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


def pos_tag(word: str, lower: Optional[str] = None) -> str:
    lower = lower if lower is not None else word.lower()
    if not any(c.isalnum() for c in word):
        return "PUNCT"
    if all(c.isdigit() or c in ".,-/" for c in word):
        return "NUM"
    if lower in _DETERMINERS:
        return "DET"
    if lower in _ADPOSITIONS:
        return "ADP"
    if lower in _CONJUNCTIONS:
        return "CONJ"
    if lower in _PRONOUNS:
        return "PRON"
    if lower in _VERBS or lower.endswith(("ized", "ised")):
        return "VERB"
    if lower.endswith("ly"):
        return "ADV"
    if lower.endswith(("ous", "ive", "ible", "able", "ic", "ical", "al")):
        return "ADJ"
    if lower.endswith(("ed", "ing")) and len(lower) > 4:
        return "VERB"
    if word[0].isupper() or any(c.isdigit() for c in word):
        return "PROPN"
    return "NOUN"


@dataclass(frozen=True)
class Token:
    index: int
    form: str
    stem: str
    pos: str
    is_stop: bool


@dataclass
class Document:
    id: str
    text: str
    sentences: list[list[Token]] = field(default_factory=list)

    def conll(self) -> str:
        """One token per line: index, form, stem, PoS, stopword flag."""
        blocks = []
        for sentence in self.sentences:
            lines = [f"{t.index}\t{t.form}\t{t.stem}\t{t.pos}"
                     f"\t{1 if t.is_stop else 0}" for t in sentence]
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + ("\n" if blocks else "")


def split_sentences(text: str) -> list[str]:
    parts = [p.strip() for p in _SENTENCE_END.split(text)]
    return [p for p in parts if p]


def tokenize(sentence: str) -> list[str]:
    return _TOKEN_RE.findall(sentence)


def preprocess(text: str, doc_id: str = "") -> Document:
    doc = Document(id=doc_id, text=text)
    stop = stopwords()
    for raw in split_sentences(text):
        tokens = []
        for i, form in enumerate(tokenize(raw), start=1):
            lower = form.lower()
            tokens.append(Token(index=i, form=form, stem=stem(form),
                                pos=pos_tag(form, lower),
                                is_stop=lower in stop))
        if tokens:
            doc.sentences.append(tokens)
    return doc
