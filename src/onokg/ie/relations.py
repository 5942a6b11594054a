"""Relation extraction over anonymized sentences.

Mention spans are replaced by @GENE$/@DISEASE$ slots; fixed templates are
then matched against the anonymized sentence and produce labeled
candidates (causes, hasType, isA, hasEvidence). Biomarker-type words
(POTSF, Oncogene, ...) and evidence sources (PubMed, ...) are
controlled-vocabulary terms matched lexically, not free-text entities.
Mention pairs not covered by any template yield a `none` candidate with
confidence 0. The templates are the only relation extractor.

A sentence's tokens are two plain lists: each token's text (the word, or
@GENE$/@DISEASE$ for the mention over its words) and its mention, or None.
Mentions are taken in start order, the last of an equal start wins, and a
mention whose lowercased surface is a type or source word stays literal.
The texts joined by single spaces are the anonymized sentence.

Each template is one regular expression over the match text: the words
lowercased and the mentions kept as @GENE$/@DISEASE$, joined by single
spaces (a token holds no space; the tokenizer splits at whitespace). A
lowercased word has no capitals, so no word can spell a slot, and a
literal matches exactly the words whose `lower()` it is; `re.IGNORECASE`
would not, since it matches `ſ` to `s` and `İ` to `i`, which `lower()`
keeps apart. The slots {G}, {D}, {TYPE} and {SOURCE} are named groups over
one token, and `(?:w )?` is an optional word. A template takes an optional
word whenever it is there, but the regex may also backtrack past it (the
possessive `?+` would not, but needs Python 3.11). That changes a match
only where the word could also fill the element after it, and no template
allows that. Each template runs at every token start, left to right, as
one `finditer` of zero-width matches. A TYPE or SOURCE group's text is one
lowercased word, so it is the key of its term in `_TYPE_LEXICON` or
`_SOURCE_LEXICON`; the CONTEXT subject walks the lowercased tokens back
from the match. The `none` pairs come from the mentions that became slots,
in token order, genes first.

The reference in `tests/oracles.py` anonymizes each sentence for itself,
into token records, and tries the element templates at every position, so
a fault in this module's anonymizer shows against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from ..kg import Term
from ..ontology import SCHEMA
from .decode import EntityMention

GENE_SLOT = "@GENE$"
DISEASE_SLOT = "@DISEASE$"

RELATION_LABELS = ("causes", "hasType", "hasEvidence", "isA", "none")


@dataclass
class RelationCandidate:
    doc_id: str
    anonymized: str
    label: str
    confidence: float
    subject: Optional[Term]
    object: Optional[Term]

    def __post_init__(self):
        if self.label not in RELATION_LABELS:
            raise ValueError(f"unknown relation label {self.label!r}")


_TYPE_LEXICON = {
    "potsf": SCHEMA.potsf,
    "oncogene": SCHEMA.oncogene,
    "oncogenes": SCHEMA.oncogene,
    "protein-coding": SCHEMA.protein_coding,
    "proteincoding": SCHEMA.protein_coding,
}

_SOURCE_LEXICON = {
    "pubmed": SCHEMA.pubmed,
    "mesh": SCHEMA.mesh,
    "cancerindex": SCHEMA.cancer_index,
}


def _slot(name: str, texts) -> str:
    """A named group that matches one of `texts`."""
    return f"(?P<{name}>{'|'.join(map(re.escape, texts))})"


_LEXICONS = {"TYPE": _TYPE_LEXICON, "SOURCE": _SOURCE_LEXICON}
_SLOTS = {"G": _slot("G", [GENE_SLOT]), "D": _slot("D", [DISEASE_SLOT]),
          **{name: _slot(name, words) for name, words in _LEXICONS.items()}}


@dataclass(frozen=True)
class Pattern:
    regex: re.Pattern
    label: str
    confidence: float
    subject_slot: str   # G | D | TYPE | CONTEXT
    object_slot: str    # G | D | TYPE | SOURCE | DISEASE_CLASS


def _pattern(template: str, label: str, confidence: float,
             subject_slot: str, object_slot: str) -> Pattern:
    """The template with its slots filled, as a zero-width match at a token
    start (after no character but a space) whose last token ends at a
    space or at the end of the text (`$` would also end it before a final
    newline)."""
    body = template.format(**_SLOTS)
    return Pattern(re.compile(rf"(?<![^ ])(?={body}(?= |\Z))"), label,
                   confidence, subject_slot, object_slot)


PATTERNS = (
    # responsible-for
    _pattern("{G} (?:is|are|was|were) responsible for (?:(?:a|the) )?"
             "(?:disease )?(?:called )?{D}", "causes", 0.95, "G", "D"),
    # causes-verb
    _pattern("{G} (?:causes|cause|caused) {D}", "causes", 0.95, "G", "D"),
    # mutations-in
    _pattern("mutations in {G} (?:are|is|were) (?:associated|linked) with "
             "{D}", "causes", 0.85, "G", "D"),
    # driven-by
    _pattern("{D} is (?:a )?(?:disease )?(?:driven|caused) by {G}",
             "causes", 0.85, "G", "D"),
    # has-functionality
    _pattern("{G} has {TYPE} functionality", "hasType", 0.95, "G", "TYPE"),
    # is-a-type
    _pattern("{G} is (?:a|an) {TYPE}", "isA", 0.9, "G", "TYPE"),
    # disease-called
    _pattern("(?:a|the) disease called {D}", "isA", 0.9, "D",
             "DISEASE_CLASS"),
    # mentioned-in
    _pattern("(?:mentioned|cited) in (?:(?:numerous|several|many) )?"
             "{SOURCE} (?:articles|publications|literature)",
             "hasEvidence", 0.9, "CONTEXT", "SOURCE"),
)


def _token(match: re.Match, group: int | str = 0) -> int:
    """The index of the token where `group` of the match starts: a token
    holds no space, so the spaces before an offset count the tokens before
    it."""
    return match.string.count(" ", 0, match.start(group))


def _slot_term(slot: str, match: re.Match, lowered: list[str],
               marks: list) -> Optional[Term]:
    """The term that fills `slot` in a template's match over the lowercased
    tokens `lowered`, whose mentions (or None) are `marks`."""
    if slot == "DISEASE_CLASS":
        return SCHEMA.disease
    if slot in _LEXICONS:
        # the group is one lowercased word, so it is a lexicon key
        return _LEXICONS[slot][match[slot]]
    if slot == "CONTEXT":
        # anaphoric subject: last type word before the match, else the
        # nearest preceding mention
        start = _token(match)
        for word in reversed(lowered[:start]):
            if word in _TYPE_LEXICON:
                return _TYPE_LEXICON[word]
        for mention in reversed(marks[:start]):
            if mention is not None:
                return mention.normalized_id
        return None
    return marks[_token(match, slot)].normalized_id


def extract_relations(words: Sequence[str],
                      mentions: Sequence[EntityMention],
                      doc_id: str = "") -> list[RelationCandidate]:
    """Anonymize the sentence and match the relation templates."""
    by_start = {}
    for m in sorted(mentions, key=lambda m: m.start):
        # controlled-vocabulary words stay literal even if tagged
        if m.surface.lower() not in _TYPE_LEXICON \
                and m.surface.lower() not in _SOURCE_LEXICON:
            by_start[m.start] = m
    texts, marks = [], []   # each token's text, and its mention or None
    i = 0
    while i < len(words):
        mention = by_start.get(i)
        marks.append(mention)
        if mention is None:
            texts.append(words[i])
            i += 1
        else:
            texts.append(GENE_SLOT if mention.entity_type == "Gene"
                         else DISEASE_SLOT)
            i = mention.end
    lowered = [word.lower() if mention is None else word
               for word, mention in zip(texts, marks)]
    text, match_text = " ".join(texts), " ".join(lowered)
    candidates: list[RelationCandidate] = []
    covered_pairs: set[tuple[int, int]] = set()
    seen: set[tuple] = set()
    for pattern in PATTERNS:
        for m in pattern.regex.finditer(match_text):
            subject = _slot_term(pattern.subject_slot, m, lowered, marks)
            object_ = _slot_term(pattern.object_slot, m, lowered, marks)
            if subject is None or object_ is None:
                continue
            key = (pattern.label, subject, object_)
            if key in seen:
                continue
            seen.add(key)
            if {"G", "D"} <= pattern.regex.groupindex.keys():
                covered_pairs.add((marks[_token(m, "G")].start,
                                   marks[_token(m, "D")].start))
            candidates.append(RelationCandidate(
                doc_id=doc_id, anonymized=text,
                label=pattern.label, confidence=pattern.confidence,
                subject=subject, object=object_))
    genes = [m for m in marks if m is not None and m.entity_type == "Gene"]
    diseases = [m for m in marks
                if m is not None and m.entity_type == "Disease"]
    for g in genes:
        for d in diseases:
            if (g.start, d.start) not in covered_pairs:
                candidates.append(RelationCandidate(
                    doc_id=doc_id, anonymized=text, label="none",
                    confidence=0.0, subject=g.normalized_id,
                    object=d.normalized_id))
    return candidates
