"""Relation extraction over anonymized sentences.

Mention spans are replaced by @GENE$/@DISEASE$ slots; fixed templates are
then matched against the anonymized sentence and produce labeled
candidates (causes, hasType, isA, hasEvidence). Biomarker-type words
(POTSF, Oncogene, ...) and evidence sources (PubMed, ...) are
controlled-vocabulary terms matched lexically, not free-text entities.
Mention pairs not covered by any template yield a `none` candidate with
confidence 0. The templates are the only relation extractor.

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
one `finditer` of zero-width matches.
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


_SLOTS = {"G": _slot("G", [GENE_SLOT]), "D": _slot("D", [DISEASE_SLOT]),
          "TYPE": _slot("TYPE", _TYPE_LEXICON),
          "SOURCE": _slot("SOURCE", _SOURCE_LEXICON)}


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


@dataclass
class _AnonToken:
    text: str
    mention: Optional[EntityMention] = None
    type_term: Optional[Term] = None
    source_term: Optional[Term] = None


def anonymize(words: Sequence[str], mentions: Sequence[EntityMention]
              ) -> list[_AnonToken]:
    """Replace mention spans with @GENE$/@DISEASE$ slot tokens."""
    by_start = {}
    for m in sorted(mentions, key=lambda m: m.start):
        # controlled-vocabulary words stay literal even if tagged
        if m.surface.lower() in _TYPE_LEXICON \
                or m.surface.lower() in _SOURCE_LEXICON:
            continue
        by_start[m.start] = m
    out: list[_AnonToken] = []
    i = 0
    while i < len(words):
        mention = by_start.get(i)
        if mention is not None:
            slot = GENE_SLOT if mention.entity_type == "Gene" \
                else DISEASE_SLOT
            out.append(_AnonToken(slot, mention=mention))
            i = mention.end
            continue
        lower = words[i].lower()
        out.append(_AnonToken(words[i], type_term=_TYPE_LEXICON.get(lower),
                              source_term=_SOURCE_LEXICON.get(lower)))
        i += 1
    return out


def anonymized_text(tokens: Sequence[_AnonToken]) -> str:
    return " ".join(t.text for t in tokens)


def _slot_term(slot: str, slots: dict, start: int,
               tokens: Sequence[_AnonToken]) -> Optional[Term]:
    if slot == "DISEASE_CLASS":
        return SCHEMA.disease
    if slot == "CONTEXT":
        # anaphoric subject: last type term before the match, else the
        # nearest preceding mention
        for token in reversed(tokens[:start]):
            if token.type_term is not None:
                return token.type_term
        for token in reversed(tokens[:start]):
            if token.mention is not None:
                return token.mention.normalized_id
        return None
    token = slots[slot]
    if slot == "TYPE":
        return token.type_term
    if slot == "SOURCE":
        return token.source_term
    return token.mention.normalized_id


def _match_patterns(tokens: Sequence[_AnonToken], doc_id: str
                    ) -> list[RelationCandidate]:
    text = anonymized_text(tokens)
    match_text = " ".join(t.text if t.mention else t.text.lower()
                          for t in tokens)
    candidates: list[RelationCandidate] = []
    covered_pairs: set[tuple[int, int]] = set()
    seen: set[tuple] = set()
    for pattern in PATTERNS:
        for m in pattern.regex.finditer(match_text):
            # a token holds no space: the spaces before an offset count
            # the tokens before it
            slots = {name: tokens[match_text.count(" ", 0, m.start(name))]
                     for name in pattern.regex.groupindex}
            start = match_text.count(" ", 0, m.start())
            subject = _slot_term(pattern.subject_slot, slots, start, tokens)
            object_ = _slot_term(pattern.object_slot, slots, start, tokens)
            if subject is None or object_ is None:
                continue
            key = (pattern.label, subject, object_)
            if key in seen:
                continue
            seen.add(key)
            if "G" in slots and "D" in slots:
                covered_pairs.add((slots["G"].mention.start,
                                   slots["D"].mention.start))
            candidates.append(RelationCandidate(
                doc_id=doc_id, anonymized=text,
                label=pattern.label, confidence=pattern.confidence,
                subject=subject, object=object_))
    genes = [t.mention for t in tokens
             if t.mention is not None and t.mention.entity_type == "Gene"]
    diseases = [t.mention for t in tokens
                if t.mention is not None
                and t.mention.entity_type == "Disease"]
    for g in genes:
        for d in diseases:
            if (g.start, d.start) not in covered_pairs:
                candidates.append(RelationCandidate(
                    doc_id=doc_id, anonymized=text, label="none",
                    confidence=0.0, subject=g.normalized_id,
                    object=d.normalized_id))
    return candidates


def extract_relations(words: Sequence[str],
                      mentions: Sequence[EntityMention],
                      doc_id: str = "") -> list[RelationCandidate]:
    """Anonymize the sentence and match the relation templates."""
    return _match_patterns(anonymize(words, mentions), doc_id)
