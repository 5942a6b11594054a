"""Relation extraction over anonymized sentences.

Mention spans are replaced by @GENE$/@DISEASE$ slots; fixed token
templates are then matched against the anonymized sentence and produce
labeled candidates (causes, hasType, isA, hasEvidence). Biomarker-type
words (POTSF, Oncogene, ...) and evidence sources (PubMed, ...) are
controlled-vocabulary terms matched lexically, not free-text entities.
Mention pairs not covered by any template yield a `none` candidate with
confidence 0. The templates are the only relation extractor.
"""

from __future__ import annotations

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


# template elements
@dataclass(frozen=True)
class Lit:
    options: tuple
    optional: bool = False


SLOT_G = "G"
SLOT_D = "D"
SLOT_TYPE = "TYPE"
SLOT_SOURCE = "SOURCE"


def lit(*options):
    return Lit(tuple(options))


def opt(*options):
    return Lit(tuple(options), optional=True)


@dataclass(frozen=True)
class Pattern:
    elements: tuple
    label: str
    confidence: float
    subject_slot: str   # G | D | TYPE | CONTEXT
    object_slot: str    # G | D | TYPE | SOURCE | DISEASE_CLASS


PATTERNS = (
    # responsible-for
    Pattern((SLOT_G, lit("is", "are", "was", "were"), lit("responsible"),
             lit("for"), opt("a", "the"), opt("disease"), opt("called"),
             SLOT_D),
            "causes", 0.95, SLOT_G, SLOT_D),
    # causes-verb
    Pattern((SLOT_G, lit("causes", "cause", "caused"), SLOT_D),
            "causes", 0.95, SLOT_G, SLOT_D),
    # mutations-in
    Pattern((lit("mutations"), lit("in"), SLOT_G,
             lit("are", "is", "were"), lit("associated", "linked"),
             lit("with"), SLOT_D),
            "causes", 0.85, SLOT_G, SLOT_D),
    # driven-by
    Pattern((SLOT_D, lit("is"), opt("a"), opt("disease"),
             lit("driven", "caused"), lit("by"), SLOT_G),
            "causes", 0.85, SLOT_G, SLOT_D),
    # has-functionality
    Pattern((SLOT_G, lit("has"), SLOT_TYPE, lit("functionality")),
            "hasType", 0.95, SLOT_G, SLOT_TYPE),
    # is-a-type
    Pattern((SLOT_G, lit("is"), lit("a", "an"), SLOT_TYPE),
            "isA", 0.9, SLOT_G, SLOT_TYPE),
    # disease-called
    Pattern((lit("a", "the"), lit("disease"), lit("called"), SLOT_D),
            "isA", 0.9, SLOT_D, "DISEASE_CLASS"),
    # mentioned-in
    Pattern((lit("mentioned", "cited"), lit("in"),
             opt("numerous", "several", "many"), SLOT_SOURCE,
             lit("articles", "publications", "literature")),
            "hasEvidence", 0.9, "CONTEXT", SLOT_SOURCE),
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


def _element_matches(token: _AnonToken, element) -> bool:
    """Whether the token fills the template element (a literal or a slot)."""
    if isinstance(element, Lit):
        return token.mention is None and token.text.lower() in element.options
    if element == SLOT_G:
        return token.text == GENE_SLOT
    if element == SLOT_D:
        return token.text == DISEASE_SLOT
    if element == SLOT_TYPE:
        return token.type_term is not None
    return token.source_term is not None    # SLOT_SOURCE


def _match_at(tokens: Sequence[_AnonToken], start: int, pattern: Pattern
              ) -> Optional[dict]:
    captures: dict = {"_start": start}
    pos = start
    for element in pattern.elements:
        if pos < len(tokens) and _element_matches(tokens[pos], element):
            if not isinstance(element, Lit):
                captures.setdefault(element, tokens[pos])
            pos += 1
        elif not (isinstance(element, Lit) and element.optional):
            return None
    return captures


def _slot_term(slot: str, captures: dict, tokens: Sequence[_AnonToken]
               ) -> Optional[Term]:
    if slot == "DISEASE_CLASS":
        return SCHEMA.disease
    if slot == "CONTEXT":
        # anaphoric subject: last type term before the match, else the
        # nearest preceding mention
        start = captures["_start"]
        for token in reversed(tokens[:start]):
            if token.type_term is not None:
                return token.type_term
        for token in reversed(tokens[:start]):
            if token.mention is not None:
                return token.mention.normalized_id
        return None
    token = captures.get(slot)
    if token is None:
        return None
    if slot == SLOT_TYPE:
        return token.type_term
    if slot == SLOT_SOURCE:
        return token.source_term
    return token.mention.normalized_id if token.mention else None


def _match_patterns(tokens: Sequence[_AnonToken], doc_id: str
                    ) -> list[RelationCandidate]:
    text = anonymized_text(tokens)
    candidates: list[RelationCandidate] = []
    covered_pairs: set[tuple[int, int]] = set()
    seen: set[tuple] = set()
    for pattern in PATTERNS:
        # no template starts with an optional element, so a match can only
        # start where its first element does
        first = pattern.elements[0]
        for start, token in enumerate(tokens):
            if not _element_matches(token, first):
                continue
            captures = _match_at(tokens, start, pattern)
            if captures is None:
                continue
            subject = _slot_term(pattern.subject_slot, captures, tokens)
            object_ = _slot_term(pattern.object_slot, captures, tokens)
            if subject is None or object_ is None:
                continue
            key = (pattern.label, subject, object_)
            if key in seen:
                continue
            seen.add(key)
            gene = captures.get(SLOT_G)
            disease = captures.get(SLOT_D)
            if gene is not None and disease is not None:
                covered_pairs.add((gene.mention.start, disease.mention.start))
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
