"""Synthetic template corpus for training and evaluating the tagger.

Sentences are sampled from biomedical-flavored templates whose gene and
disease slots are filled from the bundled gene/cohort lists (plus a share
of invented symbols the gazetteer has never seen, so the model cannot
lean on dictionary hits alone). Sampling is seeded and fully
deterministic. Entity-level scoring uses exact span+type matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .decode import decode_entities
from .tagger import (LOSS_CHUNK, EncodedSentence, Example, FeatureSpace,
                     Gazetteer, TaggerModel, encode_sentence, gold_tags,
                     logits, softmax)
from .wordpiece import SubwordVocab

ENTITY_TYPES = ("Disease", "Gene")
TRAIN_FRACTION = 0.8

_TEMPLATES = (
    (6, ("GENE", "is", "responsible", "for", "a", "disease", "called",
         "DISEASE", ".")),
    (5, ("GENE", "has", "TYPE", "functionality", ",", "which", "is",
         "mentioned", "in", "ADV", "SOURCE", "articles", ".")),
    (4, ("Mutations", "in", "GENE", "are", "associated", "with",
         "DISEASE", ".")),
    (3, ("DISEASE", "is", "a", "disease", "driven", "by", "GENE", ".")),
    (3, ("Patients", "with", "DISEASE", "often", "carry", "GENE",
         "mutations", ".")),
    (3, ("GENE", "is", "an", "oncogene", ".")),
    (2, ("GENE", "and", "GENE2", "are", "the", "top", "two", "TYPE",
         "genes", ".")),
    (3, ("GENE", "expression", "was", "elevated", "in", "DISEASE",
         "samples", ".")),
    (2, ("DISEASE", "remains", "difficult", "to", "treat", ".")),
    (3, ("The", "study", "reported", "no", "new", "biomarkers", ".")),
    (2, ("Results", "were", "inconclusive", "in", "the", "second",
         "cohort", ".")),
    (2, ("The", "Hospital", "Review", "Board", "approved", "the",
         "protocol", ".")),
    (2, ("We", "analyzed", "clinical", "outcomes", "across", "many",
         "patients", ".")),
    (2, ("Several", "articles", "were", "cited", "in", "the", "report",
         ".")),
)

_TYPE_WORDS = ("POTSF", "Oncogene", "ProteinCoding")
_SOURCE_WORDS = ("PubMed", "MeSH", "CancerIndex")
_ADVERBS = ("numerous", "several", "many")

_INVENTED_GENE_SHARE = 0.15
_CONSONANTS = "BCDFGHKLMNPRSTVWXZ"


@dataclass
class LabeledSentence:
    words: list[str]
    spans: dict[str, list[tuple[int, int]]] = field(default_factory=dict)

    def spans_for(self, entity_type: str) -> list[tuple[int, int]]:
        return self.spans.get(entity_type, [])


def gene_surfaces() -> list[str]:
    from ..ontology import load_gene_list, load_potsf_genes
    symbols = list(load_potsf_genes())
    symbols += [s for s, _ in load_gene_list("extension_genes.csv")]
    symbols += [s for s, _ in load_gene_list("fixture_genes.csv")]
    return sorted(set(symbols))


def disease_surfaces() -> list[str]:
    from ..ontology import load_cohorts
    names = []
    for code, name in load_cohorts():
        names.append(code)
        names.append(name)
    names += ["MED", "Medulloblastoma", "Breast Cancer", "Ovarian Cancer",
              "Prostate Cancer", "Colorectal Cancer", "Esophageal Cancer"]
    return sorted(set(names))


def build_gazetteers() -> dict[str, Gazetteer]:
    return {"gene": Gazetteer(gene_surfaces()),
            "disease": Gazetteer(disease_surfaces())}


def _invented_symbol(rng: np.random.Generator) -> str:
    letters = "".join(rng.choice(list(_CONSONANTS), size=3))
    return f"{letters}{rng.integers(1, 99)}"


def make_corpus(n: int = 2000, seed: int = 42) -> list[LabeledSentence]:
    rng = np.random.default_rng(seed)
    genes = gene_surfaces()
    diseases = disease_surfaces()
    weights = np.array([w for w, _ in _TEMPLATES], dtype=float)
    weights /= weights.sum()
    out: list[LabeledSentence] = []
    for _ in range(n):
        template = _TEMPLATES[rng.choice(len(_TEMPLATES), p=weights)][1]
        words: list[str] = []
        spans: dict[str, list[tuple[int, int]]] = {"Gene": [], "Disease": []}
        for token in template:
            if token in ("GENE", "GENE2"):
                if rng.random() < _INVENTED_GENE_SHARE:
                    surface = _invented_symbol(rng)
                else:
                    surface = genes[rng.integers(len(genes))]
                spans["Gene"].append((len(words), len(words) + 1))
                words.append(surface)
            elif token == "DISEASE":
                surface = diseases[rng.integers(len(diseases))]
                parts = surface.split()
                spans["Disease"].append((len(words), len(words) + len(parts)))
                words.extend(parts)
            elif token == "TYPE":
                words.append(_TYPE_WORDS[rng.integers(len(_TYPE_WORDS))])
            elif token == "SOURCE":
                words.append(_SOURCE_WORDS[rng.integers(len(_SOURCE_WORDS))])
            elif token == "ADV":
                words.append(_ADVERBS[rng.integers(len(_ADVERBS))])
            else:
                words.append(token)
        out.append(LabeledSentence(words, spans))
    return out


def split_corpus(corpus: Sequence[LabeledSentence]
                 ) -> tuple[list[LabeledSentence], list[LabeledSentence]]:
    """The first `TRAIN_FRACTION` of the sentences, and the rest."""
    cut = int(len(corpus) * TRAIN_FRACTION)
    return list(corpus[:cut]), list(corpus[cut:])


def encode_corpus(corpus: Sequence[LabeledSentence],
                  vocab: SubwordVocab, space: FeatureSpace,
                  gazetteers: dict[str, Gazetteer]
                  ) -> dict[str, list[Example]]:
    """Training examples (flat feature ids, counts, gold tags) per entity
    type.

    The sentences are encoded `LOSS_CHUNK` at a time, each sentence once;
    the types share its packed arrays.
    """
    examples: dict[str, list] = {etype: [] for etype in ENTITY_TYPES}
    for first in range(0, len(corpus), LOSS_CHUNK):
        group = corpus[first:first + LOSS_CHUNK]
        encodings = encode_sentence([s.words for s in group], vocab, space,
                                    gazetteers)
        for sentence, encoded in zip(group, encodings):
            for etype, typed in examples.items():
                typed.append((encoded.flat, encoded.counts,
                              gold_tags(encoded, sentence.spans_for(etype))))
    return examples


def tag_sentence(models: dict[str, TaggerModel],
                 encoded: Sequence[EncodedSentence]) -> list[dict[str, tuple]]:
    """Each sentence's (argmax tags, tag distributions) per entity type.

    The packed arrays of up to `LOSS_CHUNK` sentences are joined, each
    model scores their pieces with one `logits` call, and the result is
    split at the sentence bounds. A row's logit sums only that row's
    weights, in the same order, so the distributions are those of one call
    per sentence, to the bit.
    """
    tagged: list[dict[str, tuple]] = []
    for start in range(0, len(encoded), LOSS_CHUNK):
        group = encoded[start:start + LOSS_CHUNK]
        flat = np.concatenate([e.flat for e in group])
        counts = np.concatenate([e.counts for e in group])
        ends = np.cumsum([len(e) for e in group]).tolist()
        bounds = list(zip([0] + ends, ends))
        by_sentence: list[dict[str, tuple]] = [{} for _ in group]
        for entity_type in sorted(models):
            probs = softmax(logits(models[entity_type], flat, counts))
            tags = probs.argmax(axis=1)
            for out, (a, b) in zip(by_sentence, bounds):
                out[entity_type] = (tags[a:b], probs[a:b])
        tagged += by_sentence
    return tagged


def encode_and_tag(models: dict[str, TaggerModel],
                   sentences: Sequence[Sequence[str]], vocab: SubwordVocab,
                   space: FeatureSpace, gazetteers: dict[str, Gazetteer]):
    """Each group of up to `LOSS_CHUNK` sentences as its encodings and
    their `tag_sentence` results, in order, so only one group's encodings
    are held at once."""
    for first in range(0, len(sentences), LOSS_CHUNK):
        encodings = encode_sentence(sentences[first:first + LOSS_CHUNK],
                                    vocab, space, gazetteers)
        yield encodings, tag_sentence(models, encodings)


@dataclass
class EntityScores:
    precision: float
    recall: float
    predicted: int
    gold: int
    correct: int


def evaluate_entities(models: dict[str, TaggerModel],
                      corpus: Sequence[LabeledSentence],
                      vocab: SubwordVocab, space: FeatureSpace,
                      gazetteers: dict[str, Gazetteer]) -> EntityScores:
    """Exact-match entity-level precision/recall over merged typed spans."""
    predicted = gold = correct = 0
    decoded = (mentions for group in encode_and_tag(
        models, [s.words for s in corpus], vocab, space, gazetteers)
        for mentions in decode_entities(*group))
    for sentence, mentions in zip(corpus, decoded):
        found = {(m.entity_type, m.start, m.end) for m in mentions}
        truth = {(etype, start, end)
                 for etype in ENTITY_TYPES
                 for start, end in sentence.spans_for(etype)}
        predicted += len(found)
        gold += len(truth)
        correct += len(found & truth)
    return EntityScores(
        precision=correct / predicted if predicted else 1.0,
        recall=correct / gold if gold else 1.0,
        predicted=predicted, gold=gold, correct=correct)

