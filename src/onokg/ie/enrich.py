"""Turn relation candidates into KG triples with provenance.

A candidate whose confidence clears the threshold is accepted: its triple
is inserted (or found already present and counted as a duplicate) and a
reified provenance statement records the source document. Running the
same enrichment twice adds nothing the second time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..kg import Graph, Term, Triple, iri, literal
from ..ontology import NORM, RDF, SCHEMA
from .relations import RelationCandidate

RDF_SUBJECT = iri(RDF + "subject")
RDF_PREDICATE = iri(RDF + "predicate")
RDF_OBJECT = iri(RDF + "object")


@dataclass
class EnrichmentReport:
    proposed: int = 0
    accepted: int = 0
    duplicates: int = 0
    rejected: int = 0

    @property
    def newly_added(self) -> int:
        return self.accepted - self.duplicates

    def summary(self) -> str:
        return (f"proposed {self.proposed}, accepted {self.accepted} "
                f"({self.newly_added} new, {self.duplicates} duplicates), "
                f"rejected {self.rejected}")


_RELATION_PROPERTY = {
    "causes": SCHEMA.causes,
    "hasType": SCHEMA.has_type,
    "isA": SCHEMA.is_a,
    "hasEvidence": SCHEMA.has_evidence,
}


def statement_node(triple: Triple) -> Term:
    digest = hashlib.sha1(
        "\x1f".join([triple.subject.n3(), triple.predicate.n3(),
                     triple.object.n3()]).encode("utf-8")).hexdigest()[:16]
    return iri(f"{NORM}stmt/{digest}")


def add_provenance(graph: Graph, triple: Triple, source: str) -> Term:
    node = statement_node(triple)
    graph.insert((node, RDF_SUBJECT, triple.subject))
    graph.insert((node, RDF_PREDICATE, triple.predicate))
    graph.insert((node, RDF_OBJECT, triple.object))
    graph.insert((node, SCHEMA.source_document, literal(source)))
    return node


def candidate_triple(candidate: RelationCandidate) -> Triple:
    return Triple(candidate.subject, _RELATION_PROPERTY[candidate.label],
                  candidate.object)


def enrich_kg(graph: Graph, candidates: list[RelationCandidate],
              threshold: float = 0.5) -> EnrichmentReport:
    report = EnrichmentReport()
    for candidate in candidates:
        report.proposed += 1
        if candidate.label == "none" or candidate.confidence < threshold:
            report.rejected += 1
            continue
        triple = candidate_triple(candidate)
        report.accepted += 1
        if not graph.insert(triple):
            report.duplicates += 1
        add_provenance(graph, triple, candidate.doc_id)
    return report
