"""ONO seed knowledge graph: schema, cohorts, biomarkers, associations.

The seed holds the Cancer/Biomarker/Feature class structure, the 33 cancer
cohorts (plus medulloblastoma, which appears in the curated associations
but not in the cohort table), 83 POTSF-typed biomarkers, and reified
gene-disease association features carrying significance, evidence source,
and citation counts. Everything is built in a fixed order so term ids, and
therefore serialized output, are reproducible.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .kg import Graph, KgError, PrefixTable, Term, iri, literal, typed_int
from .ntriples import read_text

ONO = "http://www.example.com/ontologies/ono/ono.owl#"
ASSOC = "http://www.example.com/ontologies/ono/assoc#"
NORM = "http://www.example.com/ontologies/ono/norm/"
DOID = "http://purl.obolibrary.org/obo/doid#"
OBO = "http://purl.obolibrary.org/obo/"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = iri(RDF + "type")
RDFS_SUBCLASS = iri(RDFS + "subClassOf")
RDFS_LABEL = iri(RDFS + "label")
RDFS_DOMAIN = iri(RDFS + "domain")
RDFS_RANGE = iri(RDFS + "range")
OWL_SAMEAS = iri(OWL + "sameAs")

SIGNIFICANCE_LEVELS = ("HIGH", "MEDIUM", "LOW")
GENE_TYPES = ("Oncogene", "ProteinCoding", "POTSF")
EVIDENCE_SOURCES = ("PubMed", "MeSH", "CancerIndex")


class DataFileError(KgError):
    """A bundled or user-supplied data file is missing or malformed."""


class ReferentialError(KgError):
    """An asserted fact refers to a node that is not in the graph."""


def ono(local: str) -> Term:
    return iri(ONO + local)


# the term of each significance level, gene type and evidence source, made
# once: `OnoSchema`'s lookups run once per association a build asserts
_NAMED = {name: ono(name)
          for name in SIGNIFICANCE_LEVELS + GENE_TYPES + EVIDENCE_SOURCES}


@dataclass(frozen=True)
class OnoSchema:
    """IRIs of the ONO classes and properties."""

    # classes
    disease: Term = ono("Disease")
    disease_of_cellular_proliferation: Term = ono("DiseaseOfCellularProliferation")
    cancer: Term = ono("Cancer")
    biomarker: Term = ono("Biomarker")
    feature: Term = ono("Feature")
    biomarker_type: Term = ono("BiomarkerType")
    oncogene: Term = ono("Oncogene")
    protein_coding: Term = ono("ProteinCoding")
    potsf: Term = ono("POTSF")
    significance: Term = ono("Significance")
    high: Term = ono("HIGH")
    medium: Term = ono("MEDIUM")
    low: Term = ono("LOW")
    evidence: Term = ono("Evidence")
    pubmed: Term = ono("PubMed")
    mesh: Term = ono("MeSH")
    cancer_index: Term = ono("CancerIndex")
    # properties
    causes: Term = ono("causes")
    is_a: Term = ono("isA")
    has_type: Term = ono("hasType")
    has_significance: Term = ono("hasSignificance")
    has_evidence: Term = ono("hasEvidence")
    has_citations: Term = ono("hasCitations")
    cross_responsibility: Term = ono("crossResponsibility")
    has_go_association: Term = ono("hasGOAssociation")
    instance_of: Term = RDF_TYPE
    feature_gene: Term = ono("featureGene")
    feature_cancer: Term = ono("featureCancer")
    full_name: Term = ono("fullName")
    source_document: Term = ono("sourceDocument")

    def classes(self) -> list[Term]:
        return [self.disease, self.disease_of_cellular_proliferation,
                self.cancer, self.biomarker, self.feature,
                self.biomarker_type, self.oncogene, self.protein_coding,
                self.potsf, self.significance, self.high, self.medium,
                self.low, self.evidence, self.pubmed, self.mesh,
                self.cancer_index]

    def properties(self) -> list[Term]:
        return [self.causes, self.is_a, self.has_type,
                self.has_significance, self.has_evidence,
                self.has_citations, self.cross_responsibility,
                self.has_go_association, self.instance_of,
                self.feature_gene, self.feature_cancer, self.full_name]

    def significance_term(self, level: str) -> Term:
        if level not in SIGNIFICANCE_LEVELS:
            raise KgError(f"unknown significance level {level!r}")
        return _NAMED[level]

    def gene_type_term(self, gene_type: str) -> Term:
        name = gene_type.replace("-", "").replace("Proteincoding", "ProteinCoding")
        if name.lower() == "proteincoding":
            return self.protein_coding
        if name not in GENE_TYPES:
            raise KgError(f"unknown gene type {gene_type!r}")
        return _NAMED[name]

    def evidence_term(self, source: str) -> Term:
        if source not in EVIDENCE_SOURCES:
            raise KgError(f"unknown evidence source {source!r}")
        return _NAMED[source]


SCHEMA = OnoSchema()


def default_prefixes() -> PrefixTable:
    return PrefixTable({
        "ono": ONO,
        "assoc": ASSOC,
        "norm": NORM,
        "doid": DOID,
        "obo": OBO,
        "rdf": RDF,
        "rdfs": RDFS,
        "owl": OWL,
        "xsd": XSD,
    })


@dataclass(frozen=True)
class AssociationFeature:
    gene: Term
    cancer: Term
    significance: str
    evidence: Term
    citations: int

    def __post_init__(self):
        if self.significance not in SIGNIFICANCE_LEVELS:
            raise KgError(f"unknown significance level {self.significance!r}")
        if self.citations < 0:
            raise KgError("citations must be nonnegative")


# ---------------------------------------------------------------------------
# bundled data files

def data_path(name: str) -> Path:
    return Path(str(resources.files("onokg").joinpath("data", name)))


def _open_data(name: str, data_dir: Optional[Path]):
    path = Path(data_dir, name) if data_dir else data_path(name)
    if not path.exists():
        raise DataFileError(f"missing data file: {path}")
    return path


def load_cohorts(data_dir: Optional[Path] = None) -> list[tuple[str, str]]:
    """The 33 (code, carcinoma name) cohort pairs."""
    path = _open_data("cohorts.csv", data_dir)
    pairs = [(r["code"], r["name"]) for r in read_csv(path, ("code", "name"))]
    _check_unique(path, [code for code, _ in pairs], 33, "cohort codes")
    return pairs


def load_potsf_genes(data_dir: Optional[Path] = None) -> list[str]:
    path = _open_data("potsf_genes.txt", data_dir)
    symbols = [line.strip() for line in read_text(path).splitlines()
               if line.strip() and not line.startswith("#")]
    _check_unique(path, symbols, 83, "gene symbols")
    return symbols


def _check_unique(path: Path, values: list[str], expected: int,
                  what: str) -> None:
    counts = Counter(values)
    if len(values) == len(counts) == expected:
        return
    repeated = [value for value, n in counts.items() if n > 1]
    detail = f"; {repeated[0]!r} is repeated" if repeated else ""
    raise DataFileError(f"{path}: expected {expected} unique {what}, got "
                        f"{len(counts)}{detail}")


def read_csv(path: Path, columns: tuple[str, ...]) -> list[dict]:
    """The rows under the header `columns`, as dicts; '#' lines and blank
    lines are skipped, and a row with a missing or extra field is an error."""
    lines = [line for line in read_text(path).splitlines(keepends=True)
             if not line.startswith("#")]
    try:
        rows = [row for row in csv.reader(lines) if row]
    except csv.Error as exc:
        raise DataFileError(f"{path}: {exc}") from None
    if not rows or tuple(rows[0]) != columns:
        raise DataFileError(f"{path}: expected header {','.join(columns)}")
    for row in rows[1:]:
        if len(row) != len(columns):
            raise DataFileError(f"{path}: expected {len(columns)} fields, "
                                f"got {len(row)} in {','.join(row)!r}")
    return [dict(zip(columns, row)) for row in rows[1:]]


@contextmanager
def _row_of(path: Path, *fields) -> Iterator[None]:
    """Raise a KgError again as a DataFileError naming the file and row."""
    try:
        yield
    except KgError as exc:
        raise DataFileError(
            f"{path}: {exc} in {','.join(map(str, fields))!r}") from None


def load_associations(path: Path) -> list[dict]:
    """The rows of an associations CSV file, citations parsed."""
    rows = read_csv(path, ("gene", "cohort", "significance", "evidence",
                           "citations"))
    for row in rows:
        try:
            row["citations"] = int(row["citations"])
        except ValueError:
            raise DataFileError(f"{path}: bad citations value "
                                f"{row['citations']!r}") from None
    return rows


def load_gene_list(name: str, data_dir: Optional[Path] = None
                   ) -> list[tuple[str, str]]:
    path = _open_data(name, data_dir)
    rows = read_csv(path, ("symbol", "geneType"))
    return [(r["symbol"], r["geneType"]) for r in rows]


# ---------------------------------------------------------------------------
# graph construction

def add_schema(graph: Graph) -> None:
    """Class hierarchy, enum members, property declarations, labels."""
    s = SCHEMA
    hierarchy = [
        (s.disease_of_cellular_proliferation, s.disease),
        (s.cancer, s.disease_of_cellular_proliferation),
        (s.oncogene, s.biomarker_type),
        (s.protein_coding, s.biomarker_type),
        (s.potsf, s.biomarker_type),
        (s.high, s.significance),
        (s.medium, s.significance),
        (s.low, s.significance),
        (s.pubmed, s.evidence),
        (s.mesh, s.evidence),
        (s.cancer_index, s.evidence),
    ]
    for child, parent in hierarchy:
        graph.insert((child, RDFS_SUBCLASS, parent))
    # Enum members double as individuals so they can appear as objects of
    # hasType/hasSignificance/hasEvidence and be retrieved by queries.
    for member, parent in hierarchy[2:]:
        graph.insert((member, RDF_TYPE, parent))
    # the significance levels are HIGH/MEDIUM/LOW in IRIs, High/Medium/Low
    # in labels
    levels = {s.high, s.medium, s.low}
    for term in s.classes():
        name = term.local_name()
        graph.insert((term, RDFS_LABEL,
                      literal(name.title() if term in levels else name)))
    for prop in s.properties():
        if prop != s.instance_of:
            graph.insert((prop, RDFS_LABEL, literal(prop.local_name())))
    declarations = [
        (s.causes, s.biomarker, s.disease),
        (s.cross_responsibility, s.biomarker, s.cancer),
        (s.is_a, s.biomarker, s.biomarker_type),
        (s.has_type, s.biomarker, s.biomarker_type),
        (s.has_significance, None, s.significance),
        (s.has_evidence, None, s.evidence),
        (s.has_citations, None, None),
        (s.has_go_association, s.biomarker, None),
        (s.feature_gene, s.feature, s.biomarker),
        (s.feature_cancer, s.feature, s.cancer),
        (s.full_name, s.cancer, None),
    ]
    for prop, domain, range_ in declarations:
        if domain is not None:
            graph.insert((prop, RDFS_DOMAIN, domain))
        if range_ is not None:
            graph.insert((prop, RDFS_RANGE, range_))


def add_cancer(graph: Graph, code: str, name: str) -> Term:
    node = ono(code)
    graph.insert((node, RDF_TYPE, SCHEMA.cancer))
    graph.insert((node, RDFS_LABEL, literal(code)))
    graph.insert((node, SCHEMA.full_name, literal(name)))
    return node


def add_biomarker(graph: Graph, symbol: str, gene_type: str) -> Term:
    node = ono(symbol)
    type_term = SCHEMA.gene_type_term(gene_type)
    graph.insert((node, RDF_TYPE, SCHEMA.biomarker))
    graph.insert((node, RDFS_LABEL, literal(symbol)))
    graph.insert((node, SCHEMA.is_a, type_term))
    graph.insert((node, SCHEMA.has_type, type_term))
    return node


def assert_association(graph: Graph, f: AssociationFeature) -> Term:
    """Reify a gene-disease association as a Feature node.

    The node IRI is a deterministic function of the whole association
    tuple, so re-asserting an identical association is a no-op that
    returns the existing node.
    """
    if (f.gene, RDF_TYPE, SCHEMA.biomarker) not in graph:
        raise ReferentialError(f"unknown gene {f.gene.n3()}")
    if (f.cancer, RDF_TYPE, SCHEMA.cancer) not in graph:
        raise ReferentialError(f"unknown cancer {f.cancer.n3()}")
    slug = "_".join([f.gene.local_name(), f.cancer.local_name(),
                     f.significance, f.evidence.local_name(),
                     str(f.citations)])
    node = iri(ASSOC + slug)
    sig = SCHEMA.significance_term(f.significance)
    cites = typed_int(f.citations)
    graph.insert((node, RDF_TYPE, SCHEMA.feature))
    graph.insert((node, SCHEMA.feature_gene, f.gene))
    graph.insert((node, SCHEMA.feature_cancer, f.cancer))
    graph.insert((node, SCHEMA.has_significance, sig))
    graph.insert((node, SCHEMA.has_evidence, f.evidence))
    graph.insert((node, SCHEMA.has_citations, cites))
    graph.insert((f.gene, SCHEMA.causes, f.cancer))
    graph.insert((f.gene, SCHEMA.cross_responsibility, f.cancer))
    graph.insert((f.gene, SCHEMA.has_significance, sig))
    graph.insert((f.gene, SCHEMA.has_evidence, f.evidence))
    graph.insert((f.gene, SCHEMA.has_citations, cites))
    return node


def _assert_association_rows(graph: Graph, path: Path) -> None:
    for row in load_associations(path):
        with _row_of(path, *row.values()):
            assert_association(graph, AssociationFeature(
                gene=ono(row["gene"]),
                cancer=ono(row["cohort"]),
                significance=row["significance"],
                evidence=SCHEMA.evidence_term(row["evidence"]),
                citations=row["citations"],
            ))


def build_seed_ontology(data_dir: Optional[Path] = None) -> Graph:
    """Assemble the seed KG from the bundled data files."""
    graph = Graph()
    add_schema(graph)
    path = _open_data("cohorts.csv", data_dir)
    for code, name in load_cohorts(data_dir):
        with _row_of(path, code, name):
            add_cancer(graph, code, name)
    # Medulloblastoma is referenced by the curated associations but is not
    # one of the 33 cohort codes; it is carried as a 34th Cancer instance.
    add_cancer(graph, "MED", "Medulloblastoma")
    path = _open_data("potsf_genes.txt", data_dir)
    for symbol in load_potsf_genes(data_dir):
        with _row_of(path, symbol):
            add_biomarker(graph, symbol, "POTSF")
    path = _open_data("extension_genes.csv", data_dir)
    for symbol, gene_type in load_gene_list("extension_genes.csv", data_dir):
        with _row_of(path, symbol, gene_type):
            add_biomarker(graph, symbol, gene_type)
    # TP53 is additionally asserted as an Oncogene instance; the deduction
    # examples rely on that membership premise.
    graph.insert((ono("TP53"), RDF_TYPE, SCHEMA.oncogene))
    # Example GO annotation on AKT1, kept for the hasGOAssociation pattern.
    go_node = iri(ASSOC + "AKT1_GO_0000060")
    graph.insert((ono("AKT1"), SCHEMA.has_go_association, go_node))
    graph.insert((go_node, RDF_TYPE, iri(OBO + "GO_0000060")))
    for name in ("associations.csv", "extension_associations.csv"):
        _assert_association_rows(graph, _open_data(name, data_dir))
    return graph


def seed_statistics(graph: Graph) -> dict:
    def subjects(p: Term, o: Term) -> int:
        return int(np.count_nonzero(
            graph.edges(graph.term_id(p))[1] == graph.term_id(o)))
    return {
        "triples": len(graph),
        "cancers": subjects(RDF_TYPE, SCHEMA.cancer),
        "biomarkers": subjects(RDF_TYPE, SCHEMA.biomarker),
        "potsf_biomarkers": subjects(SCHEMA.has_type, SCHEMA.potsf),
        "features": subjects(RDF_TYPE, SCHEMA.feature),
    }


# ---------------------------------------------------------------------------
# ontology pitfall checks

# matched with fullmatch: `$` would let a trailing newline through
CLASS_NAME_PATTERN = re.compile(r"[A-Z][A-Za-z0-9]*")
PROPERTY_NAME_PATTERN = re.compile(r"[a-z][A-Za-z0-9]*")


@dataclass
class PitfallReport:
    cycles: list[list[Term]] = field(default_factory=list)
    naming_violations: list[tuple[Term, str]] = field(default_factory=list)
    intersection_conflicts: list[tuple[Term, str, list[Term]]] = \
        field(default_factory=list)

    def summary(self) -> str:
        lines = [f"hierarchy cycles: {len(self.cycles)}"]
        for cycle in self.cycles:
            lines.append("  cycle: " + " -> ".join(t.local_name()
                                                   for t in cycle))
        lines.append(f"naming violations: {len(self.naming_violations)}")
        for term, why in self.naming_violations:
            lines.append(f"  {term.local_name()}: {why}")
        lines.append("disjoint intersection domains/ranges: "
                     f"{len(self.intersection_conflicts)}")
        for prop, position, classes in self.intersection_conflicts:
            names = ", ".join(c.local_name() for c in classes)
            lines.append(f"  {prop.local_name()} ({position}): {names}")
        return "\n".join(lines)


def _by_iri(terms) -> list[Term]:
    return sorted(terms, key=lambda t: t.lexical)


def id_pairs(graph: Graph, predicate: Term) -> Iterator[tuple[int, int]]:
    """The (subject, object) ids of the predicate's triples, in POS order."""
    return zip(*(column.tolist()
                 for column in graph.edges(graph.term_id(predicate))))


class ClassIndex:
    """The asserted subclass hierarchy and rdf:type extents of one graph
    state, keyed by term id: the one place that reads rdfs:subClassOf and
    the one class-membership computation.

    `parents`/`children` map the id of every class in the hierarchy to the
    ids of its direct super-/subclasses, read off the rdfs:subClassOf
    columns (`Graph.edges`). `typed` and `types` are the rdf:type
    (subject, class) columns, one row per triple: `instances` gives the
    members of a class as one sorted id array. Only `cycles` holds Terms:
    the hierarchy's strongly connected components that hold a cycle (more
    than one class, or a self-loop), each sorted by IRI. Get it through
    `graph.cached(ClassIndex)` so it is built once per graph state; it is
    read-only afterwards.
    """

    def __init__(self, graph: Graph):
        self.parents: dict[int, set[int]] = {}
        self.children: dict[int, set[int]] = {}
        for s, o in id_pairs(graph, RDFS_SUBCLASS):
            self.parents.setdefault(s, set()).add(o)
            self.parents.setdefault(o, set())
            self.children.setdefault(o, set()).add(s)
        self.typed, self.types = graph.edges(graph.term_id(RDF_TYPE))
        self.cycles = self._cyclic_components(graph.term)

    def classes(self) -> set[int]:
        """Every class in the hierarchy or used as an rdf:type object."""
        return set(self.parents).union(np.unique(self.types).tolist())

    def descendants(self, cls: int) -> set[int]:
        """cls and every class below it; terminates on cycles."""
        seen = {cls}
        queue = [cls]
        while queue:
            for child in self.children.get(queue.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        return seen

    def instances(self, cls: int) -> np.ndarray:
        """The ids of the subjects typed with cls or any class below it,
        sorted and unique."""
        below = np.isin(self.types, list(self.descendants(cls)))
        return np.unique(self.typed[below])

    def _cyclic_components(self, term) -> list[tuple[Term, ...]]:
        # Tarjan's algorithm, iterative, visiting nodes in IRI order
        def by_iri(ids) -> list[int]:
            return sorted(ids, key=lambda i: term(i).lexical)
        edges = self.parents
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        cycles: list[tuple[Term, ...]] = []
        for root in by_iri(edges):
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(by_iri(edges[root])))]
            while work:
                node, it = work[-1]
                for succ in it:
                    if succ not in index:
                        index[succ] = low[succ] = len(index)
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(by_iri(edges[succ]))))
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        component = []
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.append(member)
                            if member == node:
                                break
                        if len(component) > 1 or node in edges[node]:
                            cycles.append(tuple(_by_iri(map(term,
                                                            component))))
        return cycles


def check_ontology_pitfalls(graph: Graph) -> PitfallReport:
    """Local versions of the three scanner findings: hierarchy cycles,
    identifier naming (of the IRIs in the ONO namespace), and
    domains/ranges declared as an intersection of classes with no common
    instances."""
    index = graph.cached(ClassIndex)
    report = PitfallReport(cycles=[list(c) for c in index.cycles])
    term = graph.term

    declared: dict[str, dict[int, list[int]]] = {}
    for position, pred in (("domain", RDFS_DOMAIN), ("range", RDFS_RANGE)):
        targets = declared[position] = {}
        for s, o in id_pairs(graph, pred):
            targets.setdefault(s, []).append(o)
    classes = index.classes()
    properties = set(graph.key_ids(1)).union(*declared.values())

    def in_scope(t: Term) -> bool:
        return t.kind == "iri" and t.lexical.startswith(ONO)

    for cls in _by_iri(map(term, classes)):
        if in_scope(cls) and not CLASS_NAME_PATTERN.fullmatch(
                cls.local_name()):
            report.naming_violations.append(
                (cls, "class names use UpperCamelCase"))
    for prop in _by_iri(map(term, properties - classes)):
        if in_scope(prop) and not PROPERTY_NAME_PATTERN.fullmatch(
                prop.local_name()):
            report.naming_violations.append(
                (prop, "property names use lowerCamelCase"))

    for position, targets_of in declared.items():
        for prop in sorted(targets_of, key=lambda i: term(i).lexical):
            targets = targets_of[prop]
            if len(targets) < 2:
                continue
            if not len(reduce(np.intersect1d, map(index.instances, targets))):
                report.intersection_conflicts.append(
                    (term(prop), position, _by_iri(map(term, targets))))
    return report
