"""Entity linking: map mention surfaces to canonical KG nodes.

Lookup is case-insensitive and stem-normalized over an alias table built
from a CSV of extra surfaces plus the labels and full names already in
the graph. Unknown mentions receive a deterministically minted IRI in the
normalization namespace, so linking is a pure function of
(surface, entity type, alias table).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional

from ..kg import Graph, Term, iri
from ..ontology import (NORM, RDFS_LABEL, RDF_TYPE, SCHEMA, default_prefixes,
                        read_csv)
from .preprocess import stem, tokenize


def normalize_surface(surface: str) -> str:
    words = [stem(w) for w in tokenize(surface) if any(c.isalnum()
                                                       for c in w)]
    return " ".join(words)


class AliasTable:
    def __init__(self):
        self._entries: dict[tuple[str, str], Term] = {}
        # each looked-up surface's normalized form; mentions repeat their
        # surfaces, and normalizing one tokenizes and stems it
        self._keys: dict[str, str] = {}

    def add(self, surface: str, entity_type: str, target: Term) -> None:
        key = (normalize_surface(surface), entity_type)
        self._entries.setdefault(key, target)

    def lookup(self, surface: str, entity_type: str) -> Optional[Term]:
        if surface not in self._keys:
            self._keys[surface] = normalize_surface(surface)
        return self._entries.get((self._keys[surface], entity_type))

    @classmethod
    def build(cls, graph: Optional[Graph] = None,
              csv_path: Optional[Path] = None) -> "AliasTable":
        table = cls()
        if csv_path is not None:
            prefixes = default_prefixes()
            for row in read_csv(csv_path, ("surface", "type", "canonicalIRI")):
                target = row["canonicalIRI"]
                term = prefixes.expand(target) if ":" in target and \
                    not target.startswith("http") else iri(target)
                table.add(row["surface"], row["type"], term)
        if graph is not None:
            ids, term_of = graph.term_id, graph.term
            typed, classes = graph.edges(ids(RDF_TYPE))
            off, p_column, o_column = graph.columns()
            # in id order, so the first surface added for a key wins: a
            # class's members are ascending in its rdf:type run, and a
            # predicate's objects in each subject's SPO run
            for rdf_class, entity_type, predicates in (
                    (SCHEMA.biomarker, "Gene", (RDFS_LABEL,)),
                    (SCHEMA.cancer, "Disease", (RDFS_LABEL,
                                                SCHEMA.full_name))):
                for s in typed[classes == ids(rdf_class)].tolist():
                    run_p, run_o = (column[off[s]:off[s + 1]]
                                    for column in (p_column, o_column))
                    for p in predicates:
                        for o in run_o[run_p == ids(p)].tolist():
                            table.add(term_of(o).lexical, entity_type,
                                      term_of(s))
        return table


def mint_normalized_id(surface: str, entity_type: str) -> Term:
    slug = re.sub(r"[^a-z0-9]+", "-", surface.lower()).strip("-") or "blank"
    return iri(f"{NORM}{entity_type.lower()}/{slug}")


def link_entity(surface: str, entity_type: str, table: AliasTable) -> Term:
    """Canonical node for a mention surface, minting one if unknown."""
    found = table.lookup(surface, entity_type)
    if found is not None:
        return found
    return mint_normalized_id(surface, entity_type)
