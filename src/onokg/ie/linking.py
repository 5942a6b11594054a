"""Entity linking: map mention surfaces to canonical KG nodes.

Lookup is case-insensitive and stem-normalized over an alias table built
from a CSV of extra surfaces plus the labels and full names already in
the graph. Unknown mentions receive a deterministically minted IRI in the
normalization namespace, so linking is a pure function of
(surface, entity type, alias table).
"""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Optional

from ..kg import Graph, Term, iri
from ..ontology import NORM, RDFS_LABEL, RDF_TYPE, SCHEMA, default_prefixes
from .preprocess import stem, tokenize


def normalize_surface(surface: str) -> str:
    words = [stem(w) for w in tokenize(surface) if any(c.isalnum()
                                                       for c in w)]
    return " ".join(words)


class AliasTable:
    def __init__(self):
        self._entries: dict[tuple[str, str], Term] = {}

    def add(self, surface: str, entity_type: str, target: Term) -> None:
        key = (normalize_surface(surface), entity_type)
        self._entries.setdefault(key, target)

    def lookup(self, surface: str, entity_type: str) -> Optional[Term]:
        return self._entries.get((normalize_surface(surface), entity_type))

    def surfaces(self, entity_type: str) -> list[str]:
        return sorted(key[0] for key in self._entries
                      if key[1] == entity_type)

    def __len__(self):
        return len(self._entries)

    @classmethod
    def build(cls, graph: Optional[Graph] = None,
              csv_path: Optional[Path] = None) -> "AliasTable":
        table = cls()
        if csv_path is not None:
            prefixes = default_prefixes()
            with open(csv_path, encoding="utf-8", newline="") as fh:
                lines = [ln for ln in fh if not ln.startswith("#")]
            for row in csv.DictReader(lines):
                target = row["canonicalIRI"]
                term = prefixes.expand(target) if ":" in target and \
                    not target.startswith("http") else iri(target)
                table.add(row["surface"], row["type"], term)
        if graph is not None:
            for t in graph.match(None, RDF_TYPE, SCHEMA.biomarker):
                for lbl in graph.match(t.subject, RDFS_LABEL, None):
                    table.add(lbl.object.lexical, "Gene", t.subject)
            for t in graph.match(None, RDF_TYPE, SCHEMA.cancer):
                for lbl in graph.match(t.subject, RDFS_LABEL, None):
                    table.add(lbl.object.lexical, "Disease", t.subject)
                for name in graph.match(t.subject, SCHEMA.full_name, None):
                    table.add(name.object.lexical, "Disease", t.subject)
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
