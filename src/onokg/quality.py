"""Linked-data quality metrics over a graph.

Thirteen metrics across the availability, completeness, conciseness,
interlinking, and relevancy dimensions. Each metric reports its raw
numerator/denominator so fixtures can be checked against hand counts
exactly; a metric whose configuration is missing is reported as skipped,
and a 0/0 ratio is reported as 1.0 and flagged vacuous. "Foreign" always
means: an IRI outside the configured home namespaces.

The metrics are computed over term ids, with no Python object per
triple. `Graph.columns` gives the store's SPO permutation as numpy views:
a subject's description is its run of (predicate, object) rows, read off
the key offsets. Per-id masks say whether a term is an IRI in a home
namespace or a foreign one, and one `reduceat` per metric tells which
runs hold a foreign object (metric 2) or a label predicate (metric 13).
The subjects, objects and predicates in use come from `Graph.key_ids`.
Metrics 3, 4 and 6 read one predicate's (subject, object) columns
(`Graph.edges`), and metric 3 takes the class's members from
`ontology.ClassIndex`, as DL queries do. Terms are looked up only to sort
subjects, to write the samples, and to read metric 4's numbers, once per
distinct object.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .kg import IRI, LITERAL, Graph, KgError, Term
from .ntriples import read_text
from .ontology import (ONO, ASSOC, NORM, OWL_SAMEAS, RDFS_LABEL, SCHEMA,
                       XSD, ClassIndex, id_pairs, iri)

DEFAULT_HOME_NAMESPACES = (ONO, ASSOC, NORM)

RESOLVER_MODES = ("offline-allowlist", "syntactic", "live")


class QualityConfigError(ValueError):
    """A quality config file that does not describe a valid config."""


@dataclass
class QualityConfig:
    gold_classes: tuple[Term, ...] = ()
    gold_properties: tuple[Term, ...] = ()
    home_namespaces: tuple[str, ...] = DEFAULT_HOME_NAMESPACES
    label_predicates: tuple[Term, ...] = (RDFS_LABEL,)
    completeness_class: Optional[Term] = None
    completeness_predicate: Optional[Term] = None
    range_predicate: Optional[Term] = None
    range_lower: float = 0.0
    range_upper: float = 0.0
    resolver_mode: str = "offline-allowlist"
    allowlist: tuple[str, ...] = ()

    def __post_init__(self):
        # false for a NaN bound too; an infinite bound is an open one
        if not self.range_lower <= self.range_upper:
            raise ValueError("numeric range needs lower <= upper")
        if self.resolver_mode not in RESOLVER_MODES:
            raise ValueError(f"unknown resolver mode {self.resolver_mode!r}")

    @classmethod
    def for_ono_seed(cls) -> "QualityConfig":
        return cls(
            gold_classes=tuple(SCHEMA.classes()),
            gold_properties=tuple(SCHEMA.properties()),
            completeness_class=SCHEMA.cancer,
            completeness_predicate=SCHEMA.full_name,
            range_predicate=SCHEMA.has_citations,
            range_lower=0, range_upper=10_000_000,
            allowlist=DEFAULT_HOME_NAMESPACES,
        )

    @classmethod
    def from_json(cls, path) -> "QualityConfig":
        try:
            raw = json.loads(read_text(path))
        except ValueError as exc:
            raise QualityConfigError(
                f"quality config {path} is not valid JSON: {exc}") from None
        try:
            return cls._from_dict(raw)
        except (TypeError, ValueError, KgError) as exc:
            raise QualityConfigError(
                f"bad quality config {path}: {exc}") from None

    @classmethod
    def _from_dict(cls, raw) -> "QualityConfig":
        if not isinstance(raw, dict):
            raise TypeError("expected a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError("not a setting: " + ", ".join(map(repr, unknown)))
        for group in (("completeness_class", "completeness_predicate"),
                      ("range_predicate", "range_lower", "range_upper")):
            if 0 < sum(key in raw for key in group) < len(group):
                raise ValueError(f"{', '.join(group[:-1])} and {group[-1]} "
                                 "must be given together")
        for key in ("gold_classes", "gold_properties", "home_namespaces",
                    "label_predicates", "allowlist"):
            value = raw.get(key, [])
            if not isinstance(value, list) \
                    or not all(isinstance(v, str) for v in value):
                raise TypeError(f"{key} must be a list of strings")
        for key in ("range_lower", "range_upper"):
            value = raw.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{key} must be a number")

        def terms(key):
            return tuple(iri(v) for v in raw.get(key, ()))
        kwargs = dict(
            gold_classes=terms("gold_classes"),
            gold_properties=terms("gold_properties"),
            home_namespaces=tuple(raw.get("home_namespaces",
                                          DEFAULT_HOME_NAMESPACES)),
            resolver_mode=raw.get("resolver_mode", "offline-allowlist"),
            allowlist=tuple(raw.get("allowlist", ())),
        )
        if raw.get("label_predicates"):
            kwargs["label_predicates"] = terms("label_predicates")
        if "completeness_class" in raw:
            kwargs["completeness_class"] = iri(raw["completeness_class"])
            kwargs["completeness_predicate"] = \
                iri(raw["completeness_predicate"])
        if "range_predicate" in raw:
            kwargs["range_predicate"] = iri(raw["range_predicate"])
            kwargs["range_lower"] = raw["range_lower"]
            kwargs["range_upper"] = raw["range_upper"]
        return cls(**kwargs)


@dataclass
class MetricResult:
    kind: str                  # "ratio" or "count"
    value: float
    numerator: int = 0
    denominator: int = 0
    status: str = "ok"         # ok | vacuous | skipped
    sample: list[str] = field(default_factory=list)

    @classmethod
    def ratio(cls, numerator, denominator, sample=()):
        if denominator == 0:
            return cls("ratio", 1.0, 0, 0, "vacuous")
        return cls("ratio", numerator / denominator, numerator, denominator,
                   "ok", list(sample)[:100])

    @classmethod
    def count(cls, value, sample=(), denominator=0):
        return cls("count", float(value), int(value), int(denominator), "ok",
                   list(sample)[:100])

    @classmethod
    def skipped(cls):
        return cls("ratio", 0.0, 0, 0, "skipped")


@dataclass
class QualityReport:
    metrics: dict[str, MetricResult] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Each metric's fields by metric name, in assessment order."""
        return {
            name: {
                "kind": m.kind, "value": m.value,
                "numerator": m.numerator, "denominator": m.denominator,
                "status": m.status, "sample": m.sample,
            } for name, m in self.metrics.items()
        }

    def render(self) -> str:
        width = max(len(name) for name in self.metrics)
        lines = []
        for name, m in self.metrics.items():
            if m.status == "skipped":
                detail = "skipped (not configured)"
            elif m.kind == "count":
                detail = f"{m.numerator}"
            else:
                detail = f"{m.value:.4f} ({m.numerator}/{m.denominator})"
                if m.status == "vacuous":
                    detail += " vacuous"
            lines.append(f"{name.ljust(width)}  {detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# URI resolution

def resolve_uri(mode: str, uri: str, allowlist: tuple[str, ...] = (),
                fetch: Optional[Callable[[str], bool]] = None) -> bool:
    """Is the URI considered dereferenceable under the given mode?"""
    if mode == "syntactic":
        return ":" in uri
    if mode == "offline-allowlist":
        return uri.startswith(tuple(allowlist))
    if mode == "live":
        if fetch is None:
            fetch = _live_fetch
        try:
            return fetch(uri)
        except Exception:
            return False
    raise ValueError(f"unknown resolver mode {mode!r}")


def _live_fetch(uri: str) -> bool:
    import urllib.request
    request = urllib.request.Request(uri, method="HEAD")
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status < 400


# ---------------------------------------------------------------------------
# datatype validators

# whole-string patterns over ASCII digits: fullmatch, because `$` also
# matches before a trailing newline, and [0-9], because \d also matches
# other scripts' digits
_DATATYPE_CHECKS = {
    XSD + "integer": re.compile(r"[+-]?[0-9]+"),
    XSD + "decimal": re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)"),
    XSD + "boolean": re.compile(r"true|false|0|1"),
    XSD + "date": re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}"),
}


def _valid_date(lexical: str) -> bool:
    import datetime
    try:
        datetime.date.fromisoformat(lexical)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# the assessment

def _valid_lexical(term: Term) -> bool:
    ok = bool(_DATATYPE_CHECKS[term.datatype].fullmatch(term.lexical))
    if term.datatype == XSD + "date":
        return ok and _valid_date(term.lexical)
    return ok


def assess(graph: Graph, cfg: QualityConfig) -> QualityReport:
    report = QualityReport()
    metrics = report.metrics
    terms = graph.terms()
    ids = graph.term_id
    namespaces = tuple(cfg.home_namespaces)
    home = np.array([t[0] == IRI and t[1].startswith(namespaces)
                     for t in terms], bool)
    foreign = np.array([t[0] == IRI for t in terms], bool) & ~home

    # subject s describes itself by its SPO run, the (p, o) rows at
    # off[s]:off[s + 1]; subjects are no literals, so ordering the Terms
    # orders them by (kind, lexical)
    off, p_column, o_column = graph.columns()
    present = graph.key_ids(0)
    subjects = sorted(present, key=terms.__getitem__)
    objects = graph.key_ids(2)
    labels = [ids(p) for p in cfg.label_predicates]
    starts = off[present]
    linked = dict(zip(present, np.logical_or.reduceat(
        foreign[o_column], starts).tolist()))
    labeled = dict(zip(present, np.logical_or.reduceat(
        np.isin(p_column, labels), starts).tolist()))

    # 1. schema completeness: a term has an id iff a stored triple uses it
    gold = set(cfg.gold_classes) | set(cfg.gold_properties)
    if gold:
        missing = sorted(g.lexical for g in gold if ids(g) < 0)
        metrics["schema_completeness"] = MetricResult.ratio(
            len(gold) - len(missing), len(gold), missing)
    else:
        metrics["schema_completeness"] = MetricResult.skipped()

    # 2. interlinking completeness: home subjects with >= 1 foreign object
    linkable = [s for s in subjects if home[s]]
    unlinked = [terms[s].lexical for s in linkable if not linked[s]]
    metrics["interlinking_completeness"] = MetricResult.ratio(
        len(linkable) - len(unlinked), len(linkable), unlinked)

    # 3. property completeness for (class, predicate)
    if cfg.completeness_class is not None \
            and cfg.completeness_predicate is not None:
        members = graph.cached(ClassIndex).instances(
            ids(cfg.completeness_class))
        described = graph.edges(ids(cfg.completeness_predicate))[0]
        missing = sorted(terms[m].lexical for m in
                         members[~np.isin(members, described)].tolist())
        metrics["property_completeness"] = MetricResult.ratio(
            len(members) - len(missing), len(members), missing)
    else:
        metrics["property_completeness"] = MetricResult.skipped()

    # 4. numeric range violations for a predicate, over the literal
    # objects that `float` reads, each read once. A stable sort on the
    # subjects of its POS run, which is sorted on objects, orders the rows
    # on (subject, object)
    if cfg.range_predicate is not None:
        s, o = graph.edges(ids(cfg.range_predicate))
        values = {}
        for x in np.unique(o).tolist():
            if terms[x].kind == LITERAL:
                with suppress(ValueError):
                    values[x] = float(terms[x].lexical)
        outside = [x for x, value in values.items()
                   if not cfg.range_lower <= value <= cfg.range_upper]
        order = np.argsort(s, kind="stable")
        bad = order[np.isin(o[order], outside)].tolist()
        metrics["numeric_range_violations"] = MetricResult.count(
            len(bad), [f"{terms[s[i]].lexical}: {terms[o[i]].lexical}"
                       for i in bad[:100]], np.isin(o, list(values)).sum())
    else:
        metrics["numeric_range_violations"] = MetricResult.skipped()

    # 5. extensional conciseness: distinct (p, o) description sets. SPO
    # is sorted and holds no duplicate, so two subjects have equal sets
    # iff their runs have equal bytes
    runs = np.column_stack((p_column, o_column)).tobytes()
    bounds = off.tolist()
    duplicate_sets: dict[bytes, list[int]] = {}
    for s in subjects:
        duplicate_sets.setdefault(runs[16 * bounds[s]:16 * bounds[s + 1]],
                                  []).append(s)
    duplicated = [", ".join(terms[x].lexical for x in group)
                  for group in duplicate_sets.values() if len(group) > 1]
    metrics["extensional_conciseness"] = MetricResult.ratio(
        len(duplicate_sets), len(subjects), duplicated)

    # 6. external sameAs links
    external = [(s, o) for s, o in sorted(id_pairs(graph, OWL_SAMEAS))
                if foreign[o]]
    metrics["external_sameas_links"] = MetricResult.count(
        len(external),
        [f"{terms[s].lexical} -> {terms[o].lexical}" for s, o in external])

    # 7. datatype compatibility over the validated xsd types, per triple:
    # the objects of the SPO rows, in row order
    validated = {o: _valid_lexical(terms[o]) for o in objects
                 if terms[o].kind == LITERAL
                 and terms[o].datatype in _DATATYPE_CHECKS}
    checked = int(np.isin(o_column, list(validated)).sum())
    invalid = o_column[np.isin(o_column, [o for o, ok in validated.items()
                                          if not ok])].tolist()
    metrics["datatype_compatibility"] = MetricResult.ratio(
        checked - len(invalid), checked,
        [f"{terms[o].lexical!r} as {terms[o].datatype}" for o in invalid])

    # 8. dereferenceable URIs across all three positions
    uris = sorted(t.lexical for t in terms if t.kind == IRI)
    rejected = [u for u in uris if not resolve_uri(cfg.resolver_mode, u,
                                                   cfg.allowlist)]
    metrics["dereferenceable_uris"] = MetricResult.ratio(
        len(uris) - len(rejected), len(uris), rejected)

    # 9. back links: objects that are home-namespace IRIs
    metrics["dereferenceable_back_links"] = MetricResult.ratio(
        int(home[objects].sum()), len(objects))

    # 10. forward links: subjects that are home-namespace IRIs
    metrics["dereferenceable_forward_links"] = MetricResult.ratio(
        len(linkable), len(subjects))

    # 11/12. coverage: distinct properties, distinct described instances
    metrics["coverage_detail"] = MetricResult.count(len(graph.key_ids(1)))
    metrics["coverage_scope"] = MetricResult.count(len(subjects))

    # 13. labeled resources
    unlabeled = sorted(terms[s].lexical for s in subjects
                       if not labeled[s])
    metrics["labeled_resources"] = MetricResult.ratio(
        len(subjects) - len(unlabeled), len(subjects), unlabeled)

    return report
