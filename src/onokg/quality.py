"""Linked-data quality metrics over a graph.

Thirteen metrics across the availability, completeness, conciseness,
interlinking, and relevancy dimensions. Each metric reports its raw
numerator/denominator so fixtures can be checked against hand counts
exactly; a metric whose configuration is missing is reported as skipped,
and a 0/0 ratio is reported as 1.0 and flagged vacuous. "Foreign" always
means: an IRI outside the configured home namespaces.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .kg import Graph, KgError, Term
from .ontology import (ONO, ASSOC, NORM, OWL_SAMEAS, RDFS_LABEL, SCHEMA,
                       XSD, ClassIndex, iri)

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
        if self.range_lower > self.range_upper:
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
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise QualityConfigError(
                    f"quality config {path} is not valid JSON: {exc}"
                ) from None
        try:
            return cls._from_dict(raw)
        except (TypeError, ValueError, KgError) as exc:
            raise QualityConfigError(
                f"bad quality config {path}: {exc}") from None

    @classmethod
    def _from_dict(cls, raw) -> "QualityConfig":
        if not isinstance(raw, dict):
            raise TypeError("expected a JSON object")
        if ("completeness_class" in raw) != ("completeness_predicate" in raw):
            raise ValueError("completeness_class and completeness_predicate "
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
            kwargs["range_lower"] = raw.get("range_lower", 0)
            kwargs["range_upper"] = raw.get("range_upper", 0)
        return cls(**kwargs)


@dataclass
class MetricResult:
    name: str
    kind: str                  # "ratio" or "count"
    value: float
    numerator: int = 0
    denominator: int = 0
    status: str = "ok"         # ok | vacuous | skipped
    sample: list[str] = field(default_factory=list)

    @classmethod
    def ratio(cls, name, numerator, denominator, sample=()):
        if denominator == 0:
            return cls(name, "ratio", 1.0, 0, 0, "vacuous")
        return cls(name, "ratio", numerator / denominator, numerator,
                   denominator, "ok", list(sample)[:100])

    @classmethod
    def count(cls, name, value, sample=()):
        return cls(name, "count", float(value), int(value), 0, "ok",
                   list(sample)[:100])

    @classmethod
    def skipped(cls, name):
        return cls(name, "ratio", 0.0, 0, 0, "skipped")


@dataclass
class QualityReport:
    metrics: dict[str, MetricResult] = field(default_factory=dict)

    def __getitem__(self, name: str) -> MetricResult:
        return self.metrics[name]

    def to_json(self) -> str:
        return json.dumps({
            name: {
                "kind": m.kind, "value": m.value,
                "numerator": m.numerator, "denominator": m.denominator,
                "status": m.status, "sample": m.sample,
            } for name, m in self.metrics.items()
        }, indent=2)

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
        return any(uri.startswith(ns) for ns in allowlist)
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

_DATATYPE_CHECKS = {
    XSD + "integer": re.compile(r"^[+-]?\d+$"),
    XSD + "decimal": re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$"),
    XSD + "boolean": re.compile(r"^(true|false|0|1)$"),
    XSD + "date": re.compile(r"^\d{4}-\d{2}-\d{2}$"),
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

def assess(graph: Graph, cfg: QualityConfig) -> QualityReport:
    report = QualityReport()
    home = cfg.home_namespaces

    def is_home(term: Term) -> bool:
        return term.kind == "iri" and any(term.lexical.startswith(ns)
                                          for ns in home)

    def is_foreign(term: Term) -> bool:
        return term.kind == "iri" and not is_home(term)

    triples = list(graph)
    subjects = sorted({t.subject for t in triples},
                      key=lambda t: (t.kind, t.lexical))
    objects = {t.object for t in triples}
    predicates = {t.predicate for t in triples}

    # 1. schema completeness
    gold = set(cfg.gold_classes) | set(cfg.gold_properties)
    if gold:
        used = {term for t in triples for term in t}
        present = gold & used
        missing = sorted(g.lexical for g in gold - present)
        report.metrics["schema_completeness"] = MetricResult.ratio(
            "schema_completeness", len(present), len(gold), missing)
    else:
        report.metrics["schema_completeness"] = \
            MetricResult.skipped("schema_completeness")

    # 2. interlinking completeness: home subjects with >= 1 foreign object
    linkable = [s for s in subjects if is_home(s)]
    linked = []
    for s in linkable:
        if any(is_foreign(t.object) for t in graph.match(s, None, None)):
            linked.append(s)
    linked_set = set(linked)
    report.metrics["interlinking_completeness"] = MetricResult.ratio(
        "interlinking_completeness", len(linked), len(linkable),
        [s.lexical for s in linkable if s not in linked_set])

    # 3. property completeness for (class, predicate)
    if cfg.completeness_class is not None \
            and cfg.completeness_predicate is not None:
        members = graph.cached(ClassIndex).instances(cfg.completeness_class)
        missing = sorted(m.lexical for m in members if not graph.match(
            m, cfg.completeness_predicate, None))
        report.metrics["property_completeness"] = MetricResult.ratio(
            "property_completeness", len(members) - len(missing),
            len(members), missing)
    else:
        report.metrics["property_completeness"] = \
            MetricResult.skipped("property_completeness")

    # 4. numeric range violations for a predicate
    if cfg.range_predicate is not None:
        total = 0
        violations = []
        for t in graph.match(None, cfg.range_predicate, None):
            if t.object.kind != "literal":
                continue
            try:
                value = float(t.object.lexical)
            except ValueError:
                continue
            total += 1
            if not cfg.range_lower <= value <= cfg.range_upper:
                violations.append(f"{t.subject.lexical}: {t.object.lexical}")
        report.metrics["numeric_range_violations"] = MetricResult(
            "numeric_range_violations", "count", float(len(violations)),
            len(violations), total, "ok", violations[:100])
    else:
        report.metrics["numeric_range_violations"] = \
            MetricResult.skipped("numeric_range_violations")

    # 5. extensional conciseness: distinct (p, o) description sets
    descriptions: dict[Term, frozenset] = {}
    for s in subjects:
        descriptions[s] = frozenset((t.predicate, t.object)
                                    for t in graph.match(s, None, None))
    distinct = len(set(descriptions.values()))
    duplicate_sets: dict[frozenset, list[Term]] = {}
    for s, d in descriptions.items():
        duplicate_sets.setdefault(d, []).append(s)
    duplicated = [", ".join(x.lexical for x in group)
                  for group in duplicate_sets.values() if len(group) > 1]
    report.metrics["extensional_conciseness"] = MetricResult.ratio(
        "extensional_conciseness", distinct, len(subjects), duplicated)

    # 6. external sameAs links
    external = [t for t in graph.match(None, OWL_SAMEAS, None)
                if is_foreign(t.object)]
    report.metrics["external_sameas_links"] = MetricResult.count(
        "external_sameas_links", len(external),
        [f"{t.subject.lexical} -> {t.object.lexical}" for t in external])

    # 7. datatype compatibility over the validated xsd types
    checked = 0
    valid = 0
    invalid = []
    for t in triples:
        obj = t.object
        if obj.kind != "literal" or obj.datatype not in _DATATYPE_CHECKS:
            continue
        checked += 1
        if obj.datatype == XSD + "date":
            ok = bool(_DATATYPE_CHECKS[obj.datatype].match(obj.lexical)) \
                and _valid_date(obj.lexical)
        else:
            ok = bool(_DATATYPE_CHECKS[obj.datatype].match(obj.lexical))
        if ok:
            valid += 1
        else:
            invalid.append(f"{obj.lexical!r} as {obj.datatype}")
    report.metrics["datatype_compatibility"] = MetricResult.ratio(
        "datatype_compatibility", valid, checked, invalid)

    # 8. dereferenceable URIs across all three positions
    uris = sorted({term.lexical for t in triples for term in t
                   if term.kind == "iri"})
    accepted = [u for u in uris if resolve_uri(cfg.resolver_mode, u,
                                               cfg.allowlist)]
    accepted_set = set(accepted)
    report.metrics["dereferenceable_uris"] = MetricResult.ratio(
        "dereferenceable_uris", len(accepted), len(uris),
        [u for u in uris if u not in accepted_set])

    # 9. back links: objects that are home-namespace IRIs
    object_terms = sorted(objects, key=lambda t: (t.kind, t.lexical))
    back = [o for o in object_terms if is_home(o)]
    report.metrics["dereferenceable_back_links"] = MetricResult.ratio(
        "dereferenceable_back_links", len(back), len(object_terms))

    # 10. forward links: subjects that are home-namespace IRIs
    forward = [s for s in subjects if is_home(s)]
    report.metrics["dereferenceable_forward_links"] = MetricResult.ratio(
        "dereferenceable_forward_links", len(forward), len(subjects))

    # 11/12. coverage: distinct properties, distinct described instances
    report.metrics["coverage_detail"] = MetricResult.count(
        "coverage_detail", len(predicates))
    report.metrics["coverage_scope"] = MetricResult.count(
        "coverage_scope", len(subjects))

    # 13. labeled resources
    labeled = [s for s in subjects
               if any(graph.match(s, p, None)
                      for p in cfg.label_predicates)]
    report.metrics["labeled_resources"] = MetricResult.ratio(
        "labeled_resources", len(labeled), len(subjects),
        sorted(s.lexical for s in set(subjects) - set(labeled)))

    return report

