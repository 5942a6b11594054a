"""Independent reference implementations used to cross-check the engines.

Everything here works by linear scans and literal set definitions: no
indexes, no closure caches, no shared code with the modules under test
beyond the Term/Triple data model.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import logging
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from onokg import dlx
from onokg.explain import FeedForwardNet, Layer, lrp, sensitivity
from onokg.ie import relations
from onokg.ie.decode import EntityMention
from onokg.ie.preprocess import preprocess, stopwords
from onokg.ie.tagger import PROB_FLOOR, TAGS, EncodedSentence, TaggerModel
from onokg.ie.tagger import encode_sentence as tagger_encode_sentence
from onokg.ie.tagger import loss_and_gradients as tagger_loss_and_gradients
from onokg.ie.tagger import tagging_loss as tagger_tagging_loss
from onokg.ie.train import TrainingDiverged
from onokg.ie.train import _clip as train_clip
from onokg.kg import (BLANK, Graph, Term, Triple, ValidationError, blank,
                      iri, literal)
from onokg.ontology import (NORM, ONO, OWL, OWL_SAMEAS, RDF, RDF_TYPE, RDFS,
                            RDFS_DOMAIN, RDFS_LABEL, RDFS_RANGE,
                            RDFS_SUBCLASS, SCHEMA, XSD)
from onokg.sparql import (AndExpr, Comparison, NotExpr, OrExpr, Regex,
                          SelectQuery, SubSelect, TriplePattern, Values,
                          Var, _compile_regex)

_META = {iri("http://www.w3.org/2002/07/owl#Class"),
         iri("http://www.w3.org/2000/01/rdf-schema#Class"),
         iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#Property"),
         iri("http://www.w3.org/2002/07/owl#ObjectProperty"),
         iri("http://www.w3.org/2002/07/owl#DatatypeProperty")}


# ---------------------------------------------------------------------------
# the data model's checks as frozen dataclasses, which is what `Term` and
# `Triple` were before they became validated tuples: a construction must
# raise ValidationError, with the same message, exactly when these do. The
# term rules are written out here, not taken from `kg`.

def _oracle_check_iri(value: str) -> None:
    if ":" not in value:
        raise ValidationError(f"relative IRI not allowed: <{value}>")
    if any(c in value for c in ' "<>\n'):
        raise ValidationError(f"invalid character in IRI: <{value}>")


@dataclass(frozen=True)
class DataclassTerm:
    kind: str
    lexical: str
    datatype: Optional[str] = None
    language: Optional[str] = None

    def __post_init__(self):
        kind, datatype, language = self.kind, self.datatype, self.language
        if kind == "iri":
            _oracle_check_iri(self.lexical)
        elif kind == "blank" and not re.fullmatch(r"[\w-]+", self.lexical):
            raise ValidationError(
                f"invalid blank node label: {self.lexical!r}")
        elif kind not in ("literal", "blank"):
            raise ValidationError(f"unknown term kind {kind!r}")
        if datatype is None and language is None:
            return
        if kind != "literal":
            raise ValidationError(
                "datatype/language are only valid on literals")
        if datatype is not None and language is not None:
            raise ValidationError(
                "a literal has at most one of datatype, language")
        if datatype is not None:
            _oracle_check_iri(datatype)
        elif not re.fullmatch(r"(?:[^\W_]|-)+", language):
            raise ValidationError(f"invalid language tag: {language!r}")


@dataclass(frozen=True)
class DataclassTriple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if self.subject.kind == "literal":
            raise ValidationError("triple subject must not be a literal")
        if self.predicate.kind != "iri":
            raise ValidationError("triple predicate must be an IRI")


# ---------------------------------------------------------------------------
# description-logic instance retrieval by direct recursion on the set
# definitions

def _scan(graph: Graph):
    return graph.match()


def _subclass_ancestors(triples, cls: Term) -> set[Term]:
    out = {cls}
    changed = True
    while changed:
        changed = False
        for t in triples:
            if t.predicate == RDFS_SUBCLASS and t.subject in out \
                    and t.object not in out:
                out.add(t.object)
                changed = True
    return out


def _class_members(triples, cls: Term) -> set[Term]:
    return {t.subject for t in triples if t.predicate == RDF_TYPE
            and cls in _subclass_ancestors(triples, t.object)}


def class_instances(graph: Graph, cls: Term) -> set[Term]:
    """Subjects typed with cls or a class below it, by fixpoint scans; a
    cyclic hierarchy only makes the fixpoint stop sooner."""
    return _class_members(_scan(graph), cls)


def _universe(triples) -> set[Term]:
    out = set()
    for t in triples:
        out.add(t.subject)
        if t.object.kind != "literal":
            out.add(t.object)
    return out


def dl_instances(graph: Graph, expr) -> set[Term]:
    triples = _scan(graph)
    universe = _universe(triples)

    def successors(prop: dlx.PropRef, x: Term) -> set[Term]:
        out = set()
        for t in triples:
            if t.predicate != prop.term:
                continue
            src, dst = (t.object, t.subject) if prop.inverse \
                else (t.subject, t.object)
            if src == x and src.kind != "literal":
                out.add(dst)
        return out

    def evaluate(node) -> set[Term]:
        if isinstance(node, dlx.Atomic):
            out = _class_members(triples, node.term)
            for t in triples:
                if t.predicate == RDF_TYPE and t.subject == node.term \
                        and t.object not in _META:
                    out.add(node.term)
            return out
        if isinstance(node, dlx.And):
            parts = [evaluate(p) for p in node.parts]
            out = parts[0]
            for p in parts[1:]:
                out = out & p
            return out
        if isinstance(node, dlx.Or):
            out = set()
            for p in node.parts:
                out |= evaluate(p)
            return out
        if isinstance(node, dlx.Some):
            filler = evaluate(node.filler)
            return {x for x in universe
                    if successors(node.prop, x) & filler}
        if isinstance(node, dlx.Only):
            filler = evaluate(node.filler)
            return {x for x in universe
                    if successors(node.prop, x) <= filler}
        if isinstance(node, dlx.MinCard):
            return {x for x in universe
                    if len(successors(node.prop, x)) >= node.n}
        if isinstance(node, dlx.MaxCard):
            return {x for x in universe
                    if len(successors(node.prop, x)) <= node.n}
        raise TypeError(node)

    return evaluate(expr)


_DL_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                     "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def dl_tokens(text: str) -> list[tuple[str, str, int]]:
    """The (kind, value, offset) tokens of a class expression, by a
    character loop; a stray character raises `DlxParseError`."""
    items = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "()":
            items.append(("punct", ch, pos))
            pos += 1
            continue
        if ch in _DL_NAME_CHARS:
            start = pos
            while pos < len(text) and text[pos] in _DL_NAME_CHARS:
                pos += 1
            word = text[start:pos]
            if word.isdigit():
                items.append(("int", word, start))
            elif word.casefold() in dlx.KEYWORDS:
                items.append(("kw", word.casefold(), start))
            else:
                items.append(("name", word, start))
            continue
        raise dlx.DlxParseError(f"unexpected character {ch!r}", pos)
    return items


def reachability_closure(graph: Graph) -> set[tuple[Term, Term]]:
    """Reflexive-transitive subclass pairs via boolean matrix powers."""
    nodes = sorted({t for tr in graph.match(None, RDFS_SUBCLASS, None)
                    for t in (tr.subject, tr.object)},
                   key=lambda t: t.lexical)
    index = {t: i for i, t in enumerate(nodes)}
    n = len(nodes)
    mat = np.eye(n, dtype=bool)
    for tr in graph.match(None, RDFS_SUBCLASS, None):
        mat[index[tr.subject], index[tr.object]] = True
    changed = True
    while changed:
        nxt = mat | (mat @ mat)
        changed = not np.array_equal(nxt, mat)
        mat = nxt
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n)
            if mat[i, j]}


# ---------------------------------------------------------------------------
# linked-data quality metrics (after the dimensions of Zaveri et al.,
# "Quality assessment for Linked Data: a survey", SWJ 2016) and ontology
# pitfalls (after the OOPS! catalogue), each read straight off the triple
# list

def _by_kind_lexical(terms) -> list[Term]:
    return sorted(terms, key=lambda t: (t.kind, t.lexical))


def _valid_typed(term: Term) -> bool:
    lex = term.lexical
    if term.datatype == XSD + "integer":
        return re.fullmatch(r"[+-]?[0-9]+", lex) is not None
    if term.datatype == XSD + "decimal":
        return re.fullmatch(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)",
                            lex) is not None
    if term.datatype == XSD + "boolean":
        return lex in ("true", "false", "0", "1")
    if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", lex) is None:
        return False
    try:
        datetime.date(int(lex[:4]), int(lex[5:7]), int(lex[8:]))
    except ValueError:
        return False
    return True


_TYPED = {XSD + name for name in ("integer", "decimal", "boolean", "date")}


def quality_metrics(graph: Graph, cfg) -> dict[str, tuple]:
    """Each of the 13 metrics of `quality.assess` as (kind, value,
    numerator, denominator, status, sample)."""
    triples = _scan(graph)
    out: dict[str, tuple] = {}

    def home(term: Term) -> bool:
        return term.kind == "iri" and any(
            term.lexical.startswith(ns) for ns in cfg.home_namespaces)

    def foreign(term: Term) -> bool:
        return term.kind == "iri" and not home(term)

    def ratio(name, numerator, denominator, sample=()):
        if denominator == 0:
            out[name] = ("ratio", 1.0, 0, 0, "vacuous", [])
        else:
            out[name] = ("ratio", numerator / denominator, numerator,
                         denominator, "ok", list(sample)[:100])

    def count(name, n, denominator=0, sample=()):
        out[name] = ("count", float(n), n, denominator, "ok",
                     list(sample)[:100])

    def skipped(name):
        out[name] = ("ratio", 0.0, 0, 0, "skipped", [])

    subjects = _by_kind_lexical({t.subject for t in triples})
    objects = {t.object for t in triples}

    def description(s: Term) -> frozenset:
        return frozenset((t.predicate, t.object) for t in triples
                         if t.subject == s)

    # 1. share of the gold classes and properties some triple uses
    gold = set(cfg.gold_classes) | set(cfg.gold_properties)
    used = {term for t in triples for term in t}
    if gold:
        ratio("schema_completeness", len(gold & used), len(gold),
              sorted(g.lexical for g in gold - used))
    else:
        skipped("schema_completeness")
    # 2. home subjects with an outward link
    linkable = [s for s in subjects if home(s)]
    unlinked = [s.lexical for s in linkable
                if not any(foreign(o) for _, o in description(s))]
    ratio("interlinking_completeness", len(linkable) - len(unlinked),
          len(linkable), unlinked)
    # 3. class members carrying the predicate
    if cfg.completeness_class is not None \
            and cfg.completeness_predicate is not None:
        members = _class_members(triples, cfg.completeness_class)
        missing = sorted(m.lexical for m in members
                         if not any(t.subject == m
                                    and t.predicate
                                    == cfg.completeness_predicate
                                    for t in triples))
        ratio("property_completeness", len(members) - len(missing),
              len(members), missing)
    else:
        skipped("property_completeness")
    # 4. numeric literals of the predicate outside [lower, upper]
    if cfg.range_predicate is not None:
        numeric = []
        for t in triples:
            if t.predicate != cfg.range_predicate \
                    or t.object.kind != "literal":
                continue
            try:
                numeric.append((t, float(t.object.lexical)))
            except ValueError:
                pass
        bad = [f"{t.subject.lexical}: {t.object.lexical}"
               for t, value in numeric
               if not cfg.range_lower <= value <= cfg.range_upper]
        count("numeric_range_violations", len(bad), len(numeric), bad)
    else:
        skipped("numeric_range_violations")
    # 5. subjects whose whole description no earlier subject has
    groups: dict[frozenset, list[Term]] = {}
    for s in subjects:
        groups.setdefault(description(s), []).append(s)
    ratio("extensional_conciseness", len(groups), len(subjects),
          [", ".join(x.lexical for x in group)
           for group in groups.values() if len(group) > 1])
    # 6. sameAs links to foreign IRIs
    links = [t for t in triples
             if t.predicate == OWL_SAMEAS and foreign(t.object)]
    count("external_sameas_links", len(links), 0,
          [f"{t.subject.lexical} -> {t.object.lexical}" for t in links])
    # 7. typed literals whose lexical form fits their xsd type, per triple
    typed = [t.object for t in triples if t.object.kind == "literal"
             and t.object.datatype in _TYPED]
    ratio("datatype_compatibility",
          sum(_valid_typed(o) for o in typed), len(typed),
          [f"{o.lexical!r} as {o.datatype}" for o in typed
           if not _valid_typed(o)])
    # 8. IRIs the resolver accepts
    uris = sorted({term.lexical for term in used if term.kind == "iri"})
    if cfg.resolver_mode == "syntactic":
        accepted = [u for u in uris if ":" in u]
    else:
        accepted = [u for u in uris
                    if any(u.startswith(ns) for ns in cfg.allowlist)]
    ratio("dereferenceable_uris", len(accepted), len(uris),
          [u for u in uris if u not in accepted])
    # 9./10. home objects, home subjects
    ratio("dereferenceable_back_links",
          len([o for o in objects if home(o)]), len(objects))
    ratio("dereferenceable_forward_links",
          len([s for s in subjects if home(s)]), len(subjects))
    # 11./12. distinct predicates, distinct subjects
    count("coverage_detail", len({t.predicate for t in triples}))
    count("coverage_scope", len(subjects))
    # 13. subjects with a label under any label predicate
    unlabeled = sorted(s.lexical for s in subjects
                       if not any(p in cfg.label_predicates
                                  for p, _ in description(s)))
    ratio("labeled_resources", len(subjects) - len(unlabeled),
          len(subjects), unlabeled)
    return out


def pitfalls(graph: Graph, home_namespaces=(ONO,)):
    """(cycles, naming violations, intersection conflicts) as
    `ontology.check_ontology_pitfalls` reports them; the cycles as a set
    of IRI-sorted tuples."""
    triples = _scan(graph)

    def by_iri(terms) -> list[Term]:
        return sorted(terms, key=lambda t: t.lexical)

    edges = [t for t in triples if t.predicate == RDFS_SUBCLASS]
    hierarchy = {x for t in edges for x in (t.subject, t.object)}
    cycles = set()
    for cls in hierarchy:
        above = _subclass_ancestors(triples, cls)
        if any(cls in _subclass_ancestors(triples, t.object)
               for t in edges if t.subject == cls):
            cycles.add(tuple(by_iri(
                c for c in above
                if cls in _subclass_ancestors(triples, c))))

    classes = hierarchy | {t.object for t in triples
                           if t.predicate == RDF_TYPE}
    properties = {t.predicate for t in triples} | {
        t.subject for t in triples if t.predicate in (RDFS_DOMAIN,
                                                      RDFS_RANGE)}

    def in_scope(term: Term) -> bool:
        return term.kind == "iri" \
            and any(term.lexical.startswith(ns) for ns in home_namespaces) \
            and not any(term.lexical.startswith(ns)
                        for ns in (RDF, RDFS, OWL, XSD))

    naming = [(c, "class names use UpperCamelCase")
              for c in by_iri(classes) if in_scope(c)
              and not re.fullmatch(r"[A-Z][A-Za-z0-9]*", c.local_name())]
    naming += [(p, "property names use lowerCamelCase")
               for p in by_iri(properties - classes) if in_scope(p)
               and not re.fullmatch(r"[a-z][A-Za-z0-9]*", p.local_name())]

    conflicts = []
    for position, pred in (("domain", RDFS_DOMAIN), ("range", RDFS_RANGE)):
        declared: dict[Term, set[Term]] = {}
        for t in triples:
            if t.predicate == pred:
                declared.setdefault(t.subject, set()).add(t.object)
        for prop in by_iri(declared):
            targets = declared[prop]
            if len(targets) > 1 and not set.intersection(
                    *(_class_members(triples, c) for c in targets)):
                conflicts.append((prop, position, by_iri(targets)))
    return cycles, naming, conflicts


# ---------------------------------------------------------------------------
# SPARQL subset by nested-loop scans

def _numeric_value(term: Term):
    if term.kind != "literal":
        raise ValueError("not a literal")
    return float(term.lexical)


def _filter_holds(node, row) -> bool:
    if isinstance(node, OrExpr):
        return any(_filter_holds(p, row) for p in node.parts)
    if isinstance(node, AndExpr):
        return all(_filter_holds(p, row) for p in node.parts)
    if isinstance(node, NotExpr):
        return not _filter_holds(node.operand, row)
    if isinstance(node, Regex):
        value = row.get(node.var.name)
        if value is None or value.kind != "literal":
            return False
        return _compile_regex(node.pattern).search(value.lexical) is not None
    if isinstance(node, Comparison):
        try:
            left = _numeric_value(row[node.lhs.name]
                                  if isinstance(node.lhs, Var) else node.lhs)
            right = _numeric_value(row[node.rhs.name]
                                   if isinstance(node.rhs, Var) else node.rhs)
        except (KeyError, ValueError):
            return False
        if node.op == ">=":
            return left >= right
        if node.op == "<=":
            return left <= right
        if node.op == ">":
            return left > right
        if node.op == "<":
            return left < right
        return left == right
    raise TypeError(node)


def sparql_rows(graph: Graph, query: SelectQuery) -> list[tuple[Term, ...]]:
    triples = _scan(graph)
    if query.values is not None:
        rows = [{query.values.var.name: term} for term in query.values.terms]
    else:
        rows = [{}]
    for element in query.pattern:
        new_rows = []
        if isinstance(element, TriplePattern):
            for row in rows:
                for t in triples:
                    binding = dict(row)
                    good = True
                    for node, value in ((element.s, t.subject),
                                        (element.p, t.predicate),
                                        (element.o, t.object)):
                        if isinstance(node, Var):
                            seen = binding.get(node.name)
                            if seen is None:
                                binding[node.name] = value
                            elif seen != value:
                                good = False
                                break
                        elif node != value:
                            good = False
                            break
                    if good:
                        new_rows.append(binding)
        elif isinstance(element, SubSelect):
            sub_rows = sparql_rows(graph, element.query)
            header = [v.name for v in element.query.projection]
            for row in rows:
                for sub in sub_rows:
                    binding = dict(row)
                    good = True
                    for name, value in zip(header, sub):
                        seen = binding.get(name)
                        if seen is None:
                            binding[name] = value
                        elif seen != value:
                            good = False
                            break
                    if good:
                        new_rows.append(binding)
        rows = new_rows
    rows = [row for row in rows
            if all(_filter_holds(f, row) for f in query.filters)]
    if query.group_by:
        seen_keys = set()
        kept = []
        for row in rows:
            key = tuple(row[v.name] for v in query.group_by)
            if key not in seen_keys:
                seen_keys.add(key)
                kept.append(row)
        rows = kept
    projected = [tuple(row[v.name] for v in query.projection)
                 for row in rows]
    if query.distinct:
        seen_rows = set()
        kept_rows = []
        for row in projected:
            if row not in seen_rows:
                seen_rows.add(row)
                kept_rows.append(row)
        projected = kept_rows
    return projected


# ---------------------------------------------------------------------------
# numeric oracles

def central_difference(function, x: np.ndarray, h: float = 1e-5
                       ) -> np.ndarray:
    grad = np.zeros(len(x))
    for d in range(len(x)):
        bump = np.zeros(len(x))
        bump[d] = h
        grad[d] = (function(x + bump) - function(x - bump)) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# The tagger's encoder and training path as they were before sentences were
# packed: a sorted id array per piece row, with every feature name of every
# row interned in row order; one logits call per sentence, and a Python loop
# over the rows for the weight gradient. The training functions take the
# packed examples (flat ids, counts, labels) and split them into rows.

def gazetteer_marks(gazetteer, words) -> list[str]:
    """`Gazetteer.mark` as a scan: at every word not inside a match, every
    span from the longest entry's length down."""
    entries = set(gazetteer.surfaces())
    max_len = max(map(len, entries), default=1)
    lower = [w.lower() for w in words]
    marks = ["O"] * len(words)
    i = 0
    while i < len(words):
        matched = 0
        for span in range(min(max_len, len(words) - i), 0, -1):
            if tuple(lower[i:i + span]) in entries:
                matched = span
                break
        if matched:
            marks[i] = "B"
            for j in range(i + 1, i + matched):
                marks[j] = "I"
            i += matched
        else:
            i += 1
    return marks


@dataclass
class RowEncoding:
    """A sentence encoded with one sorted feature-id array per row."""

    words: list[str]
    pieces: list[str]
    word_of_piece: list[int]
    is_head_piece: list[bool]
    feature_ids: list[np.ndarray]


def feature_rows(flat: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Packed feature ids split back into one array per row."""
    return np.split(flat, np.cumsum(counts)[:-1]) if len(counts) else []


def _case_class(word: str) -> str:
    if word.isupper() and len(word) > 1:
        return "upper"
    if word[:1].isupper():
        return "title"
    if any(c.isdigit() for c in word):
        return "digit"
    if word.islower():
        return "lower"
    return "other"


def encode_sentence(words, vocab, space, gazetteers) -> RowEncoding:
    stop = stopwords()
    lower = [w.lower() for w in words]
    marks = {name: gazetteer_marks(gaz, words)
             for name, gaz in gazetteers.items()}
    pieces: list[str] = ["[CLS]"]
    word_of_piece: list[int] = [-1]
    is_head: list[bool] = [False]
    features: list[list[str]] = [["special=[CLS]"]]
    for i, word in enumerate(words):
        word_feats = [
            f"w={lower[i]}",
            f"case={_case_class(word)}",
            f"prev={lower[i - 1] if i > 0 else '<s>'}",
            f"next={lower[i + 1] if i + 1 < len(words) else '</s>'}",
            f"prevcase={_case_class(words[i - 1]) if i > 0 else '<s>'}",
            f"nextcase={_case_class(words[i + 1]) if i + 1 < len(words) else '</s>'}",
        ]
        if lower[i] in stop:
            word_feats.append("stop")
        if i == 0:
            word_feats.append("first")
        if i == len(words) - 1:
            word_feats.append("last")
        for name, mark in marks.items():
            word_feats.append(f"gaz-{name}={mark[i]}")
        for j, piece in enumerate(vocab.tokenize(word)):
            pieces.append(piece)
            word_of_piece.append(i)
            is_head.append(j == 0)
            features.append([f"p={piece}",
                             "head" if j == 0 else "cont"] + word_feats)
    pieces.append("[SEP]")
    word_of_piece.append(-1)
    is_head.append(False)
    features.append(["special=[SEP]"])
    ids = []
    for names in features:
        row = sorted({fid for fid in map(space.intern, names) if fid >= 0})
        ids.append(np.asarray(row, dtype=np.int64))
    return RowEncoding(list(words), pieces, word_of_piece, is_head, ids)


def _logits(model, feature_ids) -> np.ndarray:
    counts = np.array([len(r) for r in feature_ids], dtype=np.int64)
    out = np.repeat(model.bias[None, :], len(feature_ids), axis=0)
    if counts.sum():
        flat = np.concatenate(feature_ids)
        cols = model.weights[:, flat]                      # (K, total)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        nonempty = counts > 0
        sums = np.add.reduceat(cols, offsets[nonempty], axis=1)
        out[nonempty] += sums.T
    return out


def _tag_probabilities(model, feature_ids) -> np.ndarray:
    scores = _logits(model, feature_ids)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _sequence_loss(model, feature_ids, labels) -> float:
    probs = _tag_probabilities(model, feature_ids)
    picked = np.maximum(probs[np.arange(len(labels)), labels], PROB_FLOOR)
    return float(-np.mean(np.log(picked)))


def tagging_loss(model, batch) -> float:
    """Mean over sequences of the per-sequence mean NLL."""
    if not batch:
        return 0.0
    return float(np.mean([_sequence_loss(model, feature_rows(flat, counts),
                                         labels)
                          for flat, counts, labels in batch]))


def loss_and_gradients(model, batch):
    """Analytic gradient of tagging_loss w.r.t. weights and bias."""
    grad_w = np.zeros_like(model.weights)
    grad_b = np.zeros_like(model.bias)
    total = 0.0
    for flat, counts, labels in batch:
        ids = feature_rows(flat, counts)
        probs = _tag_probabilities(model, ids)
        n = len(labels)
        picked = np.maximum(probs[np.arange(n), labels], PROB_FLOOR)
        total += float(-np.mean(np.log(picked)))
        delta = probs.copy()
        delta[np.arange(n), labels] -= 1.0
        delta /= n * len(batch)
        grad_b += delta.sum(axis=0)
        for i, row in enumerate(ids):
            if len(row):
                grad_w[:, row] += delta[i][:, None]
    return total / len(batch), grad_w, grad_b


def train_tagger(examples, cfg, space):
    """`train.train_tagger` with Adam as it was first written: four moment
    arrays, each rebuilt on every step, and the weights and the bias
    updated by separate statements. The gradients and losses come from
    the package, so a difference lies in the update."""
    if not examples:
        raise ValueError("empty training corpus")
    model = TaggerModel.zeros(space)
    rng = np.random.default_rng(cfg.seed)
    m_w = np.zeros_like(model.weights)
    v_w = np.zeros_like(model.weights)
    m_b = np.zeros_like(model.bias)
    v_b = np.zeros_like(model.bias)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    lr = cfg.learning_rate
    losses: list[float] = []
    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(examples), cfg.batch_size):
            batch = [examples[i] for i in order[start:start + cfg.batch_size]]
            loss, grad_w, grad_b = tagger_loss_and_gradients(model, batch)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    "non-finite loss; lower the learning rate")
            grad_w, grad_b = train_clip(grad_w, grad_b)
            step += 1
            m_w = beta1 * m_w + (1 - beta1) * grad_w
            v_w = beta2 * v_w + (1 - beta2) * grad_w ** 2
            m_b = beta1 * m_b + (1 - beta1) * grad_b
            v_b = beta2 * v_b + (1 - beta2) * grad_b ** 2
            m_w_hat = m_w / (1 - beta1 ** step)
            v_w_hat = v_w / (1 - beta2 ** step)
            m_b_hat = m_b / (1 - beta1 ** step)
            v_b_hat = v_b / (1 - beta2 ** step)
            model.weights -= lr * m_w_hat / (np.sqrt(v_w_hat) + eps)
            model.bias -= lr * m_b_hat / (np.sqrt(v_b_hat) + eps)
        epoch_loss = tagger_tagging_loss(model, examples)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged("non-finite loss; lower the learning rate")
        losses.append(epoch_loss)
    return model, losses


# ---------------------------------------------------------------------------
# The explainer's bridge as it was before the closed form: one tagging call
# per sentence, and for each explained head piece a dense input vector, a
# one-layer `FeedForwardNet` and the generic (K, H) `lrp` or `sensitivity`;
# each feature's word offset comes from splitting its name.

_CONTEXT_OFFSET = {"prev": -1, "prevcase": -1, "next": 1, "nextcase": 1}


def _feature_offset(model: TaggerModel, fid: int) -> int:
    """Word offset of the position a feature describes (-1, 0 or +1)."""
    family = model.space.name(fid).split("=", 1)[0]
    return _CONTEXT_OFFSET.get(family, 0)


def sentence_token_relevance(model: TaggerModel, encoded: EncodedSentence,
                             method: str = "lrp", epsilon: float = 0.01,
                             delta: float = 1.0) -> np.ndarray:
    """Per-word relevance toward the predicted entity tags."""
    rows = feature_rows(encoded.flat, encoded.counts)
    probs = _tag_probabilities(model, rows)
    tags = probs.argmax(axis=1)
    # one model, so its type name is any constant: only the spans count
    mentions = decode_entities(encoded, {"Gene": (tags, probs)})
    scores = np.zeros(len(encoded.words))
    entity_words = {i for m in mentions for i in range(m.start, m.end)}
    net = FeedForwardNet([Layer(model.weights, model.bias, "identity")])
    for pos, (word_idx, head) in enumerate(zip(encoded.word_of_piece,
                                               encoded.is_head_piece)):
        if word_idx < 0 or not head or word_idx not in entity_words:
            continue
        ids = rows[pos]
        x = np.zeros(model.hidden_size)
        x[ids] = 1.0
        target = int(net.output(x).argmax())
        if method == "lrp":
            rmap = lrp(net, x, target, epsilon=epsilon, delta=delta)
        elif method == "sensitivity":
            rmap = sensitivity(net, x, target)
        else:
            raise ValueError(f"unknown method {method!r}")
        for fid in ids:
            target_word = word_idx + _feature_offset(model, int(fid))
            if 0 <= target_word < len(scores):
                scores[target_word] += rmap.scores[fid]
    return scores


def explain_json(checkpoint, text: str, method: str = "lrp",
                 epsilon: float = 0.01, delta: float = 1.0) -> str:
    """`explain --format json` as it was printed: each sentence encoded and
    explained on its own, through the per-piece bridge above."""
    space = next(iter(checkpoint.models.values())).space
    tokens: list[str] = []
    scores: list[float] = []
    for words in preprocess(text).sentences:
        encoded, = tagger_encode_sentence([words], checkpoint.vocab, space,
                                          checkpoint.gazetteers)
        combined = np.zeros(len(words))
        for model in checkpoint.models.values():
            combined += sentence_token_relevance(model, encoded, method,
                                                 epsilon, delta)
        tokens.extend(words)
        scores.extend(combined.tolist())
    return json.dumps({
        "tokens": tokens, "scores": scores, "method": method,
        "epsilon": epsilon, "delta": delta,
    }, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The decoder as it was before it decoded groups: one sentence at a time,
# each type's word tags projected piece by piece, spans found word by word
# (a dangling I logged and repaired as it is met), and one np.mean per span.

_decode_log = logging.getLogger(__name__ + ".decode")


def word_level_tags(encoded: EncodedSentence, tags, probabilities
                    ) -> tuple[list[str], list[float]]:
    """Project piece-level tags onto words via each word's head piece."""
    if len(tags) != len(encoded.pieces) or len(probabilities) != len(tags):
        raise ValueError("tags/probabilities misaligned with pieces")
    word_tags = ["O"] * len(encoded.words)
    word_probs = [1.0] * len(encoded.words)
    tag_ids = np.asarray(tags)
    picked = probabilities[np.arange(len(tag_ids)), tag_ids].tolist()
    for word_idx, head, tag_id, prob in zip(encoded.word_of_piece,
                                            encoded.is_head_piece,
                                            tag_ids.tolist(), picked):
        if word_idx < 0 or not head:
            continue
        tag = TAGS[tag_id]
        if tag in ("X", "[CLS]", "[SEP]", "PAD"):
            tag = "O"
        word_tags[word_idx] = tag
        word_probs[word_idx] = prob
    return word_tags, word_probs


def find_spans(word_tags) -> list[tuple[int, int]]:
    """Maximal B I* spans; a dangling I opens a new span (decode repair)."""
    spans = []
    start = None
    for i, tag in enumerate(word_tags):
        if tag == "B":
            if start is not None:
                spans.append((start, i))
            start = i
        elif tag == "I":
            if start is None:
                _decode_log.warning("I tag without preceding B at word %d; "
                                    "treating it as B", i)
                start = i
        else:
            if start is not None:
                spans.append((start, i))
                start = None
    if start is not None:
        spans.append((start, len(word_tags)))
    return spans


def _span_candidates(word_tags, word_probs, entity_type):
    out = []
    for start, end in find_spans(word_tags):
        score = float(np.mean(word_probs[start:end]))
        out.append((start, end, entity_type, score))
    return out


def decode_entities(encoded: EncodedSentence, tagged,
                    sentence_index: int = 0) -> list[EntityMention]:
    """Merge the per-type tag sequences into typed, non-overlapping
    mentions."""
    candidates = []
    for entity_type in sorted(tagged):
        tags, probs = tagged[entity_type]
        word_tags, word_probs = word_level_tags(encoded, tags, probs)
        candidates.extend(_span_candidates(word_tags, word_probs,
                                           entity_type))
    ordered = sorted(candidates,
                     key=lambda c: (-c[3], c[2], c[0], c[1]))
    taken: list[tuple[int, int]] = []
    mentions = []
    for start, end, etype, score in ordered:
        if any(s < end and start < e for s, e in taken):
            continue
        taken.append((start, end))
        mentions.append(EntityMention(
            sentence_index=sentence_index, start=start, end=end,
            surface=" ".join(encoded.words[start:end]),
            entity_type=etype, score=score))
    mentions.sort(key=lambda m: (m.start, m.end))
    return mentions


def spans_by_regex(tags: list[str]) -> list[tuple[int, int]]:
    """Reference span finder over the word-level tag string."""
    import re
    text = "".join({"B": "B", "I": "I"}.get(t, "O") for t in tags)
    out = []
    for m in re.finditer(r"BI*|(?<!B)(?<!I)I+", text):
        out.append((m.start(), m.end()))
    return out


# ---------------------------------------------------------------------------
# N-Triples parsing by scanning every line character by character, the
# parser as it was before it worked in term-id space: every term of every
# line is read and validated, and each triple goes through Graph.insert.

_NT_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


class _NtScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_term(self) -> Term:
        self.skip_ws()
        ch = self.peek()
        if ch == "<":
            return self._read_iri()
        if ch == '"':
            return self._read_literal()
        if ch == "_" and self.text[self.pos:self.pos + 2] == "_:":
            return self._read_blank()
        if ch == "":
            raise ValidationError("unexpected end of line, expected a term")
        raise ValidationError(f"unexpected character {ch!r}, expected a term")

    def _read_iri(self) -> Term:
        end = self.text.find(">", self.pos + 1)
        if end < 0:
            raise ValidationError("unterminated IRI (missing '>')")
        value = self.text[self.pos + 1:end]
        self.pos = end + 1
        if ":" not in value:
            raise ValidationError(f"relative IRI not allowed: <{value}>")
        if any(c in value for c in ' "<'):
            raise ValidationError(f"invalid character in IRI: <{value}>")
        return iri(value)

    def _read_blank(self) -> Term:
        self.pos += 2
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] in "_-"):
            self.pos += 1
        label = self.text[start:self.pos]
        if not label:
            raise ValidationError("blank node with empty label")
        return blank(label)

    def _read_literal(self) -> Term:
        self.pos += 1
        out = []
        while True:
            if self.pos >= len(self.text):
                raise ValidationError("unterminated literal")
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                break
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    raise ValidationError("unterminated literal")
                esc = self.text[self.pos + 1]
                if esc not in _NT_ESCAPES:
                    raise ValidationError(f"unsupported escape \\{esc}")
                out.append(_NT_ESCAPES[esc])
                self.pos += 2
                continue
            out.append(ch)
            self.pos += 1
        value = "".join(out)
        if self.text[self.pos:self.pos + 2] == "^^":
            self.pos += 2
            if self.peek() != "<":
                raise ValidationError("datatype must be an IRI in angle brackets")
            dt = self._read_iri()
            return literal(value, datatype=dt.lexical)
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                                 or self.text[self.pos] == "-"):
                self.pos += 1
            tag = self.text[start:self.pos]
            if not tag:
                raise ValidationError("empty language tag")
            return literal(value, language=tag)
        return literal(value)

    def read_terminator(self):
        self.skip_ws()
        if self.peek() != ".":
            raise ValidationError("missing '.' terminator")
        self.pos += 1
        self.skip_ws()
        rest = self.text[self.pos:]
        if rest and not rest.startswith("#"):
            raise ValidationError(f"unexpected trailing content {rest!r}")


def parse_ntriples_scan(text: str) -> tuple[Graph, list[tuple[int, str]]]:
    """The graph and the (line, message) issues of an N-Triples text."""
    graph = Graph()
    issues: list[tuple[int, str]] = []
    blank_map: dict[str, Term] = {}
    counter = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        scanner = _NtScanner(raw)
        try:
            s = scanner.read_term()
            p = scanner.read_term()
            o = scanner.read_term()
            scanner.read_terminator()
            Triple(s, p, o)     # the kinds, before a blank takes a label
            if s.kind == BLANK:
                if s.lexical not in blank_map:
                    blank_map[s.lexical] = blank(f"b{counter}")
                    counter += 1
                s = blank_map[s.lexical]
            if o.kind == BLANK:
                if o.lexical not in blank_map:
                    blank_map[o.lexical] = blank(f"b{counter}")
                    counter += 1
                o = blank_map[o.lexical]
            graph.insert(Triple(s, p, o))
        except ValidationError as exc:
            issues.append((lineno, str(exc)))
    return graph, issues


# ---------------------------------------------------------------------------
# N-Triples serialization as one f-string per line over Term triples: every
# term is rendered character by character here, and the graph is asked only
# for the id of each term, never for its triples.

_NT_ESCAPED = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"}


def _n3_scan(term: Term) -> str:
    kind, lexical, datatype, language = term
    if kind == "iri":
        return f"<{lexical}>"
    if kind == "blank":
        return f"_:{lexical}"
    body = "".join(_NT_ESCAPED.get(ch, ch) for ch in lexical)
    if datatype is not None:
        return f'"{body}"^^<{datatype}>'
    if language is not None:
        return f'"{body}"@{language}'
    return f'"{body}"'


def serialize_ntriples_scan(graph: Graph, triples) -> str:
    """The N-Triples text of the distinct Term `triples`, one line each,
    sorted by the ids `graph.term_id` gives their subject, predicate and
    object: the text a save of a graph holding exactly them writes."""
    rows = sorted(set(map(tuple, triples)),
                  key=lambda row: [graph.term_id(term) for term in row])
    return "".join(f"{_n3_scan(s)} {_n3_scan(p)} {_n3_scan(o)} .\n"
                   for s, p, o in rows)


# ---------------------------------------------------------------------------
# Relation templates as element tuples, each tried at every position of the
# anonymized sentence by a token-by-token scan: the reference for the
# regular expressions of `relations.PATTERNS`. An optional literal is taken
# whenever it matches, with no backtracking.

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
class Template:
    elements: tuple
    label: str
    confidence: float
    subject_slot: str   # G | D | TYPE | CONTEXT
    object_slot: str    # G | D | TYPE | SOURCE | DISEASE_CLASS


TEMPLATES = (
    # responsible-for
    Template((SLOT_G, lit("is", "are", "was", "were"), lit("responsible"),
              lit("for"), opt("a", "the"), opt("disease"), opt("called"),
              SLOT_D),
             "causes", 0.95, SLOT_G, SLOT_D),
    # causes-verb
    Template((SLOT_G, lit("causes", "cause", "caused"), SLOT_D),
             "causes", 0.95, SLOT_G, SLOT_D),
    # mutations-in
    Template((lit("mutations"), lit("in"), SLOT_G,
              lit("are", "is", "were"), lit("associated", "linked"),
              lit("with"), SLOT_D),
             "causes", 0.85, SLOT_G, SLOT_D),
    # driven-by
    Template((SLOT_D, lit("is"), opt("a"), opt("disease"),
              lit("driven", "caused"), lit("by"), SLOT_G),
             "causes", 0.85, SLOT_G, SLOT_D),
    # has-functionality
    Template((SLOT_G, lit("has"), SLOT_TYPE, lit("functionality")),
             "hasType", 0.95, SLOT_G, SLOT_TYPE),
    # is-a-type
    Template((SLOT_G, lit("is"), lit("a", "an"), SLOT_TYPE),
             "isA", 0.9, SLOT_G, SLOT_TYPE),
    # disease-called
    Template((lit("a", "the"), lit("disease"), lit("called"), SLOT_D),
             "isA", 0.9, SLOT_D, "DISEASE_CLASS"),
    # mentioned-in
    Template((lit("mentioned", "cited"), lit("in"),
              opt("numerous", "several", "many"), SLOT_SOURCE,
              lit("articles", "publications", "literature")),
             "hasEvidence", 0.9, "CONTEXT", SLOT_SOURCE),
)


@dataclass
class AnonToken:
    """One token of an anonymized sentence: a word, with the type and
    source terms its lowercased text names, or one mention's slot."""
    text: str
    mention: Optional[EntityMention] = None
    type_term: Optional[Term] = None
    source_term: Optional[Term] = None


def anonymize(words, mentions) -> list:
    """The sentence as `AnonToken`s, each kept mention's words replaced by
    its one slot token. A mention whose lowercased surface is a type or
    source word is not kept; of the kept mentions that start at a word, the
    last one given wins, and the words it covers are skipped."""
    kept = [m for m in mentions
            if m.surface.lower() not in relations._TYPE_LEXICON
            and m.surface.lower() not in relations._SOURCE_LEXICON]
    tokens = []
    position = 0
    while position < len(words):
        starting = [m for m in kept if m.start == position]
        if starting:
            mention = starting[-1]
            slot = relations.GENE_SLOT if mention.entity_type == "Gene" \
                else relations.DISEASE_SLOT
            tokens.append(AnonToken(slot, mention=mention))
            position = mention.end
        else:
            word = words[position].lower()
            tokens.append(AnonToken(
                words[position],
                type_term=relations._TYPE_LEXICON.get(word),
                source_term=relations._SOURCE_LEXICON.get(word)))
            position += 1
    return tokens


def _match_at_scan(tokens, start: int, template: Template) -> Optional[dict]:
    captures: dict = {}
    pos = start
    for element in template.elements:
        token = tokens[pos] if pos < len(tokens) else None
        if isinstance(element, Lit):
            if token is not None and token.mention is None \
                    and token.text.lower() in element.options:
                pos += 1
            elif not element.optional:
                return None
            continue
        if token is None:
            return None
        if element == SLOT_G:
            if token.text != relations.GENE_SLOT:
                return None
        elif element == SLOT_D:
            if token.text != relations.DISEASE_SLOT:
                return None
        elif element == SLOT_TYPE:
            if token.type_term is None:
                return None
        elif element == SLOT_SOURCE:
            if token.source_term is None:
                return None
        captures.setdefault(element, token)
        pos += 1
    captures["_start"] = start
    return captures


def _slot_term_scan(slot: str, captures: dict, tokens) -> Optional[Term]:
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


def match_patterns_scan(tokens, doc_id: str) -> list:
    """`relations.extract_relations` on the sentence that `anonymize` gave
    as `tokens`, with every template of `TEMPLATES` tried at every
    position: candidates template by template, then by start position."""
    text = " ".join(token.text for token in tokens)
    candidates = []
    covered_pairs: set[tuple[int, int]] = set()
    seen: set[tuple] = set()
    for template in TEMPLATES:
        for start in range(len(tokens)):
            captures = _match_at_scan(tokens, start, template)
            if captures is None:
                continue
            subject = _slot_term_scan(template.subject_slot, captures, tokens)
            object_ = _slot_term_scan(template.object_slot, captures, tokens)
            if subject is None or object_ is None:
                continue
            key = (template.label, subject, object_)
            if key in seen:
                continue
            seen.add(key)
            gene = captures.get(SLOT_G)
            disease = captures.get(SLOT_D)
            if gene is not None and disease is not None:
                covered_pairs.add((gene.mention.start, disease.mention.start))
            candidates.append(relations.RelationCandidate(
                doc_id=doc_id, anonymized=text, label=template.label,
                confidence=template.confidence, subject=subject,
                object=object_))
    genes = [t.mention for t in tokens
             if t.mention is not None and t.mention.entity_type == "Gene"]
    diseases = [t.mention for t in tokens
                if t.mention is not None
                and t.mention.entity_type == "Disease"]
    for g in genes:
        for d in diseases:
            if (g.start, d.start) not in covered_pairs:
                candidates.append(relations.RelationCandidate(
                    doc_id=doc_id, anonymized=text, label="none",
                    confidence=0.0, subject=g.normalized_id,
                    object=d.normalized_id))
    return candidates


# ---------------------------------------------------------------------------
# KG enrichment as set algebra over the triple set

_RELATION = {"causes": ONO + "causes", "hasType": ONO + "hasType",
             "isA": ONO + "isA", "hasEvidence": ONO + "hasEvidence"}


def enriched(graph: Graph, candidates, threshold: float):
    """What enriching `graph` with `candidates` should give: the report's
    counts, and the graph's triple set afterwards.

    A candidate is rejected when its label is "none" or its confidence is
    below `threshold`, and accepted otherwise. An accepted triple that the
    graph already holds, or that an earlier candidate added, is a
    duplicate; every accepted candidate, duplicate or not, adds the four
    triples that reify its triple: a statement node named by the SHA-1 of
    the triple's N-Triples terms, with its subject, predicate, object and
    the candidate's source document.
    """
    triples = set(_scan(graph))
    report = {"proposed": len(candidates), "accepted": 0, "duplicates": 0,
              "rejected": 0, "newly_added": 0}
    for candidate in candidates:
        if candidate.label == "none" or candidate.confidence < threshold:
            report["rejected"] += 1
            continue
        report["accepted"] += 1
        triple = Triple(candidate.subject, iri(_RELATION[candidate.label]),
                        candidate.object)
        if triple in triples:
            report["duplicates"] += 1
        else:
            report["newly_added"] += 1
            triples.add(triple)
        key = "\x1f".join(term.n3() for term in triple)
        node = iri(NORM + "stmt/"
                   + hashlib.sha1(key.encode("utf-8")).hexdigest()[:16])
        triples.update(Triple(node, iri(RDF + name), value) for name, value
                       in (("subject", triple.subject),
                           ("predicate", triple.predicate),
                           ("object", triple.object)))
        triples.add(Triple(node, iri(ONO + "sourceDocument"),
                           literal(candidate.doc_id)))
    return report, triples


# ---------------------------------------------------------------------------
# random structure generators

EX = "http://example.org/x#"


FOREIGN = "http://elsewhere.org/y#"

_TYPED_LEXICALS = ("12", "-3", "+7", "1.5", ".5", "5.", "abc", "", "true",
                   "0", "yes", "2020-02-29", "2021-02-29", "2020-13-01",
                   "20-01-01")
# lexical forms that a `$` anchor or a \d class would let through
_LEXICAL_TRAPS = (("12\n", "integer"), ("\u0661\u0662", "integer"),
                  ("1.\u0665", "decimal"), ("true\n", "boolean"),
                  ("2020-02-29\n", "date"),
                  ("\u0662\u0660\u0662\u0660-02-29", "date"))


def random_graph(rng: np.random.Generator, max_triples: int = 200,
                 planted: bool = False) -> Graph:
    """A random graph over a few entities, classes and properties.

    `planted` adds what the quality metrics and pitfall checks look for:
    foreign IRIs, blank nodes, owl:sameAs links, labels under two label
    predicates, xsd literals of good and bad lexical form, `ex:hasCitations`
    counts around the range 0..20, subjects with equal descriptions,
    subclass cycles, properties with several domains or ranges, and class
    and property names in the ONO namespace, some badly cased or ending
    in a tab.
    """
    graph = Graph()
    entities = [iri(EX + f"e{i}") for i in range(rng.integers(4, 16))]
    classes = [iri(EX + f"C{i}") for i in range(rng.integers(2, 6))]
    props = [iri(EX + f"p{i}") for i in range(rng.integers(2, 5))]
    # acyclic hierarchy: edges only from lower to strictly higher index
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if rng.random() < 0.3:
                graph.insert(Triple(classes[i], RDFS_SUBCLASS, classes[j]))
    graph.insert(Triple(entities[0], RDF_TYPE, classes[0]))
    n = int(rng.integers(1, max_triples))
    for _ in range(n):
        kind = rng.random()
        if kind < 0.35:
            graph.insert(Triple(entities[rng.integers(len(entities))],
                                RDF_TYPE,
                                classes[rng.integers(len(classes))]))
        elif kind < 0.85:
            graph.insert(Triple(entities[rng.integers(len(entities))],
                                props[rng.integers(len(props))],
                                entities[rng.integers(len(entities))]))
        else:
            graph.insert(Triple(entities[rng.integers(len(entities))],
                                props[rng.integers(len(props))],
                                literal(str(rng.integers(0, 50)))))
    if planted:
        _plant(rng, graph, entities, classes, props, max_triples)
    return graph


def _plant(rng, graph, entities, classes, props, max_triples) -> None:
    def pick(items):
        return items[int(rng.integers(len(items)))]

    foreign = [iri(FOREIGN + f"f{i}") for i in range(3)]
    blanks = [blank(f"n{i}") for i in range(2)]
    looped = classes[-1]    # the source of the planted subclass cycles
    classes = classes + [iri(ONO + "Tumour"), iri(ONO + "bad_class"),
                         iri(ONO + "Lesion\t")]
    props = props + [iri(ONO + "hasPart"), iri(ONO + "BadProp"),
                     iri(ONO + "hasStage\t")]
    subjects = entities + blanks + foreign[:1]
    datatypes = [XSD + name for name in ("integer", "decimal", "boolean",
                                         "date", "string")]
    for _ in range(int(rng.integers(1, max(2, max_triples // 3)))):
        kind = int(rng.integers(10))
        s = pick(subjects)
        if kind == 0:
            graph.insert(Triple(s, pick(props), pick(foreign + blanks)))
        elif kind == 1:
            graph.insert(Triple(s, OWL_SAMEAS, pick(foreign + entities)))
        elif kind == 2 and rng.random() < 0.3:
            lexical, datatype = pick(_LEXICAL_TRAPS)
            graph.insert(Triple(s, iri(EX + "value"), literal(
                lexical, datatype=XSD + datatype)))
        elif kind == 2:
            graph.insert(Triple(s, iri(EX + "value"), literal(
                pick(_TYPED_LEXICALS), datatype=pick(datatypes))))
        elif kind == 3:
            graph.insert(Triple(s, iri(EX + "hasCitations"), literal(
                str(rng.integers(-5, 30)), datatype=XSD + "integer")))
        elif kind == 4:
            graph.insert(Triple(s, pick([RDFS_LABEL, iri(EX + "name")]),
                                literal(f"l{rng.integers(3)}")))
        elif kind == 5:
            graph.insert(Triple(s, RDF_TYPE, pick(classes)))
        elif kind == 6:
            twin = iri(EX + f"twin{rng.integers(4)}")
            graph.insert(Triple(twin, iri(EX + "note"), literal("same")))
        elif kind == 7 and rng.random() < 0.3:
            graph.insert(Triple(looped, RDFS_SUBCLASS, pick(classes)))
        elif kind == 8:
            prop, position = pick(props), pick([RDFS_DOMAIN, RDFS_RANGE])
            for _ in range(2):
                graph.insert(Triple(prop, position, pick(classes)))
        else:
            graph.insert(Triple(s, pick(props), pick(entities)))


def graph_vocabulary(graph: Graph):
    classes = sorted({t.object for t in graph.match(None, RDF_TYPE, None)}
                     | {x for t in graph.match(None, RDFS_SUBCLASS, None)
                        for x in (t.subject, t.object)},
                     key=lambda t: t.lexical)
    props = sorted({t.predicate for t in graph.match()}
                   - {RDF_TYPE, RDFS_SUBCLASS}, key=lambda t: t.lexical)
    individuals = sorted({t.subject for t in graph.match(None, RDF_TYPE,
                                                         None)},
                         key=lambda t: t.lexical)
    return classes, props, individuals


def random_dl_expr(rng: np.random.Generator, graph: Graph, depth: int = 3):
    classes, props, individuals = graph_vocabulary(graph)
    names = classes + individuals

    def atom():
        return dlx.Atomic(names[rng.integers(len(names))])

    def prop_ref():
        return dlx.PropRef(props[rng.integers(len(props))],
                           inverse=bool(rng.random() < 0.25))

    def build(level: int):
        if level <= 0 or not props:
            return atom()
        choice = rng.random()
        if choice < 0.2:
            return dlx.And(tuple(build(level - 1)
                                 for _ in range(rng.integers(2, 4))))
        if choice < 0.4:
            return dlx.Or(tuple(build(level - 1)
                                for _ in range(rng.integers(2, 4))))
        if choice < 0.6:
            return dlx.Some(prop_ref(), build(level - 1))
        if choice < 0.8:
            return dlx.Only(prop_ref(), build(level - 1))
        if choice < 0.9:
            return dlx.MinCard(prop_ref(), int(rng.integers(0, 4)))
        return dlx.MaxCard(prop_ref(), int(rng.integers(0, 4)))

    return build(depth)


def random_sparql_query(rng: np.random.Generator, graph: Graph
                        ) -> SelectQuery:
    from onokg.kg import literal
    classes, props, individuals = graph_vocabulary(graph)
    pool = classes + props + individuals
    var_names = ["a", "b", "c"]

    def node(position: int):
        roll = rng.random()
        if roll < 0.55:
            return Var(var_names[rng.integers(len(var_names))])
        if position == 1:
            options = props + [RDF_TYPE]
            return options[rng.integers(len(options))]
        if position == 2 and roll < 0.65:
            return literal(str(rng.integers(0, 50)))
        return pool[rng.integers(len(pool))]

    patterns = []
    for _ in range(int(rng.integers(1, 4))):
        patterns.append(TriplePattern(node(0), node(1), node(2)))
    scope = sorted({v for p in patterns for v in p.variables()})
    values = None
    if rng.random() < 0.3 and individuals:
        extra = "v"
        terms = tuple(individuals[rng.integers(len(individuals))]
                      for _ in range(int(rng.integers(1, 3))))
        values = Values(Var(extra), terms)
        scope.append(extra)
    if not scope:
        patterns.append(TriplePattern(Var("a"), RDF_TYPE, Var("b")))
        scope = ["a", "b"]
    projection = [Var(v) for v in
                  sorted(rng.choice(scope,
                                    size=int(rng.integers(1,
                                                          len(scope) + 1)),
                                    replace=False))]
    filters = []
    if rng.random() < 0.4:
        target = Var(scope[rng.integers(len(scope))])
        if rng.random() < 0.5:
            filters.append(Regex(target, "^e"))
        else:
            filters.append(Comparison(">=", target,
                                      literal(str(rng.integers(0, 50)))))
    distinct = bool(rng.random() < 0.5)
    group_by = list(projection) if rng.random() < 0.3 else []
    return SelectQuery(projection, distinct, patterns, values, filters,
                       group_by)


def random_rich_sparql_query(rng: np.random.Generator, graph: Graph,
                             depth: int = 1,
                             names: Optional[dict] = None) -> SelectQuery:
    """Like `random_sparql_query`, but reaching the cases a join planner
    and filter push-down can get wrong: sub-selects whose inner variables
    stay hidden, `&&` of 2-3 conjuncts under `||` and `!`, filters over a
    variable no pattern binds, VALUES terms the graph lacks or repeats, a
    variable repeated in one pattern, and constants the graph lacks.

    Patterns are walks over stored triples, so that joins often match:
    `names` maps a term to the variable that stands for it.
    """
    from onokg.kg import literal
    individuals = graph_vocabulary(graph)[2]
    ghosts = [iri(EX + "ghost"), literal("77")]
    names = {} if names is None else names
    # a sub-select's own variables may reuse an outer name for another
    # term; unprojected, they must stay hidden from the outer query
    fresh = ["a", "b", "c"] if depth else ["c", "h"]

    def pick(items):
        return items[int(rng.integers(len(items)))]

    def node(term: Term, position: int):
        roll = rng.random()
        if roll < 0.05:
            return pick(ghosts)
        if term in names and roll < 0.8:
            return Var(names[term])
        unused = [n for n in fresh if n not in names.values()]
        if unused and roll < (0.3 if position == 1 else 0.7):
            names[term] = unused[0]
            return Var(unused[0])
        if roll > 0.95:  # a variable already standing for another term
            return Var(pick(fresh))
        return term

    triples = graph.match()
    pattern = []
    for _ in range(int(rng.integers(1, 4 if depth else 3))):
        linked = [t for t in triples if any(x in names for x in t)]
        triple = pick(linked if linked and rng.random() < 0.8 else triples)
        s, p, o = (node(term, i) for i, term in enumerate(triple))
        if rng.random() < 0.1:
            o = s = Var(pick(fresh))
        pattern.append(TriplePattern(s, p, o))
    scope = {v for t in pattern for v in t.variables()}
    if depth and rng.random() < 0.35:
        sub = random_rich_sparql_query(rng, graph, depth - 1, dict(names))
        pattern.insert(int(rng.integers(len(pattern) + 1)), SubSelect(sub))
        scope |= {v.name for v in sub.projection}
    values = None
    if rng.random() < 0.4:
        name = pick(sorted(scope) + ["v"])
        known = [t for t, n in names.items() if n == name]
        terms = tuple(pick(known * 3 + individuals + ghosts)
                      for _ in range(int(rng.integers(1, 5))))
        values = Values(Var(name), terms)
        scope.add(name)
    if not scope:
        pattern.append(TriplePattern(Var("a"), RDF_TYPE, Var("b")))
        scope = {"a", "b"}
    scope = sorted(scope)

    def leaf():
        # ?z is never bound
        target = Var("z" if rng.random() < 0.1 else pick(scope))
        roll = rng.random()
        if roll < 0.3:
            return Regex(target, pick(["^1", "5", "^e"]))
        op = pick([">=", "<=", ">", "<", "="])
        if roll < 0.45:
            return Comparison(op, target, Var(pick(scope)))
        return Comparison(op, target, literal(str(rng.integers(0, 50))))

    def expr(level: int):
        roll = rng.random()
        if level <= 0 or roll < 0.35:
            return leaf()
        if roll < 0.65:
            return AndExpr(tuple(expr(level - 1)
                                 for _ in range(int(rng.integers(2, 4)))))
        if roll < 0.85:
            return OrExpr(tuple(expr(level - 1)
                                for _ in range(int(rng.integers(2, 4)))))
        return NotExpr(expr(level - 1))

    filters = [expr(2) for _ in range(int(rng.integers(0, 3)))]
    projection = [Var(v) for v in
                  sorted(rng.choice(scope, size=int(rng.integers(
                      1, len(scope) + 1)), replace=False))]
    distinct = bool(rng.random() < 0.5)
    group_by = list(projection) if rng.random() < 0.3 else []
    return SelectQuery(projection, distinct, pattern, values, filters,
                       group_by)
