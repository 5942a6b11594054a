"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion NN PASS|FAIL` line (visible with -s or in
captured output), and the assertions carry the stated tolerances.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import encode_word_tags
from oracles import (central_difference, dl_instances, random_dl_expr,
                     random_graph, random_sparql_query, sparql_rows)
from onokg import dlx
from onokg.explain import (FeedForwardNet, Layer,
                           SingularDenominatorError, gradient, lrp,
                           sensitivity)
from onokg.ie import corpus as corpus_mod
from onokg.ie.decode import find_spans
from onokg.ie.linking import AliasTable
from onokg.ie.pipeline import extract_document
from onokg.ie.preprocess import preprocess
from onokg.ie.tagger import (Checkpoint, K, TaggerModel, tag_probabilities,
                             tagging_loss, loss_and_gradients)
from onokg.ie.wordpiece import demo_vocab
from onokg.kg import Graph, Triple, iri, literal, typed_int
from onokg.ntriples import parse_ntriples, serialize_ntriples
from onokg.ontology import (RDF_TYPE, RDFS_DOMAIN, RDFS_SUBCLASS, SCHEMA,
                            check_ontology_pitfalls, data_path, ono)
from onokg.quality import QualityConfig, assess
from onokg.sparql import evaluate as sparql_evaluate
from onokg.sparql import parse_select, run_query_pack
from onokg.ontology import default_prefixes

from test_quality import fixture_config, planted_defect_graph
from test_tagger import random_ids, random_model


def _report(number: int, passed: bool, description: str):
    state = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} {state}  {description}")
    assert passed, f"criterion {number}: {description}"


# -------------------------------------------------------------------- 1

def test_criterion_01_seed_cardinalities(seed_graph):
    potsf = {t.subject for t in seed_graph.match(None, SCHEMA.has_type,
                                                 SCHEMA.potsf)}
    cancers = {t.subject for t in seed_graph.match(None, RDF_TYPE,
                                                   SCHEMA.cancer)}
    _report(1, len(potsf) == 83 and len(cancers) == 34,
            "seed has exactly 83 POTSF biomarkers and 33+1 cancers")


# -------------------------------------------------------------------- 2

def test_criterion_02_tp53_associations(seed_graph):
    hits = set(dlx.query(seed_graph, "Cancer and inverse causes some TP53"))
    expected = {ono("BRCA"), ono("OV"), ono("MED"), ono("PRAD")}
    _report(2, hits == expected,
            "inverse-causes retrieval for TP53 is exactly "
            "{BRCA, OV, MED, PRAD}")


# -------------------------------------------------------------------- 3

def test_criterion_03_dl_oracle_equivalence(fixtures_graph):
    start = time.perf_counter()
    mismatches = 0
    with open(data_path("dlx_pack.json"), encoding="utf-8") as fh:
        pack = json.load(fh)
    assert len(pack) == 17
    index = dlx.AboxIndex(fixtures_graph)
    for entry in pack:
        expr = dlx.parse_dlx(entry["expression"], fixtures_graph)
        if set(map(fixtures_graph.term, index.evaluate(expr))) != \
                dl_instances(fixtures_graph, expr):
            mismatches += 1
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 200:
        graph = random_graph(rng, max_triples=200)
        graph_index = dlx.AboxIndex(graph)
        for _ in range(4):
            expr = random_dl_expr(rng, graph, depth=3)
            if set(map(graph.term, graph_index.evaluate(expr))) != \
                    dl_instances(graph, expr):
                mismatches += 1
            checked += 1
            if checked >= 200:
                break
    elapsed = time.perf_counter() - start
    _report(3, mismatches == 0 and elapsed < 10.0,
            f"17 pack + 200 random class expressions equal the brute-force "
            f"oracle in {elapsed:.1f}s (< 10 s)")


# -------------------------------------------------------------------- 4

def test_criterion_04_sparql_oracle_equivalence(fixtures_graph):
    start = time.perf_counter()
    mismatches = 0
    for result in run_query_pack(fixtures_graph):
        query = parse_select(result.text, default_prefixes())
        oracle = sorted(sparql_rows(fixtures_graph, query), key=repr)
        if sorted(result.table.rows, key=repr) != oracle:
            mismatches += 1
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 200:
        graph = random_graph(rng, max_triples=200)
        for _ in range(4):
            query = random_sparql_query(rng, graph)
            engine = sorted(sparql_evaluate(graph, query).rows, key=repr)
            if engine != sorted(sparql_rows(graph, query), key=repr):
                mismatches += 1
            checked += 1
            if checked >= 200:
                break
    elapsed = time.perf_counter() - start
    _report(4, mismatches == 0 and elapsed < 20.0,
            f"5-query pack + 200 random subset queries equal the "
            f"brute-force enumerator in {elapsed:.1f}s (< 20 s)")


# -------------------------------------------------------------------- 5

def test_criterion_05a_softmax_rows_sum_to_one():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        model = random_model(rng, hidden=10, scale=2.0)
        for _ in range(5):
            ids = random_ids(rng, model.hidden_size, 4)
            probs = tag_probabilities(model, ids)
            worst = max(worst, float(np.abs(probs.sum(axis=1) - 1).max()))
    _report(5, worst <= 1e-9,
            f"1000 random models/inputs: softmax rows sum to 1 "
            f"(worst deviation {worst:.2e} <= 1e-9)")


def test_criterion_05b_uniform_loss_is_ln7():
    rng = np.random.default_rng(106)
    model = random_model(rng, scale=0.0)
    ids = random_ids(rng, model.hidden_size, 17)
    labels = rng.integers(0, K, size=17)
    loss = tagging_loss(model, [(ids, labels)])
    _report(5, abs(loss - math.log(7)) <= 1e-9,
            "uniform model loss equals ln 7 within 1e-9")


def test_criterion_05c_head_gradients_match_fd():
    rng = np.random.default_rng(107)
    model = random_model(rng, hidden=5, scale=0.5)
    batch = []
    for _ in range(2):
        ids = random_ids(rng, model.hidden_size, 3)
        batch.append((ids, rng.integers(0, K, size=3)))
    _loss, grad_w, grad_b = loss_and_gradients(model, batch)
    flat = np.concatenate([model.weights.ravel(), model.bias])

    def loss_at(theta):
        trial = TaggerModel(model.space,
                            theta[:K * model.hidden_size].reshape(
                                K, model.hidden_size),
                            theta[K * model.hidden_size:])
        return tagging_loss(trial, batch)

    numeric = central_difference(loss_at, flat, h=1e-6)
    analytic = np.concatenate([grad_w.ravel(), grad_b])
    rel = (np.abs(analytic - numeric)
           / np.maximum(np.abs(numeric), 1e-8)).max()
    _report(5, rel < 1e-4,
            f"head gradients match central differences "
            f"(max relative error {rel:.2e} < 1e-4)")


def test_criterion_05d_trained_tagger_quality(trained):
    scores = corpus_mod.evaluate_entities(
        trained.models, trained.test_set, trained.vocab, trained.space,
        trained.gazetteers)
    decreasing = all(
        all(curve[i + 1] < curve[i] for i in range(4))
        for curve in trained.losses.values())
    _report(5, scores.precision >= 0.95 and scores.recall >= 0.95
            and decreasing,
            f"synthetic-corpus tagger: precision {scores.precision:.3f}, "
            f"recall {scores.recall:.3f} (>= 0.95), loss strictly "
            f"decreasing over the first 5 of 10 epochs")


# -------------------------------------------------------------------- 6

def test_criterion_06_wordpiece_example():
    pieces = demo_vocab().tokenize("syndromes")
    _report(6, pieces == ["s", "##yn", "##dr", "##om", "##es"],
            "'syndromes' tokenizes to [s, ##yn, ##dr, ##om, ##es]")


# -------------------------------------------------------------------- 7

def test_criterion_07_lrp_conservation():
    rng = np.random.default_rng(109)
    worst = 0.0
    done = 0
    while done < 500:
        sizes = (int(rng.integers(2, 7)), int(rng.integers(2, 7)),
                 int(rng.integers(2, 5)))
        layers = [Layer(rng.normal(size=(sizes[1], sizes[0])),
                        np.zeros(sizes[1]), "relu"),
                  Layer(rng.normal(size=(sizes[2], sizes[1])),
                        np.zeros(sizes[2]), "identity")]
        net = FeedForwardNet(layers)
        x = rng.normal(size=sizes[0])
        pres = [pre for pre, _ in net.forward(x)]
        if any(np.abs(pre).min() < 1e-9 for pre in pres):
            continue
        c = int(rng.integers(sizes[2]))
        rmap = lrp(net, x, c, epsilon=0.0, delta=1.0)
        f_c = net.output(x)[c]
        worst = max(worst, max(abs(s - f_c) for s in rmap.layer_sums))
        done += 1
    singular = FeedForwardNet([Layer(np.array([[1.0, -1.0]]),
                                     np.zeros(1))])
    raised = False
    try:
        lrp(singular, np.array([1.0, 1.0]), 0, epsilon=0.0)
    except SingularDenominatorError:
        raised = True
    _report(7, worst <= 1e-6 and raised,
            f"500 bias-free ReLU nets conserve relevance per layer "
            f"(worst |sum - f_c| = {worst:.2e} <= 1e-6); singular "
            f"denominators raise the dedicated error")


# -------------------------------------------------------------------- 8

def test_criterion_08_sensitivity_matches_fd():
    rng = np.random.default_rng(111)
    worst_rel = 0.0
    worst_total = 0.0
    done = 0
    while done < 500:
        sizes = (int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                 int(rng.integers(2, 4)))
        layers = [Layer(rng.normal(size=(sizes[1], sizes[0])),
                        rng.normal(size=sizes[1]), "relu"),
                  Layer(rng.normal(size=(sizes[2], sizes[1])),
                        rng.normal(size=sizes[2]), "identity")]
        net = FeedForwardNet(layers)
        x = rng.normal(size=sizes[0])
        if min(np.abs(pre).min() for pre, _ in net.forward(x)) < 1e-2:
            continue
        c = int(rng.integers(sizes[2]))
        grad = gradient(net, x, c)
        numeric = central_difference(lambda v: net.output(v)[c], x)
        rel = (np.abs(grad - numeric)
               / np.maximum(np.abs(numeric), 1e-8)).max()
        worst_rel = max(worst_rel, float(rel))
        rmap = sensitivity(net, x, c)
        worst_total = max(worst_total,
                          abs(rmap.total - float((grad ** 2).sum())))
        done += 1
    _report(8, worst_rel < 1e-4 and worst_total <= 1e-8,
            f"500 smooth points: gradients within rel {worst_rel:.2e} "
            f"(< 1e-4) of finite differences; totals equal the squared "
            f"gradient norm within {worst_total:.2e} (<= 1e-8)")


# -------------------------------------------------------------------- 9

def test_criterion_09_fig4_triples(trained, seed_graph):
    checkpoint = Checkpoint(trained.models, trained.vocab,
                            trained.gazetteers)
    table = AliasTable.build(seed_graph, data_path("aliases.csv"))
    doc = preprocess(
        "TP53 is responsible for a disease called Breast Cancer. "
        "TP53 has POTSF functionality, which is mentioned in numerous "
        "PubMed articles.", "fig4")
    extraction = extract_document(doc, checkpoint, table)
    produced = {(c.subject, c.label, c.object)
                for c in extraction.candidates if c.label != "none"}
    expected = {
        (ono("TP53"), "causes", ono("BRCA")),
        (ono("TP53"), "hasType", SCHEMA.potsf),
        (ono("BRCA"), "isA", SCHEMA.disease),
        (SCHEMA.potsf, "hasEvidence", SCHEMA.pubmed),
    }
    _report(9, produced == expected,
            "the sample sentence yields exactly the four linked triples")


# ------------------------------------------------------------------- 10

def test_criterion_10_quality_metrics(seed_graph):
    report = assess(planted_defect_graph(), fixture_config())
    expected = {
        "schema_completeness": (3, 4),
        "interlinking_completeness": (2, 10),
        "property_completeness": (7, 10),
        "numeric_range_violations": (1, 2),
        "extensional_conciseness": (9, 10),
        "external_sameas_links": (1, 0),
        "datatype_compatibility": (3, 4),
        "dereferenceable_uris": (15, 20),
        "dereferenceable_back_links": (1, 15),
        "dereferenceable_forward_links": (10, 10),
        "coverage_detail": (7, 0),
        "coverage_scope": (10, 0),
        "labeled_resources": (7, 10),
    }
    exact = all(
        (report[name].numerator, report[name].denominator) == counts
        for name, counts in expected.items())
    seed_report = assess(seed_graph, QualityConfig.for_ono_seed())
    _report(10, exact
            and seed_report["schema_completeness"].value == 1.0,
            "all 13 metrics equal the hand counts on the planted-defect "
            "fixture; seed schema completeness is 1.0")


# ------------------------------------------------------------------- 11

def test_criterion_11_pitfall_checks():
    cycle_graph = Graph()
    cycle_graph.insert(Triple(ono("Alpha"), RDFS_SUBCLASS, ono("Beta")))
    cycle_graph.insert(Triple(ono("Beta"), RDFS_SUBCLASS, ono("Alpha")))
    cycle_report = check_ontology_pitfalls(cycle_graph)

    naming_graph = Graph()
    naming_graph.insert(Triple(ono("breast_cancer"), RDFS_SUBCLASS,
                               ono("Disease")))
    naming_report = check_ontology_pitfalls(naming_graph)

    intersect_graph = Graph()
    intersect_graph.insert(Triple(ono("propX"), RDFS_DOMAIN, ono("Alpha")))
    intersect_graph.insert(Triple(ono("propX"), RDFS_DOMAIN, ono("Beta")))
    intersect_graph.insert(Triple(ono("a1"), RDF_TYPE, ono("Alpha")))
    intersect_graph.insert(Triple(ono("b1"), RDF_TYPE, ono("Beta")))
    intersect_report = check_ontology_pitfalls(intersect_graph)

    _report(11,
            len(cycle_report.cycles) == 1
            and len(naming_report.naming_violations) == 1
            and len(intersect_report.intersection_conflicts) == 1,
            "planted cycle, naming violation, and disjoint-intersection "
            "domain are each detected exactly once")


# ------------------------------------------------------------------- 12

def test_criterion_12_round_trips(seed_graph):
    result = parse_ntriples(serialize_ntriples(seed_graph))
    reparsed = result.graph
    nt_ok = result.ok and set(reparsed) == set(seed_graph) \
        and len(reparsed) == len(seed_graph)

    rng = np.random.default_rng(113)
    iob_failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 24))
        spans = []
        cursor = 0
        while cursor < n:
            if rng.random() < 0.4:
                length = int(rng.integers(1, min(5, n - cursor) + 1))
                spans.append((cursor, cursor + length))
                cursor += length
            else:
                cursor += 1
        if find_spans(encode_word_tags(spans, n)) != spans:
            iob_failures += 1
    _report(12, nt_ok and iob_failures == 0,
            "seed N-Triples serialize->parse identity; 1000 random IOB "
            "layouts encode->decode with zero failures")
