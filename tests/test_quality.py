import json

import numpy as np
import pytest

from helpers import split_graph
from oracles import EX as RANDOM_EX, FOREIGN, pitfalls, quality_metrics, \
    random_graph
from onokg.kg import Graph, Triple, blank, iri, literal, typed_int
from onokg.ontology import (OWL_SAMEAS, RDF_TYPE, RDFS_LABEL, SCHEMA, XSD,
                            check_ontology_pitfalls)
from onokg.quality import (MetricResult, QualityConfig, assess, resolve_uri)

EX = "http://example.org/q#"
EXT = "http://elsewhere.org/r#"


def ex(name):
    return iri(EX + name)


def planted_defect_graph() -> Graph:
    """Ten subjects: one duplicate pair, one negative citation count, one
    bad typed literal, three unlabeled, two outward links."""
    g = Graph()
    thing = ex("Thing")

    def subject(name, *, label=True):
        node = ex(name)
        g.insert(Triple(node, RDF_TYPE, thing))
        if label:
            g.insert(Triple(node, RDFS_LABEL, literal(name)))
        return node

    s1 = subject("s1")
    g.insert(Triple(s1, ex("hasCitations"), typed_int(10)))
    s2 = subject("s2")
    g.insert(Triple(s2, ex("hasCitations"),
                    literal("-5", datatype=XSD + "integer")))
    s3 = subject("s3")
    g.insert(Triple(s3, ex("link"), iri(EXT + "r1")))
    s4 = subject("s4")
    g.insert(Triple(s4, OWL_SAMEAS, iri(EXT + "r2")))
    s5 = subject("s5")
    g.insert(Triple(s5, ex("value"), literal("abc",
                                             datatype=XSD + "integer")))
    s6 = subject("s6")
    g.insert(Triple(s6, ex("value"), typed_int(7)))
    subject("s7")
    s8 = subject("s8", label=False)
    g.insert(Triple(s8, ex("note"), literal("same")))
    s9 = subject("s9", label=False)
    g.insert(Triple(s9, ex("note"), literal("same")))
    subject("s10", label=False)
    return g


def fixture_config() -> QualityConfig:
    return QualityConfig(
        gold_classes=(ex("Thing"), ex("Missing")),
        gold_properties=(ex("hasCitations"), ex("link")),
        home_namespaces=(EX,),
        completeness_class=ex("Thing"),
        completeness_predicate=RDFS_LABEL,
        range_predicate=ex("hasCitations"),
        range_lower=0, range_upper=1000,
        allowlist=(EX,),
    )


@pytest.fixture(scope="module")
def report():
    return assess(planted_defect_graph(), fixture_config())


class TestPlantedDefectFixture:
    @pytest.mark.parametrize("metric,numerator,denominator", [
        ("schema_completeness", 3, 4),
        ("interlinking_completeness", 2, 10),
        ("property_completeness", 7, 10),
        ("extensional_conciseness", 9, 10),
        ("datatype_compatibility", 3, 4),
        ("dereferenceable_uris", 15, 20),
        ("dereferenceable_back_links", 1, 15),
        ("dereferenceable_forward_links", 10, 10),
        ("labeled_resources", 7, 10),
    ])
    def test_exact_ratios(self, report, metric, numerator, denominator):
        result = report.metrics[metric]
        assert (result.numerator, result.denominator) == \
            (numerator, denominator)
        assert result.value == numerator / denominator

    def test_numeric_range_violations(self, report):
        result = report.metrics["numeric_range_violations"]
        assert result.numerator == 1
        assert result.denominator == 2

    def test_external_sameas(self, report):
        assert report.metrics["external_sameas_links"].numerator == 1

    def test_coverage(self, report):
        assert report.metrics["coverage_detail"].numerator == 7
        assert report.metrics["coverage_scope"].numerator == 10

    def test_all_thirteen_present(self, report):
        assert len(report.metrics) == 13

    def test_ratios_bounded(self, report):
        for metric in report.metrics.values():
            if metric.kind == "ratio" and metric.status == "ok":
                assert 0.0 <= metric.value <= 1.0
                assert metric.numerator <= metric.denominator

    def test_determinism(self, report):
        again = assess(planted_defect_graph(), fixture_config())
        assert json.dumps(again.to_dict(), indent=2) == json.dumps(
            report.to_dict(), indent=2)


class TestSeedQuality:
    def test_schema_completeness_is_one(self, seed_graph):
        report = assess(seed_graph, QualityConfig.for_ono_seed())
        result = report.metrics["schema_completeness"]
        assert result.value == 1.0
        assert result.denominator == len(SCHEMA.classes()) + \
            len(SCHEMA.properties())

    def test_empty_graph_zero_completeness(self):
        report = assess(Graph(), QualityConfig.for_ono_seed())
        assert report.metrics["schema_completeness"].value == 0.0
        assert report.metrics["coverage_detail"].numerator == 0


class TestMonotonicity:
    def test_adding_label_never_decreases(self):
        g = planted_defect_graph()
        before = assess(g, fixture_config()).metrics["labeled_resources"].value
        g.insert(Triple(ex("s10"), RDFS_LABEL, literal("s10")))
        after = assess(g, fixture_config()).metrics["labeled_resources"].value
        assert after >= before

    def test_adding_duplicate_never_increases_conciseness(self):
        g = planted_defect_graph()
        before = assess(g, fixture_config()).metrics[
            "extensional_conciseness"].value
        s11 = ex("s11")
        g.insert(Triple(s11, RDF_TYPE, ex("Thing")))
        g.insert(Triple(s11, ex("note"), literal("same")))
        after = assess(g, fixture_config()).metrics[
            "extensional_conciseness"].value
        assert after <= before


class TestConfigHandling:
    def test_unconfigured_metrics_skipped(self):
        report = assess(planted_defect_graph(),
                        QualityConfig(home_namespaces=(EX,)))
        assert report.metrics["schema_completeness"].status == "skipped"
        assert report.metrics["property_completeness"].status == "skipped"
        assert report.metrics["numeric_range_violations"].status == "skipped"
        # the rest still computes
        assert report.metrics["coverage_scope"].numerator == 10

    def test_vacuous_ratio_flagged(self):
        report = assess(Graph(), QualityConfig(home_namespaces=(EX,)))
        assert report.metrics["labeled_resources"].status == "vacuous"
        assert report.metrics["labeled_resources"].value == 1.0

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="lower"):
            QualityConfig(range_predicate=ex("p"), range_lower=5,
                          range_upper=1)

    def test_config_json_round_trip(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('{"gold_classes": ["%sThing"], '
                        '"home_namespaces": ["%s"], '
                        '"range_predicate": "%shasCitations", '
                        '"range_lower": 0, "range_upper": 10}'
                        % (EX, EX, EX), encoding="utf-8")
        cfg = QualityConfig.from_json(path)
        assert cfg.gold_classes == (ex("Thing"),)
        assert cfg.range_upper == 10


class TestResolveUri:
    def test_allowlist_mode(self):
        assert resolve_uri("offline-allowlist", EX + "TP53",
                           allowlist=(EX,))
        assert not resolve_uri("offline-allowlist", EXT + "x",
                               allowlist=(EX,))

    def test_empty_allowlist_rejects_all(self, seed_graph):
        cfg = QualityConfig.for_ono_seed()
        cfg = QualityConfig(gold_classes=cfg.gold_classes,
                            gold_properties=cfg.gold_properties,
                            allowlist=())
        report = assess(seed_graph, cfg)
        assert report.metrics["dereferenceable_uris"].numerator == 0

    def test_syntactic_mode(self):
        assert resolve_uri("syntactic", "urn:x")
        assert not resolve_uri("syntactic", "no-scheme")

    def test_live_mode_failure_counts_unresolved(self):
        def failing(_uri):
            raise OSError("network down")
        assert resolve_uri("live", "http://x.org/", fetch=failing) is False

    def test_live_mode_uses_fetcher(self):
        assert resolve_uri("live", "http://x.org/", fetch=lambda u: True)


def test_metric_result_vacuous_constructor():
    result = MetricResult.ratio(0, 0)
    assert result.status == "vacuous"
    assert result.value == 1.0


def random_config(rng) -> QualityConfig:
    def rx(name):
        return iri(RANDOM_EX + name)
    homes = [(RANDOM_EX,), (RANDOM_EX, FOREIGN), (FOREIGN,), ()]
    return QualityConfig(
        gold_classes=(rx("C0"), rx("C4"), rx("Missing")),
        gold_properties=(rx("p1"), rx("hasCitations"), OWL_SAMEAS),
        home_namespaces=homes[int(rng.integers(len(homes)))],
        label_predicates=(RDFS_LABEL, rx("name")),
        completeness_class=rx("C1") if rng.random() < 0.8 else None,
        completeness_predicate=RDFS_LABEL,
        range_predicate=rx("hasCitations") if rng.random() < 0.8 else None,
        range_lower=0, range_upper=20,
        resolver_mode="syntactic" if rng.random() < 0.2
        else "offline-allowlist",
        allowlist=(RANDOM_EX,))


def test_metrics_and_pitfalls_match_scan_oracles():
    rng = np.random.default_rng(41)
    seen = dict.fromkeys(["cycles", "naming", "conflicts", "duplicates",
                          "bad_literals", "sameas", "range"], 0)
    for _ in range(60):
        graph = random_graph(rng, max_triples=120, planted=True)
        cfg = random_config(rng)
        report = assess(graph, cfg)
        got = {name: (m.kind, m.value, m.numerator, m.denominator, m.status,
                      m.sample) for name, m in report.metrics.items()}
        expected = quality_metrics(graph, cfg)
        assert list(got) == list(expected)
        for name in got:
            assert got[name] == expected[name], name
        cycles, naming, conflicts = pitfalls(graph)
        found = check_ontology_pitfalls(graph)
        assert {tuple(c) for c in found.cycles} == cycles
        assert len(found.cycles) == len(cycles)
        assert found.naming_violations == naming
        assert found.intersection_conflicts == conflicts
        metrics = report.metrics
        for key, hit in (
                ("cycles", cycles), ("naming", naming),
                ("conflicts", conflicts),
                ("duplicates", metrics["extensional_conciseness"].sample),
                ("bad_literals", metrics["datatype_compatibility"].sample),
                ("sameas", metrics["external_sameas_links"].numerator),
                ("range", metrics["numeric_range_violations"].numerator)):
            seen[key] += bool(hit)
    assert min(seen.values()) >= 5, seen


def range_edge_graph() -> Graph:
    """Range-predicate objects that `float` reads in its own way ("nan",
    "inf", "-0", " 7 ", "1_000", "1e400") or refuses ("abc"), a tagged and
    a typed literal, an IRI, and blank nodes whose labels `float` would
    read. Subjects take their ids out of lexical order, one subject holds
    several of them, and 150 subjects share one literal outside 0..20,
    more than the sample's 100 items."""
    g = Graph()
    cites = iri(RANDOM_EX + "hasCitations")
    objects = [literal(x) for x in ("nan", "inf", "-0", " 7 ", "1_000",
                                    "1e400", "abc", "-5", "20")]
    objects += [literal("5", language="en"), literal("25", XSD + "integer"),
                iri(RANDOM_EX + "e0"), blank("5"), blank("inf")]
    for i, obj in enumerate(objects):
        g.insert(Triple(iri(RANDOM_EX + f"odd{len(objects) - i}"), cites,
                        obj))
        g.insert(Triple(iri(RANDOM_EX + "all"), cites, obj))
        for j in range(i * 150 // len(objects), (i + 1) * 150 // len(objects)):
            g.insert(Triple(iri(RANDOM_EX + f"shared{j}"), cites,
                            literal("25")))
    return g


def test_metrics_match_scan_oracle_on_more_graphs():
    # graphs whose triples are split between the base and buffered inserts
    # when assessed, the empty graph, configs that name predicates no
    # triple uses, and metric 4's edge cases (`range_edge_graph`)
    rng = np.random.default_rng(43)
    absent = iri(RANDOM_EX + "absent")
    graphs = [Graph()]
    for _ in range(30):
        built = random_graph(rng, max_triples=120, planted=True)
        graphs.append(split_graph(built, int(rng.integers(len(built)))))
    edges = range_edge_graph()
    graphs += [edges, *(split_graph(edges, head) for head in (1, 100, 200))]
    for graph in graphs:
        for cfg in (random_config(rng), QualityConfig(
                home_namespaces=(RANDOM_EX,), label_predicates=(absent,),
                completeness_class=absent, completeness_predicate=absent,
                range_predicate=absent, allowlist=(FOREIGN,)), QualityConfig(
                range_predicate=iri(RANDOM_EX + "hasCitations"),
                range_lower=0, range_upper=20)):
            report = assess(graph, cfg)
            got = {name: (m.kind, m.value, m.numerator, m.denominator,
                          m.status, m.sample)
                   for name, m in report.metrics.items()}
            assert got == quality_metrics(graph, cfg)


def test_write_after_assess_is_seen():
    g = planted_defect_graph()
    cfg = fixture_config()
    assert assess(g, cfg).metrics["labeled_resources"].numerator == 7
    g.insert(Triple(ex("s10"), RDFS_LABEL, literal("s10")))
    g.insert(Triple(ex("s11"), ex("link"), iri(EXT + "r3")))
    report = assess(g, cfg)
    assert (report.metrics["labeled_resources"].numerator,
            report.metrics["labeled_resources"].denominator) == (8, 11)
    assert report.metrics["interlinking_completeness"].numerator == 3
    assert report.metrics["coverage_scope"].numerator == 11
