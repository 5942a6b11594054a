import numpy as np
import pytest

from helpers import load_extension
from oracles import class_instances, random_graph, reachability_closure
from onokg import dlx
from onokg.quality import QualityConfig, assess
from onokg.kg import Graph, Triple
from onokg.ontology import (RDF_TYPE, RDFS_DOMAIN, RDFS_LABEL,
                            RDFS_SUBCLASS, SCHEMA, AssociationFeature,
                            ClassIndex, DataFileError, ReferentialError,
                            add_biomarker, assert_association,
                            build_seed_ontology, check_ontology_pitfalls,
                            load_cohorts, load_potsf_genes, ono,
                            seed_statistics)


class TestSeedCardinalities:
    def test_cancer_instances(self, seed_graph):
        cancers = {t.subject for t in
                   seed_graph.match(None, RDF_TYPE, SCHEMA.cancer)}
        assert len(cancers) == 34  # 33 cohorts plus medulloblastoma

    def test_potsf_biomarkers(self, seed_graph):
        potsf = {t.subject for t in
                 seed_graph.match(None, SCHEMA.has_type, SCHEMA.potsf)}
        assert len(potsf) == 83

    def test_tp53_cross_responsibility(self, seed_graph):
        cohorts = {t.object for t in
                   seed_graph.match(ono("TP53"),
                                    SCHEMA.cross_responsibility, None)}
        assert {ono("BRCA"), ono("OV"), ono("MED"), ono("PRAD")} <= cohorts

    def test_hierarchy_spine(self, seed_graph):
        assert Triple(SCHEMA.cancer, RDFS_SUBCLASS,
                      SCHEMA.disease_of_cellular_proliferation) in seed_graph
        assert Triple(SCHEMA.disease_of_cellular_proliferation,
                      RDFS_SUBCLASS, SCHEMA.disease) in seed_graph

    def test_every_biomarker_has_type(self, seed_graph):
        for t in seed_graph.match(None, RDF_TYPE, SCHEMA.biomarker):
            assert seed_graph.match(t.subject, SCHEMA.has_type, None)

    def test_every_feature_has_one_significance_and_cancer(self, seed_graph):
        features = seed_graph.match(None, RDF_TYPE, SCHEMA.feature)
        assert features
        for t in features:
            sig = seed_graph.match(t.subject, SCHEMA.has_significance, None)
            cancer = seed_graph.match(t.subject, SCHEMA.feature_cancer, None)
            assert len(sig) == 1
            assert len(cancer) == 1

    def test_build_is_deterministic(self):
        from onokg.ntriples import serialize_ntriples
        assert serialize_ntriples(build_seed_ontology()) == \
            serialize_ntriples(build_seed_ontology())


class TestDataFiles:
    def test_cohort_table_shape(self):
        pairs = load_cohorts()
        assert len(pairs) == 33
        assert dict(pairs)["BRCA"] == "Breast invasive carcinoma"

    def test_potsf_list(self):
        genes = load_potsf_genes()
        assert len(genes) == 83
        assert "TP53" in genes and "DDX3X" in genes and "WT" in genes

    def test_missing_data_dir(self, tmp_path):
        with pytest.raises(DataFileError, match="cohorts.csv"):
            load_cohorts(tmp_path)

    def test_extension_citations_are_checked(self, tmp_path, seed_copy):
        path = tmp_path / "assoc.csv"
        path.write_text("gene,cohort,significance,evidence,citations\n"
                        "TP53,BRCA,HIGH,PubMed,many\n", encoding="utf-8")
        with pytest.raises(DataFileError,
                           match="assoc.csv: bad citations value 'many'"):
            load_extension(seed_copy, associations_csv=path)

    def test_alias_row_with_missing_field(self, tmp_path):
        from onokg.ie.linking import AliasTable
        path = tmp_path / "aliases.csv"
        path.write_text("surface,type,canonicalIRI\nLi-Fraumeni,Gene\n",
                        encoding="utf-8")
        with pytest.raises(DataFileError,
                           match="aliases.csv: expected 3 fields, got 2"):
            AliasTable.build(csv_path=path)


class TestAssertAssociation:
    def test_idempotent(self, seed_copy):
        feature = AssociationFeature(ono("TP53"), ono("BRCA"), "HIGH",
                                     SCHEMA.pubmed, 212)
        before = len(seed_copy)
        node_a = assert_association(seed_copy, feature)
        node_b = assert_association(seed_copy, feature)
        assert node_a == node_b
        assert len(seed_copy) == before  # already in the seed

    def test_unknown_cancer(self, seed_copy):
        feature = AssociationFeature(ono("TP53"), ono("XXXX"), "HIGH",
                                     SCHEMA.pubmed, 10)
        with pytest.raises(ReferentialError, match="XXXX"):
            assert_association(seed_copy, feature)

    def test_unknown_gene(self, seed_copy):
        feature = AssociationFeature(ono("NOPE1"), ono("BRCA"), "HIGH",
                                     SCHEMA.pubmed, 10)
        with pytest.raises(ReferentialError, match="NOPE1"):
            assert_association(seed_copy, feature)

    def test_each_triple_is_one_insert(self, seed_copy, monkeypatch):
        # the API looks `graph.insert` up at each call, so a patch of the
        # class attribute, as the layer tracer makes, sees every write
        calls = []
        insert = Graph.insert
        monkeypatch.setattr(Graph, "insert", lambda graph, triple: (
            calls.append(triple) or insert(graph, triple)))
        add_biomarker(seed_copy, "TESTG", "Oncogene")
        assert len(calls) == 4
        feature = AssociationFeature(ono("TESTG"), ono("UVM"), "HIGH",
                                     SCHEMA.pubmed, 100)
        for _ in range(2):
            assert_association(seed_copy, feature)
        assert len(calls) == 4 + 2 * 11
        assert {type(triple) for triple in calls} == {tuple}

    def test_new_association_enables_query(self, seed_copy):
        from onokg.dlx import query
        add_biomarker(seed_copy, "TESTG", "Oncogene")
        assert_association(seed_copy, AssociationFeature(
            ono("TESTG"), ono("UVM"), "HIGH", SCHEMA.pubmed, 100))
        hits = query(seed_copy,
                     "Biomarker and causes some UVM and "
                     "haveSignificance some High")
        assert ono("TESTG") in hits


class TestSubclassReachability:
    def test_closure_matches_matrix_powers(self, seed_graph):
        index = ClassIndex(seed_graph)
        term = seed_graph.term
        pairs = {(term(child), term(parent)) for parent in index.parents
                 for child in index.descendants(parent)}
        assert pairs == reachability_closure(seed_graph)

    def test_cancer_reaches_disease(self, seed_graph):
        index = ClassIndex(seed_graph)
        cancer, disease = map(seed_graph.term_id,
                              (SCHEMA.cancer, SCHEMA.disease))
        assert cancer in index.descendants(disease)


class TestClassIndex:
    def test_instances_match_scan_oracle_with_and_without_cycle(self):
        rng = np.random.default_rng(29)
        cyclic = 0
        for _ in range(40):
            graph = random_graph(rng, max_triples=80)
            index = graph.cached(ClassIndex)
            assert not index.cycles
            for cls in index.classes():
                assert set(map(graph.term, index.instances(cls))) == \
                    class_instances(graph, graph.term(cls))
            edges = graph.match(None, RDFS_SUBCLASS, None)
            if not edges:
                continue
            cyclic += 1
            # close a cycle through the first edge and every path beside it
            low, high = edges[0].subject, edges[0].object
            graph.insert(Triple(high, RDFS_SUBCLASS, low))
            reach = reachability_closure(graph)
            members = {c for c, p in reach if p == low and (low, c) in reach}
            index = graph.cached(ClassIndex)
            assert [set(c) for c in index.cycles] == [members]
            for cls in index.classes():
                assert set(map(graph.term, index.instances(cls))) == \
                    class_instances(graph, graph.term(cls))
            report = check_ontology_pitfalls(graph)
            assert [set(c) for c in report.cycles] == [members]
            quality = assess(graph, QualityConfig(
                completeness_class=low, completeness_predicate=RDFS_LABEL))
            assert quality.metrics["property_completeness"].denominator == \
                len(class_instances(graph, low))
            with pytest.raises(dlx.HierarchyCycleError) as err:
                dlx.AboxIndex(graph)
            assert set(err.value.cycle) == members
            for member in members:
                assert member.local_name() in str(err.value)
        assert cyclic >= 20


class TestDerivedIndexesFollowWrites:
    """DL queries, quality metrics and pitfall checks read indexes cached
    on the graph; every write must make the next call see it."""

    def observe(self, graph):
        members = dlx.query(graph, "Cancer")
        report = assess(graph, QualityConfig.for_ono_seed())
        completeness = report.metrics["property_completeness"]
        pitfalls = check_ontology_pitfalls(graph)
        return (members, completeness.denominator, completeness.sample,
                [term for term, _ in pitfalls.naming_violations])

    def test_insert_then_remove(self, seed_copy):
        before = self.observe(seed_copy)
        subclass = ono("soft_tissue_sarcoma")
        edge = Triple(subclass, RDFS_SUBCLASS, SCHEMA.cancer)
        typed = Triple(ono("EWS"), RDF_TYPE, subclass)
        seed_copy.insert(edge)
        seed_copy.insert(typed)
        members, total, missing, misnamed = self.observe(seed_copy)
        assert ono("EWS") in members and ono("EWS") not in before[0]
        assert total == before[1] + 1
        assert ono("EWS").lexical in missing
        assert misnamed == [subclass]

    def test_persisted_deduction_is_queryable(self, seed_copy):
        # The derived triple's object is the class Cancer itself, which is
        # not an instance of Cancer, so `causes some Cancer` cannot show it;
        # `causes min 1` does.
        gene = add_biomarker(seed_copy, "NEWONC", "Oncogene")
        seed_copy.insert((gene, RDF_TYPE, SCHEMA.oncogene))
        question = "Oncogene and causes min 1"
        assert gene not in dlx.query(seed_copy, question)
        deduction = dlx.deduce_syllogism(
            seed_copy, dlx.SYLLOGISM_RULES["oncogene-rule"], gene)
        assert deduction.holds
        seed_copy.insert(deduction.derived)
        assert gene in dlx.query(seed_copy, question)
        assert SCHEMA.cancer in dlx.query(seed_copy,
                                          "inverse causes some NEWONC")


class TestPitfalls:
    def test_seed_is_clean(self, seed_graph):
        report = check_ontology_pitfalls(seed_graph)
        assert report.cycles == []
        assert report.naming_violations == []
        assert report.intersection_conflicts == []

    def test_planted_cycle(self):
        g = Graph()
        a, b = ono("Alpha"), ono("Beta")
        g.insert(Triple(a, RDFS_SUBCLASS, b))
        g.insert(Triple(b, RDFS_SUBCLASS, a))
        report = check_ontology_pitfalls(g)
        assert len(report.cycles) == 1
        assert set(report.cycles[0]) == {a, b}

    def test_naming_violation(self):
        g = Graph()
        g.insert(Triple(ono("breast_cancer"), RDFS_SUBCLASS,
                        ono("Disease")))
        report = check_ontology_pitfalls(g)
        assert len(report.naming_violations) == 1
        assert report.naming_violations[0][0] == ono("breast_cancer")

    def test_property_naming_violation(self):
        g = Graph()
        g.insert(Triple(ono("x"), ono("HasThing"), ono("y")))
        report = check_ontology_pitfalls(g)
        assert any(term == ono("HasThing")
                   for term, _ in report.naming_violations)

    def test_disjoint_intersection_domain(self):
        g = Graph()
        g.insert(Triple(ono("propX"), RDFS_DOMAIN, ono("Alpha")))
        g.insert(Triple(ono("propX"), RDFS_DOMAIN, ono("Beta")))
        g.insert(Triple(ono("a1"), RDF_TYPE, ono("Alpha")))
        g.insert(Triple(ono("b1"), RDF_TYPE, ono("Beta")))
        report = check_ontology_pitfalls(g)
        assert len(report.intersection_conflicts) == 1
        prop, position, classes = report.intersection_conflicts[0]
        assert prop == ono("propX") and position == "domain"

    def test_shared_instance_clears_intersection(self):
        g = Graph()
        g.insert(Triple(ono("propX"), RDFS_DOMAIN, ono("Alpha")))
        g.insert(Triple(ono("propX"), RDFS_DOMAIN, ono("Beta")))
        g.insert(Triple(ono("both"), RDF_TYPE, ono("Alpha")))
        g.insert(Triple(ono("both"), RDF_TYPE, ono("Beta")))
        report = check_ontology_pitfalls(g)
        assert report.intersection_conflicts == []


def test_seed_statistics_keys(seed_graph):
    stats = seed_statistics(seed_graph)
    assert stats["potsf_biomarkers"] == 83
    assert stats["cancers"] == 34
    assert stats["triples"] == len(seed_graph)
