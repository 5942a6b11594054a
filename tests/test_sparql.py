import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (random_graph, random_rich_sparql_query,
                     random_sparql_query, sparql_rows)
from onokg.kg import Graph, PrefixTable, Triple, iri, literal
from onokg.ontology import ONO, RDF_TYPE, SCHEMA, default_prefixes, ono
from onokg.sparql import (MAX_NESTING, SolutionTable, SparqlParseError,
                          SubSelect, TriplePattern, Var, evaluate,
                          load_query_pack, parse_select, run_query,
                          run_query_pack)

FIG5_STYLE = """
PREFIX ono: <http://www.example.com/ontologies/ono/ono.owl#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>

SELECT DISTINCT ?labelBiomarker WHERE {
    ?feature a ono:Feature .
    ?feature ono:featureGene ?biomarker .
    ?feature ono:featureCancer ?disease .
    ?feature ono:hasCitations ?number .
    ?biomarker rdfs:label ?labelBiomarker .
    ?disease rdfs:label ?labelDisease .
    FILTER (regex(?labelDisease, "^BRCA") && ?number >= 100)
}
GROUP BY ?labelBiomarker
"""


class TestParser:
    def test_fig5_style_query_shape(self):
        query = parse_select(FIG5_STYLE)
        assert query.distinct
        assert [v.name for v in query.projection] == ["labelBiomarker"]
        assert len(query.pattern) >= 3
        assert len(query.filters) == 1
        assert [v.name for v in query.group_by] == ["labelBiomarker"]

    def test_minimal_query(self):
        query = parse_select("SELECT ?x WHERE { ?x <a:p> <a:o> . }")
        assert query.projection == [Var("x")]
        assert query.pattern == [TriplePattern(Var("x"), iri("a:p"),
                                               iri("a:o"))]
        assert not query.distinct

    def test_unbound_projection_is_static_error(self):
        with pytest.raises(SparqlParseError, match="unbound"):
            parse_select("SELECT ?y WHERE { ?x <a:p> <a:o> . }")

    def test_unknown_prefix(self):
        with pytest.raises(SparqlParseError, match="unknown prefix"):
            parse_select("SELECT ?x WHERE { ?x zzz:p <a:o> . }")

    def test_nesting_limit(self):
        # the group opens the first level and each ! one more, so the
        # error names the 100th !
        head = "SELECT ?x WHERE { ?x <a:p> ?y . FILTER ("
        deepest = "!" * (MAX_NESTING - 1) + "?y = 1) }"
        assert len(parse_select(head + deepest).filters) == 1
        with pytest.raises(SparqlParseError, match=f"1:{len(head) + 100}: "
                           "query nested deeper than 100 levels"):
            parse_select(head + "!" + deepest)

    def test_malformed_filter(self):
        with pytest.raises(SparqlParseError):
            parse_select("SELECT ?x WHERE { ?x <a:p> ?y . "
                         "FILTER (regex(?y)) }")

    def test_ungrouped_projection_rejected(self):
        with pytest.raises(SparqlParseError, match="grouped"):
            parse_select("SELECT ?x ?y WHERE { ?x <a:p> ?y . } "
                         "GROUP BY ?x")

    def test_error_carries_position(self):
        with pytest.raises(SparqlParseError) as err:
            parse_select("SELECT ?x WHERE { ?x <a:p> }")
        assert err.value.line >= 1 and err.value.col >= 1

    @pytest.mark.parametrize("text, message", [
        ("SELECT ?x WHERE {\n  ?x <rel> <a:o> . }",
         "2:6: relative IRI not allowed: <rel>"),
        ('SELECT ?x WHERE { ?x <a:"p> <a:o> . }',
         '1:22: invalid character in IRI: <a:"p>'),
        ("PREFIX ex: <a>\nSELECT ?x WHERE { ?x ex:p <a:o> . }",
         "2:22: relative IRI not allowed: <ap>"),
        ('SELECT ?x WHERE {\n  ?x <a:p> "a\\qb" . }',
         "2:12: unsupported escape \\q"),
        ('SELECT ?x WHERE { ?x <a:p> ?y . FILTER (regex(?y, "\\d")) }',
         "1:51: unsupported escape \\d"),
    ])
    def test_term_error_names_the_token(self, text, message):
        with pytest.raises(SparqlParseError) as err:
            parse_select(text)
        assert str(err.value) == message

    def test_values_clause(self):
        query = parse_select(
            'SELECT ?v WHERE { VALUES ?v { <a:x> "lit" } }')
        assert query.values is not None
        assert len(query.values.terms) == 2

    def test_nested_select(self):
        query = parse_select(
            "SELECT ?x WHERE { SELECT ?x WHERE { ?x <a:p> <a:o> . } }")
        assert isinstance(query.pattern[0], SubSelect)


class TestEvaluate:
    def test_empty_graph_empty_table(self):
        table = run_query(Graph(), "SELECT ?x WHERE { ?x <a:p> ?y . }")
        assert table.rows == []

    def test_boundary_inclusive(self):
        g = Graph()
        g.insert(Triple(iri("a:s"), iri("a:n"), literal("100")))
        table = run_query(g, "SELECT ?x WHERE { ?x <a:n> ?n . "
                             "FILTER (?n >= 100) }")
        assert len(table.rows) == 1

    def test_regex_on_non_literal_fails_row(self):
        g = Graph()
        g.insert(Triple(iri("a:s"), iri("a:p"), iri("a:o")))
        table = run_query(g, 'SELECT ?x WHERE { ?x <a:p> ?y . '
                             'FILTER (regex(?y, "^o")) }')
        assert table.rows == []

    def test_distinct_dedupes(self):
        g = Graph()
        g.insert(Triple(iri("a:s"), iri("a:p"), iri("a:o1")))
        g.insert(Triple(iri("a:s"), iri("a:p"), iri("a:o2")))
        dup = run_query(g, "SELECT ?x WHERE { ?x <a:p> ?y . }")
        assert len(dup.rows) == 2
        deduped = run_query(g, "SELECT DISTINCT ?x WHERE { ?x <a:p> ?y . }")
        assert len(deduped.rows) == 1

    def test_values_cross_join(self):
        g = Graph()
        g.insert(Triple(ono("TP53"), RDF_TYPE, SCHEMA.biomarker))
        g.insert(Triple(ono("RB1"), RDF_TYPE, SCHEMA.biomarker))
        table = run_query(g, f"""
            PREFIX ono: <{ONO}>
            SELECT ?v WHERE {{
                VALUES ?v {{ ono:TP53 ono:ERBB2 }}
                ?v a ono:Biomarker .
            }}""")
        assert [row[0] for row in table.rows] == [ono("TP53")]

    def test_shared_variable_join(self, seed_graph):
        table = run_query(seed_graph, f"""
            PREFIX ono: <{ONO}>
            PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
            SELECT DISTINCT ?label WHERE {{
                ?g ono:causes ono:BRCA .
                ?g ono:isA ono:POTSF .
                ?g rdfs:label ?label .
            }}""")
        labels = {row[0].lexical for row in table.rows}
        assert labels == {"BRCA1", "BRCA2", "CHEK2", "TP53"}

    def test_fig5_query_on_seed(self, seed_graph):
        table = run_query(seed_graph, FIG5_STYLE)
        labels = {row[0].lexical for row in table.rows}
        assert "TP53" in labels

    def test_values_term_absent_from_graph_is_projected(self):
        g = Graph()
        g.insert(Triple(iri("a:s"), iri("a:p"), iri("a:o")))
        table = run_query(g, "SELECT ?v ?x WHERE { VALUES ?v { <a:ghost> "
                             "<a:s> } ?x <a:p> <a:o> . }")
        assert table.rows == [(iri("a:ghost"), iri("a:s")),
                              (iri("a:s"), iri("a:s"))]

    def test_constant_absent_from_graph_empties_bgp(self):
        g = Graph()
        g.insert(Triple(iri("a:s"), iri("a:p"), iri("a:o")))
        table = run_query(g, "SELECT ?x WHERE { ?x <a:p> ?y . "
                             "?x <a:ghost> ?z . }")
        assert table.rows == []

    def test_unbound_variable_under_or_and_not(self):
        g = Graph()
        g.insert(Triple(iri("a:s"), iri("a:n"), literal("5")))
        # ?z is bound by no pattern, so a leaf over it is false: the
        # disjunct and the negation must see it that way
        either = run_query(g, "SELECT ?x WHERE { ?x <a:n> ?n . "
                              "FILTER (?z > 1 || ?n > 1) }")
        assert len(either.rows) == 1
        negated = run_query(g, "SELECT ?x WHERE { ?x <a:n> ?n . "
                               "FILTER (!(?z > 1) && ?n > 1) }")
        assert len(negated.rows) == 1
        conjoined = run_query(g, "SELECT ?x WHERE { ?x <a:n> ?n . "
                                 "FILTER (?z > 1 && ?n > 1) }")
        assert conjoined.rows == []

    def test_repeated_variable_binds_one_term(self):
        g = Graph()
        g.insert(Triple(iri("a:s"), iri("a:p"), iri("a:s")))
        g.insert(Triple(iri("a:s"), iri("a:p"), iri("a:o")))
        table = run_query(g, "SELECT ?x WHERE { ?x <a:p> ?x . }")
        assert table.rows == [(iri("a:s"),)]

    def test_sub_select_hides_inner_variables(self):
        g = Graph()
        g.insert(Triple(iri("a:s"), iri("a:p"), iri("a:o")))
        g.insert(Triple(iri("a:o"), iri("a:q"), iri("a:t")))
        # the inner ?y is not projected, so it does not join with the
        # outer ?y
        table = run_query(g, "SELECT ?x ?y WHERE { ?x <a:p> ?y . "
                             "{ SELECT ?x WHERE { ?x <a:p> ?w . "
                             "?w <a:q> ?y . } } }")
        assert table.rows == [(iri("a:s"), iri("a:o"))]

    def test_duplicate_values_keep_bag_multiplicity(self):
        g = Graph()
        g.insert(Triple(iri("a:s"), iri("a:p"), iri("a:o")))
        text = "SELECT {} ?v WHERE {{ VALUES ?v {{ <a:s> <a:s> }} " \
               "?v <a:p> ?o . }}"
        assert len(run_query(g, text.format("")).rows) == 2
        assert len(run_query(g, text.format("DISTINCT")).rows) == 1


class TestQueryPack:
    def test_pack_parses_and_matches_oracle(self, fixtures_graph):
        results = run_query_pack(fixtures_graph)
        assert len(results) == 5
        for result in results:
            query = parse_select(result.text, default_prefixes())
            oracle = sorted(sparql_rows(fixtures_graph, query), key=repr)
            assert sorted(result.table.rows, key=repr) == oracle, result.name

    def test_pack_on_empty_graph(self):
        for result in run_query_pack(Graph()):
            assert result.table.rows == []

    def test_planted_hnsc_eso_gene(self, fixtures_graph):
        results = {r.name: r for r in run_query_pack(fixtures_graph)}
        rows = results["q4_hnsc_eso_significant"].table.rows
        assert [row[0].lexical for row in rows] == ["EGFR"]

    def test_pack_files_present(self):
        assert len(load_query_pack()) == 5


class TestProperties:
    def test_random_queries_match_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            graph = random_graph(rng, max_triples=40)
            for _ in range(3):
                query = random_sparql_query(rng, graph)
                engine = sorted(evaluate(graph, query).rows, key=repr)
                oracle = sorted(sparql_rows(graph, query), key=repr)
                assert engine == oracle

    def test_distinct_idempotent(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            graph = random_graph(rng, max_triples=40)
            query = random_sparql_query(rng, graph)
            query.distinct = True
            once = evaluate(graph, query).rows
            again = evaluate(graph, query).rows
            assert once == again
            assert len(set(once)) == len(once)

    def test_adding_conjunct_never_grows(self):
        from onokg.sparql import AndExpr, Comparison
        rng = np.random.default_rng(31)
        for _ in range(20):
            graph = random_graph(rng, max_triples=40)
            query = random_sparql_query(rng, graph)
            base = set(evaluate(graph, query).rows)
            extra = Comparison(">=", Var(query.projection[0].name),
                               literal("10"))
            query.filters = list(query.filters) + [extra]
            narrowed = set(evaluate(graph, query).rows)
            assert narrowed <= base

    def test_pattern_order_irrelevant(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            graph = random_graph(rng, max_triples=40)
            query = random_sparql_query(rng, graph)
            if len(query.pattern) < 2:
                continue
            base = set(evaluate(graph, query).rows)
            query.pattern = list(reversed(query.pattern))
            assert set(evaluate(graph, query).rows) == base


    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_rich_random_queries_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, max_triples=40)
        for _ in range(4):
            query = random_rich_sparql_query(rng, graph)
            engine = sorted(evaluate(graph, query).rows, key=repr)
            assert engine == sorted(sparql_rows(graph, query), key=repr)

class TestExport:
    def test_json_table_schema(self):
        table = SolutionTable(["x"], [(iri("a:b"),)])
        payload = json.loads(table.to_json())
        assert payload == {"header": ["x"], "rows": [["<a:b>"]]}

    def test_csv_round_shape(self):
        table = SolutionTable(["x", "y"], [(iri("a:b"), literal("v"))])
        lines = table.to_csv().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 2
