import json

import numpy as np
import pytest

from oracles import dl_instances, random_dl_expr, random_graph
from onokg import dlx
from onokg.dlx import (AboxIndex, And, Atomic, DlxParseError,
                       HierarchyCycleError, MAX_NESTING, MaxCard, MinCard,
                       Only, Or, PropRef, Some, SYLLOGISM_RULES,
                       UnknownNameError, deduce_syllogism, instances,
                       parse_dlx, query)
from onokg.kg import Graph, Triple, iri
from onokg.ontology import (RDFS_SUBCLASS, SCHEMA, ClassIndex, data_path,
                            ono)


class TestParser:
    def test_three_part_conjunction(self, seed_graph):
        expr = parse_dlx("Biomarker and causes some BRCA and isA only POTSF",
                         seed_graph)
        assert isinstance(expr, And)
        atomic, some, only = expr.parts
        assert atomic == Atomic(SCHEMA.biomarker)
        assert some == Some(PropRef(SCHEMA.causes), Atomic(ono("BRCA")))
        assert only == Only(PropRef(SCHEMA.is_a), Atomic(SCHEMA.potsf))

    def test_max_cardinality_and_alias(self, seed_graph):
        expr = parse_dlx("Biomarker and haveCitations max 100", seed_graph)
        assert expr == And((Atomic(SCHEMA.biomarker),
                            MaxCard(PropRef(SCHEMA.has_citations), 100)))

    def test_or_precedence_with_parens(self, seed_graph):
        expr = parse_dlx(
            "Biomarker and (isA only POTSF or isA only ProteinCoding)",
            seed_graph)
        assert isinstance(expr, And)
        assert isinstance(expr.parts[1], Or)
        assert all(isinstance(p, Only) for p in expr.parts[1].parts)

    def test_and_binds_tighter_than_or(self, seed_graph):
        expr = parse_dlx("Biomarker and Cancer or Disease", seed_graph)
        assert isinstance(expr, Or)
        assert isinstance(expr.parts[0], And)

    def test_keywords_case_insensitive(self, seed_graph):
        expr = parse_dlx("Biomarker AND causes SOME BRCA", seed_graph)
        assert isinstance(expr, And)

    def test_inverse_marker(self, seed_graph):
        expr = parse_dlx("Cancer and inverse causes some TP53", seed_graph)
        assert expr.parts[1].prop.inverse is True

    def test_unknown_name(self, seed_graph):
        with pytest.raises(UnknownNameError, match="Zzz"):
            parse_dlx("Biomarker and causes some Zzz", seed_graph)

    def test_malformed_cardinality(self, seed_graph):
        with pytest.raises(DlxParseError, match="integer"):
            parse_dlx("Biomarker and hasCitations min many", seed_graph)

    def test_empty_expression(self, seed_graph):
        with pytest.raises(DlxParseError):
            parse_dlx("   ", seed_graph)

    def test_trailing_tokens(self, seed_graph):
        with pytest.raises(DlxParseError):
            parse_dlx("Biomarker Cancer", seed_graph)

    # the error names the `(` or the `some` that opens level 101
    @pytest.mark.parametrize("opening,closing,offset", [
        ("(", ")", 100), ("causes some ", "", 100 * 12 + 7)])
    def test_nesting_limit(self, seed_graph, opening, closing, offset):
        deepest = opening * MAX_NESTING + "Cancer" + closing * MAX_NESTING
        assert parse_dlx(deepest, seed_graph) is not None
        with pytest.raises(DlxParseError, match="nested deeper than 100 "
                           f"levels \\(at offset {offset}\\)"):
            parse_dlx(opening + deepest + closing, seed_graph)

    def test_removed_term_stops_resolving(self, seed_copy):
        edge = Triple(ono("Sarcoma"), RDFS_SUBCLASS, ono("Cancer"))
        with pytest.raises(UnknownNameError, match="Sarcoma"):
            query(seed_copy, "Sarcoma")
        seed_copy.insert(edge)
        assert query(seed_copy, "Sarcoma") == []
        seed_copy.remove(edge)
        with pytest.raises(UnknownNameError, match="Sarcoma"):
            query(seed_copy, "Sarcoma")


class TestInstances:
    def test_inverse_causes_tp53(self, seed_graph):
        hits = query(seed_graph, "Cancer and inverse causes some TP53")
        assert hits == sorted([ono("BRCA"), ono("MED"), ono("OV"),
                               ono("PRAD")], key=lambda t: t.lexical)

    def test_vacuous_only(self):
        g = Graph()
        g.insert(Triple(ono("x"), ono("p"), ono("y")))
        g.insert(Triple(ono("z"), ono("q"), ono("y")))
        # z has no p-successors, so `p only <anything>` admits it
        expr = Only(PropRef(ono("p")), Atomic(ono("nothing")))
        assert g.term_id(ono("z")) in AboxIndex(g).evaluate(expr)

    def test_min_zero_is_universal(self, fixtures_graph):
        index = AboxIndex(fixtures_graph)
        everything = index.evaluate(MinCard(PropRef(SCHEMA.causes), 0))
        assert everything == set(index.universe)

    def test_max_above_outdegree_is_no_constraint(self, fixtures_graph):
        index = AboxIndex(fixtures_graph)
        degrees = [len(v) for v in
                   index.successors(PropRef(SCHEMA.causes)).values()]
        cap = max(degrees) + 1
        assert index.evaluate(MaxCard(PropRef(SCHEMA.causes), cap)) == \
            set(index.universe)

    def test_cancer_count(self, seed_graph):
        assert len(query(seed_graph, "Cancer")) == 34

    def test_nominal_filler(self, seed_graph):
        hits = query(seed_graph, "Biomarker and haveSignificance some High")
        assert ono("TP53") in hits


def test_paper_query_pack_matches_oracle(fixtures_graph):
    with open(data_path("dlx_pack.json"), encoding="utf-8") as fh:
        pack = json.load(fh)
    assert len(pack) == 17
    for entry in pack:
        expr = parse_dlx(entry["expression"], fixtures_graph)
        engine = set(instances(fixtures_graph, expr))
        oracle = dl_instances(fixtures_graph, expr)
        assert engine == oracle, entry["id"]


def test_random_expressions_match_oracle():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(60):
        graph = random_graph(rng, max_triples=60)
        for _ in range(4):
            expr = random_dl_expr(rng, graph, depth=3)
            if set(instances(graph, expr)) != \
                    dl_instances(graph, expr):
                mismatches += 1
    assert mismatches == 0


class TestEvaluatorLaws:
    def test_and_or_are_set_operations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            graph = random_graph(rng, max_triples=50)
            index = AboxIndex(graph)
            a = random_dl_expr(rng, graph, depth=2)
            b = random_dl_expr(rng, graph, depth=2)
            left = index.evaluate(And((a, b)))
            assert left == index.evaluate(a) & index.evaluate(b)
            assert index.evaluate(Or((a, b))) == \
                index.evaluate(a) | index.evaluate(b)

    def test_conjunct_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            graph = random_graph(rng, max_triples=50)
            index = AboxIndex(graph)
            a = random_dl_expr(rng, graph, depth=2)
            b = random_dl_expr(rng, graph, depth=2)
            assert index.evaluate(And((a, b))) <= index.evaluate(a)
            assert index.evaluate(Or((a, b))) >= index.evaluate(a)

    def test_only_within_some_complement(self, fixtures_graph):
        # where every instance has a causes-successor, `only` implies the
        # negation of `some` into the complementary filler
        index = AboxIndex(fixtures_graph)
        filler = Atomic(ono("BRCA"))
        succ = index.successors(PropRef(SCHEMA.causes))
        total = {x for x, targets in succ.items() if targets}
        only_in = index.evaluate(Only(PropRef(SCHEMA.causes), filler))
        brca_set = index.evaluate(filler)
        for x in only_in & total:
            assert succ[x] <= brca_set


class TestClosure:
    def test_single_class_reflexive(self):
        g = Graph()
        g.insert(Triple(ono("Solo"), RDFS_SUBCLASS, ono("Solo2")))
        index = ClassIndex(g)
        solo, solo2 = g.term_id(ono("Solo")), g.term_id(ono("Solo2"))
        assert index.descendants(solo) == {solo}
        assert index.descendants(solo2) == {solo, solo2}

    def test_cycle_raises_with_members(self):
        g = Graph()
        g.insert(Triple(ono("Alpha"), RDFS_SUBCLASS, ono("Beta")))
        g.insert(Triple(ono("Beta"), RDFS_SUBCLASS, ono("Alpha")))
        with pytest.raises(HierarchyCycleError) as err:
            AboxIndex(g)
        assert {ono("Alpha"), ono("Beta")} <= set(err.value.cycle)

    def test_random_dag_matches_matrix_reachability(self):
        from oracles import reachability_closure
        rng = np.random.default_rng(3)
        for _ in range(15):
            graph = random_graph(rng, max_triples=40)
            index = ClassIndex(graph)
            pairs = {(graph.term(c), graph.term(p)) for p in index.parents
                     for c in index.descendants(p)}
            assert pairs == reachability_closure(graph)


class TestSyllogism:
    def test_oncogene_rule_on_tp53(self, seed_graph):
        deduction = deduce_syllogism(seed_graph,
                                     SYLLOGISM_RULES["oncogene-rule"],
                                     ono("TP53"))
        assert deduction.holds
        assert deduction.derived == Triple(ono("TP53"), SCHEMA.causes,
                                           SCHEMA.cancer)
        assert len(deduction.trace) == 3
        assert deduction.trace[-1].endswith("TP53 causes Cancer")

    def test_missing_premise_gives_empty_trace(self, seed_graph):
        deduction = deduce_syllogism(seed_graph,
                                     SYLLOGISM_RULES["oncogene-rule"],
                                     ono("BRCA1"))
        assert not deduction.holds
        assert deduction.trace == []

    def test_rule_application_is_stable(self, seed_graph):
        first = deduce_syllogism(seed_graph,
                                 SYLLOGISM_RULES["oncogene-rule"],
                                 ono("TP53"))
        second = deduce_syllogism(seed_graph,
                                  SYLLOGISM_RULES["oncogene-rule"],
                                  ono("TP53"))
        assert first.derived == second.derived
        assert first.trace == second.trace

    def test_derived_triple_not_persisted_by_default(self, seed_copy):
        before = len(seed_copy)
        deduction = deduce_syllogism(seed_copy,
                                     SYLLOGISM_RULES["oncogene-rule"],
                                     ono("TP53"))
        assert len(seed_copy) == before
        assert deduction.derived not in seed_copy
        seed_copy.insert(deduction.derived)
        assert deduction.derived in seed_copy


def test_concurrent_readers_fill_the_shared_cache(seed_copy):
    # Readers race to fill the graph's derived-value cache (ClassIndex,
    # AboxIndex, NameResolver); each must get a lone reader's answer.
    import sys
    import threading
    text = "Cancer and inverse causes some TP53"
    expected = query(seed_copy.copy(), text)
    results = []
    threads = [threading.Thread(
        target=lambda: results.append(query(seed_copy, text)))
        for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(threads)
