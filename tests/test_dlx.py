import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import copy_graph, split_graph
from oracles import (EX, dl_instances, dl_tokens, graph_vocabulary,
                     random_dl_expr, random_graph)
from onokg.dlx import (AboxIndex, And, Atomic, DlxParseError,
                       HierarchyCycleError, MAX_NESTING, MaxCard, MinCard,
                       Only, Or, PropRef, Some, SYLLOGISM_RULES,
                       UnknownNameError, _Tokens, deduce_syllogism,
                       instances, parse_dlx, query)
from onokg.kg import Graph, Triple, iri, literal
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


# name characters and digits, keywords in mixed case, parentheses, ASCII
# and Unicode whitespace, and stray characters: the long s and the Kelvin
# sign fold to ASCII letters, but are not name characters
_DL_PIECES = st.sampled_from(
    list("aZq09_-") + ["Cancer", "TP53", "AND", "Or", "sOmE", "inverse",
                       "MIN", "max", "only"]
    + list("()") + [" ", "\t", "\n", "\x1c", "\u00a0", "\u3000"]
    + ["\u00e9", "*", ".", "\u017f", "\u212a"])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(_DL_PIECES, max_size=12).map("".join))
def test_tokens_match_character_loop(text):
    try:
        expected = dl_tokens(text)
    except DlxParseError as exc:
        with pytest.raises(DlxParseError) as err:
            _Tokens(text)
        assert str(err.value) == str(exc)
        return
    assert _Tokens(text).items == expected


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
        assert AboxIndex(g).evaluate(expr)[g.term_id(ono("z"))]

    def test_min_zero_is_universal(self, fixtures_graph):
        index = AboxIndex(fixtures_graph)
        everything = index.evaluate(MinCard(PropRef(SCHEMA.causes), 0))
        assert np.array_equal(everything, index.universe)

    def test_max_above_outdegree_is_no_constraint(self, fixtures_graph):
        index = AboxIndex(fixtures_graph)
        sources, _ = index.successors(PropRef(SCHEMA.causes))
        cap = np.bincount(sources).max() + 1
        assert np.array_equal(
            index.evaluate(MaxCard(PropRef(SCHEMA.causes), cap)),
            index.universe)

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


def test_universe_and_properties_match_row_scan():
    # the graphs of the oracle test below; every fourth one gets a second
    # `add_ids` batch, so its base is built again
    rng = np.random.default_rng(7)
    for n in range(60):
        graph = random_graph(rng, max_triples=60)
        if n % 4 == 0:
            graph.add_ids([graph.intern(term) for triple in
                           random_graph(rng, max_triples=20).match()
                           for term in triple])
        rows = graph.id_table().tolist()
        literal = {i for i, t in enumerate(graph.terms())
                   if t.kind == "literal"}
        universe = set(np.flatnonzero(AboxIndex(graph).universe).tolist())
        assert universe == \
            {s for s, _, _ in rows} | {o for _, _, o in rows} - literal
        assert graph.key_ids(0) == sorted({s for s, _, _ in rows})
        assert graph.key_ids(1) == sorted({p for _, p, _ in rows})
        assert graph.key_ids(2) == sorted({o for _, _, o in rows})


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


def test_edge_expressions_match_oracle_on_split_graphs():
    # each graph holds a base and buffered inserts when it is first
    # queried, so the evaluator reads freshly folded columns
    rng = np.random.default_rng(19)
    unused = iri(EX + "unused")    # never interned
    score = iri(EX + "score")      # only literal objects
    for _ in range(40):
        built = random_graph(rng, max_triples=60)
        classes, props, individuals = graph_vocabulary(built)
        for i, entity in enumerate(individuals):
            built.insert(Triple(entity, score, literal(str(i % 3))))
        graph = split_graph(built, int(rng.integers(len(built))))
        filler = Atomic(classes[0])
        # an individual is interned but is no triple's predicate
        refs = [PropRef(unused), PropRef(individuals[0]),
                PropRef(score), PropRef(score, inverse=True)]
        refs += [PropRef(p, inverse) for p in props
                 for inverse in (False, True)]
        exprs = [random_dl_expr(rng, graph, depth=3) for _ in range(4)]
        for ref in refs:
            exprs += [Some(ref, filler), Only(ref, filler), MinCard(ref, 0),
                      MinCard(ref, 1), MaxCard(ref, 0), MaxCard(ref, 1)]
        for expr in exprs:
            assert set(instances(graph, expr)) == \
                dl_instances(graph, expr), expr


def test_empty_graph_has_no_instances():
    graph = Graph()
    ref = PropRef(iri(EX + "p"))
    filler = Atomic(iri(EX + "C"))
    for expr in (filler, Some(ref, filler), Only(ref, filler),
                 MinCard(ref, 0), MaxCard(ref, 0),
                 Or((filler, MaxCard(PropRef(ref.term, True), 2)))):
        assert instances(graph, expr) == []
        assert dl_instances(graph, expr) == set()


def test_write_after_a_query_is_seen(seed_copy):
    # the index holds views of the store's columns; a write must drop it
    text = "Cancer and inverse causes some TP53"
    before = query(seed_copy, text)
    added = next(c for c in query(seed_copy, "Cancer") if c not in before)
    seed_copy.insert(Triple(ono("TP53"), SCHEMA.causes, added))
    after = query(seed_copy, text)
    assert after == sorted(before + [added])
    assert set(after) == dl_instances(seed_copy, parse_dlx(text, seed_copy))


class TestEvaluatorLaws:
    def test_and_or_are_set_operations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            graph = random_graph(rng, max_triples=50)
            index = AboxIndex(graph)
            a = random_dl_expr(rng, graph, depth=2)
            b = random_dl_expr(rng, graph, depth=2)
            left = index.evaluate(And((a, b)))
            assert np.array_equal(left, index.evaluate(a)
                                  & index.evaluate(b))
            assert np.array_equal(index.evaluate(Or((a, b))),
                                  index.evaluate(a) | index.evaluate(b))

    def test_conjunct_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            graph = random_graph(rng, max_triples=50)
            index = AboxIndex(graph)
            a = random_dl_expr(rng, graph, depth=2)
            b = random_dl_expr(rng, graph, depth=2)
            # masks: `<=` is elementwise implication
            assert np.all(index.evaluate(And((a, b))) <= index.evaluate(a))
            assert np.all(index.evaluate(Or((a, b))) >= index.evaluate(a))

    def test_only_within_some_complement(self, fixtures_graph):
        # where every instance has a causes-successor, `only` implies the
        # negation of `some` into the complementary filler
        index = AboxIndex(fixtures_graph)
        filler = Atomic(ono("BRCA"))
        sources, targets = index.successors(PropRef(SCHEMA.causes))
        only_in = index.evaluate(Only(PropRef(SCHEMA.causes), filler))
        brca = index.evaluate(filler)
        assert only_in[sources].any()
        for x, y in zip(sources.tolist(), targets.tolist()):
            if only_in[x]:
                assert brca[y]


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
    expected = query(copy_graph(seed_copy), text)
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
