import json
import subprocess
import sys

import pytest

from onokg.cli import main


@pytest.fixture(scope="module")
def kg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("kg") / "seed.nt"
    assert main(["build", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def fixtures_kg_file(tmp_path_factory, fixtures_graph):
    from onokg.ntriples import save_file
    path = tmp_path_factory.mktemp("kg") / "seed_fixtures.nt"
    save_file(fixtures_graph, path)
    return path


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "onokg.cli", *args],
                          capture_output=True, text=True, **kwargs)


class TestBuild:
    def test_reports_stats(self, capsys, tmp_path):
        assert main(["build", "--out", str(tmp_path / "s.nt")]) == 0
        out = capsys.readouterr().out
        assert "potsf_biomarkers: 83" in out
        assert "cancers: 34" in out

    def test_rebuild_byte_identical(self, tmp_path, kg_file):
        other = tmp_path / "again.nt"
        assert main(["build", "--out", str(other)]) == 0
        assert other.read_bytes() == kg_file.read_bytes()

    def test_unwritable_target_exits_2(self, tmp_path):
        missing_parent = tmp_path / "no" / "such" / "dir" / "s.nt"
        assert main(["build", "--out", str(missing_parent)]) == 2


class TestQuery:
    def test_pack_runs(self, kg_file, capsys):
        assert main(["query", "--kg", str(kg_file), "--pack"]) == 0
        out = capsys.readouterr().out
        assert out.count("##") == 5

    def test_json_format_is_valid(self, kg_file, tmp_path, capsys):
        query = tmp_path / "q.rq"
        query.write_text(
            "PREFIX ono: <http://www.example.com/ontologies/ono/ono.owl#>\n"
            "SELECT ?x WHERE { ?x ono:causes ono:BRCA . }",
            encoding="utf-8")
        assert main(["query", "--kg", str(kg_file), "--file", str(query),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["header"] == ["x"]
        assert payload["rows"]

    def test_empty_query_file_exits_1(self, kg_file, tmp_path, capsys):
        query = tmp_path / "empty.rq"
        query.write_text("", encoding="utf-8")
        assert main(["query", "--kg", str(kg_file),
                     "--file", str(query)]) == 1

    def test_missing_kg_exits_2(self, tmp_path):
        assert main(["query", "--kg", str(tmp_path / "none.nt"),
                     "--pack"]) == 2

    def test_deterministic_output(self, kg_file, tmp_path):
        query = tmp_path / "q.rq"
        query.write_text(
            "PREFIX ono: <http://www.example.com/ontologies/ono/ono.owl#>\n"
            "SELECT DISTINCT ?x WHERE { ?x ono:isA ono:POTSF . }",
            encoding="utf-8")
        first = run_cli(["query", "--kg", str(kg_file), "--file",
                         str(query)])
        second = run_cli(["query", "--kg", str(kg_file), "--file",
                          str(query)])
        assert first.stdout == second.stdout
        assert first.returncode == 0


class TestDlq:
    def test_expression(self, kg_file, capsys):
        assert main(["dlq", "--kg", str(kg_file),
                     "Biomarker and causes some BRCA and isA only POTSF"]
                    ) == 0
        out = capsys.readouterr().out.split()
        assert "TP53" in out

    def test_unknown_name_exits_1(self, kg_file, capsys):
        assert main(["dlq", "--kg", str(kg_file),
                     "Biomarker and causes some Zzz"]) == 1
        assert "Zzz" in capsys.readouterr().err

    def test_pack_on_fixtures_graph(self, fixtures_kg_file, capsys):
        assert main(["dlq", "--kg", str(fixtures_kg_file), "--pack"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 17
        assert not any("skipped" in line for line in lines)

    def test_pack_on_bare_seed_skips_fixture_names(self, kg_file, capsys):
        assert main(["dlq", "--kg", str(kg_file), "--pack"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 17
        assert any("skipped" in line for line in lines)


class TestRepl:
    def test_scripted_session(self, kg_file):
        result = run_cli(["repl", "--kg", str(kg_file)],
                         input=":dlq Cancer\n:quit\n")
        assert result.returncode == 0
        lines = [l for l in result.stdout.splitlines() if l]
        assert len(lines) == 34

    def test_immediate_quit(self, kg_file):
        result = run_cli(["repl", "--kg", str(kg_file)], input=":quit\n")
        assert result.returncode == 0

    def test_deduce_rule(self, kg_file):
        result = run_cli(["repl", "--kg", str(kg_file)],
                         input=":deduce oncogene-rule TP53\n:quit\n")
        assert result.returncode == 0
        assert result.stdout.strip().endswith("TP53 causes Cancer")

    def test_repl_matches_batch(self, kg_file):
        expression = "Biomarker and haveSignificance some High"
        batch = run_cli(["dlq", "--kg", str(kg_file), expression])
        repl = run_cli(["repl", "--kg", str(kg_file)],
                       input=f":dlq {expression}\n:quit\n")
        assert repl.stdout == batch.stdout

    def test_unknown_command_keeps_session(self, kg_file):
        result = run_cli(["repl", "--kg", str(kg_file)],
                         input=":nope\n:quit\n")
        assert result.returncode == 0
        assert "unknown command" in result.stdout
        assert ":sparql" in result.stdout  # help text shown


class TestModelCommands:
    def test_tag_text(self, kg_file, checkpoint_path, capsys):
        assert main(["tag", "--model", str(checkpoint_path),
                     "--text", "TP53 causes Breast Cancer."]) == 0
        out = capsys.readouterr().out
        assert "'TP53' Gene" in out
        assert "'Breast Cancer' Disease" in out

    def test_extract_json(self, checkpoint_path, capsys):
        assert main(["extract", "--model", str(checkpoint_path),
                     "--text", "TP53 is responsible for a disease called "
                               "Breast Cancer.", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(r["label"] == "causes" for r in rows)

    def test_explain_html(self, checkpoint_path, tmp_path, capsys):
        out_file = tmp_path / "heat.html"
        assert main(["explain", "--model", str(checkpoint_path),
                     "--text", "TP53 causes Breast Cancer.",
                     "--format", "html", "--out", str(out_file)]) == 0
        assert "data-score" in out_file.read_text(encoding="utf-8")

    def test_ingest_demo_corpus(self, kg_file, checkpoint_path, tmp_path,
                                capsys):
        from onokg.ontology import data_path
        out = tmp_path / "enriched.nt"
        assert main(["ingest", "--kg", str(kg_file),
                     "--corpus", str(data_path("demo_corpus")),
                     "--model", str(checkpoint_path),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "accepted" in printed
        assert out.exists()

    def test_ingest_empty_corpus(self, kg_file, checkpoint_path, tmp_path,
                                 capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "same.nt"
        assert main(["ingest", "--kg", str(kg_file), "--corpus", str(empty),
                     "--model", str(checkpoint_path),
                     "--out", str(out)]) == 0
        assert "proposed 0" in capsys.readouterr().out

    def test_failed_in_place_ingest_keeps_kg(self, kg_file, checkpoint_path,
                                             tmp_path, failing_writes,
                                             capsys):
        from onokg.ontology import data_path
        kg = tmp_path / "kg.nt"
        kg.write_bytes(kg_file.read_bytes())
        capsys.readouterr()
        assert main(["ingest", "--kg", str(kg),
                     "--corpus", str(data_path("demo_corpus")),
                     "--model", str(checkpoint_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write")
        assert kg.read_bytes() == kg_file.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["kg.nt"]

    @pytest.mark.parametrize("command", ["tag", "explain", "ingest"])
    def test_checkpoint_narrower_than_features(self, kg_file,
                                               checkpoint_path, tmp_path,
                                               capsys, command):
        from onokg.ontology import data_path
        payload = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        for model in payload["models"].values():
            model["weights"] = [row[:10] for row in model["weights"]]
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps(payload), encoding="utf-8")
        argv = {"tag": ["tag", "--text", "TP53 causes Breast Cancer."],
                "explain": ["explain", "--text", "TP53 causes BRCA."],
                "ingest": ["ingest", "--kg", str(kg_file), "--corpus",
                           str(data_path("demo_corpus")), "--out",
                           str(tmp_path / "out.nt")]}[command]
        capsys.readouterr()
        assert main(argv + ["--model", str(narrow)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed checkpoint {narrow}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.nt").exists()

    def test_missing_model_exits_errorcode(self, kg_file, tmp_path):
        code = main(["tag", "--model", str(tmp_path / "none.json"),
                     "--text", "x"])
        assert code == 2


class TestQaExport:
    def test_qa_table(self, kg_file, capsys):
        assert main(["qa", "--kg", str(kg_file)]) == 0
        out = capsys.readouterr().out
        assert "schema_completeness" in out
        assert "labeled_resources" in out
        assert "pitfalls:" in out

    def test_qa_json(self, kg_file, capsys):
        assert main(["qa", "--kg", str(kg_file), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_completeness"]["value"] == 1.0

    def test_export_csv(self, kg_file, tmp_path, capsys):
        out = tmp_path / "kg.csv"
        assert main(["export", "--kg", str(kg_file), "--out", str(out),
                     "--format", "csv"]) == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "subject,predicate,object"

    def test_export_round_trip(self, kg_file, tmp_path):
        from onokg.ntriples import load_file
        out = tmp_path / "copy.nt"
        assert main(["export", "--kg", str(kg_file),
                     "--out", str(out)]) == 0
        assert set(load_file(out).graph) == set(load_file(kg_file).graph)


class TestConfigPrecedence:
    def test_env_threshold(self, monkeypatch):
        from onokg.cli import AppConfig
        import argparse
        monkeypatch.setenv("ONOKG_THRESHOLD", "0.9")
        cfg = AppConfig.resolve(argparse.Namespace())
        assert cfg.threshold == 0.9

    def test_flag_beats_env(self, monkeypatch):
        from onokg.cli import AppConfig
        import argparse
        monkeypatch.setenv("ONOKG_SEED", "7")
        cfg = AppConfig.resolve(argparse.Namespace(seed=11))
        assert cfg.seed == 11

    def test_config_file_lowest(self, monkeypatch, tmp_path):
        from onokg.cli import AppConfig
        import argparse
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 3, "threshold": 0.25}', encoding="utf-8")
        monkeypatch.delenv("ONOKG_SEED", raising=False)
        cfg = AppConfig.resolve(argparse.Namespace(config=str(path)))
        assert cfg.seed == 3 and cfg.threshold == 0.25

    def test_invalid_threshold_rejected(self):
        from onokg.cli import AppConfig, UserError
        import argparse
        with pytest.raises(UserError):
            AppConfig.resolve(argparse.Namespace(threshold=1.5))


class TestConfigErrors:
    """A bad config file ends in one `error:` line and exit code 1; one
    that cannot be read exits 2, like any other I/O error."""

    def assert_one_error_line(self, capsys, argv, code=1):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_config_unreadable(self, kg_file, tmp_path, capsys, name):
        path = tmp_path / name
        self.assert_one_error_line(
            capsys, ["--config", str(path), "qa", "--kg", str(kg_file)],
            code=2)

    def test_config_not_json(self, kg_file, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{seed: 3", encoding="utf-8")
        self.assert_one_error_line(
            capsys, ["--config", str(path), "qa", "--kg", str(kg_file)])

    def test_config_not_an_object(self, kg_file, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('"seed"', encoding="utf-8")
        self.assert_one_error_line(
            capsys, ["--config", str(path), "qa", "--kg", str(kg_file)])

    def test_config_bad_value(self, kg_file, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": "many"}', encoding="utf-8")
        self.assert_one_error_line(
            capsys, ["--config", str(path), "qa", "--kg", str(kg_file)])

    @pytest.mark.parametrize("text", [
        '{"completeness_class": "http://x.org/C"}',
        '{"completeness_predicate": "http://x.org/p"}',
        '{"gold_classes": [',
        '["not", "an", "object"]',
        '{"range_predicate": "http://x.org/p", "range_lower": 5, '
        '"range_upper": 1}',
        '{"resolver_mode": "psychic"}',
        '{"gold_classes": [3]}',
        '{"home_namespaces": "http://x.org/"}',
        '{"range_predicate": "http://x.org/p", "range_lower": "1", '
        '"range_upper": "5"}',
    ])
    def test_quality_config_errors(self, kg_file, tmp_path, capsys, text):
        path = tmp_path / "quality.json"
        path.write_text(text, encoding="utf-8")
        self.assert_one_error_line(
            capsys, ["qa", "--kg", str(kg_file), "--quality-config",
                     str(path)])

class TestTrainCommand:
    def test_small_training_run(self, tmp_path, capsys):
        out = tmp_path / "small.json"
        assert main(["train", "--out", str(out), "--sentences", "150",
                     "--epochs", "2"]) == 0
        printed = capsys.readouterr().out
        assert "held-out entities" in printed
        assert out.exists()
        from onokg.ie.tagger import load_checkpoint
        loaded = load_checkpoint(out)
        assert set(loaded.models) == {"Disease", "Gene"}

    # overflow warnings would print lines of their own next to the error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("option", [
        ["--batch-size", "0"], ["--sentences", "0"], ["--sentences", "1"],
        ["--lr", "nan"], ["--lr", "inf"], ["--lr", "1e308"]])
    def test_bad_option_one_error_line(self, tmp_path, capsys, option):
        out = tmp_path / "model.json"
        assert main(["train", "--out", str(out), "--sentences", "20",
                     "--epochs", "1", *option]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestExplainJson:
    def test_relevance_dump_schema(self, checkpoint_path, capsys):
        assert main(["explain", "--model", str(checkpoint_path),
                     "--text", "TP53 causes Breast Cancer.",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"tokens", "scores", "method", "epsilon",
                                "delta"}
        assert len(payload["tokens"]) == len(payload["scores"])
        assert payload["method"] == "lrp"


class TestReplSparqlAndQa:
    def test_repl_sparql_matches_batch(self, kg_file, tmp_path):
        query = tmp_path / "q.rq"
        query.write_text(
            "PREFIX ono: <http://www.example.com/ontologies/ono/ono.owl#>\n"
            "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
            "SELECT DISTINCT ?l WHERE { ?g ono:isA ono:POTSF . "
            "?g rdfs:label ?l . }", encoding="utf-8")
        batch = run_cli(["query", "--kg", str(kg_file), "--file",
                         str(query)])
        repl = run_cli(["repl", "--kg", str(kg_file)],
                       input=f":sparql {query}\n:quit\n")
        assert repl.stdout == batch.stdout

    def test_repl_qa_matches_batch(self, kg_file):
        batch = run_cli(["qa", "--kg", str(kg_file)])
        repl = run_cli(["repl", "--kg", str(kg_file)],
                       input=":qa\n:quit\n")
        assert repl.stdout == batch.stdout
