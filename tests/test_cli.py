import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onokg.cli import main
from onokg.ie import train as train_mod
from onokg.ontology import data_path


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

    @pytest.mark.parametrize("target", ["no/such/dir/s.nt", "a-directory"])
    def test_write_error_names_only_the_target(self, tmp_path, capsys,
                                               target):
        (tmp_path / "a-directory").mkdir()
        out = tmp_path / target
        assert main(["build", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        prefix = f"error: cannot write {out}: "
        assert len(err) == 1 and err[0].startswith(prefix)
        # no other path, such as the temporary file's
        assert str(tmp_path) not in err[0][len(prefix):]
        assert [p.name for p in tmp_path.iterdir()] == ["a-directory"]


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

    def test_pack_json_on_seed_kg(self, kg_file, capsys):
        # one JSON list in pack order; each entry is what the query's own
        # file gives with --format json, under the query's name
        assert main(["query", "--kg", str(kg_file), "--pack",
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        entries = json.loads(out)
        assert out == json.dumps(entries, indent=2) + "\n"
        paths = sorted(data_path("sparql_pack").glob("*.rq"))
        assert [e["name"] for e in entries] == [p.stem for p in paths]
        assert len(entries) == 5
        for entry, path in zip(entries, paths):
            assert list(entry) == ["name", "header", "rows"]
            assert main(["query", "--kg", str(kg_file), "--file", str(path),
                         "--format", "json"]) == 0
            alone = json.loads(capsys.readouterr().out)
            assert alone == {"header": entry["header"],
                             "rows": entry["rows"]}

    def test_empty_query_file_exits_1(self, kg_file, tmp_path, capsys):
        query = tmp_path / "empty.rq"
        query.write_text("", encoding="utf-8")
        assert main(["query", "--kg", str(kg_file),
                     "--file", str(query)]) == 1

    def test_missing_kg_exits_2(self, tmp_path):
        assert main(["query", "--kg", str(tmp_path / "none.nt"),
                     "--pack"]) == 2

    def test_exponential_regex_is_one_error_line(self, tmp_path, capsys):
        # a backtracking search for this pattern doubles its time with
        # each further "a" of the label, so it is refused before it runs
        kg = tmp_path / "one.nt"
        kg.write_text('<a:s> <a:label> "' + "a" * 20 + 'b" .\n',
                      encoding="utf-8")
        query = tmp_path / "q.rq"
        query.write_text('SELECT ?s WHERE { ?s <a:label> ?l . '
                         'FILTER (regex(?l, "^(a|a)*$")) }', encoding="utf-8")
        assert main(["query", "--kg", str(kg), "--file", str(query)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "regex pattern '^(a|a)*$'" in err

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


def test_stdout_does_not_depend_on_the_hash_seed(fixtures_kg_file):
    # set and dict order over Terms follows the hash seed, and the store's
    # match order follows its layout: neither may reach stdout
    script = ("import sys\nfrom onokg.cli import main\n"
              "for argv in ([\"query\", \"--pack\"], [\"dlq\", \"--pack\"],"
              " [\"qa\", \"--format\", \"json\"]):\n"
              "    assert main([*argv, \"--kg\", sys.argv[1]]) == 0\n")
    outputs = []
    for hash_seed in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-c", script, str(fixtures_kg_file)],
            capture_output=True, env={**os.environ,
                                      "PYTHONHASHSEED": hash_seed})
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"## q") == 5  # the pack ran


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


    def test_pack_json_on_seed_kg(self, kg_file, capsys):
        # the table's entries in pack order, as one JSON list: each names
        # its instances or why it was skipped
        assert main(["dlq", "--kg", str(kg_file), "--pack"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert main(["dlq", "--kg", str(kg_file), "--pack",
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out)
        assert out == json.dumps(rows, indent=2) + "\n"
        pack = json.loads(data_path("dlx_pack.json").read_text(
            encoding="utf-8"))
        assert [row["id"] for row in rows] == [e["id"] for e in pack]
        assert {"skipped"} in [set(row) - {"id"} for row in rows]
        for row, line, entry in zip(rows, table, pack):
            if "skipped" in row:
                assert set(row) == {"id", "skipped"}
                assert line == f"{row['id']}: (skipped: {row['skipped']})"
                continue
            assert set(row) == {"id", "instances"}
            assert line == f"{row['id']}: [{', '.join(row['instances'])}]"
            assert main(["dlq", "--kg", str(kg_file), entry["expression"],
                         "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == row["instances"]


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
        payload = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        for model in payload["models"].values():
            model["weights"] = [row[:10] for row in model["weights"]]
        self.assert_malformed(payload, kg_file, tmp_path, capsys, command)

    @pytest.mark.parametrize("command", ["tag", "explain", "ingest"])
    @pytest.mark.parametrize("defect", ["no models", "features not object",
                                        "not an object"])
    def test_checkpoint_without_models_or_feature_table(
            self, kg_file, checkpoint_path, tmp_path, capsys, command,
            defect):
        payload = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        if defect == "no models":
            payload["models"] = {}
        elif defect == "features not object":
            payload["features"] = [1, 2]
        else:
            payload = [payload]
        self.assert_malformed(payload, kg_file, tmp_path, capsys, command)

    @pytest.mark.parametrize("part, value", [
        ("models", {"Gene": 5}),
        ("models", {"Gene": {"weights": {}, "bias": [0] * 7}}),
        ("gazetteers", [1]), ("vocab", 3),
        ("features", {"w=a": "0", "w=b": 1})],
        ids=["model not object", "weights not numbers",
             "gazetteers not object", "vocab not strings",
             "feature id not int"])
    def test_checkpoint_with_malformed_part(self, kg_file, checkpoint_path,
                                            tmp_path, capsys, part, value):
        payload = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        payload[part] = value
        self.assert_malformed(payload, kg_file, tmp_path, capsys, "tag")

    @staticmethod
    def assert_malformed(payload, kg_file, tmp_path, capsys, command):
        from onokg.ontology import data_path
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        argv = {"tag": ["tag", "--text", "TP53 causes Breast Cancer."],
                "explain": ["explain", "--text", "TP53 causes BRCA."],
                "ingest": ["ingest", "--kg", str(kg_file), "--corpus",
                           str(data_path("demo_corpus")), "--out",
                           str(tmp_path / "out.nt")]}[command]
        capsys.readouterr()
        assert main(argv + ["--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed checkpoint {bad}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.nt").exists()

    @pytest.mark.parametrize("part, value", [
        *[(part, value) for part in ("weights", "bias")
          for value in ("NaN", "Infinity", "-Infinity")],
        ("tags", None)])
    def test_checkpoint_that_cannot_describe_a_model(
            self, kg_file, checkpoint_path, tmp_path, part, value):
        """A non-finite weight or bias, which JSON reads, or a reordered
        tag list is refused at load: each command ends in one `error:`
        line, with no warning and nothing on stdout."""
        from onokg.ie.tagger import TAGS, CheckpointError, load_checkpoint
        payload = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        gene = payload["models"]["Gene"]
        if part == "weights":
            gene["weights"][2][0] = float(value)
        elif part == "bias":
            gene["bias"][2] = float(value)
        else:
            payload["tags"] = ["I", "B", *TAGS[2:]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError,
                           match="'Gene'" if value else '"tags"'):
            load_checkpoint(bad)
        out = tmp_path / "out.nt"
        for argv in (["tag", "--text", "TP53 causes Breast Cancer."],
                     ["extract", "--text", "TP53 causes Breast Cancer."],
                     ["ingest", "--kg", str(kg_file), "--corpus",
                      str(data_path("demo_corpus")), "--out", str(out)],
                     ["explain", "--text", "TP53 causes BRCA."]):
            stdout = io.StringIO()
            code, err = run_quietly(argv + ["--model", str(bad)], stdout)
            assert_failed_cleanly(code, err, out)
            assert code == 1 and stdout.getvalue() == ""
            assert err.startswith(f"error: malformed checkpoint {bad}: ")

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_export_keeps_target(self, kg_file, tmp_path, capsys,
                                        failing_writes, fmt):
        out = tmp_path / f"kg.{fmt}"
        out.write_text("old\n", encoding="utf-8")
        assert main(["export", "--kg", str(kg_file), "--out", str(out),
                     "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1
        assert out.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == [out.name]

    @pytest.mark.parametrize("fmt", ["ntriples", "json", "csv"])
    def test_export_bytes(self, kg_file, tmp_path, monkeypatch, fmt):
        # every format lists the triples in id order, each term in its
        # N-Triples form; N-Triples is written in chunks of a few lines
        from onokg import ntriples
        monkeypatch.setattr(ntriples, "CHUNK_LINES", 7)
        rows = [[term.n3() for term in triple]
                for triple in ntriples.load_file(kg_file).graph.match()]
        if fmt == "ntriples":
            expected = "".join(f"{s} {p} {o} .\n" for s, p, o in rows)
        elif fmt == "json":
            expected = json.dumps(rows, indent=2)
        else:
            buffer = io.StringIO()
            csv.writer(buffer).writerows(
                [["subject", "predicate", "object"], *rows])
            expected = buffer.getvalue()
        out = tmp_path / f"kg.{fmt}"
        assert main(["export", "--kg", str(kg_file), "--out", str(out),
                     "--format", fmt]) == 0
        assert out.read_bytes() == expected.encode("utf-8")

    def test_export_json_matches_the_indenting_encoder(self, tmp_path):
        # the JSON export is json.dumps(rows, indent=2), byte for byte, for
        # no triples and for literals that JSON or N-Triples escapes
        from onokg.kg import Graph, iri, literal
        from onokg.ntriples import load_file, rendered_rows, save_file
        texts = ['say "hi"', "back\\slash", "two\nlines", "a\tb",
                 "Krebs ü → 癌", '"\\\n\t"', "]\n    ["]
        graph = Graph()
        for i, text in enumerate(texts):
            graph.insert((iri(f"a:s{i}"), iri("a:label"), literal(text)))
        graph.insert((iri("a:s0"), iri("a:note"),
                      literal("ja", language="ja")))
        for name, kg in (("empty", Graph()), ("escapes", graph)):
            path, out = tmp_path / f"{name}.nt", tmp_path / f"{name}.json"
            save_file(kg, path)
            assert main(["export", "--kg", str(path), "--out", str(out),
                         "--format", "json"]) == 0
            expected = json.dumps(rendered_rows(load_file(path).graph),
                                  indent=2)
            assert out.read_bytes() == expected.encode("utf-8")

    def test_export_round_trip(self, kg_file, tmp_path):
        from onokg.ntriples import load_file
        out = tmp_path / "copy.nt"
        assert main(["export", "--kg", str(kg_file),
                     "--out", str(out)]) == 0
        assert (set(load_file(out).graph.match())
                == set(load_file(kg_file).graph.match()))


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

    def test_env_model_alone_selects_the_checkpoint(self, checkpoint_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv("ONOKG_MODEL", str(checkpoint_path))
        assert main(["tag", "--text", "TP53 causes Breast Cancer."]) == 0
        assert "'TP53' Gene" in capsys.readouterr().out

    def test_threshold_flag_beats_env_in_ingest(self, kg_file,
                                                checkpoint_path, tmp_path,
                                                monkeypatch, capsys):
        from onokg.ontology import data_path
        monkeypatch.setenv("ONOKG_THRESHOLD", "0")
        assert main(["ingest", "--kg", str(kg_file),
                     "--corpus", str(data_path("demo_corpus")),
                     "--model", str(checkpoint_path), "--threshold", "1.0",
                     "--out", str(tmp_path / "out.nt")]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        proposed = int(summary.split(",")[0].removeprefix("proposed "))
        assert proposed > 0 and "accepted 0 " in summary
        assert summary.endswith(f"rejected {proposed}")


class TestConfigErrors:
    """A bad config file ends in one `error:` line and exit code 1; one
    that cannot be read exits 2, like any other I/O error."""

    def assert_one_error_line(self, capsys, argv, code=1):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

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

    @pytest.mark.parametrize("text, key", [
        ('{"seed": "many"}', "seed"),
        # a file value has its JSON type: an integer seed, a number
        # threshold (neither a bool) and a string path
        ('{"seed": 2.7}', "seed"), ('{"seed": true}', "seed"),
        ('{"threshold": true}', "threshold"),
        ('{"threshold": "0.9"}', "threshold"), ('{"model": 3}', "model"),
        ('{"data_dir": ["d"]}', "data_dir"),
        # and a file holds only the settings the program reads
        ('{"treshold": 0.9}', "treshold"), ('{"seed": 3, "lr": 0.1}', "lr")])
    def test_config_bad_value(self, kg_file, tmp_path, capsys, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        err = self.assert_one_error_line(
            capsys, ["--config", str(path), "qa", "--kg", str(kg_file)])
        assert key in err

    @pytest.mark.parametrize("text", [
        '{"completeness_class": "http://x.org/C"}',
        '{"completeness_predicate": "http://x.org/p"}',
        # a numeric range is all three keys or none
        '{"range_lower": 5, "range_upper": 9}',
        '{"range_predicate": "http://x.org/p"}',
        '{"gold_classes": [',
        '["not", "an", "object"]',
        '{"range_predicate": "http://x.org/p", "range_lower": 5, '
        '"range_upper": 1}',
        '{"resolver_mode": "psychic"}',
        '{"gold_classes": [3]}',
        '{"home_namespaces": "http://x.org/"}',
        '{"range_predicate": "http://x.org/p", "range_lower": "1", '
        '"range_upper": "5"}',
        # json reads NaN, and every comparison with NaN is false
        '{"range_predicate": "http://x.org/p", "range_lower": NaN, '
        '"range_upper": 100}',
        '{"range_predicate": "http://x.org/p", "range_lower": 0, '
        '"range_upper": NaN}',
        # keys that are not fields of the config
        '{"home_namespace": ["http://x.org/"]}',
        '{"resolver_mod": "syntactic"}',
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
        ["--lr", "nan"], ["--lr", "inf"], ["--lr", "1e308"],
        ["--lr", "0"], ["--lr", "-0.05"],
        ["--epochs", "0"], ["--epochs", "-2"],
        # the seed, as a global option and as an environment variable
        ["--seed", "-1", "train"], ["ONOKG_SEED=-1", "train"]])
    def test_bad_option_one_error_line(self, tmp_path, capsys, monkeypatch,
                                       option):
        # what comes before "train" goes before the command, and a
        # NAME=value item into the environment
        before, after = ((option[:-1], []) if option[-1] == "train"
                         else ([], option))
        for setting in [item for item in before if "=" in item]:
            monkeypatch.setenv(*setting.split("="))
        before = [item for item in before if "=" not in item]
        out = tmp_path / "model.json"
        assert main([*before, "train", "--out", str(out), "--sentences", "20",
                     "--epochs", "1", *after]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_failed_checkpoint_write_leaves_nothing(self, tmp_path, capsys,
                                                     failing_writes):
        out = tmp_path / "model.json"
        assert main(["train", "--out", str(out), "--sentences", "20",
                     "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1 and "No space" in err
        assert list(tmp_path.iterdir()) == []


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="heads train in forked children")


@needs_fork
class TestTrainHeads:
    """`train` fits its later heads in forked children where more than one
    CPU is usable, and all of them in process otherwise: the checkpoint,
    stdout and each failure's error line are the same either way."""

    @pytest.fixture()
    def cpus(self, monkeypatch):
        def set_cpus(count):
            monkeypatch.setattr(train_mod, "usable_cpus", lambda: count)
        return set_cpus

    @pytest.fixture()
    def gene_examples(self, monkeypatch):
        """Holds the Gene examples that `train` encodes, so that a patched
        `train_tagger` can tell the Gene head from the Disease head; a
        forked child inherits both patches."""
        from onokg.ie import corpus as corpus_mod
        held = {}
        encode = corpus_mod.encode_corpus

        def keep(*args):
            examples = encode(*args)
            held["Gene"] = examples["Gene"]
            return examples

        monkeypatch.setattr(corpus_mod, "encode_corpus", keep)
        return held

    # a numpy warning in either process fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [42, 7])
    def test_forked_and_in_process_heads_give_same_bytes(
            self, tmp_path, capsys, cpus, seed):
        printed = {}
        for count in (2, 1):
            cpus(count)
            out = tmp_path / f"model{count}.json"
            assert main(["--seed", str(seed), "train", "--out", str(out),
                         "--sentences", "150", "--epochs", "2"]) == 0
            printed[count] = capsys.readouterr().out.replace(out.name, "")
            assert_no_child_left()
        assert printed[2] == printed[1]
        assert printed[2].startswith("Disease: loss per epoch: ")
        assert ((tmp_path / "model2.json").read_bytes()
                == (tmp_path / "model1.json").read_bytes())

    @pytest.mark.parametrize("count", [2, 1])
    def test_diverged_gene_head_is_one_error_line(
            self, tmp_path, capsys, monkeypatch, cpus, gene_examples, count):
        cpus(count)
        train_tagger = train_mod.train_tagger

        def diverge_gene(examples, cfg, space):
            if examples is gene_examples["Gene"]:
                raise train_mod.TrainingDiverged("non-finite loss")
            return train_tagger(examples, cfg, space)

        monkeypatch.setattr(train_mod, "train_tagger", diverge_gene)
        out = tmp_path / "model.json"
        assert main(["train", "--out", str(out), "--sentences", "20",
                     "--epochs", "1"]) == 1
        printed = capsys.readouterr()
        assert printed.out.startswith("Disease: loss per epoch: ")
        assert printed.out.count("\n") == 1
        assert printed.err == ("error: training the Gene tagger diverged: "
                               "non-finite loss\n")
        assert not out.exists()
        assert_no_child_left()

    def test_child_without_result_is_one_error_line(
            self, tmp_path, capsys, monkeypatch, cpus, gene_examples):
        cpus(2)
        parent = os.getpid()
        train_tagger = train_mod.train_tagger

        def exit_in_child(examples, cfg, space):
            if examples is gene_examples["Gene"] and os.getpid() != parent:
                os._exit(3)
            return train_tagger(examples, cfg, space)

        monkeypatch.setattr(train_mod, "train_tagger", exit_in_child)
        out = tmp_path / "model.json"
        assert main(["train", "--out", str(out), "--sentences", "20",
                     "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Gene" in err and "status 3" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert_no_child_left()

    def test_first_head_diverging_kills_the_children(
            self, tmp_path, capsys, monkeypatch, cpus, gene_examples):
        cpus(2)
        train_tagger = train_mod.train_tagger

        def diverge_disease(examples, cfg, space):
            if examples is gene_examples["Gene"]:
                time.sleep(60)
                return train_tagger(examples, cfg, space)
            raise train_mod.TrainingDiverged("non-finite loss")

        monkeypatch.setattr(train_mod, "train_tagger", diverge_disease)
        out = tmp_path / "model.json"
        start = time.monotonic()
        assert main(["train", "--out", str(out), "--sentences", "20",
                     "--epochs", "1"]) == 1
        # the sleeping Gene child was killed, not waited for
        assert time.monotonic() - start < 30
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == ("error: training the Disease tagger "
                               "diverged: non-finite loss\n")
        assert not out.exists()
        assert_no_child_left()


# JSON scalars as the explain payload may hold them, and the edge cases of
# the encoder: quotes, control characters, astral code points, -0.0, tiny
# and non-finite floats
_json_text = st.text(alphabet='a"\\\x00\x1f\n\u2028\u00e9\U0001f600',
                     max_size=4)
_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.sampled_from([-0.0, 1e-300, 5e-324]) | _json_text)


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


    @pytest.mark.parametrize("method", ["lrp", "sensitivity"])
    @pytest.mark.parametrize("option,value", [
        ("--epsilon", "-1"), ("--epsilon", "nan"), ("--epsilon", "inf"),
        ("--epsilon", "-inf"), ("--delta", "nan"), ("--delta", "inf"),
        ("--delta", "-inf")])
    def test_bad_epsilon_or_delta_exits_1(self, checkpoint_path, capsys,
                                          method, option, value):
        code = main(["explain", "--model", str(checkpoint_path),
                     "--text", "TP53 causes Breast Cancer.",
                     "--method", method, f"{option}={value}",
                     "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: {option} must be a finite number")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("options", [
        (), ("--method", "sensitivity"), ("--epsilon", "0", "--delta", "0.5")])
    @pytest.mark.parametrize("sentences", [0, 1, 64, 65])
    def test_grouped_json_matches_sentence_at_a_time_oracle(
            self, checkpoint_path, tmp_path, capsys, sentences, options):
        # 64 sentences fill one group exactly; 65 cross into a second one
        from oracles import explain_json
        from onokg.ie.corpus import make_corpus
        from onokg.ie.preprocess import preprocess
        from onokg.ie.tagger import load_checkpoint
        text = " ".join(" ".join(s.words)
                        for s in make_corpus(sentences, seed=11))
        assert len(preprocess(text).sentences) == sentences
        path = tmp_path / "doc.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["explain", "--model", str(checkpoint_path),
                     "--file", str(path), "--format", "json",
                     *options]) == 0
        method = "sensitivity" if "sensitivity" in options else "lrp"
        epsilon, delta = (0.0, 0.5) if "--epsilon" in options else (0.01, 1.0)
        assert capsys.readouterr().out == explain_json(
            load_checkpoint(checkpoint_path), text, method=method,
            epsilon=epsilon, delta=delta)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.dictionaries(_json_text, _json_scalars
                           | st.lists(_json_scalars, max_size=4),
                           min_size=1, max_size=5))
    def test_layout_is_that_of_indent_2(self, payload):
        # the payload goes through the C encoder, with the bytes of the
        # pure-Python one that indent=2 selects
        from onokg.cli import _indented_json
        assert _indented_json(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("method", ["lrp", "sensitivity"])
    def test_zero_logit_at_epsilon_zero_is_one_error_line(
            self, checkpoint_path, tmp_path, capsys, method):
        # a zero PAD row and bias make the PAD logit exactly 0, so epsilon
        # 0 leaves lrp a zero denominator; sensitivity has none
        payload = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        for model in payload["models"].values():
            model["weights"][6] = [0.0] * len(model["weights"][6])
            model["bias"][6] = 0.0
        padzero = tmp_path / "padzero.json"
        padzero.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["explain", "--model", str(padzero), "--text",
                     "TP53 causes Breast Cancer.", "--epsilon", "0",
                     "--method", method, "--format", "json"])
        out, err = capsys.readouterr()
        if method == "sensitivity":
            assert code == 0 and err == ""
            assert json.loads(out)["tokens"][0] == "TP53"
            return
        assert code == 1 and out == ""
        assert err.startswith("error: cannot explain the ")
        assert "zero denominator at layer 0, neuron 6" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("same_sentence", [False, True])
    def test_error_names_first_failing_sentence_then_head(
            self, checkpoint_path, tmp_path, capsys, same_sentence):
        # a head whose PAD row is 1.0 at one word's feature and 0.0
        # elsewhere, with a PAD bias of -1.0, has a PAD logit of exactly 0
        # at that word's head piece and -1 at every other piece: at
        # epsilon 0 only that word's sentence fails, with a zero
        # denominator. The first failing sentence names the error, and
        # within it the first head in checkpoint order.
        payload = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        first, second = payload["models"]
        sentences = ({"Gene": "tp53", "Disease": "blca"},
                     {"Gene": "rb1", "Disease": "kirp"})
        # one head fails only on sentence 2 and the other only on
        # sentence 1; or both fail only on sentence 2
        failing = {first: 1, second: 1 if same_sentence else 0}
        for name, model in payload["models"].items():
            word = sentences[failing[name]][name]
            model["weights"][6] = [0.0] * len(model["weights"][6])
            model["weights"][6][payload["features"][f"w={word}"]] = 1.0
            model["bias"][6] = -1.0
        path = tmp_path / "onefails.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        # sentence 2 alone names the first head; both sentences name the
        # head that fails on sentence 1, if any
        for text, named in (("RB1 causes KIRP.", first),
                            ("TP53 causes BLCA. RB1 causes KIRP.",
                             first if same_sentence else second)):
            code = main(["explain", "--model", str(path), "--text", text,
                         "--epsilon", "0", "--format", "json"])
            out, err = capsys.readouterr()
            assert code == 1 and out == ""
            assert err == f"error: cannot explain the {named} tagger's " \
                "predictions: zero denominator at layer 0, neuron 6; " \
                "use a nonzero epsilon\n"


class TestDeepNesting:
    """Input nested deeper than the parsers' limit ends in one `error:`
    line at the token that opens the level too many, not a
    RecursionError."""

    @pytest.mark.parametrize("depth", [1000, 5000])
    @pytest.mark.parametrize("shape", ["parentheses", "fillers"])
    def test_dlq(self, kg_file, depth, shape):
        expression = "(" * depth + "Cancer" + ")" * depth \
            if shape == "parentheses" else "causes some " * depth + "Cancer"
        code, err = run_quietly(["dlq", "--kg", str(kg_file), expression])
        assert_failed_cleanly(code, err)
        offset = 100 if shape == "parentheses" else 100 * 12 + 7
        assert err == "error: expression nested deeper than 100 levels " \
            f"(at offset {offset})\n"

    @pytest.mark.parametrize("depth", [1000, 5000])
    @pytest.mark.parametrize("shape", ["negations", "parentheses"])
    def test_query_file(self, kg_file, tmp_path, depth, shape):
        prefix = "SELECT ?x WHERE { ?x ?p ?o . FILTER ("
        inner = "!" * depth + "(?o = 1)" if shape == "negations" \
            else "(" * depth + "?o = 1" + ")" * depth
        query = tmp_path / "deep.rq"
        query.write_text(prefix + inner + ") }", encoding="utf-8")
        code, err = run_quietly(["query", "--kg", str(kg_file), "--file",
                                 str(query)])
        assert_failed_cleanly(code, err)
        # the group opens level 1, so the 100th ! or ( opens level 101
        column = len(prefix) + 100
        assert err == f"error: 1:{column}: query nested deeper than 100 " \
            "levels\n"

    @pytest.mark.parametrize("depth", [1000, 5000])
    def test_repl_dlq(self, kg_file, depth):
        expression = "(" * depth + "Cancer" + ")" * depth
        result = run_cli(["repl", "--kg", str(kg_file)],
                         input=f":dlq {expression}\n:dlq Cancer\n:quit\n")
        assert result.returncode == 0 and result.stderr == ""
        lines = result.stdout.splitlines()
        assert lines[0] == "error: expression nested deeper than 100 " \
            "levels (at offset 100)"
        assert len([line for line in lines if line]) == 1 + 34


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


class TestNonUtf8Input:
    """A KG, query or text file that is not UTF-8 ends in one `error:`
    line and exit code 1, and the REPL reports it and goes on."""

    BAD_NT = b'<a:x> <a:p> "\xff" .\n'

    @pytest.mark.parametrize("argv", [
        ["query", "--kg", "{bad_nt}", "--pack"],
        ["dlq", "--kg", "{bad_nt}", "--pack"],
        ["qa", "--kg", "{bad_nt}"],
        ["export", "--kg", "{bad_nt}", "--out", "{tmp}/out.nt"],
        ["ingest", "--kg", "{bad_nt}", "--corpus", "{tmp}"],
        ["repl", "--kg", "{bad_nt}"],
        ["query", "--kg", "{kg}", "--file", "{bad_text}"],
        ["tag", "--model", "{model}", "--file", "{bad_text}"],
        ["extract", "--model", "{model}", "--file", "{bad_text}"],
        ["explain", "--model", "{model}", "--file", "{bad_text}"],
    ], ids=["query-pack", "dlq-pack", "qa", "export", "ingest", "repl",
            "query-file", "tag-file", "extract-file", "explain-file"])
    def test_one_error_line(self, argv, kg_file, checkpoint_path, tmp_path,
                            capsys):
        bad_nt, bad_text = tmp_path / "bad.nt", tmp_path / "bad.txt"
        bad_nt.write_bytes(self.BAD_NT)
        bad_text.write_bytes(b"TP53 causes \xff cancer.\n")
        names = {"bad_nt": bad_nt, "bad_text": bad_text, "tmp": tmp_path,
                 "kg": kg_file, "model": checkpoint_path}
        assert main([arg.format(**names) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not UTF-8" in err

    def test_repl_sparql_reports_and_goes_on(self, kg_file, tmp_path):
        query = tmp_path / "bad.rq"
        query.write_bytes(b"SELECT ?s WHERE { ?s ?p \"\xff\" . }\n")
        result = run_cli(["repl", "--kg", str(kg_file)],
                         input=f":sparql {query}\n:dlq Oncogene\n:quit\n")
        assert result.returncode == 0 and result.stderr == ""
        first, *rest = result.stdout.splitlines()
        assert first.startswith("error: ") and "not UTF-8" in first
        batch = run_cli(["dlq", "--kg", str(kg_file), "Oncogene"])
        assert "\n".join(rest) + "\n" == batch.stdout


class TestNewlines:
    """A query or text file with CRLF line endings prints what its LF copy
    prints: the reader keeps line endings, and both tokenizers treat a
    carriage return as whitespace."""

    QUERY = ("PREFIX ono: <http://www.example.com/ontologies/ono/ono.owl#>\n"
             "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
             "# POTSF genes and their labels\n"
             "SELECT DISTINCT ?l WHERE {\n  ?g ono:isA ono:POTSF .\n"
             "  ?g rdfs:label ?l .\n}\n")
    TEXT = ("TP53 causes Breast Cancer.\n\nBRCA1 is responsible for a\n"
            "disease called Ovarian Cancer.\n")

    @pytest.mark.parametrize("argv", [
        ["query", "--kg", "{kg}", "--file", "{file}"],
        ["tag", "--model", "{model}", "--file", "{file}"],
        ["explain", "--model", "{model}", "--format", "json", "--file",
         "{file}"],
    ], ids=["query", "tag", "explain-json"])
    def test_crlf_prints_what_lf_prints(self, argv, kg_file, checkpoint_path,
                                        tmp_path, capsys):
        text = self.QUERY if argv[0] == "query" else self.TEXT
        outputs = []
        for newline in ("\n", "\r\n"):
            path = tmp_path / "input"
            path.write_bytes(text.replace("\n", newline).encode("utf-8"))
            names = {"kg": kg_file, "model": checkpoint_path, "file": path}
            assert main([arg.format(**names) for arg in argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "TP53" in outputs[0]


# the bundled files `build` reads, all of which --data-dir replaces
DATA_FILES = ("cohorts.csv", "potsf_genes.txt", "associations.csv",
              "extension_genes.csv", "extension_associations.csv")


def copy_data_dir(root):
    root.mkdir(exist_ok=True)
    for name in DATA_FILES:
        shutil.copy(data_path(name), root / name)
    return root


def run_quietly(argv, stdout=None):
    """The exit code and stderr of `main(argv)`, whose stdout goes to the
    file `stdout` (by default, nowhere); an exception escaping `main`
    fails the calling test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO() if stdout is None
                                    else stdout), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_failed_cleanly(code, err, out=None):
    assert code in (1, 2)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out is None or not out.exists()


class TestDataDir:
    """Bad `--data-dir` files end in one `error:` line and exit code 1, and
    `build` writes nothing."""

    def build(self, data_dir):
        out = data_dir / "out.nt"
        return (*run_quietly(["--data-dir", str(data_dir), "build", "--out",
                              str(out)]), out)

    def test_copy_builds_the_seed(self, tmp_path, kg_file):
        code, err, out = self.build(copy_data_dir(tmp_path / "data"))
        assert code == 0 and err == ""
        assert out.read_bytes() == kg_file.read_bytes()

    @pytest.mark.parametrize("name", DATA_FILES)
    def test_not_utf8(self, tmp_path, name):
        data_dir = copy_data_dir(tmp_path / "data")
        with open(data_dir / name, "ab") as fh:
            fh.write(b"\xff\n")
        code, err, out = self.build(data_dir)
        assert_failed_cleanly(code, err, out)
        assert code == 1 and f"{name} is not UTF-8" in err

    @pytest.mark.parametrize("name", [n for n in DATA_FILES
                                      if n.endswith(".csv")])
    def test_short_row(self, tmp_path, name):
        data_dir = copy_data_dir(tmp_path / "data")
        with open(data_dir / name, "a", encoding="utf-8") as fh:
            fh.write("X\n")
        code, err, out = self.build(data_dir)
        assert_failed_cleanly(code, err, out)
        assert code == 1 and f"{name}: expected " in err
        assert "got 1 in 'X'" in err

    @pytest.mark.parametrize("name, old, new, message", [
        ("cohorts.csv", "BLCA,", "ACC,",
         "expected 33 unique cohort codes, got 32; 'ACC' is repeated"),
        ("potsf_genes.txt", "CAMTA1\n", "BRCA1\n",
         "expected 83 unique gene symbols, got 82; 'BRCA1' is repeated"),
    ])
    def test_repeated_value_is_named(self, tmp_path, name, old, new,
                                     message):
        data_dir = copy_data_dir(tmp_path / "data")
        path = data_dir / name
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        code, err, out = self.build(data_dir)
        assert_failed_cleanly(code, err, out)
        assert code == 1 and err.endswith(f"{name}: {message}\n")

    @pytest.mark.parametrize("name, old, new, message", [
        ("potsf_genes.txt", "WHSC1L1\n", 'WHSC1L1"Q\n',
         'invalid character in IRI: <http://www.example.com/ontologies/ono/'
         'ono.owl#WHSC1L1"Q> in \'WHSC1L1"Q\''),
        ("associations.csv", "TP53,MED,LOW,MeSH,7\n",
         "TP53,MED,LOW,MeSH,7\nTP53,BRCA,HIGH,PubMed,-5\n",
         "citations must be nonnegative in 'TP53,BRCA,HIGH,PubMed,-5'"),
        ("extension_genes.csv", "ERBB2,Oncogene\n",
         "ERBB2,Oncogene\nFOO1,Oncogen\n",
         "unknown gene type 'Oncogen' in 'FOO1,Oncogen'"),
    ], ids=["quote-in-symbol", "negative-citations", "unknown-gene-type"])
    def test_bad_row_names_file_and_row(self, tmp_path, name, old, new,
                                        message):
        self.test_repeated_value_is_named(tmp_path, name, old, new, message)


@st.composite
def mutated(draw, text: bytes,
            inserts=(b"\xff", b"\x00", b'"', b",", b"\n")) -> bytes:
    """`text` with one byte of `inserts` inserted, a span of up to 40 bytes
    deleted, or one line repeated."""
    kind = draw(st.sampled_from(("insert", "delete", "repeat")))
    at = draw(st.integers(0, len(text) - 1))
    if kind == "insert":
        byte = draw(st.sampled_from(inserts))
        return text[:at] + byte + text[at:]
    if kind == "delete":
        return text[:at] + text[at + draw(st.integers(1, 40)):]
    lines = text.splitlines(keepends=True)
    line = draw(st.integers(0, len(lines) - 1))
    return b"".join(lines[:line + 1] + lines[line:])


class TestFuzzedInputFiles:
    """A mutated input file either still works or ends in one `error:`
    line, exit code 1 or 2 and no output file; never in a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_data_dir_file(self, workdir, data):
        data_dir = copy_data_dir(workdir / "data")
        name = data.draw(st.sampled_from(DATA_FILES), label="file")
        path = data_dir / name
        path.write_bytes(data.draw(mutated(path.read_bytes()),
                                   label="text"))
        out = workdir / "out.nt"
        out.unlink(missing_ok=True)
        code, err = run_quietly(["--data-dir", str(data_dir), "build",
                                 "--out", str(out)])
        if code != 0:
            assert_failed_cleanly(code, err, out)
        else:
            assert run_quietly(["qa", "--kg", str(out)]) == (0, "")

    CONFIG = {"seed": 7, "threshold": 0.25,
              "data_dir": str(data_path("cohorts.csv").parent)}
    QUALITY = {
        "gold_classes": ["http://www.example.com/ontologies/ono/ono.owl#"
                         "Cancer"],
        "home_namespaces": ["http://www.example.com/ontologies/ono/"],
        "completeness_class": "http://www.example.com/ontologies/ono/"
                              "ono.owl#Cancer",
        "completeness_predicate": "http://www.example.com/ontologies/ono/"
                                  "ono.owl#fullName",
        "range_predicate": "http://www.example.com/ontologies/ono/ono.owl#"
                           "hasCitations",
        "range_lower": 0, "range_upper": 1000,
        "resolver_mode": "syntactic"}

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_config(self, workdir, data):
        path = workdir / "config.json"
        text = json.dumps(self.CONFIG, indent=1).encode("utf-8")
        path.write_bytes(data.draw(mutated(text)))
        out = workdir / "config-out.nt"
        out.unlink(missing_ok=True)
        code, err = run_quietly(["--config", str(path), "build", "--out",
                                 str(out)])
        if code != 0:
            assert_failed_cleanly(code, err, out)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_quality_config(self, workdir, kg_file, data):
        path = workdir / "quality.json"
        text = json.dumps(self.QUALITY, indent=1).encode("utf-8")
        path.write_bytes(data.draw(mutated(text)))
        code, err = run_quietly(["qa", "--kg", str(kg_file),
                                 "--quality-config", str(path)])
        if code != 0:
            assert_failed_cleanly(code, err)

    # bytes that open, close or escape a token of the query and DL syntaxes
    SYNTAX = (b"\xff", b"\x00", b'"', b"\\", b"<", b">", b"{", b"}", b"(",
              b")", b"?", b":", b".", b" ", b"\n")

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_query_file(self, workdir, kg_file, data):
        source = data.draw(st.sampled_from(
            sorted(data_path("sparql_pack").glob("*.rq"))), label="query")
        path = workdir / "query.rq"
        path.write_bytes(data.draw(mutated(source.read_bytes(), self.SYNTAX),
                                   label="text"))
        code, err = run_quietly(["query", "--kg", str(kg_file), "--file",
                                 str(path)])
        if code != 0:
            assert_failed_cleanly(code, err)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_dlq_expression(self, kg_file, data):
        pack = json.loads(data_path("dlx_pack.json").read_text(
            encoding="utf-8"))
        source = data.draw(st.sampled_from(
            [entry["expression"] for entry in pack]), label="expression")
        text = data.draw(mutated(source.encode("utf-8"), self.SYNTAX),
                         label="text")
        # as the command line hands over bytes that are not UTF-8
        expr = text.decode("utf-8", "surrogateescape")
        code, err = run_quietly(["dlq", "--kg", str(kg_file), expr])
        if code != 0:
            assert_failed_cleanly(code, err)

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_ingest_corpus_file(self, workdir, kg_file, checkpoint_path,
                                data):
        corpus = workdir / "corpus"
        shutil.rmtree(corpus, ignore_errors=True)
        shutil.copytree(data_path("demo_corpus"), corpus)
        (corpus / "more.jsonl").write_text(json.dumps(
            {"id": "d4", "text": "TP53 causes Breast Cancer."}) + "\n",
            encoding="utf-8")
        path = corpus / data.draw(st.sampled_from(
            sorted(p.name for p in corpus.iterdir())), label="file")
        path.write_bytes(data.draw(mutated(path.read_bytes(), self.SYNTAX),
                                   label="text"))
        kg = workdir / "ingest.nt"
        kg.write_bytes(kg_file.read_bytes())
        code, err = run_quietly(["ingest", "--kg", str(kg), "--corpus",
                                 str(corpus), "--model",
                                 str(checkpoint_path)])
        if code != 0:
            assert_failed_cleanly(code, err)
            assert kg.read_bytes() == kg_file.read_bytes()
        else:
            assert run_quietly(["qa", "--kg", str(kg)])[0] == 0

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_checkpoint(self, workdir, checkpoint_path, data):
        path = workdir / "model.json"
        path.write_bytes(data.draw(mutated(checkpoint_path.read_bytes())))
        code, err = run_quietly(["tag", "--model", str(path), "--text",
                                 "TP53 causes Breast Cancer."])
        if code != 0:
            assert_failed_cleanly(code, err)
