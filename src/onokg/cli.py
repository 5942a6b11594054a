"""Command-line interface.

Subcommands: build, ingest, train, tag, extract, query, dlq, repl,
explain, qa, export. Configuration precedence is flags > ONOKG_* env vars
> --config JSON file, which holds only the keys of `FILE_SETTINGS`, each
of its JSON type. Exit codes: 0 success; 1 user or parse error,
including a bad input or `--data-dir` data file (not UTF-8, malformed, a
short row); 2 I/O error, such as a file that cannot be read or written.
Output of build/query/dlq is byte-stable for identical inputs and seed
(timings go to stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import dlx, ntriples, sparql
from .ie import corpus as corpus_mod
from .ie import pipeline as pipeline_mod
from .ie.linking import AliasTable
from .ie.preprocess import preprocess
from .ie.tagger import Checkpoint, load_checkpoint, save_checkpoint
from .ie.wordpiece import demo_vocab
from .ie.train import TrainConfig, TrainingDiverged, train_heads
from .kg import Graph, KgError
from .ontology import (build_seed_ontology, check_ontology_pitfalls,
                       data_path, seed_statistics)
from .quality import QualityConfig, QualityConfigError, assess

EXIT_OK = 0
EXIT_USER = 1
EXIT_IO = 2

ENV_PREFIX = "ONOKG_"


class UserError(Exception):
    pass


# the keys a config file may hold, each with its JSON type; a bool is
# none of them
FILE_SETTINGS = {"data_dir": (str, "string"), "seed": (int, "integer"),
                 "threshold": ((int, float), "number"),
                 "model": (str, "string"), "quality_config": (str, "string")}


@dataclass
class AppConfig:
    data_dir: Optional[Path] = None
    seed: int = 42
    threshold: float = 0.5
    model_path: Optional[Path] = None
    quality_config: Optional[Path] = None

    @classmethod
    def resolve(cls, args) -> "AppConfig":
        file_values = {}
        config_path = getattr(args, "config", None) \
            or os.environ.get(ENV_PREFIX + "CONFIG")
        if config_path:
            try:
                file_values = json.loads(ntriples.read_text(config_path))
            except ValueError as exc:
                raise UserError(f"config file {config_path} is not valid "
                                f"JSON: {exc}") from exc
            if not isinstance(file_values, dict):
                raise UserError(f"config file {config_path} must hold a "
                                "JSON object")
            unknown = sorted(set(file_values) - set(FILE_SETTINGS))
            if unknown:
                raise UserError(f"config file {config_path}: not a setting: "
                                + ", ".join(map(repr, unknown)))

        def pick(flag_name, env_name, file_key, default, convert):
            value = getattr(args, flag_name, None)
            if value is None:
                value = os.environ.get(ENV_PREFIX + env_name)
            if value is None:
                value = file_values.get(file_key)
                kind, name = FILE_SETTINGS[file_key]
                if value is not None and (isinstance(value, bool)
                                          or not isinstance(value, kind)):
                    raise UserError(f"bad {file_key} setting {value!r}: "
                                    f"must be a JSON {name}")
            if value is None:
                return default
            try:
                return convert(value)
            except (TypeError, ValueError) as exc:
                raise UserError(f"bad {file_key} setting {value!r}: "
                                f"{exc}") from exc

        cfg = cls(
            data_dir=pick("data_dir", "DATA_DIR", "data_dir", None,
                          lambda v: Path(v)),
            seed=pick("seed", "SEED", "seed", 42, int),
            threshold=pick("threshold", "THRESHOLD", "threshold", 0.5,
                           float),
            model_path=pick("model", "MODEL", "model", None,
                            lambda v: Path(v)),
            quality_config=pick("quality_config", "QUALITY_CONFIG",
                                "quality_config", None, lambda v: Path(v)),
        )
        if not 0.0 <= cfg.threshold <= 1.0:
            raise UserError("threshold must be within [0, 1]")
        if cfg.data_dir is not None and not cfg.data_dir.is_dir():
            raise UserError(f"data directory not found: {cfg.data_dir}")
        return cfg


def _load_graph(path) -> Graph:
    result = ntriples.load_file(path)
    if result.issues:
        details = "; ".join(str(i) for i in result.issues[:5])
        raise UserError(f"KG file {path} has parse errors: {details}")
    return result.graph


def _load_checkpoint(path) -> Checkpoint:
    if path is None:
        raise UserError("a tagger checkpoint is required (--model)")
    try:
        return load_checkpoint(path)
    except (KeyError, ValueError) as exc:
        raise UserError(f"malformed checkpoint {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands

def cmd_build(args, cfg: AppConfig) -> int:
    graph = build_seed_ontology(cfg.data_dir)
    out = Path(args.out)
    ntriples.save_file(graph, out)
    stats = seed_statistics(graph)
    for key in ("triples", "cancers", "biomarkers", "potsf_biomarkers",
                "features"):
        print(f"{key}: {stats[key]}")
    return EXIT_OK


def _format_solutions(table: sparql.SolutionTable, fmt: str) -> str:
    if fmt == "json":
        return table.to_json()
    if fmt == "csv":
        return table.to_csv()
    return table.render()


def cmd_query(args, cfg: AppConfig) -> int:
    graph = _load_graph(args.kg)
    if args.pack:
        results = sparql.run_query_pack(graph)
        for result in results:
            print(f"{result.name}: {result.seconds * 1000:.1f} ms",
                  file=sys.stderr)
        if args.format == "json":
            print(json.dumps([{"name": r.name, **r.table.to_dict()}
                              for r in results], indent=2))
            return EXIT_OK
        for result in results:
            print(f"## {result.name}: {len(result.table.rows)} rows")
            print(_format_solutions(result.table, args.format))
        return EXIT_OK
    if not args.file:
        raise UserError("either --file or --pack is required")
    table = sparql.run_query(graph, ntriples.read_text(args.file))
    print(_format_solutions(table, args.format))
    return EXIT_OK


def _dlq_output(graph: Graph, expression: str, fmt: str) -> str:
    results = dlx.query(graph, expression)
    names = [t.local_name() for t in results]
    if fmt == "json":
        return json.dumps(names, indent=2)
    return "\n".join(names) if names else "(no instances)"


def cmd_dlq(args, cfg: AppConfig) -> int:
    graph = _load_graph(args.kg)
    if args.pack:
        pack = json.loads(ntriples.read_text(data_path("dlx_pack.json")))
        rows = []
        for entry in pack:
            try:
                results = dlx.query(graph, entry["expression"])
            except dlx.UnknownNameError as exc:
                # pack queries may name nodes a given KG does not carry
                rows.append({"id": entry["id"], "skipped": str(exc)})
            else:
                rows.append({"id": entry["id"], "instances":
                             [t.local_name() for t in results]})
        if args.format == "json":
            print(json.dumps(rows, indent=2))
            return EXIT_OK
        for row in rows:
            listed = (f"(skipped: {row['skipped']})" if "skipped" in row
                      else f"[{', '.join(row['instances'])}]")
            print(f"{row['id']}: {listed}")
        return EXIT_OK
    if not args.expr:
        raise UserError("either an expression or --pack is required")
    print(_dlq_output(graph, args.expr, args.format))
    return EXIT_OK


def cmd_train(args, cfg: AppConfig) -> int:
    """Train one tagger head per entity type on the synthetic corpus,
    print each head's loss curve and the held-out scores, and write the
    checkpoint.

    The heads train through `train_heads`: the first in this process and
    the others, where more than one CPU is usable, each in a forked child
    at the same time. Its results come back in `ENTITY_TYPES` order, so
    the curves print in that order, and the first head that diverged is
    one `error:` line (exit 1) with no checkpoint, as when every head
    trains here. A child that dies without a result is one `error:` line
    naming its head (exit 2).
    """
    try:
        train_cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                                seed=cfg.seed, batch_size=args.batch_size)
    except ValueError as exc:
        raise UserError(f"bad training option: {exc}") from exc
    sentences = corpus_mod.make_corpus(args.sentences, seed=cfg.seed)
    train_set, test_set = corpus_mod.split_corpus(sentences)
    if not train_set:
        raise UserError(f"--sentences {args.sentences} leaves no training "
                        "sentences; use at least 2")
    vocab = demo_vocab()
    gazetteers = corpus_mod.build_gazetteers()
    space = corpus_mod.FeatureSpace()
    encoded = corpus_mod.encode_corpus(train_set, vocab, space, gazetteers)
    space.freeze()
    models = {}
    for etype, result in train_heads(encoded, train_cfg, space).items():
        if isinstance(result, TrainingDiverged):
            raise UserError(f"training the {etype} tagger diverged: "
                            f"{result}") from result
        models[etype], losses = result
        curve = " ".join(f"{loss:.4f}" for loss in losses)
        print(f"{etype}: loss per epoch: {curve}")
    scores = corpus_mod.evaluate_entities(models, test_set, vocab, space,
                                          gazetteers)
    print(f"held-out entities: precision {scores.precision:.4f} "
          f"recall {scores.recall:.4f} "
          f"({scores.correct}/{scores.predicted} predicted, "
          f"{scores.gold} gold)")
    out = Path(args.out)
    save_checkpoint(out, models, vocab, gazetteers,
                    config={"sentences": args.sentences, "seed": cfg.seed,
                            "epochs": args.epochs, "learning_rate": args.lr,
                            "batch_size": args.batch_size})
    print(f"checkpoint written to {out}")
    return EXIT_OK


def _extract(args, cfg: AppConfig) -> pipeline_mod.DocumentExtraction:
    """Mentions and relation candidates of the --text or --file text; the
    checkpoint is loaded before the text is read."""
    checkpoint = _load_checkpoint(cfg.model_path)
    text = _read_text_arg(args)
    table = AliasTable.build(csv_path=data_path("aliases.csv"))
    return pipeline_mod.extract_document(preprocess(text, "cli"), checkpoint,
                                         table)


def cmd_tag(args, cfg: AppConfig) -> int:
    extraction = _extract(args, cfg)
    if args.format == "json":
        print(json.dumps([{
            "sentence": m.sentence_index, "start": m.start, "end": m.end,
            "surface": m.surface, "type": m.entity_type,
            "score": round(m.score, 6),
            "normalized": m.normalized_id.lexical if m.normalized_id else None,
        } for m in extraction.mentions], indent=2))
    else:
        if not extraction.mentions:
            print("(no mentions)")
        for m in extraction.mentions:
            target = m.normalized_id.lexical if m.normalized_id else "-"
            print(f"s{m.sentence_index} [{m.start}:{m.end}] "
                  f"{m.surface!r} {m.entity_type} p={m.score:.4f} "
                  f"-> {target}")
    return EXIT_OK


def cmd_extract(args, cfg: AppConfig) -> int:
    rows = [c for c in _extract(args, cfg).candidates if c.label != "none"]
    if args.format == "json":
        print(json.dumps([{
            "subject": c.subject.lexical, "label": c.label,
            "object": c.object.lexical, "confidence": c.confidence,
            "anonymized": c.anonymized,
        } for c in rows], indent=2))
    else:
        if not rows:
            print("(no relations)")
        for c in rows:
            print(f"({c.subject.local_name()}, {c.label}, "
                  f"{c.object.local_name()}) conf={c.confidence:.2f}")
    return EXIT_OK


def cmd_ingest(args, cfg: AppConfig) -> int:
    graph = _load_graph(args.kg)
    checkpoint = _load_checkpoint(cfg.model_path)
    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        raise OSError(f"corpus directory not found: {corpus_dir}")
    docs = pipeline_mod.read_corpus_dir(corpus_dir)
    table = AliasTable.build(graph, data_path("aliases.csv"))
    report = pipeline_mod.ingest_documents(graph, docs, checkpoint, table,
                                           cfg.threshold)
    out = Path(args.out) if args.out else Path(args.kg)
    ntriples.save_file(graph, out)
    print(report.summary())
    print(f"graph now has {len(graph)} triples -> {out}")
    return EXIT_OK


def _indented_json(payload: dict) -> str:
    """`json.dumps(payload, indent=2)` of a non-empty dict whose values are
    scalars or lists of scalars, by the C encoder, which `indent` turns
    off. A list's items are joined by a comma, a line break and four
    spaces, and a non-empty list then gets its own lines for its brackets.
    """
    def value(v) -> str:
        text = json.dumps(v, separators=(",\n    ", ": "))
        return f"[\n    {text[1:-1]}\n  ]" if v and type(v) is list else text
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {value(v)}"
                               for k, v in payload.items()) + "\n}"


def _indented_rows(rows: list[list[str]]) -> str:
    """`json.dumps(rows, indent=2)` of a list of non-empty lists of
    strings, by the C encoder: `_indented_json`'s layout one level deeper.
    An encoded string holds no line break, so the items' separator
    followed by "[" only ever stands between two rows, which then get
    their own lines for their brackets."""
    if not rows:
        return "[]"
    text = json.dumps(rows, separators=(",\n    ", ": "))
    return ("[\n  [\n    "
            + text[2:-2].replace("],\n    [", "\n  ],\n  [\n    ")
            + "\n  ]\n]")


def cmd_explain(args, cfg: AppConfig) -> int:
    """Heatmap of each word's relevance toward the tagger heads' entity
    predictions, summed over the heads.

    Each `encode_and_tag` group is explained with one
    `sentence_token_relevance` call per head. A word's score is 0.0 plus
    each head's score in checkpoint order, and the group's scores become
    floats with one `tolist`. A head that fails names the error line:
    the one that fails on the group's earliest sentence, and of those the
    first in checkpoint order, as when each sentence ran through every
    head in turn. The heads after a failing one are explained only on the
    sentences before its failing sentence.
    """
    from .explain import NumericError, SingularDenominatorError
    from .explain.bridge import feature_offsets, sentence_token_relevance
    from .explain.heatmap import render_heatmap
    from .ie.corpus import encode_and_tag
    import numpy as np
    if not (math.isfinite(args.epsilon) and args.epsilon >= 0):
        raise UserError(f"--epsilon must be a finite number >= 0, got "
                        f"{args.epsilon}")
    if not math.isfinite(args.delta):
        raise UserError(f"--delta must be a finite number, got {args.delta}")
    checkpoint = _load_checkpoint(cfg.model_path)
    text = _read_text_arg(args)
    space = next(iter(checkpoint.models.values())).space
    offsets = feature_offsets(space)
    tokens: list[str] = []
    scores: list[float] = []
    groups = encode_and_tag(checkpoint.models, preprocess(text).sentences,
                            checkpoint.vocab, space, checkpoint.gazetteers)
    for encodings, tagged in groups:
        combined = np.zeros(sum(len(e.words) for e in encodings))
        failure = None
        for name, model in checkpoint.models.items():
            try:
                per_sentence = sentence_token_relevance(
                    model, encodings, [tags[name][0] for tags in tagged],
                    offsets, method=args.method, epsilon=args.epsilon,
                    delta=args.delta)
            except (NumericError, SingularDenominatorError) as exc:
                # later heads need only the sentences before this one
                failure = name, exc
                del encodings[exc.sentence:], tagged[exc.sentence:]
                continue
            if failure is None:
                combined += np.concatenate(per_sentence)
        if failure is not None:
            name, exc = failure
            raise UserError(f"cannot explain the {name} tagger's "
                            f"predictions: {exc}") from exc
        tokens.extend(word for encoded in encodings for word in encoded.words)
        scores.extend(combined.tolist())
    if args.format == "json":
        rendered = _indented_json({
            "tokens": tokens, "scores": scores, "method": args.method,
            "epsilon": args.epsilon, "delta": args.delta,
        }) + "\n"
    else:
        rendered = render_heatmap(tokens, scores, args.format)
    if args.out:
        ntriples.write_atomic(args.out, rendered)
        print(f"heatmap written to {args.out}")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def _qa_output(graph: Graph, cfg: AppConfig, fmt: str) -> str:
    if cfg.quality_config is not None:
        try:
            quality_cfg = QualityConfig.from_json(cfg.quality_config)
        except QualityConfigError as exc:
            raise UserError(str(exc)) from exc
    else:
        quality_cfg = QualityConfig.for_ono_seed()
    report = assess(graph, quality_cfg)
    pitfalls = check_ontology_pitfalls(graph)
    if fmt == "json":
        payload = report.to_dict()
        payload["_pitfalls"] = {
            "cycles": len(pitfalls.cycles),
            "naming_violations": len(pitfalls.naming_violations),
            "intersection_conflicts": len(pitfalls.intersection_conflicts),
        }
        return json.dumps(payload, indent=2)
    return report.render() + "\n\npitfalls:\n" + pitfalls.summary()


def cmd_qa(args, cfg: AppConfig) -> int:
    graph = _load_graph(args.kg)
    print(_qa_output(graph, cfg, args.format))
    return EXIT_OK


def cmd_export(args, cfg: AppConfig) -> int:
    graph = _load_graph(args.kg)
    out = Path(args.out)
    if args.format == "ntriples":
        ntriples.save_file(graph, out)
    elif args.format == "json":
        ntriples.write_atomic(out,
                              _indented_rows(ntriples.rendered_rows(graph)))
    else:
        buffer = io.StringIO()
        csv.writer(buffer).writerows([("subject", "predicate", "object"),
                                      *ntriples.rendered_rows(graph)])
        ntriples.write_atomic(out, buffer.getvalue())
    print(f"exported {len(graph)} triples to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# REPL: a thin shell over the batch commands

REPL_HELP = """commands:
  :sparql <file.rq>      run a SPARQL-subset query file
  :dlq <expression>      run a class-expression query
  :explain <text>        heatmap for tagger predictions (needs --model)
  :deduce <rule> <name>  apply a bundled syllogism rule to an instance
  :qa                    quality metrics and pitfall checks
  :quit                  leave the session"""


def cmd_repl(args, cfg: AppConfig) -> int:
    graph = _load_graph(args.kg)
    interactive = sys.stdin.isatty()
    if interactive:
        print(f"loaded {len(graph)} triples; :quit to exit")
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        command, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if command == ":quit":
                return EXIT_OK
            elif command == ":sparql":
                text = ntriples.read_text(rest)
                print(_format_solutions(sparql.run_query(graph, text),
                                        "table"))
            elif command == ":dlq":
                print(_dlq_output(graph, rest, "table"))
            elif command == ":deduce":
                rule_name, _, instance_name = rest.partition(" ")
                rule = dlx.SYLLOGISM_RULES.get(rule_name)
                if rule is None:
                    known = ", ".join(sorted(dlx.SYLLOGISM_RULES))
                    print(f"unknown rule {rule_name!r}; known: {known}")
                    continue
                instance = graph.cached(dlx.NameResolver).resolve(
                    instance_name.strip())
                deduction = dlx.deduce_syllogism(graph, rule, instance)
                if not deduction.holds:
                    print("no derivation (membership premise not asserted)")
                else:
                    for step in deduction.trace:
                        print(f"  {step}")
            elif command == ":qa":
                print(_qa_output(graph, cfg, "table"))
            elif command == ":explain":
                # the argument may be a document file or inline text
                as_path = Path(rest)
                text_arg, file_arg = (None, rest) if as_path.is_file() \
                    else (rest, None)
                fake = argparse.Namespace(
                    text=text_arg, file=file_arg, method="lrp",
                    epsilon=0.01, delta=1.0, format="terminal", out=None)
                cmd_explain(fake, cfg)
            else:
                print(f"unknown command {command!r}")
                print(REPL_HELP)
        except (KgError, UserError, OSError) as exc:
            print(f"error: {exc}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _read_text_arg(args) -> str:
    if getattr(args, "text", None):
        return args.text
    if getattr(args, "file", None):
        return ntriples.read_text(args.file)
    raise UserError("provide --text or --file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onokg",
        description="Cancer-biomarker knowledge graph toolkit")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--data-dir", dest="data_dir",
                        help="override bundled seed data directory")
    parser.add_argument("--seed", type=int, dest="seed",
                        help="random seed (default 42)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the seed KG")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("ingest", help="extract a corpus into the KG")
    p.add_argument("--kg", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--model")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train the tagger on the synthetic "
                                     "template corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--sentences", type=int, default=2000)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=16)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag text and list entity mentions")
    p.add_argument("--model")
    p.add_argument("--text")
    p.add_argument("--file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("extract", help="extract relation candidates from "
                                       "text (no KG write)")
    p.add_argument("--model")
    p.add_argument("--text")
    p.add_argument("--file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("query", help="run a SPARQL-subset query")
    p.add_argument("--kg", required=True)
    p.add_argument("--file")
    p.add_argument("--pack", action="store_true",
                   help="run the bundled query pack")
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("dlq", help="run a class-expression query")
    p.add_argument("--kg", required=True)
    p.add_argument("expr", nargs="?")
    p.add_argument("--pack", action="store_true",
                   help="run the bundled expression pack")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_dlq)

    p = sub.add_parser("repl", help="interactive session")
    p.add_argument("--kg", required=True)
    p.add_argument("--model")
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser("explain", help="token heatmap for predictions")
    p.add_argument("--model")
    p.add_argument("--text")
    p.add_argument("--file")
    p.add_argument("--method", choices=("lrp", "sensitivity"),
                   default="lrp")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--format", choices=("terminal", "html", "json"),
                   default="terminal")
    p.add_argument("--out")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("qa", help="quality metrics and pitfall checks")
    p.add_argument("--kg", required=True)
    p.add_argument("--quality-config", dest="quality_config")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_qa)

    p = sub.add_parser("export", help="convert a KG file")
    p.add_argument("--kg", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("ntriples", "json", "csv"),
                   default="ntriples")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = AppConfig.resolve(args)
        return args.func(args, cfg)
    except (UserError, KgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
