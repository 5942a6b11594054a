"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced public function with a timing
wrapper at every place it can be looked up: the attribute of every loaded
``onokg`` module that holds it (callers import by name, e.g.
``from .tagger import loss_and_gradients``), or the class attribute for a
method. `uninstall()` puts the originals back.

Per call the wrapper adds to an in-memory table: calls, inclusive seconds
and self seconds (inclusive minus the time of traced calls inside it). For
the functions marked hot, that table is all it keeps; for the others it
also keeps a span (name, start, end, parent span). Each operation of a
round runs inside `Tracer.stage(op)`, so every table is kept per
operation and the self times inside an operation add up to its wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# (module, attribute, hot). Hot functions are called per triple, token or
# batch; they are aggregated without spans.
LAYERS = (
    ("onokg.ntriples", "parse_ntriples", False),
    ("onokg.ntriples", "serialize_ntriples", False),
    ("onokg.ntriples", "save_file", False),
    ("onokg.kg", "Graph.insert", True),
    ("onokg.kg", "Graph.match", True),
    ("onokg.sparql", "parse_select", False),
    ("onokg.sparql", "evaluate", False),
    ("onokg.dlx", "AboxIndex", False),
    ("onokg.dlx", "query", False),
    ("onokg.quality", "assess", False),
    ("onokg.ontology", "check_ontology_pitfalls", False),
    ("onokg.ontology", "add_biomarker", True),
    ("onokg.ontology", "assert_association", True),
    ("onokg.ie.corpus", "make_corpus", False),
    ("onokg.ie.corpus", "encode_corpus", False),
    ("onokg.ie.train", "train_tagger", False),
    ("onokg.ie.tagger", "loss_and_gradients", True),
    ("onokg.ie.tagger", "logits", True),
    ("onokg.ie.corpus", "evaluate_entities", False),
    ("onokg.ie.tagger", "save_checkpoint", False),
    ("onokg.ie.tagger", "load_checkpoint", False),
    ("onokg.ie.pipeline", "read_corpus_dir", False),
    ("onokg.ie.preprocess", "preprocess", False),
    ("onokg.ie.pipeline", "split_to_fit", True),
    ("onokg.ie.tagger", "encode_sentence", True),
    ("onokg.ie.corpus", "tag_sentence", True),
    ("onokg.ie.decode", "decode_entities", True),
    ("onokg.ie.linking", "AliasTable.build", False),
    ("onokg.ie.linking", "link_entity", True),
    ("onokg.ie.relations", "extract_relations", True),
    ("onokg.ie.enrich", "enrich_kg", False),
    ("onokg.explain.bridge", "sentence_token_relevance", True),
    ("onokg.explain.relevance", "lrp", True),
    ("onokg.explain.heatmap", "render_heatmap", False),
)

MATCH_SHAPES = ("spo", "sp_", "s_o", "_po", "s__", "_p_", "__o", "___")
QUERY_LABELS = ("q1", "q2", "q3", "q4", "q5")
ENRICH_FUNNEL = ("proposed", "accepted", "duplicates", "rejected")

# The layers whose traced calls make no traced calls themselves; their
# self time equals their time, so only their time is a metric.
LEAF_LAYERS = {
    "ntriples.serialize_ntriples", "kg.Graph.insert", "kg.Graph.match",
    "sparql.parse_select", "corpus.make_corpus", "tagger.logits",
    "tagger.save_checkpoint", "tagger.load_checkpoint",
    "preprocess.preprocess", "pipeline.split_to_fit",
    "tagger.encode_sentence", "decode.decode_entities",
    "linking.link_entity", "relations.extract_relations", "relevance.lrp",
    "heatmap.render_heatmap",
}


def layer_name(module: str, attr: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + attr


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for module, attr, _hot in LAYERS:
        layer = layer_name(module, attr)
        names += [f"{layer}.calls", f"{layer}.s"]
        if layer not in LEAF_LAYERS:
            names.append(f"{layer}.self_s")
    names += ["ntriples.parse_ntriples.triples", "ntriples.save_file.bytes",
              "kg.Graph.insert.new", "kg.Graph.insert.new_share"]
    names += [f"kg.Graph.match.calls.{shape}" for shape in MATCH_SHAPES]
    names.append("kg.Graph.match.rows")
    for label in QUERY_LABELS:
        names += [f"sparql.evaluate.{label}.{key}"
                  for key in ("s", "rows", "match_rows")]
    names += [f"enrich.{field}" for field in ENRICH_FUNNEL]
    names.append("enrich.accepted_share")
    for n in (1, 2, 3):
        names += [f"trace.op{n}.covered_share", f"trace.op{n}.overhead_s"]
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


def layer_metrics(tracer, rounds: int, ops: tuple, untraced: dict,
                  traced: dict) -> tuple[dict, dict]:
    """Per-layer metric values per traced round, and the op breakdown.

    `untraced` and `traced` hold each operation's wall times from the
    untraced and the traced rounds; their medians give the overhead.
    """
    table = tracer.layer_table(rounds)
    values = {}
    for name in per_layer_names():
        layer, _, key = name.rpartition(".")
        if key in table.get(layer, ()):
            values[name] = table[layer][key]
    for name, value in tracer.counts.items():
        values[name] = value / rounds
    inserts = values.get("kg.Graph.insert.calls", 0)
    values["kg.Graph.insert.new_share"] = \
        values.get("kg.Graph.insert.new", 0) / inserts if inserts else 0.0
    proposed = values.get("enrich.proposed", 0)
    values["enrich.accepted_share"] = \
        values.get("enrich.accepted", 0) / proposed if proposed else 0.0
    breakdown = {}
    for n, op in enumerate(ops, start=1):
        breakdown[op] = tracer.op_breakdown(op, rounds)
        values[f"trace.op{n}.covered_share"] = breakdown[op]["covered_share"]
        values[f"trace.op{n}.overhead_s"] = \
            statistics.median(traced[op]) - statistics.median(untraced[op])
    metrics = {}
    for name in per_layer_names():
        value = values.get(name, 0)
        unit = per_layer_unit(name)
        if unit == "count" and float(value).is_integer():
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, breakdown


class Tracer:
    def __init__(self):
        self.tables: dict[str, dict[str, list[float]]] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []
        self._table: dict[str, list[float]] = {}
        # frames: [start, child seconds, span index]
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        # id of a parsed pack query -> (label, query). Holding the query
        # keeps its id from being reused by another object while the
        # label is kept.
        self._query_labels: dict[int, tuple[str, object]] = {}
        # (label, query) of the outermost pack query being evaluated
        self._query: Optional[tuple[str, object]] = None

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, hot: bool) -> list:
        parent = self._stack[-1][2] if self._stack else -1
        index = parent
        if not hot:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        frame = [time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, name: str, hot: bool, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1
        seconds = end - frame[0]
        if self._stack:
            self._stack[-1][1] += seconds
        row = self._table.get(name)
        if row is None:
            row = self._table[name] = [0, 0.0, 0.0]
        row[0] += 1
        if not self._active[name]:  # count a recursive call's time once
            row[1] += seconds
        row[2] += seconds - frame[1]
        if not hot:
            self.spans[frame[2]] = (name, frame[0], end,
                                    self.spans[frame[2]][3])
        return seconds

    @contextlib.contextmanager
    def stage(self, op: str):
        """Trace one operation; its tables merge into `tables[op]`."""
        self._table = self.tables.setdefault(op, {})
        frame = self._enter("op." + op, False)
        try:
            yield
        finally:
            self._exit("op." + op, False, frame)
            self._table = {}

    def _wrap(self, name: str, fn: Callable, hot: bool) -> Callable:
        enter, exit_ = self._enter, self._exit
        on_enter, on_exit = ENTER_HOOKS.get(name), EXIT_HOOKS.get(name)

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(self, args, kwargs)
            frame = enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = exit_(name, hot, frame)
            if on_exit is not None:
                on_exit(self, args, kwargs, result, seconds)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        from onokg import sparql
        self._pack_texts = {text: stem.split("_", 1)[0]
                            for stem, text in sparql.load_query_pack()}
        for module_name, _attr, _hot in LAYERS:
            importlib.import_module(module_name)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "onokg" or key.startswith("onokg.")]
        for module_name, attr, hot in LAYERS:
            module = sys.modules[module_name]
            name = layer_name(module_name, attr)
            owner_name, _, method = attr.partition(".")
            if method:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(
                        name, original.__func__, hot))
                else:
                    wrapped = self._wrap(name, original, hot)
                self._patch(owner, method, wrapped)
            elif isinstance(getattr(module, attr), type):
                cls = getattr(module, attr)
                self._patch(cls, "__init__", self._wrap(
                    name, cls.__dict__["__init__"], hot))
            else:
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, hot)
                sites = [(m, key) for m in modules
                         for key, value in vars(m).items()
                         if value is original]
                for m, key in sites:
                    self._patch(m, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_table(self, rounds: int = 1) -> dict[str, dict[str, float]]:
        """calls, s and self_s per layer over all operations, per round."""
        merged: dict[str, list[float]] = {}
        for table in self.tables.values():
            for name, (calls, seconds, self_s) in table.items():
                row = merged.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += seconds
                row[2] += self_s
        return {name: {"calls": calls / rounds, "s": seconds / rounds,
                       "self_s": self_s / rounds}
                for name, (calls, seconds, self_s) in sorted(merged.items())}

    def op_breakdown(self, op: str, rounds: int = 1) -> dict:
        """Where one operation's wall time went, by layer self time, per
        round; `untraced_self_s` is the time outside every traced layer."""
        table = self.tables.get(op, {})
        _calls, total, untraced = table.get("op." + op, [0, 0.0, 0.0])
        layers = sorted(((name, row[2] / rounds) for name, row in
                         table.items() if not name.startswith("op.")),
                        key=lambda item: -item[1])
        return {"s": total / rounds, "untraced_self_s": untraced / rounds,
                "covered_share": 1 - untraced / total if total else 0.0,
                "self_s": dict(layers)}


# ---------------------------------------------------------------------------
# hooks that turn arguments and results into counts

def _parse_exit(tracer, args, kwargs, result, seconds):
    tracer.counts["ntriples.parse_ntriples.triples"] += len(result.graph)


def _save_exit(tracer, args, kwargs, result, seconds):
    path = _arg(args, kwargs, 1, "path")
    tracer.counts["ntriples.save_file.bytes"] += os.path.getsize(path)


def _insert_exit(tracer, args, kwargs, result, seconds):
    if result:
        tracer.counts["kg.Graph.insert.new"] += 1


def _match_exit(tracer, args, kwargs, result, seconds):
    shape = "".join("_" if _arg(args, kwargs, i, key) is None else key
                    for i, key in ((1, "s"), (2, "p"), (3, "o")))
    counts = tracer.counts
    counts["kg.Graph.match.calls." + shape] += 1
    counts["kg.Graph.match.rows"] += len(result)
    if tracer._query is not None:
        counts[f"sparql.evaluate.{tracer._query[0]}.match_rows"] += \
            len(result)


def _parse_select_exit(tracer, args, kwargs, result, seconds):
    label = tracer._pack_texts.get(_arg(args, kwargs, 0, "text"))
    if label is not None:
        tracer._query_labels[id(result)] = (label, result)


def _evaluate_enter(tracer, args, kwargs):
    # Only the outermost evaluate of a pack query sets the label, so a
    # sub-select that evaluate runs recursively counts toward its query.
    if tracer._query is None:
        query = _arg(args, kwargs, 1, "query")
        labelled = tracer._query_labels.pop(id(query), None)
        if labelled is not None and labelled[1] is query:
            tracer._query = labelled


def _evaluate_exit(tracer, args, kwargs, result, seconds):
    if tracer._query is not None \
            and tracer._query[1] is _arg(args, kwargs, 1, "query"):
        label = tracer._query[0]
        tracer._query = None
        tracer.counts[f"sparql.evaluate.{label}.s"] += seconds
        tracer.counts[f"sparql.evaluate.{label}.rows"] += len(result.rows)


def _enrich_exit(tracer, args, kwargs, result, seconds):
    for field in ENRICH_FUNNEL:
        tracer.counts["enrich." + field] += getattr(result, field)


ENTER_HOOKS = {"sparql.evaluate": _evaluate_enter}
EXIT_HOOKS = {
    "ntriples.parse_ntriples": _parse_exit,
    "ntriples.save_file": _save_exit,
    "kg.Graph.insert": _insert_exit,
    "kg.Graph.match": _match_exit,
    "sparql.parse_select": _parse_select_exit,
    "sparql.evaluate": _evaluate_exit,
    "enrich.enrich_kg": _enrich_exit,
}
