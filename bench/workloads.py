"""Seeded inputs, the three workloads and the checks on their outputs.

Every operation runs in-process, one after another, in a closed loop with
one client. CLI operations go through ``onokg.cli.main(argv)`` with stdout
captured, inside a working directory and with relative paths, so the
stdout of a command does not depend on where the benchmark runs.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import re
import signal
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from onokg import cli, ntriples, ontology, sparql
from onokg.ie import corpus as corpus_mod
from onokg.kg import Graph
from onokg.ontology import (EVIDENCE_SOURCES, GENE_TYPES, SCHEMA,
                            SIGNIFICANCE_LEVELS, AssociationFeature,
                            build_seed_ontology, load_cohorts, ono)

# Triple counts the scale-up generator must reproduce at seed 0.
SEED0_TRIPLES = {1000: 54_957, 3000: 163_297}

# `onokg train` draws its corpus with seed 42, so held-out corpora must use
# another one.
TRAIN_SEED = 42
SENTENCES_PER_DOC = 50

# The machine's speed is gauged all through the untraced part of a run:
# every GAUGE_PERIOD_S of wall time a timer signal runs `reference_work`
# once. An interval is scaled by the median of the readings taken inside it,
# or of the GAUGE_MIN_READINGS readings nearest to it when it holds fewer.
GAUGE_PERIOD_S = 0.1
GAUGE_MIN_READINGS = 15
# The time `reference_work` takes at the reference speed; scaled times are
# seconds at that speed.
REF_NOMINAL_S = 0.001
# The operations slow down by less than the gauge does: over runs on a
# shared 2-vCPU virtual machine, log(operation time) moved by 0.5-0.85 of
# log(gauge reading), depending on the operation. So an interval is scaled
# by (REF_NOMINAL_S / reading) ** GAUGE_ELASTICITY.
GAUGE_ELASTICITY = 0.8


# ---------------------------------------------------------------------------
# seeded input generators

def scale_up(graph: Graph, genes: int, seed: int) -> Graph:
    """Add genes SYN0..SYN{genes-1}, each with 5 distinct random cohorts.

    Goes through the ontology API (`add_biomarker`, `assert_association`),
    so every write is a `Graph.insert` and every association makes the
    referential point matches a user's build would make. The API is looked
    up on the module at each call, so a traced run sees these calls.
    """
    rng = random.Random(seed)
    cancers = [ono(code) for code, _name in load_cohorts()]
    for i in range(genes):
        gene = ontology.add_biomarker(graph, f"SYN{i}",
                                      rng.choice(GENE_TYPES))
        for cancer in rng.sample(cancers, 5):
            significance = rng.choice(SIGNIFICANCE_LEVELS)
            evidence = SCHEMA.evidence_term(rng.choice(EVIDENCE_SOURCES))
            citations = rng.randint(0, 500)
            ontology.assert_association(graph, AssociationFeature(
                gene, cancer, significance, evidence, citations))
    return graph


def scaled_kg(genes: int, seed: int) -> Graph:
    graph = scale_up(build_seed_ontology(), genes, seed)
    expected = SEED0_TRIPLES.get(genes) if seed == 0 else None
    if expected is not None and len(graph) != expected:
        raise RuntimeError(f"scale-up to {genes} genes at seed 0 gave "
                             f"{len(graph)} triples, expected {expected}")
    return graph


def held_out_seed(seed: int) -> int:
    """A corpus seed derived from the workload seed, never the train seed."""
    corpus_seed = random.Random(seed).randrange(1 << 30)
    return corpus_seed + 1 if corpus_seed == TRAIN_SEED else corpus_seed


def sentence_text(words: list[str]) -> str:
    return " ".join(words).replace(" .", ".").replace(" ,", ",")


def write_corpus(directory: Path, sentences: int, seed: int) -> None:
    """`sentences` template sentences as .txt documents of 50 sentences."""
    directory.mkdir(parents=True, exist_ok=True)
    texts = [sentence_text(s.words)
             for s in corpus_mod.make_corpus(sentences, seed=seed)]
    for n, start in enumerate(range(0, len(texts), SENTENCES_PER_DOC)):
        chunk = texts[start:start + SENTENCES_PER_DOC]
        (directory / f"doc{n:04d}.txt").write_text(" ".join(chunk) + "\n",
                                                   encoding="utf-8")


# ---------------------------------------------------------------------------
# running and checking operations

def reference_table() -> dict[tuple[int, int], str]:
    return {(i % 977, i % 131): str(i) for i in range(6_000)}


def reference_work(table: dict[tuple[int, int], str]) -> int:
    """A fixed piece of interpreter work, timed to gauge the machine's speed.

    Lookups of tuple keys in a dict of small strings, as in the program's
    indexes. It allocates nothing, so its time does not depend on the state
    of the heap the operation it interrupts has left.
    """
    n = 0
    for key in table:
        n += len(table[key])
    for key in table:
        n += key in table
    return n


class SpeedGauge:
    """Times `reference_work` on a wall-clock timer while it runs.

    On a shared 2-vCPU virtual machine, the time of a fixed piece of work
    drifted by up to a factor of two within a minute, in steps of about a
    second, and the second core did not follow the first (see README.md).
    So the gauge runs in the measured thread itself: the timer signal's
    handler runs between the program's bytecodes, and its own time is
    taken out of the interval it interrupts.
    """

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (start, seconds)
        self._table = reference_table()
        self._handler = None

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference_work(self._table)
        self.readings.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._handler is not None:
            signal.signal(signal.SIGALRM, self._handler)
            self._handler = None

    def busy(self, start: float, end: float) -> float:
        """The wall time from start to end, less the gauge's own time."""
        return end - start - sum(seconds for at, seconds in self.readings
                                 if start <= at < end)

    def scaled(self, start: float, end: float) -> float:
        """`busy(start, end)` in seconds at the reference speed."""
        inside = [seconds for at, seconds in self.readings
                  if start <= at < end]
        if len(inside) < GAUGE_MIN_READINGS:
            middle = (start + end) / 2
            nearest = sorted(self.readings,
                             key=lambda r: abs(r[0] - middle))
            inside = [seconds for _at, seconds
                      in nearest[:GAUGE_MIN_READINGS]]
        return self.busy(start, end) \
            * (REF_NOMINAL_S / statistics.median(inside)) ** GAUGE_ELASTICITY


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


Interval = tuple[float, float]  # perf_counter at start and end


class Ops:
    """Runs operations, times them and counts the ones that fail.

    An operation fails on a non-zero exit, an exception, a failed output
    check, a stdout digest that differs from the expected one, or a digest
    that differs from the one the same operation gave earlier in the run.
    Before each operation it collects the heap, untimed.
    """

    def __init__(self, expected: Optional[dict[str, str]] = None):
        self.expected = expected or {}
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []
        self.tracer = None  # a layertrace.Tracer while a round is traced

    def _stage(self, op: str):
        # Each operation starts from a collected heap, as a fresh process
        # would, so garbage from the one before is not collected on its time.
        gc.collect()
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.stage(op)

    def _record(self, op: str, out: str, problem: Optional[str]) -> None:
        self.attempted += 1
        sha = digest(out)
        if problem is None:
            first = self.digests.setdefault(op, sha)
            if op in self.expected and sha != self.expected[op]:
                problem = f"stdout digest {sha[:12]} is not the expected " \
                          f"{self.expected[op][:12]}"
            elif sha != first:
                problem = "stdout differs from an earlier round"
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op}: {problem}")

    def cli(self, op: str, argv: list[str],
            check: Optional[Callable[[str], Optional[str]]] = None
            ) -> Interval:
        """Run one CLI command; returns when it started and ended.

        `check` gets stdout and returns a problem description or None.
        """
        out, err = io.StringIO(), io.StringIO()
        with self._stage(op):
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except (Exception, SystemExit):
                code = None
                err.write(traceback.format_exc())
            end = time.perf_counter()
        text = out.getvalue()
        problem = None
        if code != 0:
            tail = err.getvalue().strip().splitlines()[-1:] or [""]
            problem = f"exit {code}: {tail[0]}"
        elif check is not None:
            problem = check(text)
        self._record(op, text, problem)
        return start, end

    def api(self, op: str, fn: Callable[[], object],
            describe: Callable[[object], str],
            check: Optional[Callable[[str], Optional[str]]] = None
            ) -> Interval:
        """Time `fn()`; `describe(result)` stands in for its stdout."""
        with self._stage(op):
            start = time.perf_counter()
            try:
                result = fn()
            except Exception:
                result = None
                problem = traceback.format_exc().strip().splitlines()[-1]
            end = time.perf_counter()
        if result is None:
            self._record(op, "", problem)
        else:
            text = describe(result)
            self._record(op, text, check(text) if check else None)
        return start, end


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Sizes:
    """Input sizes; the benchmark's fixed values are the defaults."""

    m_genes: int = 1000
    l_genes: int = 3000
    train_sentences: int = 2000
    train_epochs: int = 5
    ingest_sentences: int = 2000
    explain_sentences: int = 1000


class Workload:
    """One set of inputs and the operations a round runs on them.

    `ops` names the operations whose wall times are the end-to-end
    metrics op1_s, op2_s and op3_s, in that order.
    """

    name = ""
    ops: tuple[str, str, str] = ("", "", "")

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        """Generate the inputs and write them to the working directory."""
        raise NotImplementedError

    def round(self, ops: Ops) -> dict[str, list[Interval]]:
        """Run every operation once or more; when each ran, by op."""
        raise NotImplementedError

    def derived(self, medians: dict[str, float]) -> dict[str, float]:
        """Metrics in the units the workload's users think in."""
        return {}


class QueryM(Workload):
    """Read-only analytics on the M scale-up KG."""

    name = "query-M"
    ops = ("query_pack", "dlq_pack", "qa")

    def setup(self) -> None:
        ntriples.save_file(scaled_kg(self.sizes.m_genes, self.seed), "M.nt")

    @staticmethod
    def _query_check(stdout: str) -> Optional[str]:
        sections = sum(line.startswith("## ") for line in stdout.splitlines())
        queries = len(sparql.load_query_pack())
        if sections != queries:
            return f"{sections} result sections for {queries} queries"
        return None

    def round(self, ops: Ops) -> dict[str, list[Interval]]:
        return {
            "query_pack": [ops.cli("query_pack",
                                   ["query", "--kg", "M.nt", "--pack"],
                                   self._query_check)],
            "dlq_pack": [ops.cli("dlq_pack",
                                 ["dlq", "--kg", "M.nt", "--pack"])
                         for _ in range(3)],
            "qa": [ops.cli("qa", ["qa", "--kg", "M.nt"])],
        }

    def derived(self, medians):
        return {"query_pack_s": medians["query_pack"],
                "dlq_pack_s": medians["dlq_pack"], "qa_s": medians["qa"]}


def _sorted_lines(path) -> list[str]:
    return sorted(Path(path).read_text(encoding="utf-8").splitlines())


class BuildL(Workload):
    """The write and file path at L: scale-up build, save, export."""

    name = "build-L"
    ops = ("build", "export", "save")

    def setup(self) -> None:
        graph = scaled_kg(self.sizes.l_genes, self.seed)
        ntriples.save_file(graph, "L.nt")
        self._l_size = f"{len(graph)} triples"
        self._l_digest = digest(Path("L.nt").read_text(encoding="utf-8"))
        self._l_lines = None

    def _export_check(self, _stdout: str) -> Optional[str]:
        # serialize(parse(x)) may reorder lines but keeps the triple set
        if self._l_lines is None:
            self._l_lines = _sorted_lines("L.nt")
        if _sorted_lines("copy.nt") != self._l_lines:
            return "copy.nt does not hold the triples of L.nt"
        return None

    @staticmethod
    def _save(graph: Graph) -> Path:
        ntriples.save_file(graph, "built.nt")
        return Path("built.nt")

    def round(self, ops: Ops) -> dict[str, list[Interval]]:
        graph = build_seed_ontology()
        times = {"build": [ops.api(
            "build", lambda: scale_up(graph, self.sizes.l_genes, self.seed),
            lambda g: f"{len(g)} triples",
            lambda text: None if text == self._l_size
            else f"built {text}, setup wrote {self._l_size}")]}
        # The built graph goes through the same steps as set-up's, so its
        # N-Triples must be the bytes of L.nt.
        times["save"] = [ops.api(
            "save", lambda: self._save(graph),
            lambda path: digest(path.read_text(encoding="utf-8")),
            lambda text: None if text == self._l_digest
            else "built.nt is not L.nt")]
        del graph
        times["export"] = [ops.cli(
            "export", ["export", "--kg", "L.nt", "--out", "copy.nt"],
            self._export_check)]
        return times

    def derived(self, medians):
        return {"build_s": medians["build"], "export_s": medians["export"],
                "save_s": medians["save"]}


class Extract(Workload):
    """The literature pipeline on the seed KG: train, ingest, explain."""

    name = "extract"
    ops = ("train", "ingest", "explain")

    def setup(self) -> None:
        graph = build_seed_ontology()
        ntriples.save_file(graph, "kg.nt")
        self._kg_triples = len(graph)
        corpus_seed = held_out_seed(self.seed)
        write_corpus(Path("corpus"), self.sizes.ingest_sentences,
                     corpus_seed)
        # the explained document comes from a different part of the
        # held-out stream than the ingested one
        texts = [sentence_text(s.words) for s in corpus_mod.make_corpus(
            self.sizes.explain_sentences, seed=corpus_seed + 1)]
        Path("explain.txt").write_text(" ".join(texts) + "\n",
                                       encoding="utf-8")

    def _ingest_check(self, stdout: str) -> Optional[str]:
        found = re.search(r"graph now has (\d+) triples", stdout)
        if found is None or int(found.group(1)) <= self._kg_triples:
            return "ingest added no triples to the seed KG"
        return None

    @staticmethod
    def _explain_check(stdout: str) -> Optional[str]:
        try:
            heatmap = json.loads(stdout)
            tokens, scores = heatmap["tokens"], heatmap["scores"]
        except (ValueError, KeyError) as exc:
            return f"unreadable heatmap JSON: {exc}"
        if not tokens or len(tokens) != len(scores):
            return f"{len(tokens)} tokens with {len(scores)} scores"
        return None

    def round(self, ops: Ops) -> dict[str, list[Interval]]:
        sizes = self.sizes
        return {
            "train": [ops.cli("train", [
                "train", "--out", "model.json",
                "--sentences", str(sizes.train_sentences),
                "--epochs", str(sizes.train_epochs)])],
            "ingest": [ops.cli("ingest", [
                "ingest", "--kg", "kg.nt", "--corpus", "corpus",
                "--model", "model.json", "--out", "kg_out.nt"],
                self._ingest_check) for _ in range(2)],
            "explain": [ops.cli("explain", [
                "explain", "--model", "model.json", "--file", "explain.txt",
                "--format", "json"], self._explain_check) for _ in range(2)],
        }

    def derived(self, medians):
        return {
            "train_s": medians["train"],
            "ingest_sentences_per_s":
                self.sizes.ingest_sentences / medians["ingest"],
            "explain_ms_per_sentence":
                1000 * medians["explain"] / self.sizes.explain_sentences,
        }


WORKLOADS = {w.name: w for w in (QueryM, BuildL, Extract)}
