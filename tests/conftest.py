import errno
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from onokg import ntriples
from onokg.ie import corpus as corpus_mod
from onokg.ie.tagger import FeatureSpace, save_checkpoint
from onokg.ie.train import TrainConfig, train_tagger
from onokg.ie.wordpiece import demo_vocab
from onokg.ontology import build_seed_ontology
from helpers import apply_query_fixtures


@pytest.fixture(scope="session")
def seed_graph():
    """The seed KG; session-wide and read-only (copy before mutating)."""
    return build_seed_ontology()


@pytest.fixture()
def seed_copy(seed_graph):
    return seed_graph.copy()


@pytest.fixture(scope="session")
def fixtures_graph(seed_graph):
    graph = seed_graph.copy()
    apply_query_fixtures(graph)
    return graph


class _FailingWrites:
    """A file whose write stores half of its text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture()
def failing_writes(monkeypatch):
    """Every file `ntriples.write_atomic` writes (KG files, checkpoints,
    exports, heatmaps) gets half its text, then the disk is full."""
    def failing_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        return fh if mode == "r" else _FailingWrites(fh)

    monkeypatch.setattr(ntriples, "open", failing_open, raising=False)


class TrainedTagger:
    """Corpus, feature space, models, and loss curves trained once per
    session with the acceptance settings (2000 sentences, 80/20, seed 42).
    """

    def __init__(self):
        self.corpus = corpus_mod.make_corpus(2000, seed=42)
        self.train_set, self.test_set = corpus_mod.split_corpus(self.corpus)
        self.vocab = demo_vocab()
        self.gazetteers = corpus_mod.build_gazetteers()
        self.space = FeatureSpace()
        self.examples = corpus_mod.encode_corpus(
            self.train_set, self.vocab, self.space, self.gazetteers)
        self.space.freeze()
        self.models = {}
        self.losses = {}
        config = TrainConfig()
        for etype in corpus_mod.ENTITY_TYPES:
            model, curve = train_tagger(self.examples[etype], config,
                                        self.space, etype)
            self.models[etype] = model
            self.losses[etype] = curve


@pytest.fixture(scope="session")
def trained():
    return TrainedTagger()


@pytest.fixture(scope="session")
def checkpoint_path(trained, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "tagger.json"
    save_checkpoint(path, trained.models, trained.vocab, trained.gazetteers,
                    config={"sentences": 2000, "seed": 42})
    return path
