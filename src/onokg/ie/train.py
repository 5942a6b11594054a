"""Gradient training for the tagger head: Adam at a constant learning rate
with gradient clipping, and seeded per-epoch shuffling. Runs are fully
deterministic for a fixed seed.

Adam keeps a first and a second moment array (m, v) for each parameter p,
the weights and the bias, and one loop updates all three in place:
m = b1*m + (1 - b1)*g and v = b2*v + (1 - b2)*g**2, then
p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps) at step t.
Each element takes the same operations in the same order as with new
arrays on every step, so updating in place changes no bit of the result.

Each step makes one packed `loss_and_gradients` call for its batch, and
each epoch ends with one `tagging_loss` over the corpus, which scores it
in chunks of `tagger.LOSS_CHUNK` sentences to bound its memory. Both add
in the order a sentence-by-sentence loop would (see `ie.tagger`), so the
weights, the loss curve and the checkpoint bytes do not depend on the
packing.

`train_heads` fits one head per entity type. The first trains in this
process; where `os.fork` exists and more than one CPU is usable, each
later head trains at the same time in a forked child, which sends its
weights, bias and loss curve back through a pipe. A head's result
depends only on its examples, the config and the frozen feature space,
which the child inherits as they are, and pickle carries each float64
bit by bit, so the checkpoint bytes do not depend on where a head ran.
The child leaves with `os._exit`, so that none of its caller's cleanup
(`finally` blocks, `atexit` handlers, the flush of inherited stdio
buffers) runs a second time in the copy. The parent reads the pipe with
`os.read`, so no file object is opened outside `ntriples`. The child
calls no BLAS routine (training is `take`, `reduceat`, `bincount`, `exp`
and `log`), so forking beside the worker thread that numpy's OpenBLAS
may have started is safe: the child never waits on that thread's pool,
which it does not have.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .tagger import FeatureSpace, TaggerModel, loss_and_gradients, tagging_loss

# Gradients whose joint L2 norm exceeds this are scaled down to it.
CLIP_NORM = 5.0


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 16
    seed: int = 42

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(
                f"batch size must be at least 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning rate must be finite and above 0, "
                             f"got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


def _clip(grad_w: np.ndarray, grad_b: np.ndarray):
    norm = float(np.sqrt((grad_w ** 2).sum() + (grad_b ** 2).sum()))
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
        grad_w *= scale
        grad_b *= scale
    return grad_w, grad_b


# overflow shows up as a non-finite loss, which raises TrainingDiverged
@np.errstate(over="ignore", invalid="ignore")
def train_tagger(examples, cfg: TrainConfig, space: FeatureSpace
                 ) -> tuple[TaggerModel, list[float]]:
    """Minimize the tagging loss; returns the model and the per-epoch loss
    curve (full-corpus loss evaluated after each epoch).
    """
    if not examples:
        raise ValueError("empty training corpus")
    model = TaggerModel.zeros(space)
    rng = np.random.default_rng(cfg.seed)
    # each parameter with its first and second moment
    adam = [(p, np.zeros_like(p), np.zeros_like(p))
            for p in (model.weights, model.bias)]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    lr = cfg.learning_rate
    losses: list[float] = []
    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(examples), cfg.batch_size):
            batch = [examples[i] for i in order[start:start + cfg.batch_size]]
            loss, grad_w, grad_b = loss_and_gradients(model, batch)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    "non-finite loss; lower the learning rate")
            step += 1
            for (p, m, v), g in zip(adam, _clip(grad_w, grad_b)):
                m *= beta1
                m += (1 - beta1) * g
                v *= beta2
                v += (1 - beta2) * g ** 2
                p -= lr * (m / (1 - beta1 ** step)) / (
                    np.sqrt(v / (1 - beta2 ** step)) + eps)
        epoch_loss = tagging_loss(model, examples)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged("non-finite loss; lower the learning rate")
        losses.append(epoch_loss)
    return model, losses


def _head(examples, cfg: TrainConfig, space: FeatureSpace):
    """`train_tagger`'s weights, bias and loss curve, or the
    `TrainingDiverged` that it raised."""
    try:
        model, losses = train_tagger(examples, cfg, space)
    except TrainingDiverged as exc:
        return exc
    return model.weights, model.bias, losses


def _fork_head(examples, cfg: TrainConfig, space: FeatureSpace
               ) -> tuple[int, int]:
    """Start `_head` in a forked child; returns the child's pid and the
    read end of the pipe that carries its pickled result.

    The child is a copy of whatever process called `train_heads` (a CLI
    run, a test session, the benchmark), so it never returns into its
    caller's frames (see the module docstring). It exits with status 0
    only once its whole result is written.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        data = memoryview(pickle.dumps(_head(examples, cfg, space)))
        while data:
            data = data[os.write(write_fd, data):]
        os._exit(0)
    finally:  # any error, or an interrupt, before the whole result is sent
        os._exit(1)


def _join_head(etype: str, forked: dict[str, tuple[int, int]]):
    """Read the pipe of `etype`'s child to EOF, reap the child, and return
    what it sent. The child stays in `forked` until it is reaped."""
    pid, read_fd = forked[etype]
    data = b"".join(iter(lambda: os.read(read_fd, 1 << 16), b""))
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    os.close(forked.pop(etype)[1])
    if code:
        raise OSError(f"training the {etype} tagger: its process exited "
                      f"with status {code} before sending its result")
    return pickle.loads(data)


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def train_heads(examples_by_type: dict[str, list], cfg: TrainConfig,
                space: FeatureSpace) -> dict:
    """`train_tagger` for each entity type, in order: maps each type to
    its `(model, losses)` or to the `TrainingDiverged` that its head
    raised, and stops after the first head that diverged.

    The first type trains in this process. Where `os.fork` exists and
    more than one CPU is usable, each later type trains at the same time
    in a forked child (`_fork_head`); otherwise it trains here after the
    one before it. The results are the same bytes either way (see the
    module docstring). A child's pipe is read with `os.read`, not through
    a file object, so that files are still opened in one place only.
    Every child left when this returns or raises (a head diverged, an
    error, Ctrl-C) is killed and reaped. A child that ends without its
    whole result, whether it died or its head raised anything but
    `TrainingDiverged`, is an `OSError` naming its head and exit status.
    """
    forked: dict[str, tuple[int, int]] = {}  # etype -> (pid, read end)
    results = {}
    try:
        if hasattr(os, "fork") and usable_cpus() > 1:
            for etype in list(examples_by_type)[1:]:
                forked[etype] = _fork_head(examples_by_type[etype], cfg,
                                           space)
        for etype, examples in examples_by_type.items():
            result = (_join_head(etype, forked) if etype in forked
                      else _head(examples, cfg, space))
            if isinstance(result, TrainingDiverged):
                results[etype] = result
                break
            weights, bias, losses = result
            results[etype] = TaggerModel(space, weights, bias), losses
        return results
    finally:
        for pid, read_fd in forked.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
