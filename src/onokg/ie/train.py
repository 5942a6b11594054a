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
"""

from __future__ import annotations

import math
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
