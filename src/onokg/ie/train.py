"""Gradient training for the tagger head: Adam at a constant learning rate
with gradient clipping, and seeded per-epoch shuffling. Runs are fully
deterministic for a fixed seed.
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
        if self.batch_size < 1:
            raise ValueError(
                f"batch size must be at least 1, got {self.batch_size}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(
                f"learning rate must be finite, got {self.learning_rate}")


def _clip(grad_w: np.ndarray, grad_b: np.ndarray):
    norm = float(np.sqrt((grad_w ** 2).sum() + (grad_b ** 2).sum()))
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
        grad_w *= scale
        grad_b *= scale
    return grad_w, grad_b


# overflow shows up as a non-finite loss, which raises TrainingDiverged
@np.errstate(over="ignore", invalid="ignore")
def train_tagger(examples, cfg: TrainConfig, space: FeatureSpace,
                 entity_type: str = "Gene"
                 ) -> tuple[TaggerModel, list[float]]:
    """Minimize the tagging loss; returns the model and the per-epoch loss
    curve (full-corpus loss evaluated after each epoch).
    """
    if not examples:
        raise ValueError("empty training corpus")
    model = TaggerModel.zeros(space, entity_type)
    rng = np.random.default_rng(cfg.seed)
    m_w = np.zeros_like(model.weights)
    v_w = np.zeros_like(model.weights)
    m_b = np.zeros_like(model.bias)
    v_b = np.zeros_like(model.bias)
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
            grad_w, grad_b = _clip(grad_w, grad_b)
            step += 1
            m_w = beta1 * m_w + (1 - beta1) * grad_w
            v_w = beta2 * v_w + (1 - beta2) * grad_w ** 2
            m_b = beta1 * m_b + (1 - beta1) * grad_b
            v_b = beta2 * v_b + (1 - beta2) * grad_b ** 2
            m_w_hat = m_w / (1 - beta1 ** step)
            v_w_hat = v_w / (1 - beta2 ** step)
            m_b_hat = m_b / (1 - beta1 ** step)
            v_b_hat = v_b / (1 - beta2 ** step)
            model.weights -= lr * m_w_hat / (np.sqrt(v_w_hat) + eps)
            model.bias -= lr * m_b_hat / (np.sqrt(v_b_hat) + eps)
        epoch_loss = tagging_loss(model, examples)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged("non-finite loss; lower the learning rate")
        losses.append(epoch_loss)
    return model, losses
