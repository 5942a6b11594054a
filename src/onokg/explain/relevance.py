"""Relevance scores for a class output: squared partial derivatives and
layer-wise relevance propagation with the epsilon rule.

LRP starts from the class score f_c(x) on the target output neuron and
redistributes it layer by layer:

    R[i<-j] = (z_i * w_ij + (eps * sign(z_j) + delta * b_j) / N)
              / (z_j + eps * sign(z_j)) * R[j]

with sign(0) = +1, N the number of lower-layer neurons feeding z_j, and
delta = 1 so the per-layer sum stays equal to f_c(x). Relevance passes
unchanged through the ReLU; the rule applies to its linear pre-activation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .net import FeedForwardNet


class SingularDenominatorError(ZeroDivisionError):
    def __init__(self, layer: int, neuron: int):
        super().__init__(f"zero denominator at layer {layer}, "
                         f"neuron {neuron}; use a nonzero epsilon")


@dataclass
class RelevanceMap:
    scores: np.ndarray
    total: float
    layer_sums: list[float] = field(default_factory=list)


def gradient(net: FeedForwardNet, x: np.ndarray, c: int) -> np.ndarray:
    """Exact d f_c / d x via the backward pass."""
    states = net.forward(x)
    if not 0 <= c < net.output_size:
        raise IndexError(f"class index {c} out of range")
    grad = np.zeros(net.output_size)
    grad[c] = 1.0
    for layer, (pre, _post) in zip(reversed(net.layers), reversed(states)):
        if layer.activation == "relu":
            grad = grad * (pre > 0)
        grad = layer.weights.T @ grad
    return grad


def sensitivity(net: FeedForwardNet, x: np.ndarray, c: int) -> RelevanceMap:
    """R_d = (d f_c / d x_d)^2; the total is the squared gradient norm."""
    grad = gradient(net, x, c)
    scores = grad ** 2
    return RelevanceMap(scores=scores, total=float(scores.sum()))


def lrp(net: FeedForwardNet, x: np.ndarray, c: int,
        epsilon: float = 0.01, delta: float = 1.0) -> RelevanceMap:
    """Epsilon-rule relevance of each input dimension for f_c(x)."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    x = np.asarray(x, dtype=float)
    states = net.forward(x)
    if not 0 <= c < net.output_size:
        raise IndexError(f"class index {c} out of range")
    relevance = np.zeros(net.output_size)
    relevance[c] = states[-1][1][c]
    layer_sums = [float(relevance.sum())]
    activations = [x] + [post for _pre, post in states]
    for index in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[index]
        pre, _post = states[index]
        lower = activations[index]
        sign = np.where(pre >= 0, 1.0, -1.0)
        denom = pre + epsilon * sign
        zero = np.nonzero(denom == 0.0)[0]
        if len(zero):
            raise SingularDenominatorError(index, int(zero[0]))
        # a neuron that holds no relevance sends no messages, even where
        # its quotient numer / denom overflows (inf * 0 would be NaN)
        live = relevance != 0.0
        numer = layer.weights[live] * lower[None, :] \
            + ((epsilon * sign[live] + delta * layer.bias[live])
               / len(lower))[:, None]
        messages = numer / denom[live, None] * relevance[live, None]
        relevance = messages.sum(axis=0)
        layer_sums.append(float(relevance.sum()))
    return RelevanceMap(scores=relevance, total=float(relevance.sum()),
                        layer_sums=layer_sums)
