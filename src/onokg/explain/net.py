"""Small feed-forward networks (identity or ReLU layers).

The tagger head is the one-layer special case; the explainers only need
forward activations and exact backward gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("identity", "relu")


class NumericError(ArithmeticError):
    def __init__(self, layer: int):
        super().__init__(f"non-finite activations in layer {layer}")


@dataclass
class Layer:
    weights: np.ndarray   # (out, in)
    bias: np.ndarray      # (out,)
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != \
                (self.weights.shape[0],):
            raise ValueError("layer needs weights (out, in) and bias (out,)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")


class FeedForwardNet:
    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("a network needs at least one layer")
        for lower, upper in zip(layers, layers[1:]):
            if upper.weights.shape[1] != lower.weights.shape[0]:
                raise ValueError(
                    f"layer dimensions do not chain: {lower.weights.shape}"
                    f" -> {upper.weights.shape}")
        self.layers = layers

    @property
    def input_size(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_size(self) -> int:
        return self.layers[-1].weights.shape[0]

    def forward(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer (pre-activation, activated) pairs."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_size,):
            raise ValueError(f"input must have shape ({self.input_size},)")
        states = []
        current = x
        for index, layer in enumerate(self.layers):
            pre = layer.weights @ current + layer.bias
            post = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
            if not np.all(np.isfinite(post)):
                raise NumericError(index)
            states.append((pre, post))
            current = post
        return states

    def output(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[-1][1]
