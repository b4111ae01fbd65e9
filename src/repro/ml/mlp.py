"""Multilayer perceptron regressor (the WEKA ``MultilayerPerceptron`` substitute).

A small fully connected network (one hidden tanh layer by default) trained
with mini-batch gradient descent and momentum on standardized inputs and
targets.  It is deliberately modest: the paper's point is that the MLP is
*not* the best model for this data (the tree learners win), so the
reproduction needs a faithful but ordinary MLP rather than a tuned deep net.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import Regressor, register_model
from .dataset import Dataset

__all__ = ["MultilayerPerceptron"]


@register_model
class MultilayerPerceptron(Regressor):
    """Feed-forward neural network for regression.

    Attributes:
        hidden_sizes: neurons per hidden layer.
        epochs: training epochs.
        learning_rate: gradient-descent step size.
        momentum: classical momentum coefficient.
        batch_size: mini-batch size (``None`` = full batch).
        seed: weight-initialisation / shuffling seed.
    """

    name = "multilayer_perceptron"

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (16,),
        epochs: int = 300,
        learning_rate: float = 0.01,
        momentum: float = 0.9,
        batch_size: Optional[int] = 64,
        seed: int = 0,
    ):
        super().__init__()
        if not hidden_sizes or any(h < 1 for h in hidden_sizes):
            raise ValueError("hidden_sizes must contain positive integers")
        if epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0.0 < learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.batch_size = batch_size
        self.seed = seed

        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None
        self._y_mean: float = 0.0
        self._y_std: float = 1.0

    # -- training -------------------------------------------------------------------

    def _fit(self, data: Dataset) -> None:
        rng = np.random.default_rng(self.seed)
        x = data.features
        y = data.target

        self._x_mean = x.mean(axis=0)
        self._x_std = x.std(axis=0)
        self._x_std[self._x_std == 0] = 1.0
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0

        xs = (x - self._x_mean) / self._x_std
        ys = (y - self._y_mean) / self._y_std

        sizes = [xs.shape[1], *self.hidden_sizes, 1]
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self._weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

        velocity_w = [np.zeros_like(w) for w in self._weights]
        velocity_b = [np.zeros_like(b) for b in self._biases]

        n = xs.shape[0]
        batch = self.batch_size or n
        batch = min(batch, n)

        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                xb, yb = xs[idx], ys[idx]
                grads_w, grads_b = self._gradients(xb, yb)
                for i in range(len(self._weights)):
                    velocity_w[i] = self.momentum * velocity_w[i] - self.learning_rate * grads_w[i]
                    velocity_b[i] = self.momentum * velocity_b[i] - self.learning_rate * grads_b[i]
                    self._weights[i] += velocity_w[i]
                    self._biases[i] += velocity_b[i]

    def _forward(self, xs: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        """Forward pass; returns hidden activations and the output."""
        activations = [xs]
        h = xs
        for w, b in zip(self._weights[:-1], self._biases[:-1]):
            h = np.tanh(h @ w + b)
            activations.append(h)
        output = h @ self._weights[-1] + self._biases[-1]
        return activations, output

    def _gradients(self, xb: np.ndarray, yb: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Backpropagation for mean-squared-error loss."""
        activations, output = self._forward(xb)
        n = xb.shape[0]
        delta = (output - yb.reshape(-1, 1)) * (2.0 / n)

        grads_w: List[np.ndarray] = [np.zeros_like(w) for w in self._weights]
        grads_b: List[np.ndarray] = [np.zeros_like(b) for b in self._biases]

        grads_w[-1] = activations[-1].T @ delta
        grads_b[-1] = delta.sum(axis=0)

        for layer in range(len(self._weights) - 2, -1, -1):
            delta = (delta @ self._weights[layer + 1].T) * (1.0 - activations[layer + 1] ** 2)
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
        return grads_w, grads_b

    # -- prediction ------------------------------------------------------------------

    def _predict(self, features: np.ndarray) -> np.ndarray:
        xs = (features - self._x_mean) / self._x_std
        _, output = self._forward(xs)
        return output.ravel() * self._y_std + self._y_mean
