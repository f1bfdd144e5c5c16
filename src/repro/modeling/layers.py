"""Neural-network building blocks (numpy, from scratch).

Only what the paper's architecture needs: dense layers with He
initialisation [32] and ReLU activations [30].  Gradients come from
the lockstep trainer (:mod:`repro.modeling.training`): its one-row
step, or :func:`repro.modeling.batched.backward_batch` for longer
batches.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.util.rng import rng_for


class Dense:
    """Fully-connected layer ``y = x W + b``.

    Weights are drawn from a zero-mean unit-std Gaussian scaled by
    ``sqrt(2 / n_in)`` (He et al.), biases start at zero — exactly the
    initialisation Section IV-C describes.
    """

    def __init__(self, n_in: int, n_out: int, *, rng: np.random.Generator | None = None):
        if n_in <= 0 or n_out <= 0:
            raise ModelError("layer dimensions must be positive")
        rng = rng or rng_for("dense-init", n_in, n_out)
        self.weights = rng.standard_normal((n_in, n_out)) * np.sqrt(2.0 / n_in)
        self.bias = np.zeros(n_out)

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.weights.shape[0]:
            raise ModelError(
                f"dense layer expected (*, {self.weights.shape[0]}), got {x.shape}"
            )
        return x @ self.weights + self.bias


class ReLU:
    """Rectified linear unit, elementwise."""

    @property
    def parameters(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, 0.0)
