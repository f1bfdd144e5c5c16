"""Neural-network building blocks (numpy, from scratch).

Only what the paper's architecture needs: dense layers with He
initialisation [32] and ReLU activations [30].  The layers hold the
parameters and mark the architecture of Figure 4; the arithmetic is
elsewhere.  The forward is :func:`repro.modeling.batched.forward_batch`
and the gradients come from the lockstep trainer's one-row step
(:mod:`repro.modeling.training`).
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


class ReLU:
    """Rectified linear unit, elementwise (``where(x > 0, x, 0)``)."""

    @property
    def parameters(self) -> list[np.ndarray]:
        return []
