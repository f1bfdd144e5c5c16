"""The paper's energy network (Figure 4).

A 2-hidden-layer fully-connected network: nine inputs (seven PAPI counter
rates + core frequency + uncore frequency), two hidden layers of five
neurons, one output neuron predicting normalized node energy.  ReLU
activations, He initialisation, trained with ADAM on MSE.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.modeling.batched import forward_batch
from repro.modeling.layers import Dense, ReLU
from repro.util.rng import rng_for

#: Architecture constants of Figure 4.
INPUT_NEURONS = 9
HIDDEN_NEURONS = 5
OUTPUT_NEURONS = 1


class EnergyNetwork:
    """9 -> 5 -> 5 -> 1 feed-forward regression network."""

    def __init__(
        self,
        n_inputs: int = INPUT_NEURONS,
        *,
        hidden: int = HIDDEN_NEURONS,
        seed: int = 0,
    ):
        if n_inputs <= 0:
            raise ModelError("network needs at least one input")
        rng = rng_for("energy-network", n_inputs, hidden, seed=seed)
        self.layers = [
            Dense(n_inputs, hidden, rng=rng),
            ReLU(),
            Dense(hidden, hidden, rng=rng),
            ReLU(),
            Dense(hidden, OUTPUT_NEURONS, rng=rng),
        ]
        self.n_inputs = n_inputs

    # ------------------------------------------------------------------
    @property
    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Predict; returns shape ``(n, 1)`` for input ``(n, n_inputs)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.n_inputs:
            raise ModelError(
                f"network expects (rows, {self.n_inputs}) inputs, got {x.shape}"
            )
        return forward_batch(self.parameters, x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Prediction as a flat vector."""
        return self.forward(x)[:, 0]

    # -- weight (de)serialisation — the tuning plugin embeds these ---------
    def get_weights(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        params = self.parameters
        if len(weights) != len(params):
            raise ModelError(
                f"expected {len(params)} weight arrays, got {len(weights)}"
            )
        for p, w in zip(params, weights):
            if p.shape != np.asarray(w).shape:
                raise ModelError(f"weight shape {np.shape(w)} != {p.shape}")
            p[...] = w

    def to_dict(self) -> dict:
        return {
            "n_inputs": self.n_inputs,
            "weights": [w.tolist() for w in self.get_weights()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyNetwork":
        net = cls(n_inputs=data["n_inputs"])
        net.set_weights([np.asarray(w, dtype=float) for w in data["weights"]])
        return net
