"""Content-addressed caching of trained model parameters.

Training the energy network is deterministic: the weights are a pure
function of (training features, training targets, epoch count).  That
makes trained models cacheable in the same content-addressed
:class:`~repro.campaign.store.ResultStore` that already holds simulation
results — keyed by :func:`training_descriptor`, so a cache hit is
guaranteed to be bit-identical to retraining (JSON round-trips float64
exactly via shortest-repr).

The LOOCV study retrains one model per held-out benchmark and the bench
harness retrains the deployed model every session; with this cache, warm
sessions rebuild every model from disk without a single ADAM step.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.campaign.store import ResultStore, job_key
from repro.errors import CampaignError, ModelError
from repro.modeling.network import EnergyNetwork
from repro.modeling.scaler import StandardScaler
from repro.modeling.training import (
    LEARNING_RATE,
    TRAINING_SEED,
    TrainedModel,
    TrainingConfig,
    _check_shapes,
    train_network,
    train_networks,
)

#: Keys every cached model payload must carry; anything less was written
#: by an older schema and must not be silently rebuilt into a model.
MODEL_PAYLOAD_KEYS: tuple[str, ...] = ("network", "scaler", "losses")


def dataset_digest(features: np.ndarray, targets: np.ndarray) -> str:
    """Content hash of a training set (shape- and byte-exact)."""
    features = np.ascontiguousarray(np.asarray(features, dtype=float))
    targets = np.ascontiguousarray(np.asarray(targets, dtype=float))
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(features.shape).encode())
    h.update(features.tobytes())
    h.update(repr(targets.shape).encode())
    h.update(targets.tobytes())
    return h.hexdigest()


def training_descriptor(digest: str, config: TrainingConfig) -> dict[str, Any]:
    """The store descriptor for one training run (hashed into its key).

    The learning rate, batch size and seed are fixed, but stay in the
    descriptor so that every key, and every store written when they
    were settings, is unchanged.
    """
    return {
        "mode": "train-model",
        "dataset": digest,
        "epochs": config.epochs,
        "learning_rate": LEARNING_RATE,
        "batch_size": 1,
        "seed": TRAINING_SEED,
    }


def model_to_payload(model: TrainedModel) -> dict[str, Any]:
    """JSON-able parameters of a trained model (store record layout)."""
    return {
        "network": model.network.to_dict(),
        "scaler": model.scaler.to_dict(),
        "losses": list(model.losses),
    }


def model_from_payload(payload: dict[str, Any]) -> TrainedModel:
    """Rebuild a trained model from its cached parameters.

    Raises a clear :class:`~repro.errors.ModelError` when the payload
    does not match the current schema (e.g. an entry persisted by an
    older store layout) instead of a raw ``KeyError`` — including when
    only the *inner* network/scaler layout is outdated.
    """
    missing = [k for k in MODEL_PAYLOAD_KEYS if k not in payload]
    if missing:
        raise ModelError(
            f"cached model payload is missing keys {missing}: the entry "
            "was produced by an older store schema; delete the store "
            "file to retrain"
        )
    try:
        return TrainedModel(
            network=EnergyNetwork.from_dict(payload["network"]),
            scaler=StandardScaler.from_dict(payload["scaler"]),
            losses=[float(v) for v in payload["losses"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(
            f"cached model payload does not match the current parameter "
            f"layout ({exc!r}): the entry was produced by an older store "
            "schema; delete the store file to retrain"
        ) from None


def train_network_cached(
    features: np.ndarray,
    targets: np.ndarray,
    *,
    config: TrainingConfig = TrainingConfig(),
    store: ResultStore | str | Path | None = None,
) -> TrainedModel:
    """Train, or recall bit-identical weights from the result store.

    With ``store=None`` this is exactly :func:`train_network`.  A path
    (either store backend — JSONL or SQLite) is opened
    for the duration of the call and closed afterwards; an open
    :class:`ResultStore` is used as-is and left open.
    """
    if store is None:
        return train_network(features, targets, config=config)
    (model,) = train_networks_cached(
        features, targets, [np.arange(len(features))], config=config, store=store
    )
    return model


def train_networks_cached(
    features: np.ndarray,
    targets: np.ndarray,
    row_sets,
    *,
    config: TrainingConfig = TrainingConfig(),
    store: ResultStore | str | Path | None = None,
) -> list[TrainedModel]:
    """:func:`train_networks`, recalling each row set's weights from the
    result store.

    Every row set is keyed by the digest of its rows and ``config``
    (:func:`training_descriptor`).  Hits are read with one
    :meth:`~ResultStore.get_many`; the misses train together in one
    lockstep pass and are written with one :meth:`~ResultStore.put_many`.
    ``store`` is handled as in :func:`train_network_cached`.  A recalled
    entry whose layout is stale raises a :class:`CampaignError` naming
    the store file.
    """
    if store is None:
        return train_networks(features, targets, row_sets, config)
    if not isinstance(store, ResultStore):
        with ResultStore(store) as opened:
            return train_networks_cached(
                features, targets, row_sets, config=config, store=opened
            )
    features, targets = _check_shapes(features, targets)
    descriptors = [
        training_descriptor(dataset_digest(features[rows], targets[rows]), config)
        for rows in row_sets
    ]
    keys = [job_key(descriptor) for descriptor in descriptors]
    cached = store.get_many(keys)
    models: list[TrainedModel | None] = []
    for key in keys:
        payload = cached.get(key)
        try:
            models.append(None if payload is None else model_from_payload(payload))
        except ModelError as exc:
            # A recalled entry whose payload layout is stale is a store
            # problem, not a modelling one: surface the campaign error
            # the rest of the cache layer documents, naming the file.
            where = store.path if store.path is not None else "<in-memory store>"
            raise CampaignError(f"{exc} (store: {where})") from None
    pending = [k for k, model in enumerate(models) if model is None]
    trained = train_networks(features, targets, [row_sets[k] for k in pending], config)
    for k, model in zip(pending, trained):
        models[k] = model
    if pending:
        store.put_many(
            [(keys[k], descriptors[k], model_to_payload(models[k])) for k in pending]
        )
    return models
