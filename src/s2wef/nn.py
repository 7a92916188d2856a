"""Minimal feed-forward classifier with mini-batch SGD.

The trainer exposes, for every local iteration, a snapshot of the
penultimate weight matrix (the matrix feeding the output layer).  Those
snapshots are the raw material for weight-evolving-frequency construction.
All arithmetic is float64 and every random choice flows from an explicit
seed, so identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError


@dataclass
class ModelWeights:
    """Parameters of a fully connected classifier, held in one float64 buffer.

    weights[l] has shape (fan_in, fan_out); the forward pass is
    x @ weights[0] + biases[0] -> relu -> ... -> logits.  The penultimate
    matrix is weights[penultimate_index], the one feeding the output layer.
    The buffer is laid out w0, b0, w1, b1, ... and weights/biases are views
    into it, so an in-place update of a layer updates the buffer.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    penultimate_index: int = -1

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ConfigurationError("weights and biases must be nonempty and aligned")
        if self.penultimate_index == -1:
            self.penultimate_index = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ShapeError(f"layer {l}: weight {w.shape} incompatible with bias {b.shape}")
            if l > 0 and w.shape[0] != self.weights[l - 1].shape[1]:
                raise ShapeError(f"layer {l}: fan-in {w.shape[0]} does not chain")
        h, w = self.penultimate.shape
        if h < 1 or w < 1:
            raise ShapeError("penultimate matrix must be at least 1x1")
        parts = [p for w, b in zip(self.weights, self.biases) for p in (w.ravel(), b)]
        self._adopt(np.concatenate(parts, dtype=np.float64))

    def _adopt(self, flat: np.ndarray) -> "ModelWeights":
        """Make flat the parameter buffer and point weights/biases into it."""
        if not np.isfinite(flat).all():
            raise NumericError("non-finite parameters")
        weights, biases, pos = [], [], 0
        for w, b in zip(self.weights, self.biases):
            weights.append(flat[pos:pos + w.size].reshape(w.shape))
            pos += w.size
            biases.append(flat[pos:pos + b.size])
            pos += b.size
        self.weights, self.biases, self._flat = weights, biases, flat
        return self

    @property
    def penultimate(self) -> np.ndarray:
        return self.weights[self.penultimate_index]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def num_params(self) -> int:
        return self._flat.size

    def copy(self) -> "ModelWeights":
        return self.from_flat(self._flat)

    def to_flat(self) -> np.ndarray:
        """Read-only view of the parameter buffer."""
        view = self._flat.view()
        view.flags.writeable = False
        return view

    def from_flat(self, flat: np.ndarray) -> "ModelWeights":
        """A model with this one's architecture holding a copy of flat."""
        flat = np.array(flat, dtype=np.float64)
        if flat.shape != self._flat.shape:
            raise ShapeError(f"flat vector length {flat.shape} != {self.num_params}")
        return copy.copy(self)._adopt(flat)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one round of local training."""

    learning_rate: float = 0.1
    momentum: float = 0.0
    batch_size: int = 32
    local_iterations: int = 5

    def __post_init__(self):
        if not self.learning_rate > 0:  # a zero rate trains nothing
            raise ConfigurationError("learning_rate must be > 0")
        if self.momentum < 0:
            raise ConfigurationError("momentum must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.local_iterations < 1:
            raise ConfigurationError("local_iterations must be >= 1")


@dataclass
class DatasetShard:
    """A client-local slice of the dataset."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ShapeError("features must be (n, d) with one label per row")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ConfigurationError("labels must lie in [0, class_count)")

    def __len__(self) -> int:
        return len(self.labels)


def init_model(architecture: Sequence[int], seed: int) -> ModelWeights:
    """Build a seeded MLP from a layer-size list, e.g. [8, 16, 2].

    Weights are uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] and biases
    zero.  Same (architecture, seed) yields bit-identical weights.
    """
    sizes = list(architecture)
    if len(sizes) < 3:
        raise ConfigurationError(
            f"architecture needs input, at least one hidden, and output sizes; got {sizes}"
        )
    if any(s < 1 for s in sizes):
        raise ConfigurationError("all layer sizes must be >= 1")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelWeights(weights, biases)


def _forward(model: ModelWeights, x: np.ndarray) -> list[np.ndarray]:
    """Return activations per layer; the last entry holds raw logits."""
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        # in place, so each layer allocates only the activation it keeps: on
        # a 2,000-row evaluation, fresh temporaries cost more than the matmul.
        # The rounding is that of h @ w + b.
        h = h @ w
        h += b
        if l < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_loss(model: ModelWeights, x: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross-entropy of the model on a batch."""
    logp = _log_softmax(_forward(model, x)[-1])
    return float(-logp[np.arange(len(y)), y].mean())


def _gradients(model: ModelWeights, x: np.ndarray, y: np.ndarray):
    """Backpropagated mean-loss gradients, plus the batch loss."""
    acts = _forward(model, x)
    logits = acts[-1]
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(len(y)), y].mean())

    batch = len(y)
    delta = np.exp(logp)
    delta[np.arange(batch), y] -= 1.0
    delta /= batch

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = acts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l].T) * (acts[l] > 0)
    return grads_w, grads_b, loss


def _check_shard(model: ModelWeights, shard: DatasetShard) -> None:
    """Reject a shard that the model cannot train on or be scored on."""
    if len(shard) == 0:
        raise ConfigurationError("shard is empty")
    if shard.features.shape[1] != model.input_dim:
        raise ShapeError(f"shard dimension {shard.features.shape[1]} != model input {model.input_dim}")
    if shard.class_count > model.output_dim:
        raise ShapeError(
            f"shard has {shard.class_count} classes but the model only {model.output_dim} outputs"
        )


def local_train(
    w_start: ModelWeights,
    shard: DatasetShard,
    cfg: TrainConfig,
    seed: int,
) -> tuple[ModelWeights, list[np.ndarray]]:
    """Run cfg.local_iterations mini-batch SGD steps from w_start.

    Returns the trained model and local_iterations + 1 snapshots of the
    penultimate weight matrix (snapshot 0 is taken before any update).
    Batch order comes from a per-call seeded stream, so the result depends
    only on (w_start, shard, cfg, seed).
    """
    _check_shard(w_start, shard)
    rng = np.random.default_rng(seed)
    model = w_start.copy()
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    snapshots = [model.penultimate.copy()]

    n = len(shard)
    batch = min(cfg.batch_size, n)
    order = rng.permutation(n)
    pos = 0
    for t in range(1, cfg.local_iterations + 1):
        if pos + batch > n:
            order = rng.permutation(n)
            pos = 0
        idx = order[pos:pos + batch]
        pos += batch
        grads_w, grads_b, loss = _gradients(model, shard.features[idx], shard.labels[idx])
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at local iteration {t}")
        for l in range(len(model.weights)):
            vel_w[l] = cfg.momentum * vel_w[l] + grads_w[l]
            vel_b[l] = cfg.momentum * vel_b[l] + grads_b[l]
            model.weights[l] -= cfg.learning_rate * vel_w[l]
            model.biases[l] -= cfg.learning_rate * vel_b[l]
        snapshots.append(model.penultimate.copy())
    return model, snapshots


def evaluate_accuracy(model: ModelWeights, shard: DatasetShard) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class."""
    _check_shard(model, shard)
    logits = _forward(model, shard.features)[-1]
    return float((logits.argmax(axis=1) == shard.labels).mean())
