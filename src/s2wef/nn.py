"""Minimal feed-forward classifier with mini-batch SGD.

The trainer compares, at every local iteration, the penultimate weight
matrix (the matrix feeding the output layer) with its value one step
earlier, and counts the changes into the client's weight-evolving-frequency
grid.  It steps a group of clients in lockstep, one stacked numpy call per
operation, with each client's numbers exactly those of training it alone.
All arithmetic is float64 and every random choice flows from an explicit
seed, so identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericError, S2wefError, ShapeError
from .wef import _exceeds_mean_change


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
        self.weights, self.biases = _layer_views(self, flat)
        self._flat = flat
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


def _layer_views(model: ModelWeights, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into parameter buffers laid out like model's.

    flat is one (P,) buffer or a (k, P) stack of them; the views keep the
    leading axis, so weights[l] is (k, fan_in, fan_out) and biases[l] is
    (k, fan_out) for a stack.
    """
    lead = flat.shape[:-1]
    weights, biases, pos = [], [], 0
    for w, b in zip(model.weights, model.biases):
        weights.append(flat[..., pos:pos + w.size].reshape(*lead, *w.shape))
        pos += w.size
        biases.append(flat[..., pos:pos + b.size])
        pos += b.size
    return weights, biases


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
        # e, the WEF budget, is local_iterations; int64 grids and replay hold at most its maximum
        if not 1 <= self.local_iterations <= np.iinfo(np.int64).max:
            raise ConfigurationError(f"local_iterations must be in [1, {np.iinfo(np.int64).max}]")


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


def _forward(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray, scratch: np.ndarray | None = None
) -> list[np.ndarray]:
    """Return activations per layer; the last entry holds raw logits.

    A stack of k models (views from _layer_views) takes (k, batch, d) inputs:
    each matmul then runs one BLAS gemm per model, the kernel of the 2-D product.
    scratch, a flat float64 array, holds the activations that fit in it, one
    after another in layer order, in place of fresh arrays.
    """
    acts = [x]
    h = x
    last = len(weights) - 1
    used = 0
    for l, (w, b) in enumerate(zip(weights, biases)):
        # in place, so each layer allocates only the activation it keeps: on
        # a 2,000-row evaluation, fresh temporaries cost more than the matmul.
        # The rounding is that of h @ w + b.
        shape = (*h.shape[:-1], w.shape[-1])
        size = math.prod(shape)
        if scratch is not None and used + size <= scratch.size:
            h = np.matmul(h, w, out=scratch[used:used + size].reshape(shape))
            used += size
        else:
            h = h @ w
        h += b[..., None, :]
        if l < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_loss(model: ModelWeights, x: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross-entropy of the model on a batch."""
    logp = _log_softmax(_forward(model.weights, model.biases, x)[-1])
    return float(-logp[np.arange(len(y)), y].mean())


def _backprop(weights, biases, grad_w, grad_b, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Write a stack's mean-loss gradients into grad_w/grad_b; return its (k,) batch losses.

    x is (k, batch, d) and y (k, batch); the stack is views from _layer_views.
    """
    acts = _forward(weights, biases, x)
    logp = _log_softmax(acts[-1])
    k, batch = y.shape
    picked = (np.arange(k)[:, None], np.arange(batch), y)
    loss = -logp[picked].mean(axis=1)

    delta = np.exp(logp)
    delta[picked] -= 1.0
    delta /= batch
    for l in range(len(weights) - 1, -1, -1):
        np.matmul(acts[l].swapaxes(1, 2), delta, out=grad_w[l])
        delta.sum(axis=1, out=grad_b[l])
        if l > 0:
            delta = delta @ weights[l].swapaxes(1, 2)
            delta *= acts[l] > 0
    return loss


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


def _about_shard(exc: S2wefError, j: int) -> S2wefError:
    """Tag exc with the position of the shard it concerns, so a caller can name its client."""
    exc.shard = j
    return exc


def local_train(
    w_start: ModelWeights,
    shards: Sequence[DatasetShard],
    cfg: TrainConfig,
    seeds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Train one client per shard from w_start with cfg.local_iterations SGD steps.

    The clients step in lockstep, so their shards must have one length.
    Returns their (k, P) parameter rows, laid out as w_start.to_flat(), and
    their (k, h, w) WEF grids over the penultimate matrix (wef.build_wef of
    each client's per-step snapshots).  Client j draws its batch order from
    default_rng(seeds[j]), so its row and grid depend only on (w_start,
    shards[j], cfg, seeds[j]) and are bit-identical to training it alone.
    An error about one shard carries its position as the attribute `shard`.
    """
    k = len(shards)
    if k == 0 or len(seeds) != k:
        raise ConfigurationError(f"need one seed per shard, got {len(seeds)} for {k}")
    for j, shard in enumerate(shards):
        try:
            _check_shard(w_start, shard)
        except S2wefError as exc:
            raise _about_shard(exc, j)
    n = len(shards[0])
    if any(len(shard) != n for shard in shards):
        raise ConfigurationError("shards trained in lockstep must have one length")

    params = np.tile(w_start.to_flat(), (k, 1))
    grads = np.empty_like(params)
    velocity = np.zeros_like(params) if cfg.momentum else None
    weights, biases = _layer_views(w_start, params)
    grad_w, grad_b = _layer_views(w_start, grads)
    penultimate = weights[w_start.penultimate_index]
    before = penultimate.copy()
    counts = np.zeros(before.shape, dtype=np.int64)

    features = np.stack([shard.features for shard in shards])
    labels = np.stack([shard.labels for shard in shards])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    clients = np.arange(k)[:, None]
    batch = min(cfg.batch_size, n)
    pos = n  # every client draws its first order at step 1
    for t in range(1, cfg.local_iterations + 1):
        if pos + batch > n:
            order = np.stack([rng.permutation(n) for rng in rngs])
            pos = 0
        idx = order[:, pos:pos + batch]
        pos += batch
        loss = _backprop(weights, biases, grad_w, grad_b, features[clients, idx], labels[clients, idx])
        diverged = np.flatnonzero(~np.isfinite(loss))
        if diverged.size:
            raise _about_shard(NumericError(f"non-finite loss at local iteration {t}"), int(diverged[0]))
        # w -= lr * v with v = momentum * v + g, in place; at momentum 0, v is g
        if velocity is not None:
            velocity *= cfg.momentum
            velocity += grads
            np.multiply(velocity, cfg.learning_rate, out=grads)
        else:
            grads *= cfg.learning_rate
        params -= grads
        counts += _exceeds_mean_change(penultimate - before)
        before[...] = penultimate
    return params, counts


def evaluate_accuracy(model: ModelWeights, shard: DatasetShard, scratch: np.ndarray | None = None) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class.

    scratch, a flat float64 array, holds the activations that fit in it
    (see _forward); the result is the same to the bit.
    """
    _check_shard(model, shard)
    logits = _forward(model.weights, model.biases, shard.features, scratch)[-1]
    return float((logits.argmax(axis=1) == shard.labels).mean())
