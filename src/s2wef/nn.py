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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericError, S2wefError, ShapeError
from .wef import _exceeds_mean_change


@dataclass(frozen=True)
class Layout:
    """Where each layer's parameters sit in a model's flat float64 row.

    A model of the layer sizes [d, h1, ..., c] is one (P,) row laid out
    w0, b0, w1, b1, ..., each weight matrix (fan_in, fan_out) in C order.
    The forward pass is x @ w0 + b0 -> relu -> ... -> logits, and the
    penultimate matrix is the last one, which feeds the output layer.
    The noise attacks draw one value per row position, so the order is
    part of the trace.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if len(self.sizes) < 2:
            raise ConfigurationError(f"architecture needs input and output sizes; got {list(self.sizes)}")
        if any(s < 1 for s in self.sizes):
            raise ConfigurationError("all layer sizes must be >= 1")

    @property
    def num_params(self) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]))

    @property
    def penultimate_shape(self) -> tuple[int, int]:
        return self.sizes[-2], self.sizes[-1]

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a (P,) row or a (k, P) stack.

        The views keep the leading axis, so weights[l] is (k, fan_in,
        fan_out) and biases[l] is (k, fan_out) for a stack.
        """
        if flat.shape[-1:] != (self.num_params,):
            raise ShapeError(f"parameter rows {flat.shape} do not hold {self.num_params} parameters")
        lead = flat.shape[:-1]
        weights, biases, pos = [], [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(flat[..., pos:pos + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
            pos += fan_in * fan_out
            biases.append(flat[..., pos:pos + fan_out])
            pos += fan_out
        return weights, biases

    def penultimate(self, flat: np.ndarray) -> np.ndarray:
        """The penultimate matrix of a (P,) row, or of each row of a (k, P) stack, as a view."""
        return self.views(flat)[0][-1]


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
        if not self.momentum >= 0:
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


def init_model(architecture: Sequence[int], seed: int) -> np.ndarray:
    """The (P,) parameter row of a seeded MLP with layer sizes architecture,
    e.g. [8, 16, 2], laid out by Layout(architecture).

    Weights are uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] and biases
    zero.  Same (architecture, seed) yields bit-identical weights.
    """
    layout = Layout(architecture)
    rng = np.random.default_rng(seed)
    row = np.zeros(layout.num_params)
    for w in layout.views(row)[0]:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return row


def _forward(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray, scratch: np.ndarray | None = None
) -> list[np.ndarray]:
    """Return activations per layer; the last entry holds raw logits.

    A stack of k models (Layout.views of a (k, P) stack) takes (k, batch, d) inputs:
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


def _backprop(weights, biases, grad_w, grad_b, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Write a stack's mean-loss gradients into grad_w/grad_b; return its (k,) batch losses.

    x is (k, batch, d) and y (k, batch); the stack is Layout.views of (k, P) rows.
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


def _check_shard(layout: Layout, shard: DatasetShard) -> None:
    """Reject a shard that a model of layout cannot train on or be scored on."""
    if len(shard) == 0:
        raise ConfigurationError("shard is empty")
    inputs, outputs = layout.sizes[0], layout.sizes[-1]
    if shard.features.shape[1] != inputs:
        raise ShapeError(f"shard dimension {shard.features.shape[1]} != model input {inputs}")
    if shard.class_count > outputs:
        raise ShapeError(f"shard has {shard.class_count} classes but the model only {outputs} outputs")


def _about_shard(exc: S2wefError, j: int) -> S2wefError:
    """Tag exc with the position of the shard it concerns, so a caller can name its client."""
    exc.shard = j
    return exc


def local_train(
    layout: Layout,
    w_start: np.ndarray,
    shards: Sequence[DatasetShard],
    cfg: TrainConfig,
    seeds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Train one client per shard from the (P,) row w_start with
    cfg.local_iterations SGD steps.

    The clients step in lockstep, so their shards must have one length.
    Returns their (k, P) parameter rows, laid out like w_start, and
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
            _check_shard(layout, shard)
        except S2wefError as exc:
            raise _about_shard(exc, j)
    n = len(shards[0])
    if any(len(shard) != n for shard in shards):
        raise ConfigurationError("shards trained in lockstep must have one length")

    params = np.tile(w_start, (k, 1))
    grads = np.empty_like(params)
    velocity = np.zeros_like(params) if cfg.momentum else None
    weights, biases = layout.views(params)
    grad_w, grad_b = layout.views(grads)
    penultimate = weights[-1]
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


def evaluate_accuracy(
    layout: Layout, row: np.ndarray, shard: DatasetShard, scratch: np.ndarray | None = None
) -> float:
    """Fraction of argmax-correct predictions of the model row; ties go to the lowest class.

    scratch, a flat float64 array, holds the activations that fit in it
    (see _forward); the result is the same to the bit.
    """
    _check_shard(layout, shard)
    logits = _forward(*layout.views(row), shard.features, scratch)[-1]
    return float((logits.argmax(axis=1) == shard.labels).mean())
