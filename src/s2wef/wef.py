"""Weight-evolving-frequency matrices.

A WEF matrix counts, per entry of the penultimate weight matrix, how many
local iterations changed that weight by strictly more than the iteration's
mean absolute change.  Free-riders cannot run the honest counting loop, so
this module also provides the one-step counterfeit a free-rider would
fabricate from fake weights and the broadcast global model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ShapeError


@dataclass(frozen=True)
class WefMatrix:
    """Non-negative integer grid bounded by the local-iteration budget."""

    counts: np.ndarray
    e_max: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2:
            raise ShapeError("WEF counts must be a 2-D grid")
        if self.e_max < 0:
            raise ConfigurationError("e_max must be >= 0")
        if counts.size and (counts.min() < 0 or counts.max() > self.e_max):
            raise ConfigurationError(
                f"WEF entries must lie in [0, {self.e_max}], got "
                f"[{counts.min()}, {counts.max()}]"
            )

    @classmethod
    def zeros(cls, h: int, w: int, e_max: int) -> "WefMatrix":
        return cls(np.zeros((h, w), dtype=np.int64), e_max)

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{what}: shapes {a.shape} and {b.shape} differ")


def _exceeds_mean_change(diff: np.ndarray, signed: bool = False) -> np.ndarray:
    """Entries whose change strictly exceeds the mean absolute change.

    signed=True compares the signed change instead of its magnitude.
    """
    magnitude = np.abs(diff)
    return (diff if signed else magnitude) > magnitude.mean()


def build_wef(snapshots: Sequence[np.ndarray]) -> WefMatrix:
    """Count threshold-exceeding changes across consecutive snapshots.

    snapshots[0] is the pre-training penultimate matrix; every later entry
    is the matrix after one local iteration.  The result starts from zero
    and is bounded by len(snapshots) - 1.
    """
    if len(snapshots) < 1:
        raise ConfigurationError("build_wef needs at least one snapshot")
    mats = [np.asarray(s, dtype=np.float64) for s in snapshots]
    for s in mats[1:]:
        _check_same_shape(mats[0], s, "build_wef")
    e = len(mats) - 1
    counts = np.zeros(mats[0].shape, dtype=np.int64)
    for prev, curr in zip(mats[:-1], mats[1:]):
        counts += _exceeds_mean_change(curr - prev)
    return WefMatrix(counts, e)


def accumulate(history: Sequence[WefMatrix]) -> WefMatrix:
    """Entrywise sum of per-round WEF matrices; the budget sums as well."""
    if len(history) == 0:
        raise ConfigurationError("accumulate needs at least one matrix")
    for m in history[1:]:
        _check_same_shape(history[0].counts, m.counts, "accumulate")
    total = np.zeros(history[0].counts.shape, dtype=np.int64)
    budget = 0
    for m in history:
        total += m.counts
        budget += m.e_max
    return WefMatrix(total, budget)


def counterfeit_one_step(
    w_fake: np.ndarray,
    w_global: np.ndarray,
    e: int,
    use_abs: bool = True,
) -> WefMatrix:
    """Fabricate a WEF matrix from fake weights in a single comparison.

    The threshold is the mean absolute difference between the fake and the
    broadcast global weights; entries that exceed it get the full budget e,
    everything else stays 0.  use_abs=False switches the comparison to the
    signed difference instead of its magnitude.
    """
    if e < 1:
        raise ConfigurationError("counterfeit budget e must be >= 1")
    w_fake = np.asarray(w_fake, dtype=np.float64)
    w_global = np.asarray(w_global, dtype=np.float64)
    _check_same_shape(w_fake, w_global, "counterfeit_one_step")
    exceeds = _exceeds_mean_change(w_fake - w_global, signed=not use_abs)
    return WefMatrix(np.where(exceeds, e, 0), e)
