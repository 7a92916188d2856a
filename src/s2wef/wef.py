"""Weight-evolving-frequency matrices.

A WEF matrix counts, per entry of the penultimate weight matrix, how many
local iterations changed that weight by strictly more than the iteration's
mean absolute change.  Free-riders cannot run the honest counting loop, so
this module also provides the one-step counterfeit a free-rider would
fabricate from fake weights and the broadcast global model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ShapeError


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{what}: shapes {a.shape} and {b.shape} differ")


def wef_dtype(e: int) -> np.dtype:
    """The type a stack of WEF grids with budget e is held in: the narrowest
    that holds every count in [0, e], uint8 when e <= 255 and int64 above."""
    return np.dtype(np.uint8 if e <= np.iinfo(np.uint8).max else np.int64)


def _exceeds_mean_change(diff: np.ndarray) -> np.ndarray:
    """Entries whose absolute change strictly exceeds their grid's mean one.

    diff is one (h, w) grid or a (k, h, w) stack, each grid against its own
    mean.
    """
    magnitude = np.abs(diff)
    # each grid's mean reduces its h*w entries as one contiguous run, as
    # magnitude.mean() does for a single grid
    mean = magnitude.reshape(*diff.shape[:-2], -1).mean(axis=-1)
    return magnitude > mean[..., None, None]


def build_wef(snapshots: Sequence[np.ndarray]) -> np.ndarray:
    """Count threshold-exceeding changes across consecutive snapshots.

    snapshots[0] is the pre-training penultimate matrix; every later entry
    is the matrix after one local iteration.  The result is an int64 grid
    of the snapshots' shape, bounded by len(snapshots) - 1.
    """
    if len(snapshots) < 1:
        raise ConfigurationError("build_wef needs at least one snapshot")
    mats = [np.asarray(s, dtype=np.float64) for s in snapshots]
    for s in mats[1:]:
        _check_same_shape(mats[0], s, "build_wef")
    counts = np.zeros(mats[0].shape, dtype=np.int64)
    for prev, curr in zip(mats[:-1], mats[1:]):
        counts += _exceeds_mean_change(curr - prev)
    return counts


def counterfeit_one_step(w_fake: np.ndarray, w_global: np.ndarray, e: int) -> np.ndarray:
    """Fabricate a WEF grid from fake weights in a single comparison.

    The threshold is the mean absolute difference between the fake and the
    broadcast global weights; entries whose absolute difference exceeds it
    get the full budget e, everything else stays 0.
    """
    w_fake = np.asarray(w_fake, dtype=np.float64)
    w_global = np.asarray(w_global, dtype=np.float64)
    _check_same_shape(w_fake, w_global, "counterfeit_one_step")
    exceeds = _exceeds_mean_change(w_fake - w_global)
    return np.where(exceeds, e, 0)
