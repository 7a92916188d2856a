"""Free-rider attack strategies.

Each attack fabricates a full model submission (a parameter row plus a
counterfeit WEF grid) from nothing but the broadcast global rows, i.e.
without any local training.  RWA/SPA/DWA/ADWA counterfeit the WEF in one
step; AWCA synthesizes per-iteration weights and runs the honest counting
rule so the fabricated matrix looks like a benign one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .nn import Layout
from .wef import build_wef, counterfeit_one_step

ATTACK_KINDS = ("RWA", "SPA", "DWA", "ADWA", "AWCA")
# RWA draws from [-R, R], whose width 2R numpy needs finite
_RWA_RANGE_MAX = sys.float_info.max / 2


@dataclass(frozen=True)
class AttackParams:
    """Attack selection and noise/range parameters; one kind per simulation."""

    kind: str
    rwa_range: float = 1e-3
    spa_sigma: float = 1e-3
    adwa_sigma: float = 1e-3
    awca_sigma: float = 1e-5

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigurationError(f"unknown attack kind {self.kind!r}; choose from {ATTACK_KINDS}")
        if not 0 < self.rwa_range <= _RWA_RANGE_MAX:
            raise ConfigurationError(f"rwa_range must be in (0, {_RWA_RANGE_MAX!r}]")
        for name in ("spa_sigma", "adwa_sigma", "awca_sigma"):
            if not getattr(self, name) >= 0:  # written so that NaN fails it too
                raise ConfigurationError(f"{name} must be >= 0")


def _one_step_submission(
    layout: Layout, fake: np.ndarray, global_now: np.ndarray, e: int
) -> tuple[np.ndarray, np.ndarray]:
    wef = counterfeit_one_step(layout.penultimate(fake), layout.penultimate(global_now), e)
    return fake, wef


def rwa(
    layout: Layout,
    global_now: np.ndarray,
    rwa_range: float,
    e: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Random weight attack: every parameter uniform in [-R, R]."""
    rng = np.random.default_rng(seed)
    fake = rng.uniform(-rwa_range, rwa_range, size=layout.num_params)
    return _one_step_submission(layout, fake, global_now, e)


def dwa(
    layout: Layout,
    global_now: np.ndarray,
    global_prev: np.ndarray,
    e: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Delta weight attack: replay the last global-model difference."""
    fake = global_now + (global_now - global_prev)
    return _one_step_submission(layout, fake, global_now, e)


def adwa(
    layout: Layout,
    global_now: np.ndarray,
    global_prev: np.ndarray,
    sigma: float,
    e: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """DWA plus i.i.d. Gaussian noise so colluders stop being identical."""
    rng = np.random.default_rng(seed)
    delta = global_now - global_prev + rng.normal(0.0, sigma, size=global_now.shape)
    return _one_step_submission(layout, global_now + delta, global_now, e)


def spa(
    layout: Layout,
    global_now: np.ndarray,
    sigma: float,
    e: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Stochastic perturbations attack: Gaussian noise on the global model."""
    rng = np.random.default_rng(seed)
    fake = global_now + rng.normal(0.0, sigma, size=global_now.shape)
    return _one_step_submission(layout, fake, global_now, e)


def awca(
    layout: Layout,
    global_now: np.ndarray,
    global_prev: np.ndarray,
    e: int,
    sigma: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """WEF-camouflage attack: spread the global delta over e synthetic steps.

    Starting from the received global model, each step adds delta/e plus
    Gaussian noise, and the WEF matrix is built from the resulting
    penultimate snapshots with the honest counting rule, so its texture
    mimics a trained client rather than a one-step counterfeit.
    """
    rng = np.random.default_rng(seed)
    fake = global_now
    step = (fake - global_prev) / e
    snapshots = [layout.penultimate(fake)]
    for _ in range(e):
        fake = fake + step + rng.normal(0.0, sigma, size=fake.shape)
        snapshots.append(layout.penultimate(fake))
    return fake, build_wef(snapshots)


def make_submission(
    params: AttackParams,
    layout: Layout,
    global_now: np.ndarray,
    global_prev: np.ndarray | None,
    e: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch to the configured attack: the fabricated (P,) parameter row,
    laid out by layout like the global rows, and its (h, w) WEF grid.
    global_prev is None only in round 0, where no schedule has a free rider."""
    if params.kind == "RWA":
        return rwa(layout, global_now, params.rwa_range, e, seed)
    if params.kind == "SPA":
        return spa(layout, global_now, params.spa_sigma, e, seed)
    if params.kind == "DWA":
        return dwa(layout, global_now, global_prev, e)
    if params.kind == "ADWA":
        return adwa(layout, global_now, global_prev, params.adwa_sigma, e, seed)
    return awca(layout, global_now, global_prev, e, params.awca_sigma, seed)
