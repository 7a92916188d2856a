"""Free-rider attack strategies.

Each attack fabricates a full model submission (weights plus a counterfeit
WEF matrix) from nothing but the broadcast global models, i.e. without any
local training.  RWA/SPA/DWA/ADWA counterfeit the WEF in one step; AWCA
synthesizes per-iteration weights and runs the honest counting rule so the
fabricated matrix looks like a benign one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, HistoryError
from .nn import ModelWeights
from .wef import build_wef, counterfeit_one_step

ATTACK_KINDS = ("RWA", "SPA", "DWA", "ADWA", "AWCA")


@dataclass(frozen=True)
class AttackParams:
    """Attack selection and noise/range parameters; one kind per simulation."""

    kind: str
    rwa_range: float = 1e-3
    spa_sigma: float = 1e-3
    adwa_sigma: float = 1e-3
    awca_sigma: float = 1e-5
    counterfeit_abs: bool = True

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigurationError(f"unknown attack kind {self.kind!r}; choose from {ATTACK_KINDS}")
        if self.rwa_range <= 0:
            raise ConfigurationError("rwa_range must be > 0")
        for name in ("spa_sigma", "adwa_sigma", "awca_sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


@dataclass(frozen=True)
class FakeSubmission:
    """What a free-rider uploads: fabricated weights and their WEF grid."""

    weights: ModelWeights
    wef: np.ndarray

    def __post_init__(self):
        if self.wef.shape != self.weights.penultimate.shape:
            raise ConfigurationError("WEF shape must match the penultimate layer")


def _require_history(global_prev: ModelWeights | None, kind: str) -> ModelWeights:
    if global_prev is None:
        raise HistoryError(f"{kind} needs two prior global models; only one broadcast so far")
    return global_prev


def _one_step_submission(
    fake: ModelWeights, global_now: ModelWeights, e: int, use_abs: bool
) -> FakeSubmission:
    wef = counterfeit_one_step(fake.penultimate, global_now.penultimate, e, use_abs=use_abs)
    return FakeSubmission(fake, wef)


def rwa(
    global_now: ModelWeights,
    rwa_range: float,
    e: int,
    seed: int,
    use_abs: bool = True,
) -> FakeSubmission:
    """Random weight attack: every parameter uniform in [-R, R]."""
    if rwa_range <= 0:
        raise ConfigurationError("rwa_range must be > 0")
    rng = np.random.default_rng(seed)
    flat = rng.uniform(-rwa_range, rwa_range, size=global_now.num_params)
    fake = global_now.from_flat(flat)
    return _one_step_submission(fake, global_now, e, use_abs)


def dwa(
    global_now: ModelWeights,
    global_prev: ModelWeights | None,
    e: int,
    use_abs: bool = True,
) -> FakeSubmission:
    """Delta weight attack: replay the last global-model difference."""
    global_prev = _require_history(global_prev, "DWA")
    now = global_now.to_flat()
    fake = global_now.from_flat(now + (now - global_prev.to_flat()))
    return _one_step_submission(fake, global_now, e, use_abs)


def adwa(
    global_now: ModelWeights,
    global_prev: ModelWeights | None,
    sigma: float,
    e: int,
    seed: int,
    use_abs: bool = True,
) -> FakeSubmission:
    """DWA plus i.i.d. Gaussian noise so colluders stop being identical."""
    global_prev = _require_history(global_prev, "ADWA")
    if sigma < 0:
        raise ConfigurationError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    now = global_now.to_flat()
    delta = now - global_prev.to_flat() + rng.normal(0.0, sigma, size=now.shape)
    fake = global_now.from_flat(now + delta)
    return _one_step_submission(fake, global_now, e, use_abs)


def spa(
    global_now: ModelWeights,
    sigma: float,
    e: int,
    seed: int,
    use_abs: bool = True,
) -> FakeSubmission:
    """Stochastic perturbations attack: Gaussian noise on the global model."""
    if sigma < 0:
        raise ConfigurationError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    now = global_now.to_flat()
    fake = global_now.from_flat(now + rng.normal(0.0, sigma, size=now.shape))
    return _one_step_submission(fake, global_now, e, use_abs)


def awca(
    global_now: ModelWeights,
    global_prev: ModelWeights | None,
    e: int,
    sigma: float,
    seed: int,
) -> FakeSubmission:
    """WEF-camouflage attack: spread the global delta over e synthetic steps.

    Starting from the received global model, each step adds delta/e plus
    Gaussian noise, and the WEF matrix is built from the resulting
    penultimate snapshots with the honest counting rule, so its texture
    mimics a trained client rather than a one-step counterfeit.
    """
    global_prev = _require_history(global_prev, "AWCA")
    if e < 1:
        raise ConfigurationError("e must be >= 1")
    if sigma < 0:
        raise ConfigurationError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    flat = global_now.to_flat()
    step = (flat - global_prev.to_flat()) / e
    fake = global_now
    snapshots = [fake.penultimate]
    for _ in range(e):
        flat = flat + step + rng.normal(0.0, sigma, size=flat.shape)
        fake = global_now.from_flat(flat)
        snapshots.append(fake.penultimate)
    return FakeSubmission(fake, build_wef(snapshots))


def make_submission(
    params: AttackParams,
    global_now: ModelWeights,
    global_prev: ModelWeights | None,
    e: int,
    seed: int,
) -> FakeSubmission:
    """Dispatch to the configured attack."""
    if params.kind == "RWA":
        return rwa(global_now, params.rwa_range, e, seed, params.counterfeit_abs)
    if params.kind == "SPA":
        return spa(global_now, params.spa_sigma, e, seed, params.counterfeit_abs)
    if params.kind == "DWA":
        return dwa(global_now, global_prev, e, params.counterfeit_abs)
    if params.kind == "ADWA":
        return adwa(global_now, global_prev, params.adwa_sigma, e, seed, params.counterfeit_abs)
    return awca(global_now, global_prev, e, params.awca_sigma, seed)
