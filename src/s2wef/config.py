"""The experiment config and its versioned JSON form, which `--config`
files and trace headers hold."""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import detect as det
from .attacks import _RWA_RANGE_MAX, AttackParams
from .errors import ConfigurationError
from .nn import Layout, TrainConfig
from .wef import wef_dtype

SCENARIOS = ("S1", "S2", "CLEAN")
PARTITIONS = ("IID", "DIRICHLET")


@dataclass(frozen=True)
class DatasetParams:
    """Synthetic Gaussian-blob classification task.

    The defaults (many classes, small spread, wide hidden layer downstream)
    are tuned so that benign weight-evolution patterns carry enough shared
    structure for frequency statistics to behave the way they do on real
    un-normalized datasets; see the README for the reasoning.
    """

    samples: int = 2000
    features: int = 16
    classes: int = 10
    spread: float = 0.2

    def __post_init__(self):
        if self.samples < self.classes or self.classes < 2 or self.features < 1:
            raise ConfigurationError("dataset needs >= 2 classes, >= 1 feature, samples >= classes")
        if not self.spread > 0:  # written so that NaN fails it too
            raise ConfigurationError("spread must be > 0")


def _free_rider_count(n_clients: int, ratio: float) -> int:
    count = ratio * n_clients
    if abs(count - round(count)) > 1e-9:
        raise ConfigurationError(f"free_rider_ratio {ratio} times {n_clients} clients is not integral")
    count = int(round(count))
    if not 0 <= count < n_clients / 2:
        raise ConfigurationError("free-riders must be fewer than half of all clients")
    return count


@dataclass(frozen=True)
class SimConfig:
    """Complete experiment description; everything else derives from it."""

    clients: int = 10
    free_rider_ratio: float = 0.3
    scenario: str = "S1"
    attack: AttackParams | None = None
    partition: str = "IID"
    dirichlet_beta: float = 0.5
    rounds: int = 20
    train: TrainConfig = field(default_factory=TrainConfig)
    detector: str = "S2WEF"
    seeds: tuple[int, ...] = (1, 2, 3)
    dataset: DatasetParams = field(default_factory=DatasetParams)
    hidden_layers: tuple[int, ...] = (256,)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(f"scenario must be one of {SCENARIOS}")
        if self.partition not in PARTITIONS:
            raise ConfigurationError(f"partition must be one of {PARTITIONS}")
        if self.detector not in det.DETECTORS:
            raise ConfigurationError(f"detector must be one of {tuple(det.DETECTORS)}")
        if self.clients < 3:
            raise ConfigurationError("need at least 3 clients")
        if self.rounds < 3:
            raise ConfigurationError("need at least 3 rounds")
        if not self.seeds:
            raise ConfigurationError("need at least one trial seed")
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must be distinct and non-negative, got {list(self.seeds)}")
        if not 0 <= self.free_rider_ratio < 0.5:
            raise ConfigurationError("free_rider_ratio must lie in [0, 0.5)")
        _free_rider_count(self.clients, self.free_rider_ratio)
        if self.scenario == "CLEAN":
            if self.free_rider_ratio != 0:
                raise ConfigurationError("CLEAN scenario requires free_rider_ratio = 0")
        elif self.free_rider_ratio > 0 and self.attack is None:
            raise ConfigurationError("attack parameters required when free-riders exist")
        if not self.dirichlet_beta > 0:
            raise ConfigurationError("dirichlet_beta must be > 0")
        if self.dataset.samples < self.clients:
            raise ConfigurationError(
                f"dataset.samples must be >= clients, got {self.dataset.samples} for {self.clients}"
            )
        if not self.hidden_layers or any(h < 1 for h in self.hidden_layers):
            raise ConfigurationError("hidden_layers must be nonempty positive sizes")
        cells = self.hidden_layers[-1] * self.dataset.classes
        # local_iterations is the WEF budget e, which bounds every count
        budget = det.exact_budget(cells)
        if self.train.local_iterations > budget:
            raise ConfigurationError(
                f"train.local_iterations must be at most {budget} for the {cells} penultimate weights, "
                "where the detector's distances are exact"
            )
        # numpy and mmap index at most sys.maxsize bytes: the dataset at its
        # widest layer (its features, or the evaluation's activations), and a
        # trial's shared mapping (fedsim._shared_arrays)
        dataset = 8 * self.dataset.samples * max(self.architecture)
        rows = (self.clients + 1) * Layout(self.architecture).num_params + self.rounds
        trial = 8 * rows + self.rounds * self.clients * cells * wef_dtype(self.train.local_iterations).itemsize
        if max(dataset, trial) > sys.maxsize:
            raise ConfigurationError(
                f"the dataset's {dataset} bytes and a trial's {trial} must each be at most {sys.maxsize}"
            )
        # RWA's counterfeit takes the mean of its h * w absolute changes, each
        # up to rwa_range, and their sum must stay finite
        if self.attack and self.attack.kind == "RWA" and not self.attack.rwa_range * cells <= _RWA_RANGE_MAX:
            raise ConfigurationError(
                f"attack.rwa_range times the {cells} penultimate weights must be <= {_RWA_RANGE_MAX!r}"
            )

    @property
    def architecture(self) -> list[int]:
        return [self.dataset.features, *self.hidden_layers, self.dataset.classes]


# The versioned JSON form of SimConfig, read by `--config` and by trace headers.
CONFIG_VERSION = 1

# Removed options, each with the one value that every config.json and trace
# header written while it existed holds for it: the key is read at that
# value, where those files hold it, and ignored; any other value is refused.
_RETIRED_KEYS = {SimConfig: {"accumulate_wef": False}, AttackParams: {"counterfeit_abs": True}}


def _check_value(tp, value, where: str):
    """Type-check one JSON value against a field annotation; build nested configs."""
    if is_dataclass(tp):
        return _from_dict(tp, value, where)
    if get_origin(tp) is UnionType:  # `X | None`
        (inner,) = (arg for arg in get_args(tp) if arg is not type(None))
        return None if value is None else _check_value(inner, value, where)
    if get_origin(tp) is tuple:
        item = get_args(tp)[0]
        if not isinstance(value, list):
            raise ConfigurationError(f"{where}: expected a list of {item.__name__}, got {value!r}")
        return tuple(_check_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    # bool is a subclass of int, and a float field also takes an int
    allowed = {int: int, float: (int, float), str: str}[tp]
    if not isinstance(value, allowed) or isinstance(value, bool):
        raise ConfigurationError(f"{where}: expected {tp.__name__}, got {value!r}")
    # json.loads reads NaN and Infinity, and NaN passes every `> 0` check;
    # the comparison is exact for ints past float64's range too
    if tp is float and not abs(value) <= sys.float_info.max:
        raise ConfigurationError(f"{where}: expected a finite float, got {value!r}")
    return value


def _from_dict(cls, raw, context: str):
    """Build config dataclass cls from a JSON object, rejecting unknown keys
    and dropping _RETIRED_KEYS at their old values."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{context}: expected a JSON object, got {raw!r}")
    retired = _RETIRED_KEYS.get(cls, {})
    for key, old in retired.items():
        if key in raw and raw[key] is not old:
            raise ConfigurationError(f"{context}.{key} was removed; it is read only as {json.dumps(old)}")
    raw = {k: v for k, v in raw.items() if k not in retired}
    known = {f.name: f for f in fields(cls)}
    unknown = raw.keys() - known.keys()
    if unknown:
        raise ConfigurationError(f"{context}: unknown keys {sorted(unknown)}")
    for name, f in known.items():
        if name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{context}: {name!r} is required")
    hints = get_type_hints(cls)
    return cls(**{k: _check_value(hints[k], v, f"{context}.{k}") for k, v in raw.items()})


def _to_json(value):
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    return list(value) if isinstance(value, tuple) else value


def config_from_dict(raw: dict) -> SimConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    raw = dict(raw)
    version = raw.pop("version", None)
    if version != CONFIG_VERSION:
        raise ConfigurationError(f"config: version must be {CONFIG_VERSION}, got {version!r}")
    return _from_dict(SimConfig, raw, "config")


def config_to_dict(cfg: SimConfig) -> dict:
    return {"version": CONFIG_VERSION, **_to_json(cfg)}
