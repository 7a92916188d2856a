"""Federated-learning experiment orchestration.

Runs the full round loop at desk scale: partition a synthetic dataset,
train benign clients, let scheduled free-riders fabricate submissions,
detect, aggregate with the flagged clients excluded, and record everything
needed to replay or audit the run.  All randomness derives from the trial
seed, so a config reproduces its trace byte for byte, on any number of
cores: a trial of 16 clients or more trains its lockstep groups in forked
helper processes too, one per usable core beyond the first, each writing
its clients' rows and WEF grids into memory it shares with the parent.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import pickle
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import BinaryIO, Iterable, Iterator, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import detect as det
from .attacks import _RWA_RANGE_MAX, AttackParams, make_submission
from .errors import ConfigurationError, NumericError, S2wefError
from .nn import DatasetShard, Layout, TrainConfig, evaluate_accuracy, init_model, local_train
from .wef import wef_dtype

SCENARIOS = ("S1", "S2", "CLEAN")
PARTITIONS = ("IID", "DIRICHLET")

# seed-derivation tags: one namespace per random purpose
_TAG_DATA, _TAG_PARTITION, _TAG_SCHEDULE, _TAG_INIT, _TAG_TRAIN, _TAG_ATTACK = range(6)


def derive_seed(*key: int) -> int:
    """Deterministic child seed from an integer key tuple."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


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


def make_dataset(params: DatasetParams, seed: int) -> DatasetShard:
    """Unit-norm class centers (mirrored for 2 classes) with Gaussian spread."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((params.classes, params.features))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    if params.classes == 2:
        centers[1] = -centers[0]
    labels = np.arange(params.samples) % params.classes
    features = centers[labels] + params.spread * rng.standard_normal(
        (params.samples, params.features)
    )
    perm = rng.permutation(params.samples)
    return DatasetShard(features[perm], labels[perm], params.classes)


def partition_iid(dataset: DatasetShard, n_clients: int, seed: int) -> list[DatasetShard]:
    """Random equal-size disjoint shards; the remainder is dropped."""
    if len(dataset) < n_clients:
        raise ConfigurationError(f"dataset of {len(dataset)} cannot feed {n_clients} clients")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(dataset))
    size = len(dataset) // n_clients
    return [
        DatasetShard(
            dataset.features[perm[i * size:(i + 1) * size]],
            dataset.labels[perm[i * size:(i + 1) * size]],
            dataset.class_count,
        )
        for i in range(n_clients)
    ]


def partition_dirichlet(
    dataset: DatasetShard, n_clients: int, beta: float, seed: int
) -> list[DatasetShard]:
    """Per-class Dirichlet(beta) proportions; empty shards are repaired."""
    if not beta > 0:
        raise ConfigurationError("beta must be > 0")
    if len(dataset) < n_clients:
        raise ConfigurationError(f"dataset of {len(dataset)} cannot feed {n_clients} clients")
    rng = np.random.default_rng(seed)
    members: list[list[int]] = [[] for _ in range(n_clients)]
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.labels == c)
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(n_clients, beta))
        bounds = (np.cumsum(proportions) * len(idx)).astype(np.int64)
        start = 0
        for i in range(n_clients):
            stop = bounds[i] if i < n_clients - 1 else len(idx)
            members[i].extend(int(v) for v in idx[start:stop])
            start = stop
    # repair: an empty shard takes one sample from the current largest
    while any(len(a) == 0 for a in members):
        empty = min(range(n_clients), key=lambda i: (len(members[i]), i))
        largest = max(range(n_clients), key=lambda i: (len(members[i]), -i))
        members[empty].append(members[largest].pop())
    return [
        DatasetShard(dataset.features[a], dataset.labels[a], dataset.class_count)
        for a in members
    ]


def _free_rider_count(n_clients: int, ratio: float) -> int:
    count = ratio * n_clients
    if abs(count - round(count)) > 1e-9:
        raise ConfigurationError(f"free_rider_ratio {ratio} times {n_clients} clients is not integral")
    count = int(round(count))
    if not 0 <= count < n_clients / 2:
        raise ConfigurationError("free-riders must be fewer than half of all clients")
    return count


def schedule_scenario1(n_clients: int, ratio: float, rounds: int, seed: int) -> np.ndarray:
    """Fixed subset switches to free-riding at round index 2 and stays."""
    count = _free_rider_count(n_clients, ratio)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n_clients, size=count, replace=False)
    table = np.zeros((rounds, n_clients), dtype=bool)
    table[2:, chosen] = True
    return table


def schedule_scenario2(n_clients: int, ratio: float, rounds: int, seed: int) -> np.ndarray:
    """Fresh random subset free-rides every round after the first."""
    count = _free_rider_count(n_clients, ratio)
    rng = np.random.default_rng(seed)
    table = np.zeros((rounds, n_clients), dtype=bool)
    for t in range(1, rounds):
        table[t, rng.choice(n_clients, size=count, replace=False)] = True
    return table


def aggregate_fedavg(submissions: np.ndarray, benign_ids: Iterable[int]) -> np.ndarray:
    """Unweighted mean over the kept clients' rows; over everyone if none remain.

    submissions is the round's (n, P) array of submitted parameter rows.
    The kept rows move to the front in client order, in place, so their
    mean is taken over the same contiguous (m, P) block np.stack of those
    rows would build, to the bit, without the copy.
    """
    if submissions.ndim != 2 or not len(submissions):
        raise ConfigurationError("nothing to aggregate")
    kept = sorted(set(benign_ids)) or range(len(submissions))
    for j, i in enumerate(kept):  # i >= j: row i is never overwritten before it moves
        if i != j:
            submissions[j] = submissions[i]
    return submissions[:len(kept)].mean(axis=0)


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    fpr: float


def compute_metrics(truth: Iterable[int], flagged: Iterable[int], n_clients: int) -> Metrics:
    """Binary detection metrics with free-rider as the positive class.

    A round with nothing to detect and nothing flagged scores a perfect 1.
    """
    truth_set = set(truth)
    flag_set = set(flagged)
    tp = len(truth_set & flag_set)
    fp = len(flag_set - truth_set)
    fn = len(truth_set - flag_set)
    tn = n_clients - tp - fp - fn
    if tp == fp == fn == 0:
        return Metrics(1.0, 1.0, 1.0, 0.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    return Metrics(precision, recall, f1, fpr)


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
        # RWA's counterfeit takes the mean of its h * w absolute changes, each
        # up to rwa_range, and their sum must stay finite
        cells = self.hidden_layers[-1] * self.dataset.classes
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


@dataclass
class RoundRecord:
    """Everything observed in one round of one trial."""

    trial_seed: int
    round_index: int
    roles: np.ndarray  # True where the client free-rode
    wefs: np.ndarray  # (n, h, w) counts, one WEF grid per client, of wef_dtype(e)
    detection: det.RoundDetection  # its decision's free_rider_list is the flagged set
    metrics: Metrics
    accuracy: float
    global_pen_before: np.ndarray
    e: int


def build_schedule(cfg: SimConfig, trial_seed: int) -> np.ndarray:
    if cfg.scenario == "CLEAN" or cfg.free_rider_ratio == 0:
        return np.zeros((cfg.rounds, cfg.clients), dtype=bool)
    sched_seed = derive_seed(trial_seed, _TAG_SCHEDULE)
    if cfg.scenario == "S1":
        return schedule_scenario1(cfg.clients, cfg.free_rider_ratio, cfg.rounds, sched_seed)
    return schedule_scenario2(cfg.clients, cfg.free_rider_ratio, cfg.rounds, sched_seed)


@dataclass
class _Helper:
    """A forked process that trains its share of every round's lockstep groups."""

    pid: int
    commands: int  # write end of its pipe: one 4-byte round index per round
    replies: BinaryIO  # read end of its pipe: one pickled reply per round (see _serve)


@dataclass
class _TrialState:
    cfg: SimConfig
    trial_seed: int
    shards: list[DatasetShard]
    eval_set: DatasetShard
    schedule: np.ndarray
    layout: Layout
    global_row: np.ndarray  # the broadcast model's (P,) parameters
    # The arrays below live in one anonymous shared mapping made before the
    # helpers fork, so what any process writes there every process sees.
    # rows: every round's (n, P) float64 submissions, and once they are
    # averaged, the evaluation's activations that fit.  One array for the
    # whole trial, outside the heap: fresh ones each round left an 11 MB heap
    # hole at 200 clients, and whether a 200-client benchmark process peaked
    # at 58.3 or 65.7 MiB came down to allocation order (glibc malloc).
    rows: np.ndarray
    wefs: np.ndarray  # (rounds, n, h, w) WEF grids of wef_dtype(e); round t's record holds wefs[t]
    broadcast: np.ndarray  # the round's global row, copied where the helpers read it
    previous_global: np.ndarray | None = None
    helpers: list[_Helper] = field(default_factory=list)


def _usable_cores() -> int:
    """Cores this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _shared_arrays(cfg: SimConfig, layout: Layout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, wefs, broadcast) for _TrialState, in one anonymous shared mapping."""
    n, p = cfg.clients, layout.num_params
    grids = (cfg.rounds, n, *layout.penultimate_shape)
    dtype = wef_dtype(cfg.train.local_iterations)
    row_bytes = (n + 1) * p * 8
    buffer = mmap.mmap(-1, row_bytes + math.prod(grids) * dtype.itemsize)
    rows = np.frombuffer(buffer, np.float64, (n + 1) * p).reshape(n + 1, p)
    wefs = np.frombuffer(buffer, dtype, math.prod(grids), offset=row_bytes).reshape(grids)
    return rows[:n], wefs, rows[n]


# Benign clients train in lockstep groups of at most this many clients with
# equal-length shards.  Inside 200-client simulations (16 -> 256 -> 10, 20-row
# shards; 2-core VM with 2 MB of L2 per core, numpy 2.4.6) training plus WEF
# took, per client, 1,135 us in groups of 1, 696 in groups of 4, 658 of 8 and
# 633 of 16, but 886 as one 200-client stack, whose 11 MB of parameters alone
# outgrow the cache.
# At the dwa_s1 shape (200-row shards, batch 32) a whole run took 0.87, 0.78
# and 0.76 of its one-client-at-a-time time with groups of 2, 4 and 8.
_GROUP_CLIENTS = 8


def _lockstep_groups(shards: Sequence[DatasetShard], clients: Iterable[int]) -> list[list[int]]:
    """clients grouped by shard length in client order, at most _GROUP_CLIENTS a group."""
    by_length: dict[int, list[int]] = {}
    for i in clients:
        by_length.setdefault(len(shards[i]), []).append(i)
    return [
        same[start:start + _GROUP_CLIENTS]
        for same in by_length.values()
        for start in range(0, len(same), _GROUP_CLIENTS)
    ]


def _naming(exc: S2wefError, client: int) -> S2wefError:
    """exc retold with its client named, chained to it as `raise ... from exc` does."""
    named = type(exc)(f"client {client}: {exc}")
    named.__cause__ = exc
    return named


def _train_share(state: _TrialState, t: int, first: int, step: int) -> tuple[int, Exception] | None:
    """Train groups first, first + step, ... of round t's _lockstep_groups from
    state.broadcast into state.rows and state.wefs[t].  Stops at the first
    group that fails and returns its index and error; None if none fails."""
    benign = np.flatnonzero(~state.schedule[t]).tolist()
    groups = _lockstep_groups(state.shards, benign)
    for g in range(first, len(groups), step):
        group = groups[g]
        seeds = [derive_seed(state.trial_seed, _TAG_TRAIN, t, i) for i in group]
        shards = [state.shards[i] for i in group]
        try:
            state.rows[group], state.wefs[t, group] = local_train(
                state.layout, state.broadcast, shards, state.cfg.train, seeds
            )
        except S2wefError as exc:
            return g, _naming(exc, group[exc.shard])
        except Exception as exc:
            return g, exc
    return None


def _serve(state: _TrialState, first: int, step: int, commands: int, replies: int) -> None:
    """A helper's loop: train its share of each round it is sent, until EOF.

    A reply is None, or the failing group's index with the type and message
    of its error, which the parent raises in its place.
    """
    with os.fdopen(replies, "wb") as out:
        while message := os.read(commands, 4):
            failure = _train_share(state, int.from_bytes(message, "little"), first, step)
            out.write(pickle.dumps(failure and (failure[0], type(failure[1]), str(failure[1]))))
            out.flush()


def _fork_helpers(state: _TrialState, count: int) -> None:
    """Fork count helpers into state.helpers; helper j trains every (count + 1)-th
    group from group j, the parent those from group 0."""
    for first in range(1, count + 1):
        commands_in, commands_out = os.pipe()
        replies_in, replies_out = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (commands_in, commands_out, replies_in, replies_out):
                os.close(fd)
            raise
        if pid == 0:
            # os._exit, so the helper runs no exit handler and flushes none of
            # the parent's buffered output
            try:
                os.close(commands_out)
                os.close(replies_in)
                for helper in state.helpers:  # an earlier helper's pipes are the parent's alone
                    os.close(helper.commands)
                    helper.replies.close()
                _serve(state, first, count + 1, commands_in, replies_out)
            finally:
                os._exit(0)
        os.close(commands_in)
        os.close(replies_out)
        state.helpers.append(_Helper(pid, commands_out, os.fdopen(replies_in, "rb")))


def _stop_helpers(helpers: list[_Helper]) -> None:
    """Close every helper's pipes, which it reads as EOF and exits on, and reap it."""
    for helper in helpers:
        os.close(helper.commands)
        helper.replies.close()
    for helper in helpers:
        os.waitpid(helper.pid, 0)
    helpers.clear()


def _submissions(state: _TrialState, t: int) -> np.ndarray:
    """Every client's submitted parameter row for round t, in client order:
    the trial's (n, P) float64 rows, overwritten.  Their WEF grids go to
    state.wefs[t].  An error is the one a one-process run raises: the first
    free rider's, else that of the first failing group in _lockstep_groups
    order."""
    cfg = state.cfg
    e = cfg.train.local_iterations
    state.broadcast[:] = state.global_row
    for helper in state.helpers:
        os.write(helper.commands, t.to_bytes(4, "little"))
    failure = None
    for i in np.flatnonzero(state.schedule[t]).tolist():
        seed = derive_seed(state.trial_seed, _TAG_ATTACK, t, i)
        try:
            state.rows[i], state.wefs[t, i] = make_submission(
                cfg.attack, state.layout, state.global_row, state.previous_global, e, seed
            )
        except S2wefError as exc:
            failure = -1, _naming(exc, i)
            break
        except Exception as exc:
            failure = -1, exc
            break
    failures = [failure or _train_share(state, t, 0, len(state.helpers) + 1)]
    for helper in state.helpers:  # every helper answers before anything is raised
        try:
            reply = pickle.load(helper.replies)
        except EOFError:
            raise RuntimeError(f"training helper {helper.pid} exited in round {t}") from None
        failures.append(reply and (reply[0], reply[1](reply[2])))
    failures = [f for f in failures if f]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    finite = np.isfinite(state.rows).all(axis=1)
    if not finite.all():
        raise NumericError(f"client {int(np.argmin(finite))}: non-finite parameters")
    return state.rows


def run_round(state: _TrialState, t: int) -> RoundRecord:
    """One communication round: submit, detect, aggregate, evaluate."""
    cfg = state.cfg
    n, e = cfg.clients, cfg.train.local_iterations
    global_pen_before = state.layout.penultimate(state.global_row).copy()
    pen_prev = None if state.previous_global is None else state.layout.penultimate(state.previous_global)
    wefs = state.wefs[t]

    try:
        submissions = _submissions(state, t)
        (detection,) = det.detect_trial(cfg.detector, [wefs], [global_pen_before], pen_prev, e)
        flagged = detection.decision.free_rider_list
        kept = set(range(n)) - flagged
        new_global = aggregate_fedavg(submissions, kept)
        if not np.isfinite(new_global).all():  # finite rows whose mean overflows
            raise NumericError("non-finite parameters")
        # the evaluation's activations overwrite the submissions
        accuracy = evaluate_accuracy(state.layout, new_global, state.eval_set, submissions.reshape(-1))
    except S2wefError as exc:
        raise type(exc)(f"round {t}: {exc}") from exc

    truth = frozenset(int(i) for i in np.flatnonzero(state.schedule[t]))
    metrics = compute_metrics(truth, flagged, n)

    record = RoundRecord(
        trial_seed=state.trial_seed,
        round_index=t,
        roles=state.schedule[t].copy(),
        wefs=wefs,
        detection=detection,
        metrics=metrics,
        accuracy=accuracy,
        global_pen_before=global_pen_before,
        e=e,
    )
    state.previous_global = state.global_row
    state.global_row = new_global
    return record


def run_trial(cfg: SimConfig, trial_seed: int) -> list[RoundRecord]:
    """All rounds for one trial seed.  A trial of 2 * _GROUP_CLIENTS clients or
    more forks its helpers before round 0 and reaps them before it returns
    or raises."""
    dataset = make_dataset(cfg.dataset, derive_seed(trial_seed, _TAG_DATA))
    part_seed = derive_seed(trial_seed, _TAG_PARTITION)
    if cfg.partition == "IID":
        shards = partition_iid(dataset, cfg.clients, part_seed)
    else:
        shards = partition_dirichlet(dataset, cfg.clients, cfg.dirichlet_beta, part_seed)

    layout = Layout(cfg.architecture)
    rows, wefs, broadcast = _shared_arrays(cfg, layout)
    state = _TrialState(
        cfg=cfg,
        trial_seed=trial_seed,
        shards=shards,
        eval_set=dataset,
        schedule=build_schedule(cfg, trial_seed),
        layout=layout,
        global_row=init_model(cfg.architecture, derive_seed(trial_seed, _TAG_INIT)),
        rows=rows,
        wefs=wefs,
        broadcast=broadcast,
    )
    try:
        if cfg.clients >= 2 * _GROUP_CLIENTS:
            _fork_helpers(state, _usable_cores() - 1)
        return [run_round(state, t) for t in range(cfg.rounds)]
    finally:
        _stop_helpers(state.helpers)


def run_simulation(cfg: SimConfig) -> Iterator[list[RoundRecord]]:
    """Each trial seed's round records, the trial run when it is asked for.  They
    view its shared mapping: drop them before asking for the next trial."""
    for seed in cfg.seeds:
        try:
            yield run_trial(cfg, seed)
        except S2wefError as exc:
            raise type(exc)(f"trial seed {seed}: {exc}") from exc
