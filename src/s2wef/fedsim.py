"""Federated-learning experiment orchestration.

Runs the full round loop at desk scale: partition a synthetic dataset,
train benign clients, let scheduled free-riders fabricate submissions,
detect, aggregate with the flagged clients excluded, and record everything
needed to replay or audit the run.  All randomness derives from the trial
seed, so a config reproduces its trace byte for byte, on any number of
cores: a trial forks one helper process per usable core beyond the first,
pins each process to a core of its own and runs numpy's OpenBLAS on one
thread, whose product is the same to the bit.  Where OpenBLAS cannot be
held so, nothing is pinned and only a trial of 16 clients or more forks.
Each process trains an even share of each round's benign clients, the
helpers writing their rows and WEF grids into memory they share with the
parent, and then the first helper evaluates the previous round's model
while the parent detects and aggregates.  A round in which any process
fails reruns in the parent alone.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import mmap
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Callable, Iterable, Iterator, Sequence, get_args, get_origin, get_type_hints

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
    """A forked process that trains its share of every round's benign clients."""

    pid: int
    commands: int  # write end of its pipe: one 4-byte round index per round; -1 once closed
    replies: int  # read end of its pipe: one byte per share and per evaluation, 1 if it raised


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
    # rows: every round's (n, P) float64 submissions, and the activations
    # that fit of the evaluations the parent runs alone (a helper's overlaps
    # FedAvg, which moves the rows in place).  One array for the whole
    # trial, outside the heap: fresh ones each round left an 11 MB heap hole
    # at 200 clients, and whether a 200-client benchmark process peaked at
    # 58.3 or 65.7 MiB came down to allocation order (glibc malloc).
    rows: np.ndarray
    wefs: np.ndarray  # (rounds, n, h, w) WEF grids of wef_dtype(e); round t's record holds wefs[t]
    broadcast: np.ndarray  # the round's global row, copied where the helpers read it
    accuracies: np.ndarray  # (rounds,) float64: round t's model's accuracy, written in round t + 1
    previous_global: np.ndarray | None = None
    helpers: list[_Helper] = field(default_factory=list)
    evaluating: int | None = None  # the model the first helper evaluates, its answer unread


def _usable_cores() -> int:
    """Cores this process may run on; 1 where the platform cannot pin a process to one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else 1


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count calls of the OpenBLAS under numpy's matrix
    products, or None where numpy runs on another BLAS or they cannot be found."""
    try:
        # a name is looked up in the libraries the module links against too
        numpy_core = ctypes.CDLL(np._core._multiarray_umath.__file__)
        # as numpy's wheels (scipy-openblas, 64-bit integers) and a plain OpenBLAS name them
        for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            if hasattr(numpy_core, name % "set"):
                get, set_ = getattr(numpy_core, name % "get"), getattr(numpy_core, name % "set")
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    except (AttributeError, OSError):
        pass
    return None


def _pins() -> bool:
    """Whether a trial pins its processes to cores.  Pinned, a process's BLAS
    threads would take turns on its core, so only where numpy's OpenBLAS can
    be held to one thread."""
    return hasattr(os, "sched_setaffinity") and _openblas_threads() is not None


def _set_blas_threads(count: int) -> int:
    """Run numpy's OpenBLAS on count threads; return the count it ran on."""
    get, set_ = _openblas_threads()
    before = get()
    set_(count)
    return before


def _shared_arrays(
    cfg: SimConfig, layout: Layout
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, wefs, broadcast, accuracies) for _TrialState, in one anonymous shared mapping."""
    n, p = cfg.clients, layout.num_params
    grids = (cfg.rounds, n, *layout.penultimate_shape)
    dtype = wef_dtype(cfg.train.local_iterations)
    floats = (n + 1) * p + cfg.rounds
    buffer = mmap.mmap(-1, floats * 8 + math.prod(grids) * dtype.itemsize)
    values = np.frombuffer(buffer, np.float64, floats)
    rows = values[:(n + 1) * p].reshape(n + 1, p)
    wefs = np.frombuffer(buffer, dtype, math.prod(grids), offset=floats * 8).reshape(grids)
    return rows[:n], wefs, rows[n], values[(n + 1) * p:]


# Benign clients train in lockstep groups of at most this many clients with
# equal-length shards.  Inside 200-client simulations (16 -> 256 -> 10, 20-row
# shards; 2-core VM with 2 MB of L2 per core, numpy 2.4.6) training plus WEF
# took, per client, 1,135 us in groups of 1, 696 in groups of 4, 658 of 8 and
# 633 of 16, but 886 as one 200-client stack, whose 11 MB of parameters alone
# outgrow the cache.
# At the dwa_s1 shape (200-row shards, batch 32) a whole run took 0.87, 0.78
# and 0.76 of its one-client-at-a-time time with groups of 2, 4 and 8.
_GROUP_CLIENTS = 8


def _lockstep_groups(
    shards: Sequence[DatasetShard], clients: Iterable[int], first: int = 0, step: int = 1
) -> list[list[int]]:
    """Process first's share of clients, which step processes share: of each
    shard length's clients, in client order, a contiguous run at most one
    client longer or shorter than another process's, cut into lockstep
    groups of at most _GROUP_CLIENTS.  The lengths' odd clients go to the
    processes in turn, so that lengths of one client each spread over all."""
    by_length: dict[int, list[int]] = {}
    for i in clients:
        by_length.setdefault(len(shards[i]), []).append(i)
    groups, turn = [], 0
    for same in by_length.values():
        size, extra = divmod(len(same), step)
        sizes = [size + ((k - turn) % step < extra) for k in range(step)]
        start = sum(sizes[:first])
        share = same[start:start + sizes[first]]
        groups += [share[k:k + _GROUP_CLIENTS] for k in range(0, len(share), _GROUP_CLIENTS)]
        turn = (turn + extra) % step
    return groups


def _fabricate(state: _TrialState, t: int) -> None:
    """Round t's free riders' submissions into state.rows and state.wefs[t]."""
    e = state.cfg.train.local_iterations
    for i in np.flatnonzero(state.schedule[t]).tolist():
        seed = derive_seed(state.trial_seed, _TAG_ATTACK, t, i)
        try:
            state.rows[i], state.wefs[t, i] = make_submission(
                state.cfg.attack, state.layout, state.global_row, state.previous_global, e, seed
            )
        except S2wefError as exc:
            raise type(exc)(f"client {i}: {exc}") from exc


def _train_share(state: _TrialState, t: int, first: int, step: int) -> None:
    """Train process first's _lockstep_groups of round t's benign clients from
    state.broadcast into state.rows and state.wefs[t], raising the first
    failing group's error."""
    benign = np.flatnonzero(~state.schedule[t]).tolist()
    for group in _lockstep_groups(state.shards, benign, first, step):
        seeds = [derive_seed(state.trial_seed, _TAG_TRAIN, t, i) for i in group]
        shards = [state.shards[i] for i in group]
        try:
            state.rows[group], state.wefs[t, group] = local_train(
                state.layout, state.broadcast, shards, state.cfg.train, seeds
            )
        except S2wefError as exc:
            raise type(exc)(f"client {group[exc.shard]}: {exc}") from exc


def _evaluate(state: _TrialState, t: int, row: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """The accuracy of round t's model, row, into state.accuracies[t]."""
    try:
        state.accuracies[t] = evaluate_accuracy(state.layout, row, state.eval_set, scratch)
    except S2wefError as exc:
        raise type(exc)(f"round {t}: {exc}") from exc


def _share(state: _TrialState, t: int, first: int, step: int) -> None:
    """Process first's part of round t, which step processes share: the
    parent alone first evaluates round t - 1's model, the broadcast row;
    the parent fabricates the free riders' submissions; and each trains its
    share of the benign clients (see _train_share).  With helpers, the first
    helper evaluates that model after its share (see _serve)."""
    if t and step == 1:
        _evaluate(state, t - 1, state.broadcast, state.rows.reshape(-1))
    try:
        if first == 0:
            _fabricate(state, t)
        _train_share(state, t, first, step)
    except S2wefError as exc:
        raise type(exc)(f"round {t}: {exc}") from exc


def _outcome(work: Callable[..., None], *args) -> bytes:
    """A helper's answer for work(*args): 1 if it raised and 0 if not."""
    try:
        work(*args)
    except Exception:
        return b"\1"
    return b"\0"


def _serve(state: _TrialState, first: int, step: int, commands: int, replies: int) -> None:
    """A helper's loop: for each round t it is sent, until EOF, do its share
    and answer one byte (see _outcome).  The first helper then evaluates
    round t - 1's model, the broadcast row, while the parent detects and
    aggregates, and answers a second byte for it."""
    while message := os.read(commands, 4):
        t = int.from_bytes(message, "little")
        os.write(replies, _outcome(_share, state, t, first, step))
        if first == 1 and t:
            os.write(replies, _outcome(_evaluate, state, t - 1, state.broadcast))


def _fork_helpers(state: _TrialState, count: int, cores: list[int]) -> None:
    """Fork count helpers into state.helpers; helper j does share j of each
    round's count + 1, the parent share 0.  Unless cores is empty, pin the
    parent to its first core and helper j to the j-th, counting around when
    there are more processes than cores."""
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
                    os.close(helper.replies)
                _serve(state, first, count + 1, commands_in, replies_out)
            finally:
                os._exit(0)
        os.close(commands_in)
        os.close(replies_out)
        state.helpers.append(_Helper(pid, commands_out, replies_in))
        if cores:
            os.sched_setaffinity(pid, {cores[first % len(cores)]})
    if cores:
        os.sched_setaffinity(0, {cores[0]})


def _close_pipes(helpers: list[_Helper]) -> None:
    """Close every helper's pipes that are still open, which it reads as EOF and exits on."""
    for helper in helpers:
        if helper.commands >= 0:
            os.close(helper.commands)
            os.close(helper.replies)
            helper.commands = helper.replies = -1


def _failed(helper: _Helper, t: int) -> bool:
    """Read helper's next answer, for its work in round t: whether that raised."""
    reply = os.read(helper.replies, 1)
    if not reply:
        raise RuntimeError(f"training helper {helper.pid} exited in round {t}")
    return reply != b"\0"


def _await_evaluation(state: _TrialState) -> None:
    """Read the first helper's answer for the model it evaluates, if one is
    owed.  If the evaluation failed, the parent runs it again from
    state.broadcast, which still holds that model, and so raises the error
    a one-process run raises before the next round's work."""
    t, state.evaluating = state.evaluating, None
    if t is not None and _failed(state.helpers[0], t + 1):
        _evaluate(state, t, state.broadcast)


def _submissions(state: _TrialState, t: int) -> np.ndarray:
    """Every client's submitted parameter row for round t, in client order:
    the trial's (n, P) float64 rows, overwritten.  Their WEF grids go to
    state.wefs[t]; round t - 1's accuracy goes to state.accuracies now
    without helpers, and with them once _await_evaluation has read the
    first helper's answer.  If any process fails, the parent reruns the
    round alone: every step is seeded per client and round and reads only
    the broadcast row, the shards and the evaluation set, so the rerun
    raises the one-process run's error, and a failure that does not recur
    leaves that run's results."""
    _await_evaluation(state)  # before the broadcast row it reads is rewritten
    state.broadcast[:] = state.global_row
    for helper in state.helpers:
        try:
            os.write(helper.commands, t.to_bytes(4, "little"))
        except BrokenPipeError:
            raise RuntimeError(f"training helper {helper.pid} exited in round {t}") from None
    try:
        _share(state, t, 0, len(state.helpers) + 1)
        failed = False
    except Exception:
        if not state.helpers:  # this was the one-process run
            raise
        failed = True
    for helper in state.helpers:  # every helper answers before the rows are read or rewritten
        failed |= _failed(helper, t)
    if t and state.helpers:
        state.evaluating = t - 1
    if failed:
        _await_evaluation(state)
        _share(state, t, 0, 1)
    return state.rows


def run_round(state: _TrialState, t: int) -> RoundRecord:
    """One communication round: submit, detect and aggregate, while the
    first helper, if any, evaluates the previous round's model (see
    _submissions).  If the parent's own work fails, it waits for that
    evaluation first, whose error a one-process run would raise first.  The
    record's accuracy is NaN until run_trial fills it in."""
    cfg = state.cfg
    n, e = cfg.clients, cfg.train.local_iterations
    global_pen_before = state.layout.penultimate(state.global_row).copy()
    pen_prev = None if state.previous_global is None else state.layout.penultimate(state.previous_global)
    wefs = state.wefs[t]

    submissions = _submissions(state, t)  # its errors name their rounds
    try:
        finite = np.isfinite(submissions).all(axis=1)
        if not finite.all():
            raise NumericError(f"client {int(np.argmin(finite))}: non-finite parameters")
        (detection,) = det.detect_trial(cfg.detector, [wefs], [global_pen_before], pen_prev, e)
        flagged = detection.decision.free_rider_list
        kept = set(range(n)) - flagged
        new_global = aggregate_fedavg(submissions, kept)
        if not np.isfinite(new_global).all():  # finite rows whose mean overflows
            raise NumericError("non-finite parameters")
    except Exception as exc:
        _await_evaluation(state)  # one process evaluates round t - 1's model before round t's work
        if isinstance(exc, S2wefError):
            raise type(exc)(f"round {t}: {exc}") from exc
        raise

    truth = frozenset(int(i) for i in np.flatnonzero(state.schedule[t]))
    metrics = compute_metrics(truth, flagged, n)

    record = RoundRecord(
        trial_seed=state.trial_seed,
        round_index=t,
        roles=state.schedule[t].copy(),
        wefs=wefs,
        detection=detection,
        metrics=metrics,
        accuracy=math.nan,
        global_pen_before=global_pen_before,
        e=e,
    )
    state.previous_global = state.global_row
    state.global_row = new_global
    return record


def run_trial(cfg: SimConfig, trial_seed: int) -> list[RoundRecord]:
    """All rounds for one trial seed.  Where it pins (_pins), the trial holds
    OpenBLAS to one thread, forks its helpers and pins its processes before
    round 0; elsewhere only a trial of 2 * _GROUP_CLIENTS clients or more
    forks, unpinned.  Before it returns or raises, it reaps the helpers and
    gives the parent back the cores it could run on and its BLAS threads.
    Round t's model is evaluated in round t + 1: by the first helper after
    its share of that round, or by the parent alone before its own.  The
    last model is evaluated after the loop, by the parent while the helpers
    exit, so the records get their accuracies when the trial ends."""
    dataset = make_dataset(cfg.dataset, derive_seed(trial_seed, _TAG_DATA))
    part_seed = derive_seed(trial_seed, _TAG_PARTITION)
    if cfg.partition == "IID":
        shards = partition_iid(dataset, cfg.clients, part_seed)
    else:
        shards = partition_dirichlet(dataset, cfg.clients, cfg.dirichlet_beta, part_seed)

    layout = Layout(cfg.architecture)
    rows, wefs, broadcast, accuracies = _shared_arrays(cfg, layout)
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
        accuracies=accuracies,
    )
    pins = _pins()
    affinity = os.sched_getaffinity(0) if pins else set()
    blas_threads = _set_blas_threads(1) if pins else 0
    try:
        if pins or cfg.clients >= 2 * _GROUP_CLIENTS:
            _fork_helpers(state, _usable_cores() - 1, sorted(affinity))
        records = [run_round(state, t) for t in range(cfg.rounds)]
        _await_evaluation(state)
        _close_pipes(state.helpers)  # the helpers exit while the parent evaluates the last model
        _evaluate(state, cfg.rounds - 1, state.global_row, state.rows.reshape(-1))
    finally:
        _close_pipes(state.helpers)
        for helper in state.helpers:
            os.waitpid(helper.pid, 0)
        if pins:  # so the threads BLAS starts again get the parent's cores
            os.sched_setaffinity(0, affinity)
            _set_blas_threads(blas_threads)
    for record, accuracy in zip(records, accuracies.tolist()):
        record.accuracy = accuracy
    return records


def run_simulation(cfg: SimConfig) -> Iterator[list[RoundRecord]]:
    """Each trial seed's round records, the trial run when it is asked for.  They
    view its shared mapping: drop them before asking for the next trial."""
    for seed in cfg.seeds:
        try:
            yield run_trial(cfg, seed)
        except S2wefError as exc:
            raise type(exc)(f"trial seed {seed}: {exc}") from exc
