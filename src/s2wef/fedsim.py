"""Federated-learning experiment orchestration.

Runs the full round loop at desk scale: partition a synthetic dataset,
train benign clients, let scheduled free-riders fabricate submissions,
detect, aggregate with the flagged clients excluded, and record everything
needed to replay or audit the run.  All randomness derives from the trial
seed, so a config reproduces its trace byte for byte, on any number of
cores: the processes of processes.Processes each train an even share of a
round's benign clients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import detect as det
from .attacks import make_submission
from .config import DatasetParams, SimConfig, _free_rider_count
from .errors import ConfigurationError, NumericError, ResourceError, S2wefError
from .nn import DatasetShard, Layout, evaluate_accuracy, init_model, local_train
from .processes import Processes, shared_buffer
from .wef import wef_dtype

# seed-derivation tags: one namespace per random purpose
_TAG_DATA, _TAG_PARTITION, _TAG_SCHEDULE, _TAG_INIT, _TAG_TRAIN, _TAG_ATTACK = range(6)


def derive_seed(*key: int) -> int:
    """Deterministic child seed from an integer key tuple."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


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
    """Random equal-size disjoint shards of a dataset of n_clients samples
    or more, as SimConfig requires; the remainder is dropped."""
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
    """Per-class Dirichlet(beta) proportions, beta > 0, of a dataset of
    n_clients samples or more, as SimConfig requires; empty shards are repaired."""
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


def _shared_arrays(
    cfg: SimConfig, layout: Layout
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, wefs, broadcast, accuracies) for _TrialState, in one anonymous shared mapping."""
    n, p = cfg.clients, layout.num_params
    grids = (cfg.rounds, n, *layout.penultimate_shape)
    dtype = wef_dtype(cfg.train.local_iterations)
    floats = (n + 1) * p + cfg.rounds
    buffer = shared_buffer(floats * 8 + math.prod(grids) * dtype.itemsize)
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
    helper evaluates that model after its share (see Processes.run)."""
    if t and step == 1:
        _evaluate(state, t - 1, state.broadcast, state.rows.reshape(-1))
    try:
        if first == 0:
            _fabricate(state, t)
        _train_share(state, t, first, step)
    except S2wefError as exc:
        raise type(exc)(f"round {t}: {exc}") from exc


def run_round(state: _TrialState, processes: Processes, t: int) -> RoundRecord:
    """One communication round: submit, detect and aggregate, while the
    first helper, if any, evaluates the previous round's model.  The
    record's accuracy is NaN until run_trial fills it in."""
    cfg = state.cfg
    n, e = cfg.clients, cfg.train.local_iterations
    global_pen_before = state.layout.penultimate(state.global_row).copy()
    pen_prev = None if state.previous_global is None else state.layout.penultimate(state.previous_global)
    wefs = state.wefs[t]

    processes.await_evaluation()  # before the broadcast row it reads is rewritten
    state.broadcast[:] = state.global_row
    processes.run(t)  # every client's row into state.rows and grid into wefs; its errors name their rounds
    try:
        finite = np.isfinite(state.rows).all(axis=1)
        if not finite.all():
            raise NumericError(f"client {int(np.argmin(finite))}: non-finite parameters")
        (detection,) = det.detect_trial(cfg.detector, [wefs], [global_pen_before], pen_prev, e)
        flagged = detection.decision.free_rider_list
        kept = set(range(n)) - flagged
        new_global = aggregate_fedavg(state.rows, kept)
        if not np.isfinite(new_global).all():  # finite rows whose mean overflows
            raise NumericError("non-finite parameters")
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
        accuracy=math.nan,
        global_pen_before=global_pen_before,
        e=e,
    )
    state.previous_global = state.global_row
    state.global_row = new_global
    return record


def run_trial(cfg: SimConfig, trial_seed: int) -> list[RoundRecord]:
    """All rounds for one trial seed, shared by the trial's Processes.
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
    with Processes(
        lambda t, first, step: _share(state, t, first, step),
        lambda t: _evaluate(state, t, state.broadcast),
    ) as processes:
        records = [run_round(state, processes, t) for t in range(cfg.rounds)]
        processes.await_evaluation()
        processes.close()  # the helpers exit while the parent evaluates the last model
        _evaluate(state, cfg.rounds - 1, state.global_row, state.rows.reshape(-1))
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
        except (MemoryError, OSError) as exc:  # an array, a mapping or a fork the system refused
            raise ResourceError(f"trial seed {seed}: {exc}") from exc
