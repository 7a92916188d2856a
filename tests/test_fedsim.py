import json
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from s2wef import attacks, cli, fedsim, processes
from s2wef.attacks import AttackParams, rwa
from s2wef.detect import wef_defense_baseline
from s2wef.config import DatasetParams, SimConfig, config_from_dict
from s2wef.errors import ConfigurationError, NumericError
from s2wef.fedsim import (
    aggregate_fedavg,
    compute_metrics,
    make_dataset,
    partition_dirichlet,
    partition_iid,
    run_simulation,
    run_trial,
    schedule_scenario1,
    schedule_scenario2,
)
from s2wef.nn import DatasetShard, Layout, TrainConfig, init_model
from s2wef.trace import RoundRow, mean_over_trials

SRC = str(Path(__file__).resolve().parents[1] / "src")


def small_cfg(**overrides):
    defaults = dict(
        clients=5,
        free_rider_ratio=0.2,
        scenario="S1",
        attack=AttackParams(kind="DWA"),
        rounds=4,
        train=TrainConfig(learning_rate=0.1, batch_size=8, local_iterations=3),
        detector="S2WEF",
        seeds=(1,),
        dataset=DatasetParams(samples=300, features=8, classes=4, spread=0.3),
        hidden_layers=(32,),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


# --- dataset and partitions --------------------------------------------------

def test_make_dataset_shapes_and_determinism():
    params = DatasetParams(samples=100, features=6, classes=3)
    a = make_dataset(params, seed=5)
    b = make_dataset(params, seed=5)
    assert a.features.shape == (100, 6)
    assert a.class_count == 3
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_make_dataset_two_class_centers_mirrored():
    params = DatasetParams(samples=2000, features=8, classes=2, spread=1e-6)
    data = make_dataset(params, seed=1)
    c0 = data.features[data.labels == 0].mean(axis=0)
    c1 = data.features[data.labels == 1].mean(axis=0)
    np.testing.assert_allclose(c0, -c1, atol=1e-3)
    assert np.linalg.norm(c0) == pytest.approx(1.0, abs=1e-3)


def test_partition_iid_single_client_gets_everything():
    data = make_dataset(DatasetParams(samples=100, features=4, classes=2), seed=0)
    shards = partition_iid(data, 1, seed=1)
    assert len(shards) == 1 and len(shards[0]) == 100


def test_partition_iid_equal_disjoint():
    data = make_dataset(DatasetParams(samples=1000, features=4, classes=2), seed=0)
    shards = partition_iid(data, 10, seed=3)
    assert all(len(s) == 100 for s in shards)
    seen = np.concatenate([s.features[:, 0] for s in shards])
    assert len(np.unique(seen)) == len(seen)  # continuous features: dupes would collide


def test_partition_dirichlet_nonempty_and_disjoint():
    data = make_dataset(DatasetParams(samples=400, features=4, classes=4), seed=0)
    for seed in range(5):
        shards = partition_dirichlet(data, 8, beta=0.5, seed=seed)
        assert all(len(s) > 0 for s in shards)
        assert sum(len(s) for s in shards) == 400


def test_partition_dirichlet_large_beta_approaches_iid():
    data = make_dataset(DatasetParams(samples=4000, features=4, classes=4), seed=0)
    global_props = np.bincount(data.labels, minlength=4) / len(data)
    for seed in range(3):
        shards = partition_dirichlet(data, 5, beta=1000.0, seed=seed)
        for shard in shards:
            props = np.bincount(shard.labels, minlength=4) / len(shard)
            assert np.abs(props - global_props).max() < 0.1


def test_partition_dirichlet_bad_beta():
    with pytest.raises(ConfigurationError, match="dirichlet_beta must be > 0"):
        small_cfg(partition="DIRICHLET", dirichlet_beta=0.0)


# --- schedules ----------------------------------------------------------------

def test_scenario1_first_two_rounds_benign():
    table = schedule_scenario1(10, 0.3, 8, seed=4)
    assert not table[0].any() and not table[1].any()
    for t in range(2, 8):
        assert table[t].sum() == 3
        np.testing.assert_array_equal(table[t], table[2])  # same identities


def test_scenario1_zero_ratio():
    assert not schedule_scenario1(10, 0.0, 5, seed=1).any()


def test_scenario2_counts_and_variation():
    table = schedule_scenario2(10, 0.3, 30, seed=7)
    assert not table[0].any()
    assert all(table[t].sum() == 3 for t in range(1, 30))
    assert len({tuple(row) for row in table[1:]}) > 1  # identities vary


def test_schedule_rejects_non_integral_ratio():
    with pytest.raises(ConfigurationError):
        schedule_scenario1(10, 0.25, 5, seed=0)


def test_schedule_rejects_majority():
    with pytest.raises(ConfigurationError):
        schedule_scenario2(10, 0.5, 5, seed=0)


# --- aggregation ----------------------------------------------------------------

def _rows(n):
    return np.stack([init_model([3, 4, 2], seed=s) for s in range(n)])


def test_aggregate_single_benign_verbatim():
    rows = _rows(3)
    expected = rows[1].copy()
    mean = aggregate_fedavg(rows, [1])
    np.testing.assert_array_equal(mean, expected)


def test_aggregate_opposite_weights_cancel():
    row = _rows(1)[0]
    mean = aggregate_fedavg(np.stack([row, -row]), [0, 1])
    np.testing.assert_allclose(mean, 0.0, atol=1e-15)


@st.composite
def submission_rows(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, draw(st.integers(1, 40)))) * 10.0 ** draw(st.integers(-3, 3))
    # whole rows and single entries of negative zero: the mean must keep their sign bits
    rows[rng.random(n) < draw(st.floats(0, 1))] = -0.0
    rows[rng.random(rows.shape) < draw(st.floats(0, 0.5))] = -0.0
    kept = draw(st.lists(st.integers(0, n - 1), max_size=n))  # empty: every client
    return rows, kept


@settings(max_examples=200, deadline=None)
@given(submission_rows())
@example((np.full((3, 4), -0.0), []))
@example((np.full((3, 4), -0.0), [2]))
def test_aggregate_matches_mean_oracle(case):
    """The mean of np.stack of the kept rows as submitted, to the bit,
    though the kept rows move in place."""
    rows, kept = case
    submitted = rows.copy()
    order = sorted(set(kept)) or range(len(rows))
    expected = np.stack([submitted[i] for i in order]).mean(axis=0)
    mean = aggregate_fedavg(rows, kept)
    assert mean.tobytes() == expected.tobytes()


def test_aggregate_empty_benign_falls_back_to_all():
    rows = _rows(3)
    oracle = rows.sum(axis=0) / 3
    mean = aggregate_fedavg(rows, [])
    np.testing.assert_allclose(mean, oracle, atol=1e-12)


# --- metrics ---------------------------------------------------------------------

def test_metrics_perfect():
    m = compute_metrics({3, 7}, {3, 7}, 10)
    assert (m.precision, m.recall, m.f1, m.fpr) == (1.0, 1.0, 1.0, 0.0)


def test_metrics_missed_everything():
    m = compute_metrics({3}, set(), 10)
    assert m.recall == 0.0 and m.f1 == 0.0


def test_metrics_hand_confusion():
    m = compute_metrics({1, 2, 3}, {2, 3, 4}, 10)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)
    assert m.fpr == pytest.approx(1 / 7)


def test_metrics_all_negative_convention():
    m = compute_metrics(set(), set(), 10)
    assert (m.precision, m.recall, m.f1, m.fpr) == (1.0, 1.0, 1.0, 0.0)


def test_metrics_clean_round_fpr():
    m = compute_metrics(set(), {0, 4}, 10)
    assert m.fpr == pytest.approx(0.2)
    assert m.precision == 0.0


# --- config validation --------------------------------------------------------------

def test_config_rejects_majority_free_riders():
    with pytest.raises(ConfigurationError):
        small_cfg(free_rider_ratio=0.6)


def test_config_rejects_non_integral_count():
    with pytest.raises(ConfigurationError):
        small_cfg(free_rider_ratio=0.3)  # 0.3 * 5 clients = 1.5


def test_config_clean_requires_zero_ratio():
    with pytest.raises(ConfigurationError):
        small_cfg(scenario="CLEAN", free_rider_ratio=0.2)


def test_config_attack_required_with_free_riders():
    with pytest.raises(ConfigurationError):
        small_cfg(attack=None)


def test_config_detector_enum():
    with pytest.raises(ConfigurationError):
        small_cfg(detector="MAGIC")


def test_config_refuses_an_rwa_range_whose_counterfeit_mean_overflows():
    """RWA's counterfeit marks the penultimate weights whose change exceeds
    the mean of its h * w absolute changes, each up to rwa_range.  At the
    range AttackParams takes, their sum overflows: the mean is inf, numpy
    warns and the grid is all 0.  The config refuses a range whose product
    with h * w passes that bound; at the largest it takes, the grid is
    fabricated without a warning and marks about half the weights."""
    h, w = 32, 4  # small_cfg's hidden_layers[-1] and dataset.classes
    layout, model = Layout([8, h, w]), init_model([8, h, w], 0)
    with pytest.raises(ConfigurationError, match="rwa_range"):
        small_cfg(attack=AttackParams(kind="RWA", rwa_range=attacks._RWA_RANGE_MAX))
    top = attacks._RWA_RANGE_MAX / (h * w)
    assert small_cfg(attack=AttackParams(kind="RWA", rwa_range=top)).attack.rwa_range == top
    with pytest.raises(ConfigurationError, match="rwa_range"):
        small_cfg(attack=AttackParams(kind="RWA", rwa_range=np.nextafter(top, np.inf)))
    with np.errstate(all="raise"):
        _, grid = rwa(layout, model, top, e=5, seed=1)
    assert 0.25 < np.mean(grid == 5) < 0.75 and set(np.unique(grid).tolist()) == {0, 5}


NAN = float("nan")

# a SimConfig built in Python, past the JSON reader's finite-float check,
# with NaN in one of its numbers
WITH_NAN = {
    "rwa_range": lambda: small_cfg(attack=AttackParams(kind="RWA", rwa_range=NAN)),
    "spa_sigma": lambda: small_cfg(attack=AttackParams(kind="SPA", spa_sigma=NAN)),
    "adwa_sigma": lambda: small_cfg(attack=AttackParams(kind="ADWA", adwa_sigma=NAN)),
    "awca_sigma": lambda: small_cfg(attack=AttackParams(kind="AWCA", awca_sigma=NAN)),
    "spread": lambda: small_cfg(dataset=DatasetParams(spread=NAN)),
    "momentum": lambda: small_cfg(train=TrainConfig(momentum=NAN)),
    "dirichlet_beta": lambda: small_cfg(partition="DIRICHLET", dirichlet_beta=NAN),
}


@pytest.mark.parametrize("build", WITH_NAN.values(), ids=WITH_NAN.keys())
def test_a_nan_number_is_refused(build):
    with pytest.raises(ConfigurationError, match=r"must be (>|>=) 0|must be in \(0, "):
        build()


# --- simulation end to end ------------------------------------------------------------

def test_run_trial_conservation_and_shapes():
    cfg = small_cfg()
    records = run_trial(cfg, 1)
    assert len(records) == cfg.rounds
    for rec in records:
        assert rec.roles.shape == (cfg.clients,)
        assert len(rec.wefs) == cfg.clients
        assert rec.detection.decision.free_rider_list <= set(range(cfg.clients))


def test_round_zero_never_detects():
    records = run_trial(small_cfg(), 1)
    assert records[0].detection.decision.free_rider_list == frozenset()
    assert not records[0].roles.any()


def test_exclusion_correctness(monkeypatch):
    aggregated = []

    def spy(submissions, benign_ids):
        aggregated.append((submissions.shape, set(benign_ids)))
        return aggregate_fedavg(submissions, benign_ids)

    monkeypatch.setattr(fedsim, "aggregate_fedavg", spy)
    cfg = small_cfg(rounds=5)
    records = run_trial(cfg, 3)
    params = Layout(cfg.architecture).num_params
    assert len(aggregated) == len(records)
    for (shape, kept), rec in zip(aggregated, records):
        assert shape == (cfg.clients, params)  # every client's row, one array
        assert kept == set(range(cfg.clients)) - rec.detection.decision.free_rider_list
    assert any(rec.detection.decision.free_rider_list for rec in records)


def test_clean_with_detector_matches_fedavg_when_no_flags():
    cfg = small_cfg(scenario="CLEAN", free_rider_ratio=0.0, attack=None, rounds=4)
    with_det = list(run_simulation(cfg))
    plain = list(run_simulation(small_cfg(scenario="CLEAN", free_rider_ratio=0.0, attack=None,
                                          rounds=4, detector="NONE")))
    flags = sum(len(r.detection.decision.free_rider_list) for recs in with_det for r in recs)
    if flags == 0:
        for with_recs, plain_recs in zip(with_det, plain):
            for a, b in zip(with_recs, plain_recs):
                assert a.accuracy == b.accuracy


def test_cluster_only_detector_flags_suspicious_on_k2():
    cfg = small_cfg(detector="CLUSTER_ONLY", rounds=5)
    records = run_trial(cfg, 1)
    for rec in records[1:]:
        if rec.detection.cluster.k == 2:
            assert rec.detection.decision.free_rider_list == rec.detection.cluster.suspicious
        else:
            assert rec.detection.decision.free_rider_list == frozenset()


def test_baseline_rounds_flag_in_their_decision_outside_the_vote():
    for rec in run_trial(small_cfg(detector="WEF_NA_BASELINE"), 1)[1:]:
        decision = rec.detection.decision
        assert decision.free_rider_list == wef_defense_baseline(rec.detection.scores.dev)
        assert not (decision.flags_gamma.any() or decision.flags_dev.any() or decision.detected)


def test_metrics_report_means():
    cfg = small_cfg(rounds=5)
    trials = [[RoundRow.of(r) for r in recs] for recs in run_simulation(cfg)]
    f1 = mean_over_trials(trials, "f1", attack_only=True)
    assert 0.0 <= f1 <= 1.0
    assert 0.0 <= mean_over_trials(trials, "fpr") <= 1.0
    assert 0.0 <= np.mean([rows[-1].accuracy for rows in trials]) <= 1.0
    # a mean of the trials' own means, leaving out a trial with no round to average
    assert f1 == np.mean([mean_over_trials([rows], "f1", attack_only=True) for rows in trials])
    assert mean_over_trials([trials[0][:1]], "f1") != mean_over_trials([trials[0][:1]], "f1")  # NaN
    assert mean_over_trials([trials[0][:1], *trials], "f1", attack_only=True) == f1


def test_a_run_holds_one_trial_at_a_time(tmp_path, monkeypatch):
    """Each trial's records are views into its own shared mapping: a run writes
    a trial and drops it before the next trial makes its mapping."""
    shared, buffers, alive = fedsim._shared_arrays, [], []

    def tracked(cfg, layout):
        alive.append([ref() is not None for ref in buffers])
        arrays = shared(cfg, layout)
        base = arrays[0]
        while isinstance(base, np.ndarray):
            base = base.base
        buffers.append(weakref.ref(base.obj))  # the memoryview's mmap
        return arrays

    monkeypatch.setattr(fedsim, "_shared_arrays", tracked)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "version": 1, "clients": 5, "free_rider_ratio": 0.2, "scenario": "S1", "attack": {"kind": "DWA"},
        "rounds": 3, "seeds": [1, 2, 3], "hidden_layers": [16], "dataset": {"samples": 200},
    }))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert alive == [[], [False], [False, False]]


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cause_chain(exc: BaseException) -> list[tuple[type, str]]:
    """The type and message of exc and of each __cause__ under it."""
    chain = []
    while exc is not None:
        chain.append((type(exc), str(exc)))
        exc = exc.__cause__
    return chain


def fail_client_8(monkeypatch, error):
    """Make the lockstep group that trains client 8 in round 0 of a 20-client
    trial of seed 1 raise error(), a fresh exception on each call: in one
    process, group 1 (clients 8-15)."""
    train, seed = fedsim.local_train, fedsim.derive_seed(1, fedsim._TAG_TRAIN, 0, 8)

    def failing(layout, model, shards, cfg, seeds):
        if seed in seeds:
            raise error()
        return train(layout, model, shards, cfg, seeds)

    monkeypatch.setattr(fedsim, "local_train", failing)


# 20 clients: one process trains round 0 in lockstep groups [0-7], [8-15]
# and [16-19].  On 2 cores the parent trains [0-7] and [8, 9] and a helper
# [10-17] and [18, 19]; on 3 cores the processes train 7, 7 and 6 clients.
@pytest.mark.parametrize(
    "scales, client, iteration",
    [
        ({3: 1e200}, 3, 2),
        # client 1 overflows at step 3 and clients 3 and 4 at step 2, all in
        # one lockstep group: the lowest of the earliest to diverge is named
        ({1: 1e100, 3: 1e200, 4: 1e200}, 3, 2),
        ({10: 1e200}, 10, 2),
        # client 17 overflows first, but its group comes after client 10's
        ({10: 1e100, 17: 1e200}, 10, 3),
        # and client 12 overflows first, but its group comes after client 5's
        ({5: 1e100, 12: 1e200}, 5, 3),
    ],
    ids=["one-client", "earliest-then-lowest", "helper-group", "helper-group-first", "parent-group-first"],
)
def test_a_diverging_client_is_named_with_its_trial_and_round(monkeypatch, scales, client, iteration):
    partition = fedsim.partition_iid

    def scaled(*args):  # huge finite features make these clients' losses overflow
        shards = partition(*args)
        for i, factor in scales.items():
            shards[i].features *= factor
        return shards

    monkeypatch.setattr(fedsim, "partition_iid", scaled)
    chains = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        with np.errstate(all="ignore"), pytest.raises(NumericError) as excinfo:
            list(run_simulation(small_cfg(clients=20)))
        assert str(excinfo.value) == (
            f"trial seed 1: round 0: client {client}: non-finite loss at local iteration {iteration}"
        )
        chains.append(cause_chain(excinfo.value))
        assert_no_child_process()
    # trial, round, client, and the training's own error under them
    assert chains[0][-1] == (NumericError, f"non-finite loss at local iteration {iteration}")
    assert chains[1] == chains[0] and chains[2] == chains[0]


def test_an_error_outside_the_package_is_raised_as_a_one_process_run_raises_it(monkeypatch):
    train = fedsim.local_train
    seed_8, seed_16 = (fedsim.derive_seed(1, fedsim._TAG_TRAIN, 0, i) for i in (8, 16))

    def failing(layout, model, shards, cfg, seeds):  # the groups of round 0's clients 8 and 16 fail
        if seed_8 in seeds:
            raise ValueError("group 1 failed")
        if seed_16 in seeds:
            raise TypeError("group 2 failed")
        return train(layout, model, shards, cfg, seeds)

    monkeypatch.setattr(fedsim, "local_train", failing)
    # in one process, groups 1 and 2; client 8 is the parent's and client 16 a helper's on 2 cores
    for cores in (1, 2, 3):
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        with pytest.raises(ValueError) as excinfo:
            list(run_simulation(small_cfg(clients=20)))
        assert type(excinfo.value) is ValueError and str(excinfo.value) == "group 1 failed"
        assert_no_child_process()


def undecodable() -> UnicodeDecodeError:  # its constructor takes five arguments
    exc = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "group 1 failed")
    exc.__cause__ = KeyError(8)
    return exc


def test_an_error_built_from_several_arguments_is_raised_as_a_one_process_run_raises_it(monkeypatch):
    fail_client_8(monkeypatch, undecodable)
    chains = []
    for cores in (1, 2, 3):  # client 8 is the parent's on 2 cores and a helper's on 3
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        with pytest.raises(UnicodeDecodeError) as excinfo:
            list(run_simulation(small_cfg(clients=20)))
        chains.append(cause_chain(excinfo.value))
        assert_no_child_process()
    assert chains[0] == cause_chain(undecodable())
    assert chains[1] == chains[0] and chains[2] == chains[0]


def test_a_failure_only_in_helpers_leaves_the_rounds_a_one_process_run_computes(tmp_path, monkeypatch):
    parent, train = os.getpid(), fedsim.local_train

    def failing(*args):  # every helper's share fails, and the parent's rerun does not
        if os.getpid() != parent:
            raise MemoryError
        return train(*args)

    monkeypatch.setattr(fedsim, "local_train", failing)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FORKING_CONFIGS["s2-awca-24"]))
    outputs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        assert cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        assert_no_child_process()
        outputs.append({f: (out / f).read_bytes() for f in ("trace.jsonl", "metrics.csv", "summary.txt")})
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_a_helper_that_exits_is_named_with_its_round(monkeypatch):
    parent, train_share, fork_helpers = os.getpid(), fedsim._train_share, processes.Processes._fork_helpers
    first_helper = []

    def exiting(state, t, first, step):  # every helper dies in round 1 without a word
        if os.getpid() != parent and t == 1:
            os._exit(3)
        train_share(state, t, first, step)

    def forked(self, *args):
        fork_helpers(self, *args)
        first_helper.append(self.helpers[0].pid)

    monkeypatch.setattr(fedsim, "_train_share", exiting)
    monkeypatch.setattr(processes.Processes, "_fork_helpers", forked)
    for cores in (2, 3):  # the parent reads its first helper's answer first
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        with pytest.raises(RuntimeError) as excinfo:
            run_trial(small_cfg(clients=20), 1)
        assert str(excinfo.value) == f"training helper {first_helper[-1]} exited in round 1"
        assert_no_child_process()


def test_a_helper_that_dies_between_rounds_is_named_with_the_next_round(monkeypatch):
    run_round, first_helper = fedsim.run_round, []

    def killing(state, procs, t):  # every helper is killed once round 0 ends
        record = run_round(state, procs, t)
        if t == 0:
            for helper in procs.helpers:
                os.kill(helper.pid, signal.SIGKILL)
                os.waitid(os.P_PID, helper.pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
            first_helper.append(procs.helpers[0].pid)
        return record

    monkeypatch.setattr(fedsim, "run_round", killing)
    for cores in (2, 3):
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        with pytest.raises(RuntimeError) as excinfo:
            run_trial(small_cfg(clients=20), 1)
        assert str(excinfo.value) == f"training helper {first_helper[-1]} exited in round 1"
        assert_no_child_process()


@pytest.mark.parametrize("model", [1, 2])
def test_a_helper_that_exits_while_it_evaluates_is_named_with_its_round(monkeypatch, model):
    parent, evaluate, fork_helpers = os.getpid(), fedsim.evaluate_accuracy, processes.Processes._fork_helpers
    evaluated, first_helper = [], []

    def exiting(*args):  # the first helper dies evaluating the model of round `model`
        if os.getpid() != parent:
            evaluated.append(None)  # this helper's copy: it evaluates models 0, 1, ... in turn
            if len(evaluated) == model + 1:
                os._exit(3)
        return evaluate(*args)

    def forked(self, *args):
        fork_helpers(self, *args)
        first_helper.append(self.helpers[0].pid)

    monkeypatch.setattr(fedsim, "evaluate_accuracy", exiting)
    monkeypatch.setattr(processes.Processes, "_fork_helpers", forked)
    for cores in (2, 3):  # the model of round 2, the last but one, is evaluated in round 3
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        with pytest.raises(RuntimeError) as excinfo:
            run_trial(small_cfg(clients=20), 1)
        assert str(excinfo.value) == f"training helper {first_helper[-1]} exited in round {model + 1}"
        assert_no_child_process()


def test_a_forking_trial_leaves_the_descriptors_it_found(monkeypatch):
    if not Path("/proc/self/fd").exists():
        pytest.skip("needs /proc to list the descriptors of this process")
    monkeypatch.setattr(processes, "_usable_cores", lambda: 3)
    before = sorted(os.listdir("/proc/self/fd"))
    list(run_simulation(small_cfg(clients=20)))
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert_no_child_process()
    fail_client_8(monkeypatch, lambda: ValueError("group 1 failed"))
    with pytest.raises(ValueError):
        list(run_simulation(small_cfg(clients=20)))
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert_no_child_process()


def test_an_interrupted_trial_leaves_no_helper(monkeypatch):
    parent, train_share = os.getpid(), fedsim._train_share

    def interrupted(state, t, first, step):  # in round 1, while the helpers train
        if os.getpid() == parent and t == 1:
            raise KeyboardInterrupt
        return train_share(state, t, first, step)

    monkeypatch.setattr(fedsim, "_train_share", interrupted)
    monkeypatch.setattr(processes, "_usable_cores", lambda: 3)
    with pytest.raises(KeyboardInterrupt):
        run_trial(small_cfg(clients=20), 1)
    assert_no_child_process()


# Whether a trial can hold numpy's OpenBLAS to one thread and pin its
# processes, and so forks helpers at all.
PINS = hasattr(os, "sched_setaffinity") and processes._openblas_threads() is not None
# Configs whose rounds train in forked helpers: S1 with 40 clients (32
# benign from round 2), S2 with 24 clients whose free riders change every
# round, the dwa_s1 shape, whose 10 clients train as 5 and 5 and then 4 and
# 3 on 2 cores, and Dirichlet shards, whose lengths differ, so that each
# process trains a share of several lengths of one client or two.
FORKING_CONFIGS = {
    "s1-dwa-40": {
        "version": 1, "clients": 40, "free_rider_ratio": 0.2, "scenario": "S1", "attack": {"kind": "DWA"},
        "rounds": 5, "seeds": [1, 2], "hidden_layers": [32], "dataset": {"samples": 800},
    },
    "s2-awca-24": {
        "version": 1, "clients": 24, "free_rider_ratio": 0.25, "scenario": "S2", "attack": {"kind": "AWCA"},
        "rounds": 5, "seeds": [3], "train": {"momentum": 0.5}, "hidden_layers": [32],
        "dataset": {"samples": 480},
    },
    "dwa-s1-10": {
        "version": 1, "clients": 10, "free_rider_ratio": 0.3, "scenario": "S1", "attack": {"kind": "DWA"},
        "rounds": 20, "seeds": [1, 2], "hidden_layers": [32],
    },
    "dirichlet-20": {
        "version": 1, "clients": 20, "free_rider_ratio": 0.2, "scenario": "S1", "attack": {"kind": "DWA"},
        "partition": "DIRICHLET", "rounds": 5, "seeds": [1], "hidden_layers": [32], "dataset": {"samples": 1000},
    },
}


def logging_calls(monkeypatch, path: Path, *names: str) -> None:
    """Make each of fedsim's functions names append its name and the id of
    the process it runs in, the parent's or a helper's, to path."""
    for name in names:
        def logged(*args, _name=name, _call=getattr(fedsim, name)):
            with path.open("a") as fh:
                fh.write(f"{_name} {os.getpid()}\n")
            return _call(*args)

        monkeypatch.setattr(fedsim, name, logged)


def logging_training(monkeypatch, path: Path) -> None:
    """Make local_train append a line "train <pid> <seed> <shard length>"
    to path for each client it trains."""
    train = fedsim.local_train

    def logged(layout, model, shards, cfg, seeds):
        with path.open("a") as fh:
            fh.writelines(f"train {os.getpid()} {seed} {len(shard)}\n" for seed, shard in zip(seeds, shards))
        return train(layout, model, shards, cfg, seeds)

    monkeypatch.setattr(fedsim, "local_train", logged)


def read_calls(path: Path) -> dict[str, list[int]]:
    calls: dict[str, list[int]] = {}
    for line in path.read_text().splitlines():
        name, pid, *_ = line.split()
        calls.setdefault(name, []).append(int(pid))
    return calls


@pytest.mark.parametrize("name", FORKING_CONFIGS)
def test_helpers_change_no_output_byte(tmp_path, monkeypatch, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FORKING_CONFIGS[name]))
    cfg = config_from_dict(FORKING_CONFIGS[name])
    trials, rounds = len(cfg.seeds), cfg.rounds
    # the trial and round of each benign client-round, by its training seed
    benign = {
        fedsim.derive_seed(seed, fedsim._TAG_TRAIN, t, i): (seed, t)
        for seed in cfg.seeds
        for t, i in zip(*np.nonzero(~fedsim.build_schedule(cfg, seed)))
    }
    log = tmp_path / "calls"
    logging_calls(monkeypatch, log, "_share", "evaluate_accuracy")
    logging_training(monkeypatch, log)
    outputs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        helpers = cores - 1 if PINS else 0
        log.write_text("")
        out = tmp_path / f"cores{cores}"
        assert cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        assert_no_child_process()
        calls, lines = read_calls(log), [line.split() for line in log.read_text().splitlines()]
        # the parent and each trial's helpers take their share of every round
        assert len(set(calls["_share"])) == trials * helpers + 1
        # every benign client of every round is trained once, and every process trains
        trained = [(line[1], int(line[2]), int(line[3])) for line in lines if line[0] == "train"]
        assert sorted(seed for _, seed, _ in trained) == sorted(benign)
        assert len(set(calls["train"])) == trials * helpers + 1
        # of a round's clients of one shard length, no process trains two more than another
        shares: dict[tuple, dict[str, int]] = {}
        for pid, seed, length in trained:
            share = shares.setdefault((*benign[seed], length), {})
            share[pid] = share.get(pid, 0) + 1
        for share in shares.values():
            counts = [*share.values()] + [0] * (helpers + 1 - len(share))
            assert max(counts) - min(counts) <= 1
        # every model is evaluated once; with helpers, all but each trial's
        # last by the first helper, after its share of the next round
        assert len(calls["evaluate_accuracy"]) == trials * rounds
        evaluating = {pid for pid in calls["evaluate_accuracy"] if pid != os.getpid()}
        assert len(evaluating) == (trials if helpers else 0)
        for pid in evaluating:
            order = [name for name, other, *_ in lines if other == str(pid) and name != "train"]
            assert order == ["_share"] + ["_share", "evaluate_accuracy"] * (rounds - 1)
        outputs.append({f: (out / f).read_bytes() for f in ("trace.jsonl", "metrics.csv", "summary.txt")})
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_a_failure_only_in_a_helpers_evaluation_leaves_the_rounds_a_one_process_run_computes(tmp_path, monkeypatch):
    parent, evaluate = os.getpid(), fedsim.evaluate_accuracy

    def failing(*args):  # every helper's evaluation fails, and the parent's rerun does not
        if os.getpid() != parent:
            raise MemoryError
        return evaluate(*args)

    monkeypatch.setattr(fedsim, "evaluate_accuracy", failing)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FORKING_CONFIGS["dwa-s1-10"]))
    outputs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        assert cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        assert_no_child_process()
        outputs.append({f: (out / f).read_bytes() for f in ("trace.jsonl", "metrics.csv", "summary.txt")})
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# Round 2's model is evaluated in round 3, by the first helper when there is
# one; the last round's after the loop, by the parent.
@pytest.mark.parametrize("failing_round", [2, 5])
def test_a_failing_evaluation_is_named_with_the_round_of_its_model(monkeypatch, failing_round):
    cfg = small_cfg(clients=10, rounds=6)
    evaluate, models = fedsim.evaluate_accuracy, []

    def recorded(layout, row, *args):  # in one process, models are evaluated in round order
        models.append(row.tobytes())
        return evaluate(layout, row, *args)

    monkeypatch.setattr(processes, "_usable_cores", lambda: 1)
    monkeypatch.setattr(fedsim, "evaluate_accuracy", recorded)
    list(run_simulation(cfg))
    model = models[failing_round]

    def failing(layout, row, *args):  # in every process
        if row.tobytes() == model:
            raise ConfigurationError("evaluation failed")
        return evaluate(layout, row, *args)

    monkeypatch.setattr(fedsim, "evaluate_accuracy", failing)
    chains = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        with pytest.raises(ConfigurationError) as excinfo:
            list(run_simulation(cfg))
        assert str(excinfo.value) == f"trial seed 1: round {failing_round}: evaluation failed"
        chains.append(cause_chain(excinfo.value))
        assert_no_child_process()
    assert chains[1] == chains[0] and chains[2] == chains[0]


@pytest.mark.parametrize("fault", ["fedavg-overflow", "non-finite-row"])
def test_an_evaluation_error_comes_before_the_next_rounds_own_error(monkeypatch, fault):
    """Round 2's model fails its evaluation, which the first helper runs
    while the parent detects and aggregates round 3, and round 3's work
    after every process has trained fails too: one process evaluates round
    2's model before it trains round 3, so the evaluation's error is raised."""
    cfg = small_cfg(clients=20, rounds=6)
    evaluate, train, models = fedsim.evaluate_accuracy, fedsim.local_train, []
    round_3 = {fedsim.derive_seed(1, fedsim._TAG_TRAIN, 3, i) for i in range(cfg.clients)}

    def recorded(layout, row, *args):  # in one process, models are evaluated in round order
        models.append(row.tobytes())
        return evaluate(layout, row, *args)

    monkeypatch.setattr(processes, "_usable_cores", lambda: 1)
    monkeypatch.setattr(fedsim, "evaluate_accuracy", recorded)
    list(run_simulation(cfg))
    model = models[2]

    def failing(layout, row, *args):  # in every process
        if row.tobytes() == model:
            raise ConfigurationError("evaluation failed")
        return evaluate(layout, row, *args)

    def faulty(layout, row, shards, train_cfg, seeds):  # round 3's rows, finite and huge, or one not finite
        rows, wefs = train(layout, row, shards, train_cfg, seeds)
        if seeds[0] in round_3:
            if fault == "fedavg-overflow":
                rows[:] = 1.6e308
            else:
                rows[0, 0] = np.nan
        return rows, wefs

    monkeypatch.setattr(fedsim, "evaluate_accuracy", failing)
    monkeypatch.setattr(fedsim, "local_train", faulty)
    chains = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError) as excinfo:
            list(run_simulation(cfg))
        assert str(excinfo.value) == "trial seed 1: round 2: evaluation failed"
        chains.append(cause_chain(excinfo.value))
        assert_no_child_process()
    assert chains[1] == chains[0] and chains[2] == chains[0]


needs_pinning = pytest.mark.skipif(
    not PINS, reason="needs os.sched_setaffinity and numpy on OpenBLAS to pin a process to a core"
)
# the cores this process could run on when its tests were collected, before any trial ran
START_AFFINITY = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()


def blas_threads() -> int | None:
    """The thread count of numpy's OpenBLAS; None where numpy runs on another BLAS."""
    calls = processes._openblas_threads()
    return calls and calls[0]()


START_BLAS_THREADS = blas_threads()


@needs_pinning
@pytest.mark.parametrize("ending", ["returns", "raises", "interrupted"])
def test_a_trial_pins_its_processes_and_gives_the_parent_back_its_cores(tmp_path, monkeypatch, ending):
    before, threads, log = os.sched_getaffinity(0), blas_threads(), tmp_path / "affinity"
    # no earlier trial left the process pinned, or BLAS on one thread
    assert before == START_AFFINITY and threads == START_BLAS_THREADS
    parent, train_share = os.getpid(), fedsim._train_share

    def pinned(state, t, first, step):  # each process's cores and BLAS threads in each round
        with log.open("a") as fh:
            fh.write(f"{first} {sorted(os.sched_getaffinity(0))} {blas_threads()}\n")
        if os.getpid() == parent and t == 1 and ending == "interrupted":
            raise KeyboardInterrupt
        if os.getpid() == parent and t == 1 and ending == "raises":
            raise ValueError("group 0 failed")
        return train_share(state, t, first, step)

    monkeypatch.setattr(fedsim, "_train_share", pinned)
    monkeypatch.setattr(processes, "_usable_cores", lambda: 3)  # more processes than cores, on 2
    if ending == "returns":
        run_trial(small_cfg(clients=10), 1)
    else:
        with pytest.raises(KeyboardInterrupt if ending == "interrupted" else ValueError):
            run_trial(small_cfg(clients=10), 1)
    assert_no_child_process()
    # the parent on the first core, helper j on the j-th, counting around,
    # each on one BLAS thread
    cores = sorted(before)
    pins = {line for line in log.read_text().splitlines()}
    assert pins == {f"{first} {[cores[first % len(cores)]]} 1" for first in range(3)}
    assert os.sched_getaffinity(0) == before and blas_threads() == threads


@needs_pinning
def test_each_trial_of_a_run_forks_its_helpers(tmp_path, monkeypatch):
    cores = len(START_AFFINITY)
    if cores < 2:
        pytest.skip("needs 2 usable cores to fork a helper")
    log = tmp_path / "calls"
    logging_calls(monkeypatch, log, "_share")
    list(run_simulation(small_cfg(clients=10, seeds=(1, 2))))
    assert_no_child_process()
    # had the first trial left the parent on one core, the second would fork none
    assert len(set(read_calls(log)["_share"])) == 2 * (cores - 1) + 1


@pytest.mark.parametrize("clients", [10, 20])
def test_where_blas_is_not_held_no_trial_forks_or_pins(tmp_path, monkeypatch, clients):
    monkeypatch.setattr(processes, "_openblas_threads", lambda: None)  # numpy on MKL, say
    monkeypatch.setattr(processes, "_usable_cores", lambda: 3)
    affinity = getattr(os, "sched_getaffinity", lambda pid: set())
    before, log, train_share = affinity(0), tmp_path / "affinity", fedsim._train_share

    def logged(state, t, first, step):  # each process's id and cores in each round
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {sorted(affinity(0))}\n")
        return train_share(state, t, first, step)

    monkeypatch.setattr(fedsim, "_train_share", logged)
    run_trial(small_cfg(clients=clients), 1)
    assert_no_child_process()
    pids, cores = zip(*(line.split(" ", 1) for line in log.read_text().splitlines()))
    assert len(set(pids)) == 1 and set(cores) == {str(sorted(before))}


def test_a_blas_whose_calls_cannot_be_looked_up_is_not_held(monkeypatch):
    monkeypatch.setattr(np, "_core", object())  # where numpy's private module moved
    assert processes._openblas_threads.__wrapped__() is None


# Runs a forking simulation in a fresh interpreter with 2 usable cores.
FORKING_RUN = r"""
import os, signal, sys
from s2wef import cli, fedsim, processes
processes._usable_cores = lambda: 2
if sys.argv[1] == "kill":  # name the helper after round 0, then die without a word
    run_round = fedsim.run_round
    def killed(state, procs, t):
        run_round(state, procs, t)
        print(*(helper.pid for helper in procs.helpers), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    fedsim.run_round = killed
print("before the run")  # still buffered when the helper forks: stdout is a pipe
sys.exit(cli.main(["run", "--config", sys.argv[2], "--out", sys.argv[3]]))
"""


def run_forking(mode: str, tmp_path) -> subprocess.CompletedProcess:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FORKING_CONFIGS["s2-awca-24"]))
    return subprocess.run(
        [sys.executable, "-c", FORKING_RUN, mode, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
    )


def test_a_helper_prints_nothing_of_the_stdout_it_inherited(tmp_path):
    proc = run_forking("run", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "before the run" and len(lines) == len(set(lines))
    assert lines[1:] == (tmp_path / "out" / "summary.txt").read_text().splitlines()


def test_a_helper_exits_when_its_parent_is_killed(tmp_path):
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc to see a process it did not start")
    proc = run_forking("kill", tmp_path)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    (pid,) = (int(word) for word in proc.stdout.split() if word.isdigit())

    def running() -> bool:  # an exited helper is gone, or a zombie until its new parent reaps it
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    deadline = time.monotonic() + 30
    while running() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running()


def test_a_non_finite_trained_row_is_named_with_its_trial_round_and_client(monkeypatch):
    train, seed = fedsim.local_train, fedsim.derive_seed(1, fedsim._TAG_TRAIN, 0, 4)

    def overflowed(layout, model, shards, cfg, seeds):  # finite losses, then a last step that overflows
        rows, wefs = train(layout, model, shards, cfg, seeds)
        if seed in seeds:  # round 0's client 4
            rows[seeds.index(seed), 0] = np.inf
        return rows, wefs

    monkeypatch.setattr(fedsim, "local_train", overflowed)
    for cores in (1, 2, 3):
        monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
        with pytest.raises(NumericError) as excinfo:
            list(run_simulation(small_cfg()))
        assert str(excinfo.value) == "trial seed 1: round 0: client 4: non-finite parameters"
        assert_no_child_process()


def test_a_fedavg_mean_that_overflows_is_refused(monkeypatch):
    train = fedsim.local_train

    def huge(*args):  # every trained row finite, but the sum of two overflows
        rows, wefs = train(*args)
        rows[:] = 1.6e308
        return rows, wefs

    monkeypatch.setattr(fedsim, "local_train", huge)
    with np.errstate(over="ignore"), pytest.raises(NumericError) as excinfo:
        list(run_simulation(small_cfg()))
    assert str(excinfo.value) == "trial seed 1: round 0: non-finite parameters"


def test_a_non_finite_fabricated_row_is_named_with_its_trial_round_and_client():
    # SPA's noise at a finite sigma of 1e308 overflows the global row, and
    # the one S1 free rider first fabricates at round 2
    cfg = small_cfg(attack=AttackParams(kind="SPA", spa_sigma=1e308))
    rider = int(np.flatnonzero(fedsim.build_schedule(cfg, 1)[2])[0])
    with np.errstate(over="ignore"), pytest.raises(NumericError) as excinfo:
        list(run_simulation(cfg))
    assert str(excinfo.value) == f"trial seed 1: round 2: client {rider}: non-finite parameters"


def test_lockstep_groups_split_by_shard_length_in_client_order():
    lengths = [5, 3, 5, 5, 3] + [7] * 19
    shards = [DatasetShard(np.zeros((n, 2)), np.zeros(n, dtype=int), 2) for n in lengths]
    clients = [i for i in range(len(lengths)) if i != 2]
    assert fedsim._lockstep_groups(shards, clients) == [
        [0, 3],
        [1, 4],
        list(range(5, 13)),
        list(range(13, 21)),
        list(range(21, 24)),
    ]


def test_each_process_trains_a_near_equal_contiguous_share_of_each_shard_length():
    lengths = [5, 3, 5, 5, 3, 4, 6, 6] + [7] * 20
    shards = [DatasetShard(np.zeros((n, 2)), np.zeros(n, dtype=int), 2) for n in lengths]
    clients = [i for i in range(len(lengths)) if i != 2]
    shares = [fedsim._lockstep_groups(shards, clients, first, 3) for first in range(3)]
    # the odd clients of each length go to the processes in turn: length 5's
    # [0, 3] to processes 0 and 1, 3's [1, 4] to 2 and 0, 4's [5] to 1, 6's
    # [6, 7] to 2 and 0, and 7's 20 clients 6, 7 and 7 to 0, 1 and 2
    assert shares == [
        [[0], [1], [6], list(range(8, 14))],
        [[3], [5], list(range(14, 21))],
        [[4], [7], list(range(21, 28))],
    ]
    assert fedsim._lockstep_groups(shards, clients, 0, 1) == fedsim._lockstep_groups(shards, clients)
    assert fedsim._lockstep_groups(shards, range(8, 28), 1, 2) == [list(range(18, 26)), [26, 27]]


@st.composite
def valid_partitions(draw):
    """A valid config's clients, partition and dataset, as SimConfig checks them."""
    clients = draw(st.integers(3, 40))
    classes = draw(st.integers(2, 10))
    dataset = DatasetParams(
        samples=draw(st.integers(max(clients, classes), 20 * clients)),
        features=draw(st.integers(1, 8)),
        classes=classes,
    )
    beta = draw(st.one_of(st.floats(0.01, 0.2), st.floats(5.0, 1000.0)))
    partition = draw(st.sampled_from(["IID", "DIRICHLET"]))
    return SimConfig(clients=clients, free_rider_ratio=0.0, scenario="CLEAN", partition=partition,
                     dirichlet_beta=beta, dataset=dataset)


@settings(max_examples=60, deadline=None)
@given(cfg=valid_partitions(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_the_partitions_of_a_valid_config_fit_its_model_and_step_in_lockstep(cfg, seed, data):
    """Training and evaluation trust these shards and their lockstep groups
    unchecked: every shard is non-empty, as wide as the model's input and
    labelled below its output size, and every group is a run of at most
    _GROUP_CLIENTS clients of one shard length."""
    dataset = make_dataset(cfg.dataset, seed)
    if cfg.partition == "IID":
        shards = partition_iid(dataset, cfg.clients, seed)
    else:
        shards = partition_dirichlet(dataset, cfg.clients, cfg.dirichlet_beta, seed)
    assert len(shards) == cfg.clients
    for shard in shards:
        assert len(shard) > 0 and shard.features.shape == (len(shard), cfg.dataset.features)
        assert 0 <= shard.labels.min() and shard.labels.max() < cfg.dataset.classes
    clients = sorted(data.draw(st.sets(st.integers(0, cfg.clients - 1)), label="clients"))
    step = data.draw(st.integers(1, 4), label="step")
    shares = [fedsim._lockstep_groups(shards, clients, first, step) for first in range(step)]
    for group in (group for share in shares for group in share):
        assert 0 < len(group) <= fedsim._GROUP_CLIENTS
        assert len({len(shards[i]) for i in group}) == 1
    # the processes' shares train each client once
    assert sorted(i for share in shares for group in share for i in group) == clients


def test_runtime_error_carries_context():
    cfg = small_cfg(train=TrainConfig(learning_rate=1e30, batch_size=8, local_iterations=3))
    with np.errstate(all="ignore"), pytest.raises(Exception) as excinfo:
        list(run_simulation(cfg))
    msg = str(excinfo.value)
    assert "trial" in msg and "round" in msg
