import json
import signal
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from s2wef import trace
from s2wef.attacks import AttackParams
from s2wef.fedsim import DatasetParams, SimConfig, config_to_dict, run_simulation
from s2wef.nn import TrainConfig
from s2wef.trace import int_matrix_json, write_trace


def small_cfg(**overrides):
    defaults = dict(
        clients=6,
        free_rider_ratio=2 / 6,
        scenario="S1",
        attack=AttackParams(kind="DWA"),
        rounds=5,
        train=TrainConfig(learning_rate=0.1, batch_size=8, local_iterations=3),
        seeds=(1, 2),
        dataset=DatasetParams(samples=300, features=8, classes=4, spread=0.3),
        hidden_layers=(32,),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def oracle_record_to_dict(rec):
    """The per-element record encoder the array encoder replaced."""
    d = rec.detection
    h, w = rec.wefs[0].shape
    return {
        "trial": rec.trial_seed,
        "round": rec.round_index,
        "e": rec.e,
        "roles": ["free_rider" if r else "benign" for r in rec.roles],
        "wef_shape": [h, w],
        "wefs": [[int(v) for v in m.counts.ravel()] for m in rec.wefs],
        "scores": {
            "gamma": [float(v) for v in d.scores.gamma],
            "dev": [float(v) for v in d.scores.dev],
            "z": [[float(a), float(b)] for a, b in d.scores.z],
        },
        "cluster": {
            "k": d.cluster.k,
            "assignment": [int(v) for v in d.cluster.assignment],
            "s2": float(d.cluster.s2),
            "delta": float(d.cluster.delta),
            "heights": [float(v) for v in d.cluster.heights],
        },
        "flags": {
            "gamma": [bool(v) for v in d.decision.flags_gamma],
            "dev": [bool(v) for v in d.decision.flags_dev],
        },
        "vote": {
            "p_gamma": float(d.decision.p_gamma),
            "p_dev": float(d.decision.p_dev),
            "detected": bool(d.decision.detected),
        },
        "free_rider_list": sorted(int(i) for i in rec.free_riders),
        "metrics": asdict(rec.metrics),
        "accuracy": rec.accuracy,
        "global_pen": [float(v) for v in rec.global_pen_before.ravel()],
        "submission_digests": list(rec.submission_digests),
    }


def oracle_trace_bytes(report) -> bytes:
    header = {"header": {"schema": trace.TRACE_SCHEMA, "config": config_to_dict(report.cfg)}}
    lines = [json.dumps(header, separators=(",", ":"))]
    for seed in report.cfg.seeds:
        for rec in report.trials[seed]:
            lines.append(json.dumps(oracle_record_to_dict(rec), separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {
            "accumulate_wef": True,
            "rounds": 8,
            "seeds": (3,),
            "train": TrainConfig(learning_rate=0.1, batch_size=8, local_iterations=12),
        },
    ],
    ids=["dwa", "accumulate-two-digit"],
)
def test_write_trace_matches_per_element_encoder(tmp_path, overrides):
    report = run_simulation(small_cfg(**overrides))
    path = tmp_path / "trace.jsonl"
    write_trace(report, path)
    assert path.read_bytes() == oracle_trace_bytes(report)
    counts = max(int(m.counts.max()) for recs in report.trials.values() for r in recs for m in r.wefs)
    assert counts >= (10 if overrides else 1)
    assert any(r.free_riders for recs in report.trials.values() for r in recs)


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 300))
    top = draw(st.sampled_from([0, 1, 9, 10, 99, 100, 12345, 10**6]) | st.integers(0, 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    grid = rng.integers(0, top + 1, size=(rows, cols)).astype(dtype)
    # small values and zeros next to wide ones, and the maximum at a random place
    grid[rng.random((rows, cols)) < draw(st.floats(0, 1))] = 0
    grid[rng.integers(rows), rng.integers(cols)] = top
    return grid


@settings(max_examples=200, deadline=None)
@given(int_matrices())
@example(np.zeros((1, 1), dtype=np.int64))
@example(np.zeros((40, 300), dtype=np.int32))
@example(np.array([[0, 9, 10, 99, 100, 999_999, 10**6]]))
def test_int_matrix_json_equals_json_dumps(grid):
    assert int_matrix_json(grid) == json.dumps(grid.tolist(), separators=(",", ":"))


@pytest.mark.parametrize(
    "grid",
    [np.array([[1, -1]]), np.zeros((2, 0), dtype=np.int64), np.zeros(3, dtype=np.int64),
     np.array([[0.5]])],
    ids=["negative", "no-columns", "1-d", "float"],
)
def test_int_matrix_json_rejects_what_it_cannot_encode(grid):
    with pytest.raises(ValueError):
        int_matrix_json(grid)


@pytest.mark.parametrize("fault", ["encoder", "file-size-limit"])
def test_failed_write_leaves_no_trace_and_no_temp_file(tmp_path, monkeypatch, fault):
    report = run_simulation(small_cfg(rounds=3, seeds=(1,)))
    path = tmp_path / "trace.jsonl"
    if fault == "encoder":
        real, calls = trace.encode_record, []

        def fails_on_second_record(rec):
            calls.append(rec)
            if len(calls) == 2:
                raise RuntimeError("encoder failed")
            return real(rec)

        monkeypatch.setattr(trace, "encode_record", fails_on_second_record)
        with pytest.raises(RuntimeError):
            write_trace(report, path)
    else:
        # the write itself fails part way, as on a full disk: the kernel
        # refuses to grow any file of this process past 4 KiB (EFBIG)
        resource = pytest.importorskip("resource")
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        previous = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        try:
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
            with pytest.raises(OSError):
                write_trace(report, path)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, previous)
    assert list(tmp_path.iterdir()) == []
