import base64
import binascii
import json
import re
import signal
import string
import struct
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from s2wef import detect as det
from s2wef import trace
from s2wef.attacks import ATTACK_KINDS, AttackParams
from s2wef.detect import DETECTORS
from s2wef.errors import TraceError
from s2wef.config import PARTITIONS, SCENARIOS, DatasetParams, SimConfig, config_to_dict
from s2wef.fedsim import compute_metrics, run_simulation
from s2wef.nn import TrainConfig
from s2wef.trace import RoundRow, decode_digit_rows, digit_rows, read_trace, replay_trace, write_trace
from s2wef.wef import wef_dtype


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


def oracle_digit_row(counts, e) -> str:
    """One client's WEF row from schema 3 on, count by count: each in len(str(e)) digits."""
    return "".join(str(int(v)).zfill(len(str(e))) for v in counts)


def placeholder_digests(n) -> list[str]:
    """n 16-hex strings where a trace before schema 4 held the digest of
    each submitted row, which no reader checks."""
    return [f"{i:016x}" for i in range(n)]


def oracle_record_to_dict(rec, schema=trace.TRACE_SCHEMA):
    """The per-element record encoder the array encoders replaced: wefs as
    digit strings from schema 3 on and int lists before; global_pen as the
    base64 of each value's 8 little-endian bytes from schema 2 on, as
    decimal numbers in schema 1; submission_digests after it before
    schema 4."""
    d = rec.detection
    _, h, w = rec.wefs.shape
    return {
        "trial": rec.trial_seed,
        "round": rec.round_index,
        "e": rec.e,
        "roles": ["free_rider" if r else "benign" for r in rec.roles],
        "wef_shape": [h, w],
        "wefs": (
            [oracle_digit_row(m.ravel(), rec.e) for m in rec.wefs] if schema >= 3
            else [[int(v) for v in m.ravel()] for m in rec.wefs]
        ),
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
        "free_rider_list": sorted(int(i) for i in d.decision.free_rider_list),
        "metrics": asdict(rec.metrics),
        "accuracy": rec.accuracy,
        "global_pen": (
            base64.b64encode(b"".join(struct.pack("<d", v) for v in rec.global_pen_before.ravel())).decode()
            if schema >= 2 else [float(v) for v in rec.global_pen_before.ravel()]
        ),
        **({"submission_digests": placeholder_digests(len(rec.roles))} if schema < 4 else {}),
    }


def oracle_trace_bytes(cfg, trials, schema=trace.TRACE_SCHEMA) -> bytes:
    header = {"header": {"schema": schema, "config": config_to_dict(cfg)}}
    lines = [json.dumps(header, separators=(",", ":"))]
    for records in trials:
        for rec in records:
            lines.append(json.dumps(oracle_record_to_dict(rec, schema), separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8")


def int_rows(rows, e) -> list[list[int]]:
    """The digit strings of schemas 3 and 4 as the int lists of schemas 1 and 2."""
    width = len(str(e))
    return [[int(row[i:i + width]) for i in range(0, len(row), width)] for row in rows]


def older_line(line: str, schema: int) -> str:
    """A schema-4 trace line in the form of an older schema: a header's
    schema is set; a round gains submission_digests after global_pen, its
    wefs are int lists before schema 3 and, in schema 1, its global_pen
    its list of decimal numbers; no other byte changes."""
    rec = json.loads(line)
    if "header" in rec:
        rec["header"]["schema"] = schema
        return json.dumps(rec, separators=(",", ":"))
    if schema < 3:
        rec["wefs"] = int_rows(rec["wefs"], rec["e"])
    if schema == 1:
        rec["global_pen"] = np.frombuffer(base64.b64decode(rec["global_pen"]), "<f8").tolist()
    rec["submission_digests"] = placeholder_digests(len(rec["roles"]))
    return json.dumps(rec, separators=(",", ":"))


ENCODED_RUNS = pytest.mark.parametrize(
    "overrides",
    [
        {},
        {
            "rounds": 8,
            "seeds": (3,),
            "train": TrainConfig(learning_rate=0.1, batch_size=8, local_iterations=12),
        },
    ],
    ids=["dwa", "two-digit"],
)


@ENCODED_RUNS
def test_write_trace_matches_per_element_encoder(tmp_path, overrides):
    cfg = small_cfg(**overrides)
    trials = list(run_simulation(cfg))
    path = tmp_path / "trace.jsonl"
    write_trace(cfg, trials, path)
    assert path.read_bytes() == oracle_trace_bytes(cfg, trials)
    counts = max(int(r.wefs.max()) for recs in trials for r in recs)
    assert counts >= (10 if overrides else 1)
    assert any(r.detection.decision.free_rider_list for recs in trials for r in recs)


def assert_older_forms_read_alike(tmp_path, overrides, *schemas):
    """Each older form of a run's trace is what that schema's writer wrote,
    reads as json.loads reads it, to the schema-4 arrays and fields once its
    digests are dropped, and replays to the same results."""
    cfg = small_cfg(**overrides)
    trials = list(run_simulation(cfg))
    path = tmp_path / "trace.jsonl"
    write_trace(cfg, trials, path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["header"]["schema"] == 4
    new_records = read_trace(path)
    for schema in schemas:
        old = tmp_path / f"schema_{schema}.jsonl"
        old.write_text("".join(older_line(line, schema) + "\n" for line in lines))
        assert old.read_bytes() == oracle_trace_bytes(cfg, trials, schema=schema)
        assert_same_reading(*read_both_ways(old))
        old_records = read_trace(old)
        for rec in old_records:
            assert rec.pop("submission_digests") == placeholder_digests(len(rec["roles"]))
        assert_same_reading(new_records, old_records)
        assert replay_trace(new_records) == replay_trace(old_records)


@ENCODED_RUNS
def test_schema_1_form_of_a_trace_is_the_decimal_writers_and_replays_alike(tmp_path, overrides):
    """Mapped back to schema 1 (wefs as int lists, global_pen as decimals),
    a trace is what the schema-1 writer wrote, reads to the same arrays and
    replays to the same results; so does its schema-3 form, which adds
    only the digests to this one."""
    assert_older_forms_read_alike(tmp_path, overrides, 1, 3)


@ENCODED_RUNS
def test_schema_2_form_of_a_trace_is_the_int_list_writers_and_replays_alike(tmp_path, overrides):
    """Only the encoding of wefs changed from schema 2 to 3: mapped back to
    int lists, a trace is what the schema-2 writer wrote, reads to the same
    arrays and replays to the same results; so does its schema-3 form."""
    assert_older_forms_read_alike(tmp_path, overrides, 2, 3)


@st.composite
def replayable_configs(draw):
    """One small trial of any attack, detector, scenario and partition."""
    scenario = draw(st.sampled_from(SCENARIOS))
    clean = scenario == "CLEAN"
    return small_cfg(
        free_rider_ratio=0.0 if clean else 2 / 6,
        scenario=scenario,
        attack=None if clean else AttackParams(kind=draw(st.sampled_from(ATTACK_KINDS))),
        partition=draw(st.sampled_from(PARTITIONS)),
        detector=draw(st.sampled_from(sorted(DETECTORS))),
        rounds=4,
        # counts reach 10 and more from 10 local iterations on: rows of 2-digit counts
        train=TrainConfig(learning_rate=0.1, batch_size=8, local_iterations=draw(st.integers(1, 12))),
        seeds=(draw(st.integers(0, 999)),),
        hidden_layers=(16,),
    )


@settings(max_examples=25, deadline=None)
@given(cfg=replayable_configs())
def test_replay_of_a_written_trace_matches_every_recomputed_field(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("replay") / "trace.jsonl"
    write_trace(cfg, run_simulation(cfg), path)
    results = replay_trace(read_trace(path))
    assert len(results) == cfg.rounds
    assert [r["field"] for r in results if r["diverged"]] == []


def test_a_trial_split_by_its_budget_replays_each_round_after_the_one_before(tmp_path):
    """A header-less trace whose e changes from round 2 on: replay takes the
    trial's rounds in two groups, and round 2, the second group's first, is
    detected after round 1's global_pen, not as a trial's first round."""
    (records,) = run_simulation(small_cfg(seeds=(1,)))
    lines = [json.loads(older_line(trace.encode_record(rec), 1)) for rec in records]
    for line in lines[2:]:
        line["e"] = 4  # the run's counts lie in [0, 3]
    path = tmp_path / "split.jsonl"
    path.write_text("".join(_dumps(line) + "\n" for line in lines))
    recs = read_trace(path)
    wefs, pens = [r["wefs"] for r in recs], [r["global_pen"] for r in recs]
    expected = (det.detect_trial("S2WEF", wefs[:2], pens[:2], None, 3)
                + det.detect_trial("S2WEF", wefs[2:], pens[2:], pens[1], 4))
    assert len(expected[2].cluster.heights) == len(wefs[2]) - 1
    for line, detection in zip(lines, expected):
        truth = [i for i, role in enumerate(line["roles"]) if role == "free_rider"]
        metrics = compute_metrics(truth, detection.decision.free_rider_list, len(line["roles"]))
        line.update(trace.detection_fields(detection), metrics=asdict(metrics))
    path.write_text("".join(_dumps(line) + "\n" for line in lines))
    assert [r["field"] for r in replay_trace(read_trace(path))] == [None] * len(lines)


@pytest.mark.parametrize(
    "e, dtype",
    [(3, np.uint8), (12, np.uint8), (260, np.int64)],
    ids=["layout", "digit-runs", "above-255"],
)
def test_wefs_are_held_in_the_narrowest_type_of_their_budget(tmp_path, e, dtype):
    cfg = small_cfg(rounds=3, seeds=(1,), train=TrainConfig(batch_size=8, local_iterations=e))
    trials = list(run_simulation(cfg))
    (records,) = trials
    assert all(rec.wefs.dtype == dtype for rec in records)
    path = tmp_path / "trace.jsonl"
    write_trace(cfg, trials, path)
    lines = path.read_text().splitlines()
    # every row holds h·w counts of len(str(e)) digits, and the seams read every round line
    _, h, w = records[0].wefs.shape
    assert {len(row) for line in lines[1:] for row in json.loads(line)["wefs"]} == {h * w * len(str(e))}
    assert all(trace._split_record(line) for line in lines[1:])
    fast = read_trace(path)
    # json.dumps's default spacing: the reader falls back to json.loads of the whole line
    spaced = [json.dumps(json.loads(line)) for line in lines]
    assert not any(trace._split_record(line) for line in spaced)
    (tmp_path / "spaced.jsonl").write_text("".join(line + "\n" for line in spaced))
    slow = read_trace(tmp_path / "spaced.jsonl")
    for rec, a, b in zip(records, fast, slow):
        assert a["wefs"].dtype == b["wefs"].dtype == dtype
        assert np.array_equal(a["wefs"], rec.wefs) and np.array_equal(b["wefs"], rec.wefs)


def int_matrix_json(grid, e=None) -> str:
    """grid's WEF block in schema-2 form, made as older_line makes it: the
    rows digit_rows writes at e (by default grid's largest count, at least
    1), each mapped back to its int list."""
    e = max(int(grid.max()), 1) if e is None else e
    return _dumps(int_rows(json.loads(digit_rows(grid, e)), e))


def decode_int_matrix(block: str, e: int) -> np.ndarray:
    """A schema-2 WEF block as _parse_round decodes it: json.loads, then the
    int-list reader _array, in wef_dtype(e)."""
    return trace._array(json.loads(block), "i", 2).astype(wef_dtype(e), copy=False)


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
    """digit_rows equals the count-by-count encoder, and its rows mapped back
    to int lists are the schema-2 block json.dumps writes."""
    e = max(int(grid.max()), 1)
    assert digit_rows(grid, e) == _dumps([oracle_digit_row(row, e) for row in grid])
    assert int_matrix_json(grid) == json.dumps(grid.tolist(), separators=(",", ":"))


@settings(max_examples=200, deadline=None)
@given(int_matrices())
@example(np.zeros((1, 1), dtype=np.int64))
@example(np.zeros((40, 300), dtype=np.int32))
@example(np.array([[0, 9, 10, 99, 100, 999_999, 10**6]]))
@example(np.array([[10**18 - 1, 0], [7, 10**17]]))
def test_decode_int_matrix_inverts_int_matrix_json(grid):
    """A grid written as digit rows and mapped back to schema-2 int lists
    decodes, through json.loads, as the grid in wef_dtype(e): counts up to
    10**18, past any budget the reader admits, included."""
    e = max(int(grid.max()), 1)
    decoded = decode_int_matrix(int_matrix_json(grid), e)
    assert decoded.dtype == wef_dtype(e) and np.array_equal(decoded, grid)


def with_wefs_block(line: str, block: str) -> str:
    """A round line with the text of its wefs value replaced by block."""
    start = line.index(',"wefs":') + len(',"wefs":')
    return line[:start] + block + line[line.index(',"scores":'):]


@pytest.mark.parametrize(
    "block",
    ["[[01]]", "[[+1]]", "[[-0]]", "[[1.0]]", "[[1e3]]", "[[true]]", "[[1, 2]]", "[ [1]]",
     "[[1],[2,3]]", "[[1,]]", "[[,1]]", "[[1,,2]]", "[[]]", "[[1],[]]", "[[1]],[[2]]", "[[[1]]]",
     "[[1],,[2]]", "[[1]]]", "1[[2]]", "[[2]]3", "[1]],[[2]", "[[\u0661]]", "[[\uff11]]",
     "[[10000000000000000000]]", "[[9223372036854775808]]"],
)
def test_decode_int_matrix_declines_other_text(tmp_path, template_records, block):
    """Int-matrix text, the WEF block of schemas 1 and 2, well formed or not,
    is no digit-string block: the seams decline it, and the line exits as malformed."""
    line = with_wefs_block(trace.encode_record(template_records[0]), block)
    assert trace._split_record(line) is None
    header = {"header": {"schema": trace.TRACE_SCHEMA, "config": config_to_dict(small_cfg(rounds=3, seeds=(1,)))}}
    path = tmp_path / "trace.jsonl"
    path.write_text(_dumps(header) + "\n" + line + "\n")
    with pytest.raises(TraceError, match=r"trace\.jsonl:2: (wefs must be|invalid JSON)"):
        read_trace(path)


@st.composite
def single_digit_grids(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, draw(st.integers(1, 10)), size=(rows, cols))


@settings(max_examples=200, deadline=None)
@given(single_digit_grids())
@example(np.array([[7]]))
@example(np.arange(10).reshape(1, 10))  # one row
@example(np.array([[1], [2], [3]]))  # one column
def test_single_digit_blocks_are_read_by_their_layout(grid):
    """At e <= 9 a row is one digit a count: m + 3 bytes a row of m counts."""
    n, m = grid.shape
    e = max(int(grid.max()), 1)
    block = digit_rows(grid, e)
    assert len(block) == n * (m + 3) + 1
    decoded = decode_digit_rows(block, n, m, e)
    assert decoded.dtype == np.uint8 and np.array_equal(decoded, grid)


# grids with counts of 10 and more, written in 2 or 3 digits a count
@pytest.mark.parametrize(
    "grid",
    [[[12], [34]], [[10, 2], [3, 45]], [[123], [456]], [[100], [200], [300]], [[12, 34, 5], [67, 89, 1]],
     [[1, 2, 3, 10]]],
)
def test_multi_digit_blocks_reach_the_digit_run_decoder(grid):
    grid = np.array(grid)
    n, m = grid.shape
    e = int(grid.max())
    block = digit_rows(grid, e)
    assert len(block) == n * (m * len(str(e)) + 3) + 1 and len(str(e)) > 1
    decoded = decode_digit_rows(block, n, m, e)
    assert decoded.dtype == wef_dtype(e) and np.array_equal(decoded, grid)
    assert int_matrix_json(grid) == json.dumps(grid.tolist(), separators=(",", ":"))


def oracle_digit_rows(block: str, n: int, m: int, e: int) -> np.ndarray | None:
    """decode_digit_rows count by count: the matrix when block is the compact
    JSON of n strings of m counts in [0, e] of len(str(e)) ASCII digits each, else None."""
    width = len(str(e))
    try:
        rows = json.loads(block)
    except ValueError:
        return None
    if not (isinstance(rows, list) and len(rows) == n and _dumps(rows) == block
            and all(isinstance(r, str) and r.isascii() and r.isdigit() and len(r) == m * width for r in rows)):
        return None
    grid = np.array(int_rows(rows, e), dtype=object)
    return grid.astype(wef_dtype(e)) if grid.max() <= e else None


@settings(max_examples=300, deadline=None)
@given(grid=single_digit_grids(), e=st.sampled_from([9, 12, 300]), data=st.data())
def test_layout_read_agrees_with_the_digit_run_decoder_on_edited_blocks(grid, e, data):
    """One byte of a block of 1-, 2- or 3-digit counts changed, added or
    dropped: decode_digit_rows gives the count-by-count oracle's array, or None."""
    grid = grid[:3, :6]
    n, m = grid.shape
    block = digit_rows(grid, e)
    at = data.draw(st.integers(0, len(block) - 1))
    byte = data.draw(st.sampled_from('0123456789",[]-. x'))
    edit = data.draw(st.sampled_from(["replace", "insert", "drop"]))
    edited = block[:at] + {"replace": byte, "insert": byte + block[at], "drop": ""}[edit] + block[at + 1:]
    decoded = decode_digit_rows(edited, n, m, e)
    expected = oracle_digit_rows(edited, n, m, e)
    if expected is None:
        assert decoded is None
    else:
        assert decoded.dtype == expected.dtype and np.array_equal(decoded, expected)


@st.composite
def budgets_and_grids(draw):
    """A budget e of 1 to 19 digits, up to int64's largest, and a grid of counts in [0, e]."""
    width = draw(st.integers(1, 19))
    e = draw(st.integers(10 ** (width - 1), min(10**width - 1, np.iinfo(np.int64).max)))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.integers(0, e, size=(rows, cols), dtype=np.uint64, endpoint=True).astype(wef_dtype(e))
    grid[rng.random((rows, cols)) < draw(st.floats(0, 1))] = 0
    grid[rng.integers(rows), rng.integers(cols)] = e
    return e, grid


@settings(max_examples=300, deadline=None)
@given(budgets_and_grids())
@example((np.iinfo(np.int64).max, np.array([[np.iinfo(np.int64).max, 0, 1]], dtype=np.int64)))
@example((10**18, np.array([[10**18], [0]], dtype=np.int64)))
@example((1, np.array([[1, 0]], dtype=np.uint8)))
def test_digit_rows_round_trip_at_every_width(budget_and_grid):
    e, grid = budget_and_grid
    n, m = grid.shape
    width = len(str(e))
    block = digit_rows(grid, e)
    assert block == _dumps([oracle_digit_row(row, e) for row in grid])
    assert len(block) == n * (m * width + 3) + 1
    decoded = decode_digit_rows(block, n, m, e)
    assert decoded.dtype == wef_dtype(e) and np.array_equal(decoded, grid)
    # the first count one above e, where that still has width digits
    if e + 1 < 10**width:
        assert decode_digit_rows(block[:2] + str(e + 1) + block[2 + width:], n, m, e) is None


@pytest.mark.parametrize("count", [2**63, 2**64 - 1, 10**19 - 1], ids=["2**63", "2**64-1", "10**19-1"])
def test_a_19_digit_count_past_int64_is_refused_not_wrapped(count):
    e = np.iinfo(np.int64).max
    block = digit_rows(np.array([[e, 0]], dtype=np.int64), e)
    assert decode_digit_rows(block, 1, 2, e).tolist() == [[e, 0]]
    assert decode_digit_rows(block.replace(str(e), str(count)), 1, 2, e) is None


@pytest.mark.parametrize(
    "grid",
    [np.array([[1, -1]]), np.zeros((2, 0), dtype=np.int64), np.zeros(3, dtype=np.int64),
     np.array([[0.5]]), np.array([[3, 10]])],
    ids=["negative", "no-columns", "1-d", "float", "above-e"],
)
def test_int_matrix_json_rejects_what_it_cannot_encode(grid):
    """digit_rows at e = 9 refuses what is not a matrix of counts in [0, 9]."""
    with pytest.raises(ValueError):
        digit_rows(grid, 9)


@pytest.mark.parametrize("fault", ["encoder", "file-size-limit"])
def test_failed_write_leaves_no_trace_and_no_temp_file(tmp_path, monkeypatch, fault):
    cfg = small_cfg(rounds=3, seeds=(1,))
    trials = list(run_simulation(cfg))
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
            write_trace(cfg, trials, path)
    else:
        # the write itself fails part way, as on a full disk: the kernel
        # refuses to grow any file of this process past 4 KiB (EFBIG)
        resource = pytest.importorskip("resource")
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        previous = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        try:
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
            with pytest.raises(OSError):
                write_trace(cfg, trials, path)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, previous)
    assert list(tmp_path.iterdir()) == []


def test_failed_metrics_write_leaves_no_file_and_no_temp_file(tmp_path, monkeypatch):
    cfg = small_cfg(rounds=3)
    trials = [[RoundRow.of(rec) for rec in records] for records in run_simulation(cfg)]
    real = trace.mean_over_trials

    def fails_on_the_second_trial(over, metric):
        if over[0] is trials[1]:
            raise RuntimeError("metrics failed")
        return real(over, metric)

    # the first trial's rows and its mean row are written before the failure
    monkeypatch.setattr(trace, "mean_over_trials", fails_on_the_second_trial)
    with pytest.raises(RuntimeError):
        trace.write_metrics_csv(cfg, trials, tmp_path / "metrics.csv")
    assert list(tmp_path.iterdir()) == []


_dumps = json.JSONEncoder(separators=(",", ":")).encode


@pytest.fixture(scope="module")
def reports():
    """Runs whose WEF counts have one digit and two: each config with its trials."""
    one_digit = small_cfg(rounds=3, seeds=(1,))
    two_digits = small_cfg(
        rounds=3, seeds=(3,),
        train=TrainConfig(learning_rate=0.1, batch_size=8, local_iterations=12),
    )
    return [(cfg, list(run_simulation(cfg))) for cfg in (one_digit, two_digits)]


@pytest.fixture(scope="module")
def record_lines(reports):
    """The round lines of those runs as a trace without a header holds them:
    as the writer encodes them, in schema-1 form."""
    return [older_line(trace.encode_record(rec), 1) for _, trials in reports
            for recs in trials for rec in recs]


def read_both_ways(path):
    """read_trace as it is, and with every line read by json.loads: the records or the error."""
    results = []
    for split in (trace._split_record, lambda *args: None):
        with mock.patch.object(trace, "_split_record", split):
            try:
                results.append(trace.read_trace(path))
            except TraceError as exc:
                results.append(str(exc))
    return results


def assert_same_reading(fast, slow):
    assert type(fast) is type(slow)
    if isinstance(slow, str):
        assert fast == slow
        return
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert list(a) == list(b)
        for key in a:
            if key in ("wefs", "global_pen"):
                assert a[key].dtype == b[key].dtype and a[key].shape == b[key].shape
                assert a[key].tobytes() == b[key].tobytes()
            else:
                assert a[key] == b[key]


def test_reader_decodes_the_writers_lines_at_their_seams(tmp_path, reports, record_lines):
    lines = [trace.encode_record(rec) for _, trials in reports for recs in trials for rec in recs]
    decoded = [trace._split_record(line) for line in lines]
    assert all(rec is not None for rec in decoded)
    assert max(int(rec["wefs"].max()) for rec in decoded) >= 10  # two-digit counts are there
    assert all(isinstance(rec["global_pen"], np.ndarray) for rec in decoded)
    # the seam keeps the key order json.loads gives
    assert all(list(rec) == list(json.loads(line)) for rec, line in zip(decoded, lines))
    paths = [tmp_path / "header-less.jsonl"]
    paths[0].write_text("".join(line + "\n" for line in record_lines))
    for i, (cfg, trials) in enumerate(reports):
        paths.append(tmp_path / f"trace_{i}.jsonl")
        write_trace(cfg, trials, paths[-1])
        paths.append(tmp_path / f"trace_{i}_schema_2.jsonl")
        paths[-1].write_text("".join(older_line(line, 2) + "\n" for line in paths[-2].read_text().splitlines()))
    # lines of an older schema go to json.loads whole
    with mock.patch.object(trace, "_split_record", side_effect=AssertionError("an older line reached the seams")):
        for path in paths[0::2]:
            read_trace(path)
    for path in paths:
        fast, slow = read_both_ways(path)
        assert not isinstance(fast, str), fast
        assert_same_reading(fast, slow)


@settings(max_examples=200, deadline=None)
@given(
    matrix=st.tuples(st.integers(1, 40), st.integers(1, 12)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False))
    )
)
@example(matrix=np.array([[-0.0]]))
@example(matrix=np.array([[5e-324, -5e-324, 2.2250738585072009e-308, -0.0]]))
@example(matrix=np.array([[np.finfo(np.float64).max, -np.finfo(np.float64).max, np.finfo(np.float64).tiny]]))
def test_float_matrix_base64_round_trips_every_finite_matrix(matrix):
    text = trace.float_matrix_base64(matrix)
    assert text == base64.b64encode(matrix.astype("<f8").tobytes()).decode("ascii")
    decoded = trace.decode_float_matrix(text, *matrix.shape)
    assert decoded.dtype == np.float64 and decoded.flags.writeable
    assert decoded.tobytes() == matrix.tobytes()


_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
# what an edit may write: base64 digits, padding, whitespace, other ASCII, non-ASCII
_EDIT_CHARS = _ALPHABET + "= \n\r\t-_*.!\x00\u00e9\uff21"


def _canonical_matrix(text, h, w):
    """The oracle: the matrix of text when b64encode(b64decode(text)) == text,
    text encodes 8·h·w bytes and every value is finite, else None."""
    try:
        raw = base64.b64decode(text)
    except (binascii.Error, ValueError):  # ValueError: a non-ASCII str
        return None
    if base64.b64encode(raw).decode("ascii") != text or len(raw) != 8 * h * w:
        return None
    matrix = np.frombuffer(raw, "<f8").reshape(h, w)
    return matrix if np.isfinite(matrix).all() else None


def _set_unused_bits(text, draw):
    """The last digit before "=" with a drawn non-zero value in its unused low bits."""
    digits = text.rstrip("=")
    pad = len(text) - len(digits)
    if not pad:
        return text
    last = _ALPHABET.index(digits[-1]) | draw(st.integers(1, 2 ** (2 * pad) - 1))
    return digits[:-1] + _ALPHABET[last] + "=" * pad


def _edit_base64(text, draw):
    i = draw(st.integers(0, len(text) - 1))
    c = draw(st.sampled_from(_EDIT_CHARS))
    return draw(st.sampled_from([
        text[:i] + c + text[i + 1:],  # one character replaced
        text[:i] + c + text[i:],  # one inserted
        text[:i] + text[i + 1:],  # one deleted
        text + "=",
        text[:-1] if text.endswith("=") else text,
        _set_unused_bits(text, draw),
        " " + text,
        text + "\n",
    ]))


# h·w ≡ 0, 1 and 2 (mod 3): 8·h·w bytes end in no "=", one "=" and two
@settings(max_examples=400, deadline=None)
@given(
    matrix=st.sampled_from([(1, 3), (3, 2), (1, 1), (2, 2), (1, 2), (5, 1)]).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False))
    ),
    data=st.data(),
)
def test_decode_float_matrix_takes_exactly_the_canonical_base64(matrix, data):
    text = _edit_base64(trace.float_matrix_base64(matrix), data.draw)
    expected = _canonical_matrix(text, *matrix.shape)
    decoded = trace.decode_float_matrix(text, *matrix.shape)
    if expected is None:
        assert decoded is None
    else:
        assert decoded is not None and decoded.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def template_records():
    """The three round records of a small run, whose matrices the property below replaces."""
    (records,) = run_simulation(small_cfg(rounds=3, seeds=(1,)))
    return records


# a config has at least 2 classes, so a trace's matrix is at least 1 × 2
@settings(max_examples=100, deadline=None)
@given(
    matrices=st.tuples(st.integers(1, 40), st.integers(2, 12)).flatmap(
        lambda shape: st.lists(
            arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)),
            min_size=3, max_size=3,
        )
    )
)
@example(matrices=[np.array([[-0.0, 5e-324]]), np.array([[np.finfo(np.float64).max, -np.finfo(np.float64).max]]),
                   np.array([[2.2250738585072009e-308, -5e-324]])])
def test_every_finite_global_pen_reads_back_exactly(tmp_path_factory, template_records, matrices):
    h, w = matrices[0].shape
    cfg = small_cfg(rounds=3, seeds=(1,), hidden_layers=(h,),
                    dataset=DatasetParams(samples=300, features=8, classes=w, spread=0.3))
    header = {"header": {"schema": trace.TRACE_SCHEMA, "config": config_to_dict(cfg)}}
    lines = [_dumps(header)]
    for rec, matrix in zip(template_records, matrices):
        wefs = np.zeros((len(rec.roles), h, w), dtype=rec.wefs.dtype)
        lines.append(trace.encode_record(replace(rec, wefs=wefs, global_pen_before=matrix)))
    path = tmp_path_factory.mktemp("pen") / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    for records in read_both_ways(path):
        assert not isinstance(records, str), records
        for rec, matrix in zip(records, matrices):
            assert rec["global_pen"].dtype == np.float64 and rec["global_pen"].tobytes() == matrix.tobytes()


def _wefs_block(line):
    start = line.index(',"wefs":[[') + len(',"wefs":')
    return start, line.index("]]", start) + 2


def _edit_number(edit):
    def perturb(line, draw):
        start, end = _wefs_block(line)
        spans = [m.span() for m in re.finditer(r"\d+", line[start:end])]
        a, b = (start + i for i in draw(st.sampled_from(spans)))
        return line[:a] + edit(line[a:b]) + line[b:]
    return perturb


def _ragged(line, draw):
    start, end = _wefs_block(line)
    spans = [m.span() for m in re.finditer(r",\d+", line[start:end])]
    a, b = (start + i for i in draw(st.sampled_from(spans)))
    return line[:a] + line[b:]


def _with_key(key, value):
    """Insert key: value at a drawn place; the key may already be there."""
    def perturb(line, draw):
        items = list(json.loads(line).items())
        items.insert(draw(st.integers(0, len(items))), (key, value))
        return "{" + ",".join(f"{_dumps(k)}:{_dumps(v)}" for k, v in items) + "}"
    return perturb


def _with_field(key, edit):
    """key's value replaced by edit(value, draw), in place."""
    def perturb(line, draw):
        rec = json.loads(line)
        rec[key] = edit(rec[key], draw)
        return _dumps(rec)
    return perturb


def _in_tail(key, edit):
    """key's value edited in the head, and the written one again past the
    WEF block: json.loads keeps the second."""
    def perturb(line, draw):
        items = list(json.loads(line).items())
        keys = [k for k, _ in items]
        value = items[keys.index(key)][1]
        items[keys.index(key)] = (key, edit(value))
        items.insert(draw(st.integers(keys.index("wefs") + 1, len(items))), (key, value))
        return "{" + ",".join(f"{_dumps(k)}:{_dumps(v)}" for k, v in items) + "}"
    return perturb


def _swap_keys(line, draw):
    items = list(json.loads(line).items())
    i = draw(st.integers(0, len(items) - 2))
    items[i], items[i + 1] = items[i + 1], items[i]
    return _dumps(dict(items))


PERTURBATIONS = {
    "default-spacing": lambda line, draw: json.dumps(json.loads(line)),
    "leading-zero": _edit_number(lambda n: "0" + n),
    "plus": _edit_number(lambda n: "+" + n),
    "minus": _edit_number(lambda n: "-" + n),
    "fraction": _edit_number(lambda n: n + ".0"),
    "true": _edit_number(lambda n: "true"),
    "false": _edit_number(lambda n: "false"),
    "space": _edit_number(lambda n: " " + n),
    "above-e": _edit_number(lambda n: "99"),
    "ragged": _ragged,
    "swapped-keys": _swap_keys,
    "nested-wefs": _with_key("extra", {"wefs": [[1, 2]]}),
    "duplicate-wefs": _with_key("wefs", [[0, 1], [1, 0]]),
    "duplicate-e": _with_key("e", 99),
    "duplicate-trial": _with_key("trial", 7),
    "seam-in-string": _with_key("note", ',"wefs":[[1]],'),
    "no-head": lambda line, draw: "{" + line[line.index(',"wefs":'):],
    "no-tail": lambda line, draw: line[:_wefs_block(line)[1]] + ",}",
    "nested-line": lambda line, draw: '{"round":' + line + "}",
    "truncated": lambda line, draw: line[:draw(st.integers(0, len(line) - 1))],
    "roles-extra": _with_field("roles", lambda roles, draw: roles + ["benign"]),
    "wef-shape-in-tail": _in_tail("wef_shape", lambda shape: shape[::-1]),
}


def _pen_span(line):
    start = line.index('"global_pen":"') + len('"global_pen":"')
    return start, line.index('"', start)


def _escaped_pen(line, draw):
    """One character of global_pen written as a JSON \\u escape: json.loads reads the same string."""
    start, end = _pen_span(line)
    i = draw(st.integers(start, end - 1))
    return line[:i] + f"\\u{ord(line[i]):04x}" + line[i + 1:]


def _duplicate_pen(line, draw):
    pen = json.loads(line)["global_pen"]
    zeros = trace.float_matrix_base64(np.zeros(len(base64.b64decode(pen)) // 8))
    value = draw(st.sampled_from([pen, zeros, pen[:-4], [0.5, 1.5]]))
    return _with_key("global_pen", value)(line, draw)


def _nested_pen(line, draw):
    """The global_pen seam's text, pen and all, inside a nested object."""
    return _with_key("extra", {"note": 1, "global_pen": json.loads(line)["global_pen"]})(line, draw)


def _pen_trailing_bits(line, draw):
    start, end = _pen_span(line)
    return line[:start] + _set_unused_bits(line[start:end], draw) + line[end:]


def _pen_last(line, draw):
    rec = json.loads(line)
    rec["global_pen"] = rec.pop("global_pen")
    return _dumps(rec)


# edits of a line's base64 global_pen, or of the text around it
PEN_PERTURBATIONS = {
    "pen-seam-in-string": _with_key("note", ',"global_pen":"AAAAAAAAAAA=",'),
    "nested-pen": _nested_pen,
    "duplicate-pen": _duplicate_pen,
    "escaped-pen": _escaped_pen,
    "pen-last": _pen_last,
    "pen-then-comma": lambda line, draw: line[:_pen_span(line)[1] + 1] + ",}",
    "pen-trailing-bits": _pen_trailing_bits,
}
SCHEMA_2_PERTURBATIONS = {**PERTURBATIONS, **PEN_PERTURBATIONS}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(PERTURBATIONS)))
def test_reader_agrees_with_json_loads_on_perturbed_lines(tmp_path_factory, record_lines, data, name):
    """Each edited line reads to json.loads's values or fails with its message."""
    line = data.draw(st.sampled_from(record_lines))
    edited = PERTURBATIONS[name](line, data.draw)
    path = tmp_path_factory.mktemp("perturbed") / "trace.jsonl"
    path.write_text(edited + "\n")
    fast, slow = read_both_ways(path)
    assert_same_reading(fast, slow)


def _rows_span(line):
    """Where a digit-string line's WEF block starts and ends."""
    start = line.index(',"wefs":["') + len(',"wefs":')
    return start, line.index('"]', start) + 2


def _edit_digit(edit):
    """One digit of one row replaced by edit(digit, draw)."""
    def perturb(line, draw):
        start, end = _rows_span(line)
        i = draw(st.sampled_from([start + m.start() for m in re.finditer(r"\d", line[start:end])]))
        return line[:i] + edit(line[i], draw) + line[i + 1:]
    return perturb


# edits of a digit-string line's WEF rows, or of the text around them
ROW_PERTURBATIONS = {
    "digit-escaped": _edit_digit(lambda d, draw: f"\\u{ord(d):04x}"),
    "non-digit": _edit_digit(lambda d, draw: draw(st.sampled_from(["x", " ", "-", "+", ".", "\u0661", "\uff11"]))),
    "row-short": _edit_digit(lambda d, draw: ""),
    "row-long": _edit_digit(lambda d, draw: d + draw(st.sampled_from("0123456789"))),
    "digit-9": _edit_digit(lambda d, draw: "9"),
    "rows-as-ints": lambda line, draw: _with_field("wefs", lambda rows, _: int_rows(rows, json.loads(line)["e"]))(
        line, draw
    ),
    "row-dropped": _with_field("wefs", lambda rows, draw: rows[:-1]),
    "rows-reversed-again": lambda line, draw: _with_key("wefs", json.loads(line)["wefs"][::-1])(line, draw),
    "rows-seam-in-string": _with_key("note", ',"wefs":["0"],'),
    "rows-then-comma": lambda line, draw: line[:_rows_span(line)[1]] + ",}",
    "rows-then-no-comma": lambda line, draw: (
        line[:_rows_span(line)[1]] + draw(st.sampled_from([" ", ":", "}", "x", ""])) + line[_rows_span(line)[1] + 1:]
    ),
    "e-in-tail": _in_tail("e", lambda e: e + 1),
    "wider-e-in-tail": _in_tail("e", lambda e: e * 10),
    "roles-in-tail": _in_tail("roles", lambda roles: roles + ["benign"]),
}
SCHEMA_3_PERTURBATIONS = {
    **{name: PERTURBATIONS[name] for name in (
        "default-spacing", "swapped-keys", "nested-wefs", "duplicate-wefs", "duplicate-e", "duplicate-trial",
        "no-head", "nested-line", "truncated", "roles-extra", "wef-shape-in-tail")},
    **ROW_PERTURBATIONS,
    **PEN_PERTURBATIONS,
}


@pytest.fixture(scope="module")
def trace_texts(reports, tmp_path_factory):
    """The traces of those runs as write_trace writes them, line by line."""
    texts = []
    for cfg, trials in reports:
        path = tmp_path_factory.mktemp("written") / "trace.jsonl"
        write_trace(cfg, trials, path)
        texts.append(path.read_text().splitlines())
    return texts


@pytest.fixture(scope="module")
def schema_2_texts(trace_texts):
    """Those traces in schema-2 form."""
    return [[older_line(line, 2) for line in lines] for lines in trace_texts]


@pytest.fixture(scope="module")
def digit_string_texts(trace_texts):
    """Those traces as written, and in schema-3 form: submission_digests after global_pen."""
    return trace_texts + [[older_line(line, 3) for line in lines] for lines in trace_texts]


def assert_perturbed_trace_reads_alike(tmp_path_factory, texts, perturbations, data, name):
    lines = list(data.draw(st.sampled_from(texts)))
    i = data.draw(st.integers(1, len(lines) - 1))
    lines[i] = perturbations[name](lines[i], data.draw)
    path = tmp_path_factory.mktemp("perturbed") / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    fast, slow = read_both_ways(path)
    assert_same_reading(fast, slow)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SCHEMA_2_PERTURBATIONS)))
def test_reader_agrees_with_json_loads_on_perturbed_schema_2_traces(tmp_path_factory, schema_2_texts, data, name):
    """Each edited round line, written back in place in its trace, with the header
    and the other rounds unchanged, reads to json.loads's values or fails with its message."""
    assert_perturbed_trace_reads_alike(tmp_path_factory, schema_2_texts, SCHEMA_2_PERTURBATIONS, data, name)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SCHEMA_3_PERTURBATIONS)))
def test_reader_agrees_with_json_loads_on_perturbed_schema_3_traces(
    tmp_path_factory, digit_string_texts, data, name
):
    """The same for a trace of schema 3 or 4, whose WEF block and global_pen
    the reader cuts out at their seams: each edit reads to json.loads's
    values or fails with its message."""
    assert_perturbed_trace_reads_alike(tmp_path_factory, digit_string_texts, SCHEMA_3_PERTURBATIONS, data, name)
