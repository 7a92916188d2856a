import base64
import json
import os
import string
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from s2wef import fedsim
from s2wef.attacks import AttackParams
from s2wef.cli import config_from_dict, config_to_dict, load_config, main
from s2wef.detect import DETECTORS
from s2wef.errors import ConfigurationError, NumericError
from s2wef.fedsim import DatasetParams, SimConfig, build_schedule, run_simulation
from s2wef.nn import TrainConfig
from s2wef.trace import RoundRow, mean_over_trials

SRC = str(Path(__file__).resolve().parents[1] / "src")


def tiny_config(**overrides):
    cfg = {
        "version": 1,
        "clients": 5,
        "free_rider_ratio": 0.2,
        "scenario": "S1",
        "attack": {"kind": "DWA"},
        "rounds": 4,
        "train": {"learning_rate": 0.1, "batch_size": 8, "local_iterations": 3},
        "seeds": [1],
        "dataset": {"samples": 300, "features": 8, "classes": 4, "spread": 0.3},
        "hidden_layers": [32],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config(**overrides)))
    return path


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path)
    emitted = config_to_dict(cfg)
    assert config_from_dict(emitted) == cfg
    assert set(emitted) == {f.name for f in fields(SimConfig)} | {"version"}
    for key, cls in (("train", TrainConfig), ("dataset", DatasetParams), ("attack", AttackParams)):
        assert set(emitted[key]) == {f.name for f in fields(cls)}


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, typo_key=1)
    with pytest.raises(ConfigurationError, match="typo_key"):
        load_config(path)


def test_config_rejects_nested_unknown_keys(tmp_path):
    cfg = tiny_config()
    cfg["train"]["warmup"] = 3
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigurationError, match="warmup"):
        load_config(path)


def test_config_requires_version(tmp_path):
    path = write_config(tmp_path, version=99)
    with pytest.raises(ConfigurationError, match="version"):
        load_config(path)


def test_config_json_error_has_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,\n  "clients": }\n')
    with pytest.raises(ConfigurationError, match=r":2:"):
        load_config(path)


def test_missing_config_exits_2(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_config_not_utf8_exits_2_and_writes_nothing(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_bytes(path.read_bytes().replace(b'"S1"', '"S\xe9"'.encode("latin-1")))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert f"config error: {path}: not UTF-8" in capsys.readouterr().err


# each command's argv when its input path is the directory d, and its error prefix
DIRECTORY_INPUTS = {
    "run-config": (lambda d: ["run", "--config", str(d), "--out", str(d.parent / "out"), "--quiet"],
                   "config error"),
    "detect-trace": (lambda d: ["detect-trace", "--trace", str(d), "--quiet"], "trace error"),
}


@pytest.mark.parametrize("argv, prefix", DIRECTORY_INPUTS.values(), ids=DIRECTORY_INPUTS.keys())
def test_input_path_naming_a_directory_exits_2(tmp_path, capsys, argv, prefix):
    directory = tmp_path / "input"
    directory.mkdir()
    assert main(argv(directory)) == 2
    assert f"{prefix}: {directory}: Is a directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_config_writes_nothing(tmp_path):
    path = write_config(tmp_path, free_rider_ratio=0.9)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"clients": "10"},
        {"rounds": 3.5},
        {"hidden_layers": [2.5]},
        {"seeds": 5},
        {"dataset": {"samples": 1e3}},
        {"dataset": {"spread": "x"}},
        {"train": {"local_iterations": 1.5}},
        {"seeds": [-1]},
        {"rounds": True},
        {"seeds": [1, 1]},
        {"train": {"learning_rate": 0}},
        # json.loads reads NaN and Infinity, which no float field may hold
        {"attack": {"kind": "RWA", "rwa_range": float("nan")}},
        {"attack": {"kind": "RWA", "rwa_range": float("inf")}},
        {"attack": {"kind": "SPA", "spa_sigma": float("nan")}},
        {"dataset": {"spread": float("nan")}},
        {"train": {"learning_rate": float("inf")}},
        {"attack": {"kind": "RWA", "rwa_range": 10**400}},
        # finite, but numpy draws from no range 2e308 wide
        {"attack": {"kind": "RWA", "rwa_range": 1e308}},
        # drawable, but the counterfeit's mean of 32 x 4 changes that wide overflows
        {"attack": {"kind": "RWA", "rwa_range": 8.98e307}},
    ],
)
def test_mistyped_config_exits_2_and_writes_nothing(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def with_retired_keys(config: dict) -> dict:
    """A config dict as config.json and trace headers held it while
    accumulate_wef and counterfeit_abs were options: each key at the one
    value ever written, in its place."""
    old = {}
    for key, value in config.items():
        old[key] = {**value, "counterfeit_abs": True} if key == "attack" and value else value
        if key == "detector":
            old["accumulate_wef"] = False
    return old


def test_config_with_the_retired_keys_at_their_old_values_runs_alike(tmp_path):
    new, old = tmp_path / "new", tmp_path / "old"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(new), "--quiet"]) == 0
    written = json.loads((new / "config.json").read_text())
    assert {"accumulate_wef", "counterfeit_abs"}.isdisjoint({*written, *written["attack"]})
    path = tmp_path / "old.json"
    path.write_text(json.dumps(with_retired_keys(written), indent=2))
    assert main(["run", "--config", str(path), "--out", str(old), "--quiet"]) == 0
    for name in ("trace.jsonl", "metrics.csv", "summary.txt", "config.json"):
        assert (old / name).read_bytes() == (new / name).read_bytes()


def test_trace_with_the_retired_keys_at_their_old_values_replays(tmp_path, capsys, dwa_s1_lines):
    lines = json.loads(json.dumps(dwa_s1_lines))
    lines[0]["header"]["config"] = with_retired_keys(lines[0]["header"]["config"])
    trace = write_lines(tmp_path, lines)
    assert main(["detect-trace", "--trace", trace, "--quiet"]) == 0
    assert capsys.readouterr().out == "replay consistent over 20 rounds\n"


# a retired key at any value but the one ever written
RETIRED_EDITS = {
    "accumulate_wef-true": (lambda cfg: cfg.update(accumulate_wef=True), "config.accumulate_wef"),
    "accumulate_wef-0": (lambda cfg: cfg.update(accumulate_wef=0), "config.accumulate_wef"),
    "counterfeit_abs-false": (lambda cfg: cfg["attack"].update(counterfeit_abs=False),
                              "config.attack.counterfeit_abs"),
}


@pytest.mark.parametrize("edit, key", RETIRED_EDITS.values(), ids=RETIRED_EDITS.keys())
def test_config_with_a_retired_key_at_another_value_exits_2_and_writes_nothing(tmp_path, capsys, edit, key):
    config = tiny_config()
    edit(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert f"config error: {key} was removed; it is read only as " in capsys.readouterr().err


@pytest.mark.parametrize("edit, key", RETIRED_EDITS.values(), ids=RETIRED_EDITS.keys())
def test_trace_header_with_a_retired_key_at_another_value_exits_2(tmp_path, capsys, trace_lines, edit, key):
    lines = json.loads(json.dumps(trace_lines))
    lines[0]["header"]["config"] = with_retired_keys(lines[0]["header"]["config"])
    edit(lines[0]["header"]["config"])
    trace = write_lines(tmp_path, lines)
    assert main(["detect-trace", "--trace", trace]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert f"trace error: {trace}:1: header {key} was removed; it is read only as " in printed.err
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


# a key given twice in one object, at the root and in each nested config object
REPEATED = {
    "root": ('"clients": 5', "clients"),
    "attack": ('"kind": "DWA"', "kind"),
    "train": ('"local_iterations": 3', "local_iterations"),
    "dataset": ('"samples": 300', "samples"),
}


@pytest.mark.parametrize("pair, key", REPEATED.values(), ids=REPEATED.keys())
def test_repeated_config_key_exits_2_and_writes_nothing(tmp_path, capsys, pair, key):
    path = write_config(tmp_path)
    text = path.read_text()
    assert text.count(pair) == 1
    path.write_text(text.replace(pair, f"{pair}, {pair}"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert f"config error: {path}: repeated key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("partition", ["IID", "DIRICHLET"])
def test_dataset_smaller_than_its_clients_exits_2_and_writes_nothing(tmp_path, capsys, partition):
    dataset = {"samples": 10, "features": 8, "classes": 4, "spread": 0.3}
    path = write_config(tmp_path, clients=20, partition=partition, dataset=dataset)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "config error: dataset.samples must be >= clients, got 10 for 20" in capsys.readouterr().err
    # one sample per client is enough
    assert load_config(write_config(tmp_path, clients=10, dataset={**dataset, "samples": 10})).clients == 10


@pytest.mark.parametrize("iterations", [2**63, 2**64], ids=["2**63", "2**64"])
def test_local_iterations_past_int64_exit_2_and_write_nothing(tmp_path, capsys, iterations):
    """local_iterations is the WEF budget e, which int64 grids and replay hold
    up to 2**63 - 1; past it a run would not end, so the config is refused."""
    train = {"learning_rate": 0.1, "batch_size": 8, "local_iterations": iterations}
    message = "local_iterations must be in [1, 9223372036854775807]"
    with pytest.raises(ConfigurationError) as refused:
        config_from_dict(tiny_config(train=train))
    assert message in str(refused.value)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, train=train)), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert f"config error: {message}" in capsys.readouterr().err


def test_local_iterations_at_int64_max_are_accepted():
    train = {"learning_rate": 0.1, "batch_size": 8, "local_iterations": 2**63 - 1}
    assert config_from_dict(tiny_config(train=train)).train.local_iterations == 2**63 - 1


def test_run_writes_outputs(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 0
    for name in ("trace.jsonl", "metrics.csv", "summary.txt", "config.json"):
        assert (out / name).exists()
    emitted = json.loads((out / "config.json").read_text())
    assert config_from_dict(emitted) == load_config(path)


def test_run_clean_summary_has_fpr(tmp_path):
    path = write_config(tmp_path, scenario="CLEAN", free_rider_ratio=0.0, attack=None)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 0
    assert "fpr" in (out / "summary.txt").read_text()


def test_run_deterministic_traces(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()


def test_a_rerun_of_the_header_config_checks_every_byte_of_a_trace(tmp_path, capsys):
    """The header config, --seed and --detector applied, reruns to the same
    files, so cmp against the rerun checks what replay cannot, such as a
    round's accuracy."""
    out, rerun = tmp_path / "out", tmp_path / "rerun"
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--seed", "2", "--detector", "CLUSTER_ONLY", "--quiet"]) == 0
    trace = out / "trace.jsonl"
    lines = trace.read_text().splitlines()
    header = tmp_path / "header_config.json"
    header.write_text(json.dumps(json.loads(lines[0])["header"]["config"]))
    assert main(["run", "--config", str(header), "--out", str(rerun), "--quiet"]) == 0
    for name in ("trace.jsonl", "metrics.csv", "summary.txt"):
        assert (rerun / name).read_bytes() == (out / name).read_bytes(), name
    record = json.loads(lines[2])
    assert record["accuracy"] != 0.5
    record["accuracy"] = 0.5
    lines[2] = json.dumps(record, separators=(",", ":"))
    trace.write_text("".join(line + "\n" for line in lines))
    assert main(["detect-trace", "--trace", str(trace), "--quiet"]) == 0
    assert capsys.readouterr().out == "replay consistent over 4 rounds\n"
    assert trace.read_bytes() != (rerun / "trace.jsonl").read_bytes()


def _no_simulation(*args, **kwargs):
    raise AssertionError("the simulation ran before the invocation was checked")


@pytest.mark.parametrize("command", ["run"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_out_naming_a_file_exits_2_before_running(tmp_path, capsys, monkeypatch, command, below):
    monkeypatch.setattr("s2wef.cli.run_simulation", _no_simulation)
    path = write_config(tmp_path)
    existing = tmp_path / "taken"
    existing.write_text("keep me\n")
    rc = main([command, "--config", str(path), "--out", str(existing / below), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--out" in err and "Traceback" not in err
    assert existing.read_text() == "keep me\n"


def test_out_with_a_name_too_long_exits_2_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("s2wef.cli.run_simulation", _no_simulation)
    out = tmp_path / ("x" * 300)  # past the 255 bytes a name may have
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"config error: --out {out}: ")


def test_out_with_a_name_too_long_under_missing_directories_makes_none_of_them(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("s2wef.cli.run_simulation", _no_simulation)
    config = write_config(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "a" / "b" / ("x" * 300)
    assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: --out {out}: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_a_run_whose_last_trial_fails_exits_1_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    run_trial = fedsim.run_trial

    def fails_last(cfg, seed):
        if seed == cfg.seeds[-1]:
            raise NumericError("diverged")
        return run_trial(cfg, seed)

    monkeypatch.setattr(fedsim, "run_trial", fails_last)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, seeds=[1, 2, 3])), "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err == "run failed: trial seed 3: diverged\n"
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("detector", list(DETECTORS))
def test_detect_trace_idempotent(tmp_path, detector):
    # replay takes the detector from the trace header
    path = write_config(tmp_path, rounds=6)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--detector", detector, "--quiet"]) == 0
    assert main(["detect-trace", "--trace", str(out / "trace.jsonl"), "--quiet"]) == 0


def test_detect_trace_divergent_detector(tmp_path, capsys):
    path = write_config(tmp_path, rounds=6)
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    rc = main(["detect-trace", "--trace", str(out / "trace.jsonl"),
               "--detector", "WEF_NA_BASELINE", "--quiet"])
    # the baseline flags someone every round, so replaying it over an
    # S2WEF trace must diverge somewhere
    assert rc == 1
    assert "diverging rounds" in capsys.readouterr().err


def test_detect_trace_truncated_exits_2(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    trace = out / "trace.jsonl"
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join(lines[:2]) + '\n{"round": 2, "truncat\n')
    rc = main(["detect-trace", "--trace", str(trace), "--quiet"])
    assert rc == 2


@pytest.fixture(scope="module")
def trace_bytes(tmp_path_factory):
    """A trace as `run` writes it: a header, then 4 rounds."""
    tmp = tmp_path_factory.mktemp("trace")
    out = tmp / "out"
    assert main(["run", "--config", str(write_config(tmp)), "--out", str(out), "--quiet"]) == 0
    return (out / "trace.jsonl").read_bytes()


@pytest.fixture(scope="module")
def trace_lines(trace_bytes):
    """The parsed lines of that trace."""
    return [json.loads(line) for line in trace_bytes.splitlines()]


def decimal_pen(text: str) -> list[float]:
    """A base64 global_pen as schema 1 writes it: a list of decimal numbers."""
    return np.frombuffer(base64.b64decode(text), "<f8").tolist()


def int_rows(rows: list[str], e: int) -> list[list[int]]:
    """Digit-string WEF rows as schemas 1 and 2 write them: int lists."""
    width = len(str(e))
    return [[int(row[i:i + width]) for i in range(0, len(row), width)] for row in rows]


@pytest.fixture(scope="module")
def schema_2_lines(trace_lines):
    """That trace in schema-2 form: every WEF row a list of ints."""
    lines = json.loads(json.dumps(trace_lines))
    lines[0]["header"]["schema"] = 2
    for line in lines[1:]:
        line["wefs"] = int_rows(line["wefs"], line["e"])
    return lines


@pytest.fixture(scope="module")
def schema_1_lines(schema_2_lines):
    """That trace in schema-1 form: also every global_pen a list of decimal numbers."""
    lines = json.loads(json.dumps(schema_2_lines))
    lines[0]["header"]["schema"] = 1
    for line in lines[1:]:
        line["global_pen"] = decimal_pen(line["global_pen"])
    return lines


@pytest.fixture(scope="module")
def schema_1_bytes(schema_1_lines):
    """Those lines as the schema-1 writer wrote them."""
    return "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in schema_1_lines).encode()


def write_lines(tmp_path, lines) -> str:
    """The lines written compactly, as run writes them."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines))
    return str(trace)


# the message for round 1's WEF rows in the schema-4 trace (5 clients, e = 3, 32 × 4 grids)
_ROWS = "trace.jsonl:3: wefs must be a list of 5 strings, each 128 counts in [0, 3] as 1-digit decimals, got"

# (form of the trace, line index, path to the edited value, new value or a function
# of the old one, expected message); line 0 is the header and an empty path
# replaces the whole line.  Schema 2 holds WEF rows as int lists, whose entries
# the int-list cases edit, and reads roles against the rows; schema 4 counts
# the rows by roles.  Only schema 1 has global_pen elements to edit.
MALFORMED = {
    "e-str": ("schema-4", 2, ("e",), "5", "e must be an integer"),
    "trial-str": ("schema-4", 2, ("trial",), "1", "trial must be an integer"),
    "round-float": ("schema-4", 2, ("round",), 2.0, "round must be an integer"),
    "wefs-int": ("schema-2", 2, ("wefs",), 5, "wefs must be"),
    "wefs-ragged": ("schema-2", 2, ("wefs", 0), [0], "wefs must be"),
    "wefs-float": ("schema-2", 2, ("wefs", 1, 0), 0.5, "wefs must be"),
    "wefs-bool": ("schema-2", 2, ("wefs", 1, 0), True, "wefs must be"),
    "wefs-above-e": ("schema-2", 2, ("wefs", 0, 0), 99, "trace.jsonl:3: WEF entries must lie in [0, 3], got [0, 99]"),
    "wefs-negative": ("schema-2", 2, ("wefs", 0, 0), -1,
                      "trace.jsonl:3: WEF entries must lie in [0, 3], got [-1, "),
    "wefs-digit-strings-in-schema-2": ("schema-2", 2, ("wefs",), lambda rows: ["".join(map(str, r)) for r in rows],
                                       "trace.jsonl:3: wefs must be a list of integer lists of length 128"),
    "wefs-digit-strings-in-schema-1": ("schema-1", 2, ("wefs",), lambda rows: ["".join(map(str, r)) for r in rows],
                                       "trace.jsonl:3: wefs must be a list of integer lists of length 128"),
    "rows-non-digit": ("schema-4", 2, ("wefs", 1), lambda row: row[:7] + "x" + row[8:], _ROWS),
    "rows-one-digit-short": ("schema-4", 2, ("wefs", 1), lambda row: row[:-1], _ROWS),
    "rows-one-digit-long": ("schema-4", 2, ("wefs", 1), lambda row: row + "0", _ROWS),
    "rows-one-fewer-than-roles": ("schema-4", 2, ("wefs",), lambda rows: rows[:-1], _ROWS),
    "rows-above-e": ("schema-4", 2, ("wefs", 0), lambda row: "4" + row[1:], _ROWS),
    "rows-as-int-lists": ("schema-4", 2, ("wefs",), lambda rows: int_rows(rows, 3), _ROWS),
    "wef-shape-short": ("schema-4", 2, ("wef_shape",), [2], "wef_shape must be"),
    "global-pen-str": ("schema-1", 2, ("global_pen", 0), "x", "global_pen must be"),
    "global-pen-bool": ("schema-1", 2, ("global_pen", 0), False, "global_pen must be"),
    "free-riders-null": ("schema-4", 2, ("free_rider_list",), None, "free_rider_list must be"),
    "free-riders-str": ("schema-4", 2, ("free_rider_list",), ["1"], "free_rider_list must be"),
    "roles-null": ("schema-4", 2, ("roles",), None, 'roles must be a list of 5 strings "benign" or "free_rider"'),
    "roles-short": ("schema-2", 2, ("roles",), ["benign"] * 4, "roles must be a list of 5"),
    "roles-unknown": ("schema-4", 2, ("roles", 1), "attacker", "roles must be a list of 5"),
    "roles-bool": ("schema-4", 2, ("roles", 0), False, "roles must be a list of 5"),
    "accuracy-str": ("schema-4", 2, ("accuracy",), "0.5", "accuracy must be a finite number"),
    "accuracy-bool": ("schema-4", 2, ("accuracy",), True, "accuracy must be a finite number"),
    "accuracy-long-int": ("schema-4", 2, ("accuracy",), 10**400, "accuracy must be a finite number"),
    "not-an-object": ("schema-4", 2, (), [1, 2, 3], "expected a JSON object"),
    "header-schema": ("schema-4", 0, ("header", "schema"), 5, "unknown trace schema 5"),
    "header-config": ("schema-4", 0, ("header", "config", "clients"), "10", "header config.clients"),
    "header-extra-key": ("schema-4", 0, ("header", "version"), "0.1.0", "a header line is"),
    "header-samples-below-clients": ("schema-4", 0, ("header", "config", "dataset", "samples"), 4,
                                     "header dataset.samples must be >= clients, got 4 for 5"),
}


@pytest.mark.parametrize("form, line, keys, value, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_detect_trace_malformed_exits_2(
    tmp_path, capsys, trace_lines, schema_2_lines, schema_1_lines, form, line, keys, value, message
):
    forms = {"schema-4": trace_lines, "schema-2": schema_2_lines, "schema-1": schema_1_lines}
    lines = json.loads(json.dumps(forms[form]))
    if keys:
        target = lines[line]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value(target[keys[-1]]) if callable(value) else value
    else:
        lines[line] = value
    assert main(["detect-trace", "--trace", write_lines(tmp_path, lines), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "trace error" in err and message in err


@pytest.mark.parametrize("accuracy", [10**400, 2**1024], ids=["10**400", "2**1024"])
def test_detect_trace_accuracy_beyond_float_exits_2_when_printing(tmp_path, capsys, trace_lines, accuracy):
    """An int that float() cannot hold exits 2 before any round is printed."""
    lines = json.loads(json.dumps(trace_lines))
    lines[2]["accuracy"] = accuracy
    assert main(["detect-trace", "--trace", write_lines(tmp_path, lines)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "accuracy must be a finite number" in err


@pytest.mark.parametrize(
    "keep",
    [
        lambda lines: lines[:-1],  # the last round is missing
        lambda lines: lines[:2] + lines[3:],  # a round in the middle is missing
        lambda lines: lines + lines[-1:],  # the last round appears twice
        lambda lines: lines[:1],  # the header alone
    ],
    ids=["drop-last", "drop-middle", "duplicate-last", "header-only"],
)
def test_detect_trace_incomplete_exits_2(tmp_path, capsys, trace_lines, keep):
    assert main(["detect-trace", "--trace", write_lines(tmp_path, keep(trace_lines)), "--quiet"]) == 2
    assert "trace error" in capsys.readouterr().err


# header config edits that leave the config valid but unlike the round records
# (5 clients, e = 3, 32 × 4 grids), and the message that follows
# "trace error: <path>:2: " for the first round
HEADER_UNLIKE_ROUNDS = {
    "clients": ({"clients": 20}, "the client count is 5, the header's clients is 20"),
    "local-iterations": ({"train": {"local_iterations": 7}},
                         "e is 3, the header's train.local_iterations is 7"),
    "hidden-layers": ({"hidden_layers": [128]},
                      "wef_shape is [32, 4], the header's [hidden_layers[-1], dataset.classes] is [128, 4]"),
    "deeper": ({"hidden_layers": [32, 16]},
               "wef_shape is [32, 4], the header's [hidden_layers[-1], dataset.classes] is [16, 4]"),
    "classes": ({"dataset": {"classes": 5}},
                "wef_shape is [32, 4], the header's [hidden_layers[-1], dataset.classes] is [32, 5]"),
}


@pytest.mark.parametrize("edit, message", HEADER_UNLIKE_ROUNDS.values(), ids=HEADER_UNLIKE_ROUNDS.keys())
def test_detect_trace_header_unlike_its_rounds_exits_2(tmp_path, capsys, trace_lines, edit, message):
    lines = json.loads(json.dumps(trace_lines))
    config = lines[0]["header"]["config"]
    for key, value in edit.items():
        if isinstance(value, dict):
            config[key].update(value)
        else:
            config[key] = value
    trace = write_lines(tmp_path, lines)
    assert main(["detect-trace", "--trace", trace, "--quiet"]) == 2
    assert f"trace error: {trace}:2: {message}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def dwa_s1_lines(tmp_path_factory):
    """The parsed lines of configs/dwa_s1.json's trace for trial seed 1."""
    out = tmp_path_factory.mktemp("dwa_s1") / "out"
    cfg = Path(__file__).resolve().parents[1] / "configs" / "dwa_s1.json"
    assert main(["run", "--config", str(cfg), "--seed", "1", "--out", str(out), "--quiet"]) == 0
    return [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]


# header edits that keep the config valid and its clients, e and grid shape,
# but schedule other free riders than the rounds hold (3 of 10, S1)
SCHEDULE_UNLIKE_ROLES = {"ratio": {"free_rider_ratio": 0.2}, "scenario": {"scenario": "S2"}}


@pytest.mark.parametrize("edit", SCHEDULE_UNLIKE_ROLES.values(), ids=SCHEDULE_UNLIKE_ROLES.keys())
def test_detect_trace_roles_unlike_the_headers_schedule_exits_2(tmp_path, capsys, dwa_s1_lines, edit):
    lines = json.loads(json.dumps(dwa_s1_lines))
    lines[0]["header"]["config"].update(edit)
    schedule = build_schedule(config_from_dict(lines[0]["header"]["config"]), 1)
    # the first round whose recorded free riders differ from the edited schedule
    t, found, expected = next(
        (t, found, np.flatnonzero(schedule[t]).tolist())
        for t, found in enumerate([i for i, role in enumerate(line["roles"]) if role == "free_rider"]
                                  for line in lines[1:])
        if found != np.flatnonzero(schedule[t]).tolist()
    )
    trace = write_lines(tmp_path, lines)
    assert main(["detect-trace", "--trace", trace, "--quiet"]) == 2
    message = (f"trace error: {trace}:{t + 2}: trial 1 round {t}: free riders {found}, "
               f"the header config's schedule has {expected}")
    assert message in capsys.readouterr().err


def _drop_a_client(lines):
    lines[3]["wefs"].pop()
    lines[3]["roles"].pop()


# edits of round 2 (line 4) that keep each field consistent with the others
# but change the trial's WEF stack, (5 clients, 32, 4) in its first round
RESHAPED = {
    "transposed": (lambda lines: lines[3].update(wef_shape=[4, 32]), "(5, 4, 32)"),
    "client-dropped": (_drop_a_client, "(4, 32, 4)"),
}


@pytest.mark.parametrize("edit, stack", RESHAPED.values(), ids=RESHAPED.keys())
def test_detect_trace_stack_unlike_the_trials_first_exits_2(tmp_path, capsys, trace_lines, edit, stack):
    lines = json.loads(json.dumps(trace_lines))
    edit(lines)
    trace = write_lines(tmp_path, lines)
    assert main(["detect-trace", "--trace", trace, "--quiet"]) == 2
    message = f"trace error: {trace}:4: WEF stack {stack} is not (5, 32, 4), the stack of trial 1's first round"
    assert message in capsys.readouterr().err


GOLDEN = Path(__file__).resolve().parent / "data" / "golden_trace.jsonl"

# edits of the header-less golden trace (trial 1, rounds 0-6 on lines 1-7) after
# which a trial's rounds no longer run 0, 1, 2, ...: the edited lines, and the
# offending line, the round it holds and the round due there
OUT_OF_ORDER = {
    "line-4-repeated": (lambda lines: lines[:4] + lines[3:], 5, 3, 4),
    "line-4-removed": (lambda lines: lines[:3] + lines[4:], 4, 4, 3),
    "lines-4-and-5-swapped": (lambda lines: lines[:3] + [lines[4], lines[3]] + lines[5:], 4, 4, 3),
}


@pytest.mark.parametrize("edit, lineno, found, due", OUT_OF_ORDER.values(), ids=OUT_OF_ORDER.keys())
def test_detect_trace_rounds_out_of_order_exit_2(tmp_path, capsys, edit, lineno, found, due):
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(b"".join(edit(GOLDEN.read_bytes().splitlines(keepends=True))))
    assert main(["detect-trace", "--trace", str(trace), "--quiet"]) == 2
    message = f"trace error: {trace}:{lineno}: trial 1 round {found} is out of order, round {due} is due"
    assert message in capsys.readouterr().err


def test_detect_trace_detector_error_names_its_round(tmp_path, capsys):
    """A round whose inputs the detector refuses exits 2 and names its line,
    trial and round, also when replay takes it in a chunk of rounds."""
    lines = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    for line in lines:
        line["e"] = 10**8
    lines[3]["wefs"][0][0] = 10**8
    trace = write_lines(tmp_path, lines)
    assert main(["detect-trace", "--trace", trace, "--quiet"]) == 2
    message = (f"trace error: {trace}:4: trial 1 round 3: "
               "WEF counts up to 100000000 are too large for exact distances")
    assert message in capsys.readouterr().err


E_RANGE = "e must be an integer in [1, 9223372036854775807]"


@pytest.mark.parametrize("e", [0, 2**63, 2**64], ids=["0", "2**63", "2**64"])
def test_detect_trace_e_beyond_int64_exits_2(tmp_path, capsys, e):
    """The header-less golden trace with every e edited: wef_dtype holds a
    budget above 255 in int64, so one past its range is a malformed trace,
    not a crash (2**64) or a divergence (2**63)."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text(GOLDEN.read_text().replace('"e":5,', f'"e":{e},'))
    assert main(["detect-trace", "--trace", str(trace), "--quiet"]) == 2
    assert f"trace error: {trace}:1: {E_RANGE}, got {e}" in capsys.readouterr().err


def test_detect_trace_header_budget_beyond_int64_exits_2(tmp_path, capsys, trace_lines):
    """A header whose local_iterations no config may have is an invalid config."""
    lines = json.loads(json.dumps(trace_lines))
    lines[0]["header"]["config"]["train"]["local_iterations"] = 2**64
    for line in lines[1:]:
        line["e"] = 2**64
    trace = write_lines(tmp_path, lines)
    assert main(["detect-trace", "--trace", trace, "--quiet"]) == 2
    message = f"trace error: {trace}:1: header local_iterations must be in [1, {2**63 - 1}]"
    assert message in capsys.readouterr().err


def test_detect_trace_header_with_a_nan_float_exits_2(tmp_path, capsys, trace_lines):
    """A header is read as a config, so a float field may not hold NaN there either."""
    lines = json.loads(json.dumps(trace_lines))
    lines[0]["header"]["config"]["dataset"]["spread"] = float("nan")
    trace = write_lines(tmp_path, lines)
    assert main(["detect-trace", "--trace", trace, "--quiet"]) == 2
    message = f"trace error: {trace}:1: header config.dataset.spread: expected a finite float, got nan"
    assert message in capsys.readouterr().err


# edits of the bytes of line 3 (round 1) that no JSON reader of UTF-8 text takes,
# and the message that follows "trace error: <path>:3: "
UNREADABLE = {
    "latin-1-byte": (
        lambda line: line.replace(b'"benign"', '"bénign"'.encode("latin-1"), 1),
        "not UTF-8 ('utf-8' codec can't decode byte 0xe9",
    ),
    # Python's int() refuses more than 4300 digits; the key lands in the line's tail
    "5000-digit-int": (
        lambda line: line[:-1] + b',"extra":' + b"1" * 5000 + b"}",
        "invalid JSON (Exceeds the limit (4300 digits)",
    ),
}


@pytest.mark.parametrize("edit, message", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_detect_trace_unreadable_line_exits_2(tmp_path, capsys, trace_bytes, edit, message):
    lines = trace_bytes.splitlines()
    lines[2] = edit(lines[2])
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(b"".join(line + b"\n" for line in lines))
    assert main(["detect-trace", "--trace", str(trace), "--quiet"]) == 2
    assert f"trace error: {trace}:3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_detect_trace_non_finite_global_pen_exits_2(tmp_path, capsys, schema_1_bytes, value):
    """json.loads reads these as nan or ±inf; the schema-1 writer never wrote them."""
    lines = schema_1_bytes.splitlines()
    head, pen = lines[2].split(b'"global_pen":[')
    lines[2] = head + b'"global_pen":[' + value.encode() + pen[pen.index(b","):]
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(b"".join(line + b"\n" for line in lines))
    assert main(["detect-trace", "--trace", str(trace), "--quiet"]) == 2
    message = f"trace error: {trace}:3: global_pen must be a list of 128 finite numbers"
    assert message in capsys.readouterr().err


def _base64_edit(edit):
    """An edit of the bytes a schema-2 global_pen encodes, encoded again."""
    return lambda pen: base64.b64encode(edit(base64.b64decode(pen))).decode("ascii")


def _first_value(value):
    """The first value's 8 bytes set to value's float64 bit pattern."""
    return _base64_edit(lambda raw: struct.pack("<d", value) + raw[8:])


def _trailing_bits(pen):
    """An unused low bit of the last digit set: b64decode ignores it."""
    alphabet = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
    assert pen.endswith("==")  # 128 values: 1,024 bytes, the last group holds one byte
    return pen[:-3] + alphabet[alphabet.index(pen[-3]) | 1] + "=="


_BASE64 = "global_pen must be the canonical base64 of 128 finite little-endian float64"
_DECIMAL = "global_pen must be a list of 128 finite numbers"

# the form of the trace, an edit of round 1's schema-2 global_pen text, and the message
PEN_MALFORMED = {
    "short": ("schema-2", _base64_edit(lambda raw: raw[:-8]), _BASE64),
    "long": ("schema-2", _base64_edit(lambda raw: raw + raw[:8]), _BASE64),
    "odd-length": ("schema-2", _base64_edit(lambda raw: raw[:-1]), _BASE64),
    "url-safe-digit": ("schema-2", lambda pen: "-" + pen[1:], _BASE64),
    "outside-alphabet": ("schema-2", lambda pen: pen[:5] + "*" + pen[6:], _BASE64),
    "newline": ("schema-2", lambda pen: pen[:76] + "\n" + pen[76:], _BASE64),
    "space": ("schema-2", lambda pen: pen[:8] + " " + pen[8:], _BASE64),
    "unpadded": ("schema-2", lambda pen: pen.rstrip("="), _BASE64),
    "extra-padding": ("schema-2", lambda pen: pen + "=", _BASE64),
    "trailing-bits": ("schema-2", _trailing_bits, _BASE64),
    "non-ascii": ("schema-2", lambda pen: "\uff21" + pen[1:], _BASE64),
    "nan": ("schema-2", _first_value(float("nan")), _BASE64),
    "inf": ("schema-2", _first_value(float("inf")), _BASE64),
    "-inf": ("schema-2", _first_value(float("-inf")), _BASE64),
    "empty": ("schema-2", lambda pen: "", _BASE64),
    "list-in-schema-2": ("schema-2", decimal_pen, _BASE64),
    "string-in-schema-1": ("schema-1", lambda pen: pen, _DECIMAL),
    "string-header-less": ("header-less", lambda pen: pen, _DECIMAL),
}


@pytest.mark.parametrize("form, edit, message", PEN_MALFORMED.values(), ids=PEN_MALFORMED.keys())
def test_detect_trace_global_pen_unlike_its_schema_exits_2(
    tmp_path, capsys, trace_lines, schema_1_lines, form, edit, message
):
    lines = json.loads(json.dumps(trace_lines if form == "schema-2" else schema_1_lines))
    lines[2]["global_pen"] = edit(trace_lines[2]["global_pen"])
    if form == "header-less":
        lines = lines[1:]
    trace = write_lines(tmp_path, lines)
    assert main(["detect-trace", "--trace", trace, "--quiet"]) == 2
    lineno = 2 if form == "header-less" else 3
    assert f"trace error: {trace}:{lineno}: {message}, got" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["schema-1", "header-less"])
def test_detect_trace_reads_the_decimal_form(tmp_path, capsys, schema_1_lines, form):
    """Schema 1 and header-less traces, as written before schema 2, still replay."""
    lines = schema_1_lines if form == "schema-1" else schema_1_lines[1:]
    assert main(["detect-trace", "--trace", write_lines(tmp_path, lines), "--quiet"]) == 0
    assert capsys.readouterr().out == "replay consistent over 4 rounds\n"


def test_detect_trace_reads_the_int_list_form(tmp_path, capsys, trace_bytes, schema_2_lines):
    """A schema-2 trace, as written before schema 3, replays to the same output."""
    trace = tmp_path / "schema_4.jsonl"
    trace.write_bytes(trace_bytes)
    assert main(["detect-trace", "--trace", str(trace)]) == 0
    expected = capsys.readouterr().out
    assert main(["detect-trace", "--trace", write_lines(tmp_path, schema_2_lines)]) == 0
    assert capsys.readouterr().out == expected


def test_detect_trace_count_above_e_at_width_2_exits_2(tmp_path, capsys):
    """At e = 12 a row holds 2 digits a count; "13" is two digits and above e."""
    config = write_config(tmp_path, train={"learning_rate": 0.1, "batch_size": 8, "local_iterations": 12})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    lines = (out / "trace.jsonl").read_text().splitlines()
    row = json.loads(lines[2])["wefs"][0]
    assert len(row) == 2 * 128
    lines[2] = lines[2].replace(row, "13" + row[2:], 1)
    trace = out / "trace.jsonl"
    trace.write_text("".join(line + "\n" for line in lines))
    assert main(["detect-trace", "--trace", str(trace), "--quiet"]) == 2
    message = (f"trace error: {trace}:3: "
               "wefs must be a list of 5 strings, each 128 counts in [0, 12] as 2-digit decimals")
    assert message in capsys.readouterr().err


def test_detect_trace_lines_end_with_a_newline(tmp_path, capsys, trace_bytes):
    """A line ends with \\n or \\r\\n; a lone \\r does not end one."""
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(trace_bytes.replace(b"\n", b"\r\n"))
    assert main(["detect-trace", "--trace", str(trace), "--quiet"]) == 0
    trace.write_bytes(trace_bytes.replace(b"\n", b"\r"))
    assert main(["detect-trace", "--trace", str(trace), "--quiet"]) == 2
    assert f"trace error: {trace}:1: invalid JSON (Extra data" in capsys.readouterr().err


# one recorded value of round 2 (line index 3) in each field group replay recomputes,
# and the path detect-trace names for it
HAND_EDITS = {
    "scores.z": (("scores", "z", 2, 1), lambda v: v + 0.5, "scores.z[2][1]"),
    "cluster.heights": (("cluster", "heights", 1), lambda v: v + 0.5, "cluster.heights[1]"),
    "flags.dev": (("flags", "dev", 0), lambda v: not v, "flags.dev[0]"),
    "vote.p_gamma": (("vote", "p_gamma"), lambda v: v + 0.5, "vote.p_gamma"),
    "metrics.fpr": (("metrics", "fpr"), lambda v: v + 0.5, "metrics.fpr"),
}


@pytest.mark.parametrize("keys, edit, field", HAND_EDITS.values(), ids=HAND_EDITS.keys())
def test_detect_trace_names_a_hand_edited_field(tmp_path, capsys, trace_lines, keys, edit, field):
    lines = json.loads(json.dumps(trace_lines))
    target = lines[3]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = edit(target[keys[-1]])
    assert main(["detect-trace", "--trace", write_lines(tmp_path, lines), "--quiet"]) == 1
    assert f"trial 1 round 2 at {field}" in capsys.readouterr().err


# one recorded value retyped to an equal value of another JSON type, with
# its line index and the path detect-trace names for it: == alone reads
# 1 as True and 2.0 as 2, so replay compares the types too
RETYPED = {
    "vote.detected": (3, ("vote", "detected"), int, "vote.detected"),
    "cluster.k": (3, ("cluster", "k"), float, "cluster.k"),
    "flags.dev": (3, ("flags", "dev", 1), int, "flags.dev[1]"),
    "cluster.s2": (1, ("cluster", "s2"), int, "cluster.s2"),  # 0.0 before a second broadcast
    "scores.z": (1, ("scores", "z", 2, 1), int, "scores.z[2][1]"),
    "metrics.recall": (3, ("metrics", "recall"), int, "metrics.recall"),
}


@pytest.mark.parametrize("line, keys, retype, field", RETYPED.values(), ids=RETYPED.keys())
def test_detect_trace_names_a_retyped_field(tmp_path, capsys, trace_lines, line, keys, retype, field):
    lines = json.loads(json.dumps(trace_lines))
    target = lines[line]
    for key in keys[:-1]:
        target = target[key]
    value = target[keys[-1]]
    target[keys[-1]] = retype(value)
    assert target[keys[-1]] == value and type(target[keys[-1]]) is not type(value)
    assert main(["detect-trace", "--trace", write_lines(tmp_path, lines), "--quiet"]) == 1
    assert f"trial 1 round {line - 1} at {field}" in capsys.readouterr().err


def _into_a_closed_pipe(argv) -> subprocess.CompletedProcess:
    """Run the CLI with stdout a pipe whose reader is gone before the first line."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "s2wef.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("diverged", [False, True], ids=["consistent", "diverged"])
def test_detect_trace_into_a_closed_pipe_exits_with_the_replay_status(tmp_path, trace_lines, diverged):
    lines = json.loads(json.dumps(trace_lines))
    if diverged:
        lines[3]["vote"]["p_dev"] += 0.5
    proc = _into_a_closed_pipe(["detect-trace", "--trace", write_lines(tmp_path, lines)])
    assert "Traceback" not in proc.stderr
    assert proc.returncode == (1 if diverged else 0)
    assert ("diverging rounds" in proc.stderr) == diverged


def test_run_into_a_closed_pipe_writes_its_outputs_and_exits_0(tmp_path):
    out = tmp_path / "out"
    proc = _into_a_closed_pipe(["run", "--config", str(write_config(tmp_path)), "--out", str(out)])
    assert "Traceback" not in proc.stderr and proc.returncode == 0
    assert (out / "summary.txt").read_text().startswith("detector=S2WEF")


def test_detect_trace_prints_each_rounds_metrics(tmp_path, capsys, trace_bytes, trace_lines):
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(trace_bytes)
    assert main(["detect-trace", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "replay consistent over 4 rounds"
    for line, rec in zip(out, trace_lines[1:]):
        metrics = rec["metrics"]
        assert line == (
            f"trial 1 round {rec['round']}: flagged={rec['free_rider_list']} "
            f"f1={metrics['f1']:.2f} fpr={metrics['fpr']:.2f} accuracy={rec['accuracy']:.4f} ok"
        )


def test_detect_trace_missing_file_exits_2(tmp_path):
    assert main(["detect-trace", "--trace", str(tmp_path / "none.jsonl")]) == 2


# the detector pairs an ablation compares, and the summary.txt column and
# mean_over_trials arguments that hold the number it compares them by
ABLATIONS = {
    "vote": ({"scenario": "CLEAN", "free_rider_ratio": 0.0, "attack": None},
             ("CLUSTER_ONLY", "S2WEF"), "fpr", ("fpr",)),
    "l1": ({}, ("COS_ONLY_CLUSTER", "CLUSTER_ONLY"), "f1_attack", ("f1", True)),
}


@pytest.mark.parametrize("overrides, detectors, column, mean", ABLATIONS.values(), ids=ABLATIONS.keys())
def test_an_ablation_is_two_runs_with_detector(tmp_path, overrides, detectors, column, mean):
    path = write_config(tmp_path, rounds=5, **overrides)
    cfg = load_config(path)
    for detector in detectors:
        out = tmp_path / detector
        assert main(["run", "--config", str(path), "--out", str(out), "--detector", detector, "--quiet"]) == 0
        title, columns, *rows = (out / "summary.txt").read_text().splitlines()
        assert title.startswith(f"detector={detector} ")
        mean_row = dict(zip(columns.split(), next(r for r in rows if r.split()[0] == "mean").split()))
        trials = run_simulation(replace(cfg, detector=detector))
        expected = mean_over_trials([[RoundRow.of(rec) for rec in records] for records in trials], *mean)
        assert expected == expected and mean_row[column] == f"{expected:.2f}"  # a number, not NaN


def test_ablate_is_not_a_command(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--config", str(write_config(tmp_path)), "--out", str(out), "--quiet"])
    assert exc.value.code == 2 and not out.exists()
    assert "invalid choice: 'ablate'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "{run,detect-trace}" in capsys.readouterr().out


def test_seed_override(tmp_path):
    path = write_config(tmp_path, seeds=[1, 2])
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out), "--seed", "7", "--quiet"])
    assert rc == 0
    emitted = json.loads((out / "config.json").read_text())
    assert emitted["seeds"] == [7]


def test_shipped_configs_parse():
    root = Path(__file__).resolve().parents[1] / "configs"
    for cfg_path in root.glob("*.json"):
        load_config(cfg_path)


def test_shipped_dwa_config_detects_well(tmp_path):
    cfg = Path(__file__).resolve().parents[1] / "configs" / "dwa_s1.json"
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    mean_row = [line for line in (out / "summary.txt").read_text().splitlines()
                if line.strip().startswith("mean")][0]
    f1_attack = float(mean_row.split()[2])
    assert f1_attack >= 0.9
