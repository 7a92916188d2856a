import json
from dataclasses import fields
from pathlib import Path

import pytest

from s2wef.attacks import AttackParams
from s2wef.cli import config_from_dict, config_to_dict, load_config, main
from s2wef.errors import ConfigurationError
from s2wef.fedsim import DatasetParams, SimConfig
from s2wef.nn import TrainConfig


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
        {"accumulate_wef": "no"},
        {"seeds": [1, 1]},
    ],
)
def test_mistyped_config_exits_2_and_writes_nothing(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


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


def test_detect_trace_idempotent(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    rc = main(["detect-trace", "--trace", str(out / "trace.jsonl"), "--detector", "S2WEF", "--quiet"])
    assert rc == 0


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


def test_detect_trace_missing_file_exits_2(tmp_path):
    assert main(["detect-trace", "--trace", str(tmp_path / "none.jsonl")]) == 2


def test_ablate_vote_mode(tmp_path):
    path = write_config(tmp_path, scenario="CLEAN", free_rider_ratio=0.0, attack=None, rounds=5)
    out = tmp_path / "out"
    rc = main(["ablate", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 0
    meta = json.loads((out / "ablation.json").read_text())
    assert meta["mode"] == "vote"
    assert meta["seeds"] == [1]
    assert set(meta["detectors"]) == {"CLUSTER_ONLY", "S2WEF"}
    assert all("fpr" in row for row in meta["results"].values())


def test_ablate_l1_mode(tmp_path):
    path = write_config(tmp_path, rounds=5)
    out = tmp_path / "out"
    rc = main(["ablate", "--config", str(path), "--out", str(out), "--quiet"])
    assert rc == 0
    meta = json.loads((out / "ablation.json").read_text())
    assert meta["mode"] == "l1"
    assert set(meta["detectors"]) == {"COS_ONLY_CLUSTER", "CLUSTER_ONLY"}


def test_report_prints_summary(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out), "--quiet"])
    rc = main(["report", "--out", str(out)])
    assert rc == 0
    assert "f1" in capsys.readouterr().out


def test_report_missing_metrics_exits_2(tmp_path):
    assert main(["report", "--out", str(tmp_path)]) == 2


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
