"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Each workload runs untraced and traced.  Both must pass their own checks,
print exactly the metrics BENCHMARK.json names with its units, and reach the
same per-round decisions, which shows that the span wrappers change no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(script: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=script.parent.parent,
    )


def result_and_environment(workload: str, trace: int) -> tuple[dict, dict]:
    done = bench(HERE / "run.py", workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    environment = next(json.loads(line)["environment"] for line in lines if line.startswith('{"environment"'))
    return json.loads(lines[-1]), environment


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload(workload):
    plain, plain_env = result_and_environment(workload, 0)
    traced, traced_env = result_and_environment(workload, 1)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert traced_env["decisions_sha256"] == plain_env["decisions_sha256"]

    layers = {name: metric["value"] for name, metric in traced["metrics"].items()}
    assert layers["detect.detect_round.calls"] > 0
    if workload == "replay_clean":
        assert layers["nn.local_train.calls"] == 0
        assert layers["trace.read_trace.calls"] > 0 and layers["trace.bytes_read"] > 0
    else:
        assert layers["nn.local_train.calls"] > 0
        assert layers["trace.write_trace.calls"] > 0 and layers["trace.bytes_written"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path / HERE.name / "run.py", SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
