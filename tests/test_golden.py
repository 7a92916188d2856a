"""Regression tests against shipped golden vectors.

The fixtures were produced once by this package's own pipeline (DWA,
Scenario 1, 30% free-riders, fixed seed) and frozen; any behavioral drift
in scoring, clustering, voting, or trace replay shows up here.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from s2wef.detect import detect_round
from s2wef.trace import read_trace, replay_trace

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden_round():
    return json.loads((DATA / "golden_round.json").read_text())


def test_golden_round_decision(golden_round):
    g = golden_round
    h, w = g["wef_shape"]
    wefs = [np.asarray(grid).reshape(h, w) for grid in g["wefs"]]
    now = np.asarray(g["global_pen_now"]).reshape(h, w)
    prev = np.asarray(g["global_pen_prev"]).reshape(h, w)
    result = detect_round(wefs, now, prev, g["e"])
    expected = g["expected"]
    np.testing.assert_allclose(result.scores.gamma, expected["gamma"], rtol=1e-12)
    np.testing.assert_allclose(result.scores.dev, expected["dev"], rtol=1e-12)
    assert result.cluster.k == expected["k"]
    assert sorted(result.decision.free_rider_list) == expected["suspicious_free_riders"]
    assert result.decision.p_gamma == pytest.approx(expected["p_gamma"])
    assert result.decision.p_dev == pytest.approx(expected["p_dev"])
    assert result.decision.detected == expected["detected"]


def test_golden_trace_replay_has_no_divergence():
    records = read_trace(DATA / "golden_trace.jsonl")
    results = replay_trace(records, "S2WEF")
    assert not any(r["diverged"] for r in results)


def test_golden_trace_round5_flags_equal_truth():
    records = read_trace(DATA / "golden_trace.jsonl")
    rec = next(r for r in records if r["round"] == 5)
    truth = [i for i, role in enumerate(rec["roles"]) if role == "free_rider"]
    assert rec["free_rider_list"] == truth
    assert truth  # the schedule really has free-riders by round 5


def test_golden_trace_attack_rounds_all_caught():
    records = read_trace(DATA / "golden_trace.jsonl")
    for rec in records:
        truth = [i for i, role in enumerate(rec["roles"]) if role == "free_rider"]
        if rec["round"] >= 2:
            assert truth and rec["free_rider_list"] == truth
        else:
            assert not truth and not rec["free_rider_list"]
