"""Trace and metrics persistence plus detector replay over recorded rounds.

A trace is newline-delimited JSON, one record per round, carrying the
submitted WEF grids, the score/cluster/vote outputs, the decision, the
round metrics, and the penultimate matrix of the model broadcast at the
start of the round (which is what replay needs to re-simulate the server
side).  Writing is deterministic: the same records produce the same bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from . import detect as det
from .errors import TraceError
from .fedsim import MetricsReport, RoundRecord
from .wef import WefMatrix

_REQUIRED_KEYS = {
    "trial", "round", "e", "roles", "wef_shape", "wefs", "scores", "cluster",
    "flags", "vote", "free_rider_list", "metrics", "accuracy", "global_pen",
    "submission_digests",
}


def record_to_dict(rec: RoundRecord) -> dict:
    d = rec.detection
    h, w = rec.wefs[0].shape
    return {
        "trial": rec.trial_seed,
        "round": rec.round_index,
        "e": rec.e,
        "roles": ["free_rider" if r else "benign" for r in rec.roles],
        "wef_shape": [h, w],
        "wefs": [m.row_major() for m in rec.wefs],
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
        "metrics": {
            "precision": rec.metrics.precision,
            "recall": rec.metrics.recall,
            "f1": rec.metrics.f1,
            "fpr": rec.metrics.fpr,
        },
        "accuracy": rec.accuracy,
        "global_pen": [float(v) for v in rec.global_pen_before.ravel()],
        "submission_digests": list(rec.submission_digests),
    }


def write_trace(report: MetricsReport, path: str | Path) -> None:
    path = Path(path)
    lines = []
    for seed in report.cfg.seeds:
        for rec in report.trials[seed]:
            lines.append(json.dumps(record_to_dict(rec), separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace(path: str | Path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    records = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        missing = _REQUIRED_KEYS - rec.keys()
        if missing:
            raise TraceError(f"{path}:{lineno}: missing keys {sorted(missing)}")
        records.append(rec)
    if not records:
        raise TraceError(f"{path}: empty trace")
    return records


def _wefs_from_record(rec: dict) -> list[WefMatrix]:
    h, w = rec["wef_shape"]
    out = []
    for grid in rec["wefs"]:
        if len(grid) != h * w:
            raise TraceError(f"trial {rec['trial']} round {rec['round']}: bad WEF grid length")
        out.append(WefMatrix(np.asarray(grid, dtype=np.int64).reshape(h, w), rec["e"]))
    return out


def _pen_from_record(rec: dict) -> np.ndarray:
    h, w = rec["wef_shape"]
    pen = np.asarray(rec["global_pen"], dtype=np.float64)
    if pen.size != h * w:
        raise TraceError(f"trial {rec['trial']} round {rec['round']}: bad global matrix length")
    return pen.reshape(h, w)


def replay_decision(rec: dict, prev: dict | None, detector: str) -> frozenset[int]:
    """Recompute one round's free-rider list from recorded inputs.

    Replay covers the per-round (non-accumulating) detectors; prev is the
    preceding record of the same trial, or None at the first round.
    """
    _, flagged = det.run_detector(
        detector,
        _wefs_from_record(rec),
        _pen_from_record(rec),
        None if prev is None else _pen_from_record(prev),
        rec["e"],
    )
    return flagged


def replay_trace(records: Sequence[dict], detector: str) -> list[dict]:
    """Replay every round; each result notes whether the decision diverged."""
    results = []
    prev_by_trial: dict[int, dict] = {}
    for rec in records:
        trial = rec["trial"]
        prev = prev_by_trial.get(trial)
        replayed = replay_decision(rec, prev, detector)
        recorded = frozenset(rec["free_rider_list"])
        results.append(
            {
                "trial": trial,
                "round": rec["round"],
                "recorded": sorted(recorded),
                "replayed": sorted(replayed),
                "diverged": replayed != recorded,
            }
        )
        prev_by_trial[trial] = rec
    return results


_CSV_FIELDS = [
    "trial", "round", "true_free_riders", "flagged",
    "precision", "recall", "f1", "fpr", "accuracy",
]


def write_metrics_csv(report: MetricsReport, path: str | Path) -> None:
    """One row per (trial, round) plus a per-trial summary row.

    Summary means cover detection-active rounds (round >= 1); accuracy in
    the summary row is the trial's final accuracy.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for seed in report.cfg.seeds:
            for rec in report.trials[seed]:
                writer.writerow(
                    {
                        "trial": seed,
                        "round": rec.round_index,
                        "true_free_riders": int(rec.roles.sum()),
                        "flagged": len(rec.free_riders),
                        "precision": f"{rec.metrics.precision:.6f}",
                        "recall": f"{rec.metrics.recall:.6f}",
                        "f1": f"{rec.metrics.f1:.6f}",
                        "fpr": f"{rec.metrics.fpr:.6f}",
                        "accuracy": f"{rec.accuracy:.6f}",
                    }
                )
            writer.writerow(
                {
                    "trial": seed,
                    "round": "mean",
                    "true_free_riders": "",
                    "flagged": "",
                    "precision": f"{report.trial_mean(seed, 'precision'):.6f}",
                    "recall": f"{report.trial_mean(seed, 'recall'):.6f}",
                    "f1": f"{report.trial_mean(seed, 'f1'):.6f}",
                    "fpr": f"{report.trial_mean(seed, 'fpr'):.6f}",
                    "accuracy": f"{report.final_accuracy(seed):.6f}",
                }
            )


def read_metrics_csv(path: str | Path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise TraceError(f"metrics file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or any(set(_CSV_FIELDS) - set(r.keys()) for r in rows):
        raise TraceError(f"{path}: not a metrics CSV")
    return rows
