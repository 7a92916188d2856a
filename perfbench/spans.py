"""Per-layer spans for the traced benchmark run, taken from outside the package.

Each traced function is wrapped by rebinding every attribute of a loaded
``s2wef`` module that refers to it, so callers that look the name up at call
time (``s2wef.fedsim.local_train``, ``s2wef.detect.ward_hac``,
``s2wef.cli.write_trace``, ...) reach the wrapper.  Leaving the ``installed``
block puts the originals back.  Spans stay in memory; ``layer_metrics`` turns
them into per-layer numbers once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass

# "<module>.<function>" of every traced public function, named after its home module.
SPANS = (
    "cli.main",
    "fedsim.run_trial",
    "fedsim.run_round",
    "fedsim.aggregate_fedavg",
    "fedsim.make_dataset",
    "fedsim.partition_iid",
    "fedsim.build_schedule",
    "nn.local_train",
    "nn.evaluate_accuracy",
    "wef.build_wef",
    "attacks.make_submission",
    "detect.detect_round",
    "detect.simulate_global_wef",
    "detect.gamma_scores",
    "detect.dev_scores",
    "detect.robust_standardize",
    "detect.ward_hac",
    "detect.decide_k",
    "detect.silhouette_two_clusters",
    "detect.threshold_flags",
    "detect.majority_vote",
    "trace.write_trace",
    "trace.write_metrics_csv",
    "trace.read_trace",
    "trace.replay_trace",
)
ROUND_SPAN = "fedsim.run_round"
# The per-client work of a round's submission phase, which the worker pool runs.
SUBMISSION_SPANS = ("nn.local_train", "wef.build_wef", "attacks.make_submission")

DERIVED = {
    "detect.k2_share": "ratio",
    "fedsim.submit_parallelism": "ratio",
    "trace.bytes_written": "B",
    "trace.bytes_read": "B",
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float


class Tracer:
    """Records one span per call of each function in ``SPANS``.

    A span's parent is the innermost traced call open on the same thread.
    Worker-pool threads have no open span of their own, so their spans belong
    to the ``run_round`` that is open at the time.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.k2_rounds = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_round: int | None = None

    @contextlib.contextmanager
    def installed(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "s2wef" or name.startswith("s2wef."))
        ]
        patched = []
        try:
            for span in SPANS:
                module_name, func_name = span.split(".")
                original = getattr(importlib.import_module(f"s2wef.{module_name}"), func_name)
                wrapper = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._open_round
            sid = next(self._ids)
            stack.append(sid)
            if name == ROUND_SPAN:
                self._open_round = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == ROUND_SPAN:
                    self._open_round = None
                self.spans.append(Span(sid, name, parent, start, end))
            self._count(name, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, name, signature, args, kwargs, result) -> None:
        with self._lock:
            if name == "detect.detect_round":
                self.k2_rounds += result.cluster.k == 2
            elif name in ("trace.write_trace", "trace.read_trace"):
                size = os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])
                if name == "trace.write_trace":
                    self.bytes_written += size
                else:
                    self.bytes_read += size


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(tracers: list[Tracer]) -> dict[str, tuple[float, str]]:
    """``<span>.calls``, ``.busy_s`` and ``.self_s`` per span plus the derived ratios.

    Self time is a span's duration minus the part of it that its child spans
    cover.  Submission parallelism is the busy time of each round's submission
    spans over the wall time from the first of them starting to the last ending.
    """
    calls = dict.fromkeys(SPANS, 0)
    busy = dict.fromkeys(SPANS, 0.0)
    own = dict.fromkeys(SPANS, 0.0)
    k2 = written = read = 0
    submit_busy = submit_wall = 0.0
    for tracer in tracers:
        children: dict[int, list[Span]] = {}
        for span in tracer.spans:
            children.setdefault(span.parent, []).append(span)
        for span in tracer.spans:
            kids = children.get(span.id, [])
            covered = _covered([(max(k.start, span.start), min(k.end, span.end)) for k in kids])
            calls[span.name] += 1
            busy[span.name] += span.end - span.start
            own[span.name] += span.end - span.start - covered
            if span.name == ROUND_SPAN:
                work = [k for k in kids if k.name in SUBMISSION_SPANS]
                if work:
                    submit_busy += sum(k.end - k.start for k in work)
                    submit_wall += max(k.end for k in work) - min(k.start for k in work)
        k2 += tracer.k2_rounds
        written += tracer.bytes_written
        read += tracer.bytes_read
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.busy_s"] = (busy[name], "s")
        out[f"{name}.self_s"] = (own[name], "s")
    rounds = calls["detect.detect_round"]
    out["detect.k2_share"] = (k2 / rounds if rounds else 0.0, DERIVED["detect.k2_share"])
    out["fedsim.submit_parallelism"] = (
        submit_busy / submit_wall if submit_wall else 0.0,
        DERIVED["fedsim.submit_parallelism"],
    )
    out["trace.bytes_written"] = (written, DERIVED["trace.bytes_written"])
    out["trace.bytes_read"] = (read, DERIVED["trace.bytes_read"])
    return out
