"""Trace and metrics persistence plus detector replay over recorded rounds.

A trace is newline-delimited JSON.  Its first line is a header holding the
trace schema and the normalized config of the run; every later line is one
round record carrying the submitted WEF grids, the score/cluster/vote
outputs, the decision, the round metrics, and the penultimate matrix of
the model broadcast at the start of the round (which is what replay needs
to re-simulate the server side).  Schema 4 writes each client's WEF grid
as one string of fixed-width decimal counts and that matrix as the base64
of its little-endian float64 bytes, and ends the line there.  Schema 3
also held a submission_digests list after global_pen, which the reader
ignores; schema 2 held the grids as lists of integers; schema 1, and a
trace without a header, also held the matrix as a list of decimal
numbers.  The reader takes all four.  Writing is deterministic: the same
records produce the same bytes.
"""

from __future__ import annotations

import base64
import binascii
import csv
import json
import math
import os
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import asdict
from itertools import chain, groupby
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from . import detect as det
from .config import SimConfig, config_from_dict, config_to_dict
from .errors import ConfigurationError, TraceError
from .fedsim import Metrics, RoundRecord, build_schedule, compute_metrics
from .wef import wef_dtype

TRACE_SCHEMA = 4
_SCHEMAS = (1, 2, 3, TRACE_SCHEMA)  # the ones the reader takes

_E_MAX = np.iinfo(np.int64).max  # wef_dtype holds a budget above 255 in int64

_REQUIRED_KEYS = {
    "trial", "round", "e", "roles", "wef_shape", "wefs", "scores", "cluster",
    "flags", "vote", "free_rider_list", "metrics", "accuracy", "global_pen",
}


def digit_rows(grid: np.ndarray, e: int) -> str:
    """The WEF block (schemas 3 and 4) of an (n, m) matrix of counts in
    [0, e]: a JSON list of one string per row, each count written in width
    = len(str(e)) decimal digits with leading zeros, n·(m·width + 3) + 1
    bytes in all.  Built from one uint8 array, not count by count."""
    g = np.asarray(grid)
    if g.ndim != 2 or not g.size or g.dtype.kind not in "iu" or g.min() < 0 or g.max() > e:
        raise ValueError(f"expected a non-empty 2-D matrix of integers in [0, {e}]")
    n, m = g.shape
    width = len(str(e))
    text = np.empty((n, m * width + 3), dtype=np.uint8)
    text[:, [0, -2]] = ord('"')
    text[:, -1] = ord(",")
    text[-1, -1] = ord("]")
    digits = text[:, 1:-2].reshape(n, m, width)
    # the k-th digit from the right, by // and a product: numpy's % is several times slower
    for k in range(width):
        rest = g // 10
        digits[..., width - 1 - k] = g - rest * 10 + ord("0")
        g = rest
    return "[" + text.tobytes().decode("ascii")


def decode_digit_rows(block: str, n: int, m: int, e: int) -> np.ndarray | None:
    """The inverse of digit_rows: the (n, m) matrix of wef_dtype(e) whose
    block at e is exactly block, or None when digit_rows writes block for
    no such matrix (another length or framing, a non-digit, a count above
    e).  Every byte is checked; a count is read from its digits as uint64,
    which holds any 19 digits, so a count past int64 is refused, not wrapped."""
    width = len(str(e))
    if not (block.isascii() and len(block) == n * (m * width + 3) + 1 and n and m):
        return None
    text = np.frombuffer(block.encode("ascii"), np.uint8)
    rows = text[1:].reshape(n, m * width + 3)
    frame = (text[0] == ord("[") and (rows[:, [0, -2]] == ord('"')).all()
             and (rows[:-1, -1] == ord(",")).all() and rows[-1, -1] == ord("]"))
    digits = rows[:, 1:-2].reshape(n, m, width) - np.uint8(ord("0"))  # bytes below "0" wrap
    if not frame or digits.max() > 9:
        return None
    counts = digits[..., 0].astype(np.uint64) if width > 1 else digits[..., 0]
    for k in range(1, width):  # one digit plane at a time, from the left
        counts = counts * np.uint64(10) + digits[..., k]
    return counts.astype(wef_dtype(e), copy=False) if counts.max() <= e else None


def float_matrix_base64(matrix: np.ndarray) -> str:
    """The standard padded base64 of matrix's C-order little-endian float64
    bytes: 10.7 bytes of text a value that read back exactly, where the
    decimal text of schema 1 took about 20.7 and formatted each value."""
    return base64.b64encode(np.asarray(matrix, dtype="<f8").tobytes()).decode("ascii")


# the digits whose unused low bits are zero: the last before "==" has 4, before "=" 2
_LAST_DIGITS = {2: "AQgw", 1: "AEIMQUYcgkosw048"}


def decode_float_matrix(text: object, h: int, w: int) -> np.ndarray | None:
    """The inverse of float_matrix_base64: the finite (h, w) float64 matrix
    whose encoding is exactly text, or None when float_matrix_base64 writes
    text for no such matrix (another alphabet, whitespace, non-canonical
    padding or trailing bits, another length, NaN or an infinity)."""
    size = 8 * h * w
    if not (isinstance(text, str) and text.isascii() and len(text) == -(-size // 3) * 4):
        return None
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error:
        return None
    # text holds only digits and a final "=" run, so at this length the byte
    # count fixes the padding; b64decode ignores the unused low bits of the
    # last digit before "=", which canonical text leaves zero
    pad = -size % 3
    if len(raw) != size or pad and text[-1 - pad] not in _LAST_DIGITS[pad]:
        return None
    matrix = np.frombuffer(raw, "<f8").astype(np.float64).reshape(h, w)
    return matrix if np.isfinite(matrix).all() else None


_dumps = json.JSONEncoder(separators=(",", ":")).encode


def detection_fields(d: det.RoundDetection) -> dict:
    """The record fields of a round's detection, in record order: what the
    trace writer writes and what replay recomputes."""
    return {
        "scores": {
            "gamma": d.scores.gamma.tolist(),
            "dev": d.scores.dev.tolist(),
            "z": d.scores.z.tolist(),
        },
        "cluster": {
            "k": d.cluster.k,
            "assignment": d.cluster.assignment.tolist(),
            "s2": float(d.cluster.s2),
            "delta": float(d.cluster.delta),
            "heights": d.cluster.heights.tolist(),
        },
        "flags": {
            "gamma": d.decision.flags_gamma.tolist(),
            "dev": d.decision.flags_dev.tolist(),
        },
        "vote": {
            "p_gamma": float(d.decision.p_gamma),
            "p_dev": float(d.decision.p_dev),
            "detected": bool(d.decision.detected),
        },
        "free_rider_list": sorted(int(i) for i in d.decision.free_rider_list),
    }


def encode_record(rec: RoundRecord) -> str:
    """One round record as a compact JSON line (without the newline)."""
    n, h, w = rec.wefs.shape
    head = {
        "trial": rec.trial_seed,
        "round": rec.round_index,
        "e": rec.e,
        "roles": ["free_rider" if r else "benign" for r in rec.roles.tolist()],
        "wef_shape": [h, w],
    }
    middle = {
        **detection_fields(rec.detection),
        "metrics": asdict(rec.metrics),
        "accuracy": rec.accuracy,
    }
    wefs = digit_rows(rec.wefs.reshape(n, -1), rec.e)
    pen = float_matrix_base64(rec.global_pen_before)
    # digits and base64 need no JSON escapes, so both blocks join in as they
    # are, where the key order of the format has them
    return (f'{_dumps(head)[:-1]},"wefs":{wefs},{_dumps(middle)[1:-1]},'
            f'"global_pen":"{pen}"}}')


@contextmanager
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text file for writing path: it is path.tmp until the block
    ends, then renamed to path, so a failed write leaves no partial file."""
    tmp = Path(f"{path}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class RoundRow(NamedTuple):
    """What metrics.csv and summary.txt read of one round."""

    round_index: int
    true_free_riders: int
    flagged: int
    metrics: Metrics
    accuracy: float

    @classmethod
    def of(cls, rec: RoundRecord) -> RoundRow:
        flagged = len(rec.detection.decision.free_rider_list)
        return cls(rec.round_index, int(rec.roles.sum()), flagged, rec.metrics, rec.accuracy)


def write_trace(cfg: SimConfig, trials: Iterable[list[RoundRecord]], path: str | Path) -> list[list[RoundRow]]:
    """The header line, then each trial's round lines as the trial arrives;
    returns its RoundRows.  Each trial is dropped before the next is asked for."""
    header = {"header": {"schema": TRACE_SCHEMA, "config": config_to_dict(cfg)}}
    rows = []
    with atomic_write(path) as fh:
        fh.write(_dumps(header) + "\n")
        for records in trials:
            fh.writelines(encode_record(rec) + "\n" for rec in records)
            rows.append([RoundRow.of(rec) for rec in records])
            del records
    return rows


class Trace(list):
    """A trace's round records in file order; config comes from its header, if any."""

    def __init__(self, records: list[dict], config: SimConfig | None):
        super().__init__(records)
        self.config = config


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _array(value, kinds: str, ndim: int) -> np.ndarray | None:
    """value as an array if it is a JSON list of that rank and element kind, else None."""
    if not isinstance(value, list):
        return None
    try:
        arr = np.array(value)
    except ValueError:  # ragged
        return None
    if arr.ndim != ndim or arr.dtype.kind not in kinds:
        return None
    # np.array reads true as 1 next to numbers
    return None if bool in map(type, value if ndim == 1 else chain.from_iterable(value)) else arr


def _is_shape(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(_is_int(v) and v > 0 for v in value)


def _is_finite_number(value) -> bool:
    """Whether value is a JSON number that a float holds finitely."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


_ROLES = ("benign", "free_rider")


def _parse_round(rec: dict, where: str, schema: int) -> None:
    """Type-check the fields replay reads or prints, and refuse what no run
    writes and the detector does not take: an e past det.exact_budget for
    the grid shape, or fewer than 3 clients.  wefs and global_pen (unless
    _split_record decoded them already) become arrays, wefs of wef_dtype(e)
    as the run held them, global_pen of float64, each read in the form of
    the trace's schema."""

    def bad(key: str, expected: str):
        value = rec[key].tolist() if isinstance(rec[key], np.ndarray) else rec[key]
        raise TraceError(f"{where}: {key} must be {expected}, got {value!r:.60}")

    for key in ("trial", "round", "e"):
        if not _is_int(rec[key]):
            bad(key, "an integer")
    if not 1 <= rec["e"] <= _E_MAX:
        bad("e", f"an integer in [1, {_E_MAX}]")
    shape = rec["wef_shape"]
    if not _is_shape(shape):
        bad("wef_shape", "two positive integers")
    flagged = rec["free_rider_list"]
    if not (isinstance(flagged, list) and all(map(_is_int, flagged))):
        bad("free_rider_list", "a list of integers")
    h, w = shape
    wefs, roles, e = rec["wefs"], rec["roles"], rec["e"]
    budget = det.exact_budget(h * w)
    if e > budget:
        bad("e", f"at most {budget} for {h} x {w} grids, where the detector's distances are exact")
    if schema >= 3 and not isinstance(wefs, np.ndarray):  # unless _split_record decoded it already
        # roles count the rows, as they do where _split_record cuts the block
        n = len(roles) if isinstance(roles, list) else len(wefs) if isinstance(wefs, list) else 0
        strings = isinstance(wefs, list) and len(wefs) == n and all(isinstance(row, str) for row in wefs)
        wefs = decode_digit_rows('["' + '","'.join(wefs) + '"]', n, h * w, e) if strings else None
        if wefs is None:
            bad("wefs", f"a list of {n} strings, each {h * w} counts in [0, {e}] as {len(str(e))}-digit decimals")
    elif schema < 3:
        wefs = _array(wefs, "i", 2)
        if wefs is None or wefs.shape[1] != h * w:
            bad("wefs", f"a list of integer lists of length {h * w}")
        low, high = int(wefs.min()), int(wefs.max())
        if low < 0 or high > e:
            raise TraceError(f"{where}: WEF entries must lie in [0, {e}], got [{low}, {high}]")
    if not (isinstance(roles, list) and len(roles) == len(wefs) and all(r in _ROLES for r in roles)):
        bad("roles", f'a list of {len(wefs)} strings "benign" or "free_rider"')
    if len(roles) < 3:
        bad("roles", "a list of 3 clients or more, as every config has")
    if not _is_finite_number(rec["accuracy"]):
        bad("accuracy", "a finite number")
    if schema == 1:
        pen = _array(rec["global_pen"], "if", 1)
        # json.loads reads NaN, Infinity, -Infinity and 1e999, which the writer never writes
        if pen is None or pen.size != h * w or not np.isfinite(pen).all():
            bad("global_pen", f"a list of {h * w} finite numbers")
        pen = pen.astype(np.float64).reshape(h, w)
    else:
        pen = rec["global_pen"]
        if not isinstance(pen, np.ndarray):  # _split_record decoded it already
            pen = decode_float_matrix(pen, h, w)
        if pen is None:
            bad("global_pen", f"the canonical base64 of {h * w} finite little-endian float64")
    rec["wefs"] = wefs.astype(wef_dtype(e), copy=False).reshape(-1, h, w)
    rec["global_pen"] = pen


def _check_against_header(
    rec: dict, cfg: SimConfig, schedules: dict[int, np.ndarray], where: str
) -> None:
    """A round that cfg's run wrote has its clients, e and grid shape, and
    the free riders of its trial's schedule; schedules holds each trial's,
    built once."""
    for name, value, key, expected in (
        ("the client count", len(rec["roles"]), "clients", cfg.clients),
        ("e", rec["e"], "train.local_iterations", cfg.train.local_iterations),
        ("wef_shape", rec["wef_shape"], "[hidden_layers[-1], dataset.classes]",
         [cfg.hidden_layers[-1], cfg.dataset.classes]),
    ):
        if value != expected:
            raise TraceError(f"{where}: {name} is {value}, the header's {key} is {expected}")
    trial, t = rec["trial"], rec["round"]
    if trial not in cfg.seeds or not 0 <= t < cfg.rounds:
        return  # not a round of cfg's run: read_trace rejects the trace at its end
    if trial not in schedules:
        schedules[trial] = build_schedule(cfg, trial)
    expected = np.flatnonzero(schedules[trial][t]).tolist()
    found = [i for i, role in enumerate(rec["roles"]) if role == "free_rider"]
    if found != expected:
        raise TraceError(
            f"{where}: trial {trial} round {t}: free riders {found}, "
            f"the header config's schedule has {expected}"
        )


def _read_header(rec: dict, where: str) -> tuple[int, SimConfig]:
    """A header line's schema and config."""
    header = rec["header"]
    if rec.keys() != {"header"} or not isinstance(header, dict) or header.keys() != {"schema", "config"}:
        raise TraceError(f'{where}: a header line is {{"header": {{"schema": .., "config": ..}}}}')
    schema = header["schema"]
    if not (_is_int(schema) and schema in _SCHEMAS):
        raise TraceError(f"{where}: unknown trace schema {schema!r}, expected one of {list(_SCHEMAS)}")
    try:
        return schema, config_from_dict(header["config"])
    except ConfigurationError as exc:
        raise TraceError(f"{where}: header {exc}") from exc


_WEFS = ',"wefs":'
_PEN = ',"global_pen":"'
_SIZING = frozenset(("e", "roles", "wef_shape"))  # the head keys that size the WEF block


def _split_record(line: str) -> dict | None:
    """A schema-3 or schema-4 round line, read at its seams: json.loads for
    the head, decode_digit_rows for the WEF block after it, whose length
    the head's e, roles and wef_shape give, and for the tail json.loads,
    except that a global_pen string that decode_float_matrix takes is cut
    out and decoded.  None for any other line.

    Each seam only chooses where to cut.  When the head and the tail parse
    as non-empty objects, the block is digit_rows' and the tail does not
    give e, roles or wef_shape again, the line is one object, and
    json.loads reads it to {**head, "wefs": block, **tail}, repeated keys
    included: both keep a key at its first place with its last value.
    Likewise the tail is {**before, "global_pen": pen, **after} when the
    text before and after the global_pen member parse as objects.
    """
    start = line.find(_WEFS + '["')
    if start < 0:
        return None
    try:
        head = json.loads(line[:start] + "}")
    except ValueError:  # JSONDecodeError, or an integer too long for int()
        return None
    if not isinstance(head, dict):
        return None
    e, roles, shape = head.get("e"), head.get("roles"), head.get("wef_shape")
    if not (_is_int(e) and 1 <= e <= _E_MAX and isinstance(roles, list) and _is_shape(shape)):
        return None
    block = start + len(_WEFS)
    m = shape[0] * shape[1]
    end = block + len(roles) * (m * len(str(e)) + 3) + 1
    if line[end:end + 1] != ",":
        return None
    wefs = decode_digit_rows(line[block:end], len(roles), m, e)
    if wefs is None:
        return None
    tail = _split_tail(line[end + 1:], shape)
    # the tail's own e, roles or wef_shape would size the block, and global_pen, otherwise
    return None if tail is None or not _SIZING.isdisjoint(tail) else {**head, "wefs": wefs, **tail}


def _split_tail(text: str, shape: list[int]) -> dict | None:
    """json.loads("{" + text) if that is a non-empty object, else None; a
    global_pen string that decode_float_matrix takes at shape is cut out at
    its last seam and decoded, not scanned as JSON."""
    cut = text.rfind(_PEN)
    close = text.find('"', cut + len(_PEN)) if cut > 0 else -1
    if close > 0 and (pen := decode_float_matrix(text[cut + len(_PEN):close], *shape)) is not None:
        rest = text[close + 1:]
        try:
            before = json.loads("{" + text[:cut] + "}")
            after = {} if rest == "}" else json.loads("{" + rest[1:]) if rest[:1] == "," else None
        except ValueError:
            before = after = None
        if before and (rest == "}" or after):
            return {**before, "global_pen": pen, **after}
    try:
        tail = json.loads("{" + text)
    except ValueError:  # JSONDecodeError, or an integer too long for int()
        return None
    return tail if isinstance(tail, dict) and tail else None


# a round line of a 10-client trace is about 80 KB, which the default
# buffer of st_blksize (4 KiB) hands back in some 20 pieces; the buffer
# lives through the whole read, and one of 1 MiB raised the peak RSS of a
# 200-client run and replay by about 1 MiB
_READ_BUFFER = 256 * 1024


def read_trace(path: str | Path) -> Trace:
    """Parse and validate a trace; wefs and global_pen come back as arrays.

    Every round of a trial must have the (n, h, w) WEF stack of its first
    round, and a trial's rounds must run 0, 1, 2, ... in file order, as
    replay steps them.  With a header, every round must have the config's
    clients, local iterations and penultimate shape and the free riders of
    the config's schedule (fedsim.build_schedule), and the round records must be
    exactly the config's (seed, round) pairs in order, so a truncated or
    spliced trace is rejected.  The header's schema sets the form of
    global_pen; a trace without a header is schema 1.
    """
    path = Path(path)
    try:
        fh = path.open("rb", buffering=_READ_BUFFER)
    except OSError as exc:  # missing, a directory, or unreadable
        raise TraceError(f"{path}: {exc.strerror or exc}") from exc
    schema, config = 1, None
    records = []
    stacks = {}  # trial -> the (n, h, w) WEF stack of its first round
    due = {}  # trial -> the round its next record must hold
    schedules = {}  # trial -> the header config's free-rider schedule
    with fh:  # one line in memory at a time
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise TraceError(f"{where}: not UTF-8 ({exc})") from exc
            if not line.strip():
                continue
            # older schemas go to json.loads whole
            rec = _split_record(line) if schema >= 3 else None
            if rec is None:
                try:
                    rec = json.loads(line)
                except ValueError as exc:  # JSONDecodeError, or an integer too long for int()
                    raise TraceError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(rec, dict):
                raise TraceError(f"{where}: expected a JSON object, got {rec!r:.60}")
            if "header" in rec and config is None and not records:
                schema, config = _read_header(rec, where)
                continue
            missing = _REQUIRED_KEYS - rec.keys()
            if missing:
                raise TraceError(f"{where}: missing keys {sorted(missing)}")
            _parse_round(rec, where, schema)
            trial, t = rec["trial"], rec["round"]
            if t != due.setdefault(trial, 0):
                raise TraceError(
                    f"{where}: trial {trial} round {t} is out of order, round {due[trial]} is due"
                )
            due[trial] += 1
            stack = stacks.setdefault(trial, rec["wefs"].shape)
            if rec["wefs"].shape != stack:
                raise TraceError(
                    f"{where}: WEF stack {rec['wefs'].shape} is not {stack}, "
                    f"the stack of trial {trial}'s first round"
                )
            if config is not None:
                _check_against_header(rec, config, schedules, where)
            records.append(rec)
    if not records:
        raise TraceError(f"{path}: empty trace")
    if config is not None:
        found = [(r["trial"], r["round"]) for r in records]
        expected = [(s, t) for s in config.seeds for t in range(config.rounds)]
        if found != expected:
            raise TraceError(
                f"{path}: the {len(found)} round records are not the header config's "
                f"{len(expected)} (seed, round) pairs in order"
            )
    return Trace(records, config)


def _same_types(recorded, replayed) -> bool:
    """Whether recorded, given that it == replayed, also has replayed's JSON
    types: == reads 1 as true and 2 as 2.0, but a list equals only a list
    and a dict only a dict, so only the scalars need a look."""
    if isinstance(replayed, dict):
        return all(_same_types(recorded[key], value) for key, value in replayed.items())
    if isinstance(replayed, list):
        if replayed and isinstance(replayed[0], list):  # the rows of a matrix
            recorded, replayed = chain.from_iterable(recorded), chain.from_iterable(replayed)
        return list(map(type, recorded)) == list(map(type, replayed))
    return type(recorded) is type(replayed)


def _matches(recorded, replayed) -> bool:
    return recorded == replayed and _same_types(recorded, replayed)


def _first_difference(recorded, replayed, path: str) -> str:
    """The path of the first value of replayed that recorded does not match
    in value and JSON type, given that the two do not match: path itself
    when they differ in shape."""
    if isinstance(replayed, dict) and isinstance(recorded, dict):
        for key, value in replayed.items():
            if key not in recorded or not _matches(recorded[key], value):
                return _first_difference(recorded.get(key), value, f"{path}.{key}")
    elif isinstance(replayed, list) and isinstance(recorded, list) and len(recorded) == len(replayed):
        for i, (old, new) in enumerate(zip(recorded, replayed)):
            if not _matches(old, new):
                return _first_difference(old, new, f"{path}[{i}]")
    return path


def replay_trace(trace: Trace, detector: str | None = None) -> list[dict]:
    """Replay every round and check each recorded field replay recomputes.

    The header's detector, unless detector overrides it, takes each run of
    a trial's consecutive rounds with one e together (det.detect_trial),
    after the global_pen of the trial's round before them.  A header-less
    trace replays with the default detector.  The scores,
    cluster, flags, vote and free_rider_list of a round must equal the
    replayed ones, and its metrics those of the replayed flagged set against
    its roles, in value and in JSON type (1 is not true, 2.0 is not 2);
    accuracy needs the model and goes unchecked, as a rerun of the header
    config does not.  Each result holds the replayed flagged set and
    metrics, the recorded accuracy, and the path of the first field that
    differs (such as "cluster.heights[3]"), or None.
    """
    cfg = trace.config
    name = detector or (cfg.detector if cfg else SimConfig.detector)
    last_pen: dict[int, np.ndarray] = {}  # trial -> the global_pen of its last round so far
    results = []
    for (trial, e), group in groupby(trace, key=lambda rec: (rec["trial"], rec["e"])):
        recs = list(group)
        pens = [rec["global_pen"] for rec in recs]
        detections = det.detect_trial(name, [rec["wefs"] for rec in recs], pens, last_pen.get(trial), e)
        last_pen[trial] = pens[-1]
        for rec, detection in zip(recs, detections):
            roles = rec["roles"]
            truth = [i for i, role in enumerate(roles) if role == "free_rider"]
            metrics = compute_metrics(truth, detection.decision.free_rider_list, len(roles))
            replayed = {**detection_fields(detection), "metrics": asdict(metrics)}
            field = next(
                (_first_difference(rec[key], value, key) for key, value in replayed.items()
                 if not _matches(rec[key], value)),
                None,
            )
            results.append(
                {
                    "trial": trial,
                    "round": rec["round"],
                    "flagged": replayed["free_rider_list"],
                    "metrics": metrics,
                    "accuracy": rec["accuracy"],
                    "field": field,
                    "diverged": field is not None,
                }
            )
    return results


_METRICS = ("precision", "recall", "f1", "fpr")
_CSV_FIELDS = ["trial", "round", "true_free_riders", "flagged", *_METRICS, "accuracy"]


def mean_over_trials(trials: Iterable[Sequence[RoundRow]], metric: str, attack_only: bool = False) -> float:
    """The mean over trials of metric's mean over rounds >= 1 (those with true
    free riders if attack_only); a trial without such rounds is left out."""
    means = []
    for rows in trials:
        values = [getattr(r.metrics, metric) for r in rows
                  if r.round_index >= 1 and (r.true_free_riders or not attack_only)]
        if values:
            means.append(float(np.mean(values)))
    return float(np.mean(means)) if means else float("nan")


def write_metrics_csv(cfg: SimConfig, trials: Sequence[Sequence[RoundRow]], path: str | Path) -> None:
    """One row per (trial, round) plus a per-trial summary row.

    Summary means cover detection-active rounds (round >= 1); accuracy in
    the summary row is the trial's final accuracy.
    """
    with atomic_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for seed, rows in zip(cfg.seeds, trials):
            for row in rows:
                writer.writerow({
                    "trial": seed,
                    "round": row.round_index,
                    "true_free_riders": row.true_free_riders,
                    "flagged": row.flagged,
                    **{m: f"{getattr(row.metrics, m):.6f}" for m in _METRICS},
                    "accuracy": f"{row.accuracy:.6f}",
                })
            writer.writerow({
                "trial": seed,
                "round": "mean",
                **{m: f"{mean_over_trials([rows], m):.6f}" for m in _METRICS},
                "accuracy": f"{rows[-1].accuracy:.6f}",
            })
