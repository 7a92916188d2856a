"""Command-line front end.

Two subcommands: run a configured experiment, or replay a detector over a
recorded trace, checking every field it recomputes and printing each round's
flagged set, f1, fpr and accuracy.  An ablation is the same config run twice
with `--detector`.  Configs are versioned JSON validated fail-closed
(unknown or repeated keys and mistyped values are rejected) before any
output file is created.  A run writes its trace trial by trial, holding one
trial at a time, and its output is the same on any number of cores (see
processes).  Exit codes: 0 success, 1 runtime failure or replay divergence,
2 invalid config or malformed trace, 143 for a run stopped by SIGTERM,
which leaves no partial file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .config import SimConfig, config_from_dict, config_to_dict
from .detect import DETECTORS
from .errors import ConfigurationError, S2wefError, TraceError
from .fedsim import run_simulation
from .trace import (
    RoundRow,
    atomic_write,
    mean_over_trials,
    read_trace,
    replay_trace,
    write_metrics_csv,
    write_trace,
)


def _unique_keys(path: Path, pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; json.loads alone would keep a repeated key's last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigurationError(f"{path}: repeated key {key!r}")
        obj[key] = value
    return obj


def load_config(path: str | Path) -> SimConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=partial(_unique_keys, path))
    except OSError as exc:  # missing, a directory, or unreadable
        raise ConfigurationError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return config_from_dict(raw)


def _print_lines(lines: list[str]) -> None:
    """Print lines to stdout.  A reader that closes early, as `| head` does,
    drops the rest, and the command keeps its own exit status."""
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left in the buffer goes to devnull when the interpreter exits
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _fmt(value: float) -> str:
    return "-" if value != value else f"{value:.2f}"  # NaN-safe


def summary_lines(cfg: SimConfig, trials: list[list[RoundRow]]) -> list[str]:
    attack = cfg.attack.kind if cfg.attack else "none"
    lines = [
        f"detector={cfg.detector} scenario={cfg.scenario} attack={attack} "
        f"ratio={cfg.free_rider_ratio:.2f} partition={cfg.partition} "
        f"clients={cfg.clients} rounds={cfg.rounds} trials={len(cfg.seeds)}",
        f"{'trial':>6}  {'f1':>5}  {'f1_attack':>9}  {'precision':>9}  "
        f"{'recall':>6}  {'fpr':>5}  {'final_acc':>9}",
    ]

    def row(label, over: list[list[RoundRow]]) -> str:
        mean = partial(mean_over_trials, over)
        accuracy = np.mean([rows[-1].accuracy for rows in over])
        return (
            f"{label:>6}  {_fmt(mean('f1')):>5}  {_fmt(mean('f1', True)):>9}  "
            f"{_fmt(mean('precision')):>9}  {_fmt(mean('recall')):>6}  "
            f"{_fmt(mean('fpr')):>5}  {accuracy:>9.4f}"
        )

    lines.extend(row(seed, [rows]) for seed, rows in zip(cfg.seeds, trials))
    lines.append(row("mean", trials))
    lines.append("(f1/precision/recall/fpr over rounds >= 1; f1_attack over rounds with true free-riders)")
    return lines


def _prepare_run(args) -> tuple[SimConfig, Path]:
    """Check a run's config and output path before any work.

    Returns the config with the --seed and --detector overrides applied and
    the output directory, made; raises ConfigurationError otherwise.
    """
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.detector:
        cfg = replace(cfg, detector=args.detector)
    out = Path(args.out)
    missing = [path for path in (out, *out.parents) if not os.path.lexists(path)]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in its way, a name too long, no permission
        for path in missing:  # deepest first: the parents made before a later name failed
            with contextlib.suppress(OSError):
                path.rmdir()
        raise ConfigurationError(f"--out {out}: {exc.strerror or exc}") from exc
    return cfg, out


def _exit_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def cmd_run(args) -> int:
    cfg, out = _prepare_run(args)
    # SIGTERM ends the run as an exception, so a file being written loses
    # its .tmp and the helpers are reaped, as on KeyboardInterrupt
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        trials = write_trace(cfg, run_simulation(cfg), out / "trace.jsonl")
        write_metrics_csv(cfg, trials, out / "metrics.csv")
        with atomic_write(out / "config.json") as fh:
            fh.write(json.dumps(config_to_dict(cfg), indent=2) + "\n")
        lines = summary_lines(cfg, trials)
        with atomic_write(out / "summary.txt") as fh:
            fh.write("\n".join(lines) + "\n")
    except S2wefError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    if not args.quiet:
        _print_lines(lines)
    return 0


def cmd_detect_trace(args) -> int:
    try:
        records = read_trace(args.trace)
        results = replay_trace(records, args.detector)
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    diverged = [r for r in results if r["diverged"]]
    lines = []
    if not args.quiet:
        for r in results:
            m = r["metrics"]
            status = f"DIVERGED at {r['field']}" if r["diverged"] else "ok"
            lines.append(
                f"trial {r['trial']} round {r['round']}: flagged={r['flagged']} "
                f"f1={m.f1:.2f} fpr={m.fpr:.2f} accuracy={r['accuracy']:.4f} {status}"
            )
    if not diverged:
        lines.append(f"replay consistent over {len(results)} rounds: decisions recomputed from wefs, "
                     "global_pen and roles; accuracy unchecked (rerun the header config to check it)")
    if lines:
        _print_lines(lines)
    if diverged:
        where = "; ".join(f"trial {r['trial']} round {r['round']} at {r['field']}" for r in diverged)
        print(f"{len(diverged)} diverging rounds: {where}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s2wef",
        description="Federated-learning free-rider detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the trial seed list")
    p_run.add_argument("--detector", choices=DETECTORS, default=None,
                       help="override the configured detector")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_det = sub.add_parser("detect-trace", help="replay a detector over a recorded trace")
    p_det.add_argument("--trace", required=True, help="trace.jsonl path")
    p_det.add_argument("--detector", choices=DETECTORS, default=None,
                       help="override the detector named in the trace header")
    p_det.add_argument("--quiet", action="store_true")
    p_det.set_defaults(func=cmd_detect_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:  # raised before any output is written
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
