#!/usr/bin/env python3
"""Throughput benchmark of the s2wef simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fl_train --seed 0 --seconds 36 --trace 0

It imports the package from ``src/`` of that checkout, generates every input
from ``--seed``, and drives the public command-line entry point
(``s2wef.cli.main``) in this process.  A workload is a list of jobs; the
benchmark cycles through them for ``--seconds``, and each step runs a job
(``s2wef run``) and then replays that job's trace (``s2wef detect-trace``).
With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; times and rates are scaled by a machine-speed probe that runs
in a child interpreter (see PROBE_CODE).  With ``--trace 1`` each call of the workload's primary kind
is made twice, untraced and traced, and the line holds the per-layer metrics.
See NOTES.md for the workloads and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench_work"

DEFAULT_SEED = 0
SETUP_REPEATS = 15
# Probe time that counts as machine speed 1; it sets the scale of the reported times and rates.
PROBE_REFERENCE_S = 0.04
CHILD_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    primary: str  # "run" or "replay": the call the workload is about
    shape: dict  # the config without its seed list
    jobs: int  # one job is one `s2wef run` call of one trial and the replay of its trace
    replays: int  # replays of the job's trace per run of the job
    tiny: dict  # config overrides for the smoke test


WORKLOADS = {
    "fl_train": Workload(
        primary="run",
        shape={
            "version": 1, "clients": 10, "free_rider_ratio": 0.3, "scenario": "S1",
            "attack": {"kind": "DWA"}, "rounds": 20, "detector": "S2WEF",
        },
        jobs=10,
        replays=1,
        tiny={"rounds": 4, "hidden_layers": [32]},
    ),
    "many_clients": Workload(
        primary="run",
        shape={
            "version": 1, "clients": 200, "free_rider_ratio": 0.2, "scenario": "S1",
            "attack": {"kind": "DWA"}, "rounds": 4, "detector": "S2WEF",
            "dataset": {"samples": 4000},
        },
        jobs=3,
        replays=1,
        tiny={"clients": 20, "dataset": {"samples": 400}, "hidden_layers": [32]},
    ),
    "replay_clean": Workload(
        primary="replay",
        shape={
            "version": 1, "clients": 10, "free_rider_ratio": 0.0, "scenario": "CLEAN",
            "rounds": 30, "detector": "S2WEF",
        },
        jobs=5,
        replays=4,
        tiny={"rounds": 4, "hidden_layers": [32]},
    ),
}

END_TO_END_UNITS = {
    "client_rounds_per_s": "client-rounds/s",
    "replay_rounds_per_s": "rounds/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "trace_mb": "MB",
    "tnr": "ratio",
    "final_accuracy": "ratio",
}

# Runs in a child interpreter for the whole run and times a fixed computation,
# which uses no s2wef code, each time a line arrives on stdin: a gauge of
# machine speed.  It mixes what the program spends its time on: JSON text,
# dict-heavy pure Python and small matrix products.  Its own process keeps its
# timing independent of the benchmarked program's memory.
PROBE_CODE = r"""
import json, sys, time
import numpy as np

rng = np.random.default_rng(0)
a, b = rng.standard_normal((32, 256)), rng.standard_normal((256, 10))
record = {"w": rng.integers(0, 5, 2560).tolist(), "p": rng.standard_normal(2560).tolist()}
for _ in sys.stdin:
    start = time.perf_counter()
    for _ in range(8):
        json.loads(json.dumps(record))
    dist = {(i, j): float((i * 31 + j * 17) % 101) for i in range(60) for j in range(i + 1, 60)}
    while len(dist) > 1:
        (_, j), _ = min(dist.items(), key=lambda kv: (kv[1], kv[0]))
        dist = {pair: d + 1.0 for pair, d in dist.items() if j not in pair}
    for _ in range(600):
        a @ b
    print(time.perf_counter() - start, flush=True)
"""

# Runs in a fresh interpreter: import, config load and validation, and for run
# workloads the inputs of every trial of the first job.
SETUP_CODE = r"""
import sys, time
start = time.perf_counter()
import s2wef
from s2wef.cli import load_config
from s2wef.fedsim import build_schedule
cfg = load_config(sys.argv[1])
if sys.argv[2] == "1":
    for seed in cfg.seeds:
        data = s2wef.make_dataset(cfg.dataset, seed)
        s2wef.partition_iid(data, cfg.clients, seed)
        s2wef.init_model(cfg.architecture, seed)
        build_schedule(cfg, seed)
print(time.perf_counter() - start)
"""


@dataclass
class Job:
    index: int
    config: Path
    out: Path
    rounds: int
    client_rounds: int
    digest: str | None = None

    @property
    def trace(self) -> Path:
        return self.out / "trace.jsonl"


@dataclass
class Tally:
    """Rounds attempted and failed over every call of the run."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, rounds: int, failed: int, note: str | None = None) -> None:
        self.attempted += rounds
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="s2wef throughput benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes; skips the reference check")
    parser.add_argument(
        "--record-reference", action="store_true",
        help="write the default seed's per-round decisions to reference/ instead of comparing",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def merged(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        out[key] = merged(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def make_jobs(workload: Workload, seed: int, tiny: bool, work: Path) -> list[Job]:
    """Disjoint trial seeds per workload seed; the default seed 0 starts at trial seed 1."""
    shape = merged(workload.shape, workload.tiny) if tiny else workload.shape
    jobs_count = 2 if tiny else workload.jobs
    rounds = shape["rounds"]
    jobs = []
    for j in range(jobs_count):
        config = work / f"job{j}.json"
        config.write_text(json.dumps(dict(shape, seeds=[seed * jobs_count + j + 1])) + "\n", encoding="utf-8")
        jobs.append(Job(j, config, work / f"job{j}", rounds, rounds * shape["clients"]))
    return jobs


def file_digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def timed_cli(cli, argv: list[str]) -> tuple[bool, float]:
    """Call the CLI entry point with stdout captured; (exit code 0, wall seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return code == 0, time.perf_counter() - start


class Probe:
    """The child interpreter running PROBE_CODE, and every time it reported."""

    def __enter__(self):
        self.times: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, "-c", PROBE_CODE], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.times.append(float(self.proc.stdout.readline()))
        return self.times[-1]

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, s2wef, workload: Workload, jobs: list[Job], trace_mode: bool):
        self.s2wef = s2wef
        self.workload = workload
        self.jobs = jobs
        self.trace_mode = trace_mode
        self.tally = Tally()
        self.rates = {"run": [], "replay": []}
        self.traced_rates: list[float] = []
        self.tracers = []
        self.setup: list[float] = []
        self.setup_probes: list[float] = []  # mean of the probes taken before and after each set-up sample

    def call(self, kind: str, job: Job) -> float | None:
        """One `s2wef run` or `s2wef detect-trace` call; its rate, or None if it failed."""
        cli = self.s2wef.cli
        if kind == "run":
            ok, seconds = timed_cli(cli, ["run", "--config", str(job.config), "--out", str(job.out), "--quiet"])
            digest = file_digest(job.trace) if ok else None
            if job.digest is None:
                job.digest = digest
            ok = ok and digest is not None and digest == job.digest
            self.tally.add(job.rounds, 0 if ok else job.rounds, f"run job {job.index} failed or changed its trace")
            return job.client_rounds / seconds if ok else None
        ok, seconds = timed_cli(cli, ["detect-trace", "--trace", str(job.trace), "--detector", "S2WEF", "--quiet"])
        failed = 0 if ok else self.diverged_rounds(job)
        self.tally.add(job.rounds, failed, f"replay of job {job.index} diverged on {failed} rounds")
        return job.rounds / seconds if ok else None

    def diverged_rounds(self, job: Job) -> int:
        from s2wef.trace import read_trace, replay_trace

        try:
            results = replay_trace(read_trace(job.trace), "S2WEF")
        except Exception:
            traceback.print_exc()
            return job.rounds
        return sum(r["diverged"] for r in results) or job.rounds

    def traced_call(self, kind: str, job: Job, keep: bool) -> float | None:
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            rate = self.call(kind, job)
        if keep:
            self.tracers.append(tracer)
        return rate

    def step(self, kind: str, job: Job, first_lap: bool) -> None:
        if self.trace_mode and kind == self.workload.primary:
            # A traced and an untraced call, alternating which goes first.
            if len(self.traced_rates) % 2:
                traced = self.traced_call(kind, job, first_lap)
                plain = self.call(kind, job)
            else:
                plain = self.call(kind, job)
                traced = self.traced_call(kind, job, first_lap)
            if traced is not None:
                self.traced_rates.append(traced)
        else:
            plain = self.call(kind, job)
        if plain is not None:
            self.rates[kind].append(plain)

    def sample_setup(self, probe: Probe) -> None:
        """One set-up sample, bracketed by two probes."""
        before = probe.seconds()
        self.setup.append(setup_seconds(self.jobs[0].config, self.workload.primary == "run"))
        self.setup_probes.append((before + probe.seconds()) / 2)

    def measure(self, seconds: float, setup_repeats: int, probe: Probe) -> None:
        """Cycle through the jobs until `seconds` have passed and each job ran once.

        Each job runs, then its trace is replayed; set-up samples and probe
        times are spread evenly over the same window, so that every metric
        sees the same machine.
        """
        start = time.perf_counter()

        def more(i: int) -> bool:
            return i < len(self.jobs) or time.perf_counter() - start < seconds

        i = 0
        while more(i):
            job = self.jobs[i % len(self.jobs)]
            first_lap = i < len(self.jobs)
            due = min(setup_repeats, 1 + int(setup_repeats * (time.perf_counter() - start) / seconds))
            while len(self.setup) < due:
                self.sample_setup(probe)
            probe.seconds()
            self.step("run", job, first_lap)
            for _ in range(self.workload.replays):
                if not more(i):
                    break
                self.step("replay", job, first_lap)
            i += 1


def throughput(rates: list[float]) -> float:
    """Work done over time taken by the calls, leaving out the first (cold) call.

    Every call of one kind does the same work, so this is the harmonic mean of
    the per-call rates.
    """
    return statistics.harmonic_mean(rates[1:] if len(rates) > 2 else rates)


def quartiles(samples: list[float]) -> list[float]:
    return statistics.quantiles(samples, n=4) if len(samples) >= 2 else samples * 3


def setup_seconds(config: Path, build_inputs: bool) -> float:
    """Set-up time of one fresh interpreter, as it measures itself."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config), "1" if build_inputs else "0"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def trace_rows(path: Path) -> list[dict]:
    """Parsed fields of each trace record that the checks and quality metrics use."""
    rows = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if "round" not in rec:  # not a round record
                continue
            rows.append(
                {
                    "trial": rec["trial"],
                    "round": rec["round"],
                    "free_rider_list": sorted(rec["free_rider_list"]),
                    "accuracy": rec["accuracy"],
                    "attacked": "free_rider" in rec["roles"],
                    "f1": rec["metrics"]["f1"],
                    "fpr": rec["metrics"]["fpr"],
                }
            )
    return rows


def quality(rows: list[dict]) -> dict[str, float | None]:
    """Per-trial means over rounds >= 1 (attack rounds for f1_attack), then the mean over trials."""
    trials: dict[int, list[dict]] = {}
    for row in rows:
        trials.setdefault(row["trial"], []).append(row)
    fpr, f1_attack, final = [], [], []
    for recs in trials.values():
        active = [r for r in recs if r["round"] >= 1]
        fpr.append(statistics.fmean(r["fpr"] for r in active))
        attacked = [r["f1"] for r in active if r["attacked"]]
        if attacked:
            f1_attack.append(statistics.fmean(attacked))
        final.append(max(recs, key=lambda r: r["round"])["accuracy"])
    return {
        "fpr": statistics.fmean(fpr),
        "tnr": 1.0 - statistics.fmean(fpr),
        "f1_attack": statistics.fmean(f1_attack) if f1_attack else None,
        "final_accuracy": statistics.fmean(final),
    }


def decisions(rows: list[dict]) -> list[list]:
    return [[r["trial"], r["round"], r["free_rider_list"], r["accuracy"]] for r in rows]


def compare_reference(name: str, seed: int, observed: list[list]) -> tuple[int, int]:
    """(rounds compared, rounds that differ from the recorded reference)."""
    path = REFERENCE_DIR / f"{name}.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    if reference["seed"] != seed:
        raise ValueError(f"{path} records seed {reference['seed']}, not {seed}")
    expected = reference["rounds"]
    mismatched = abs(len(expected) - len(observed))
    for exp, obs in zip(expected, observed):
        same = exp[:3] == obs[:3] and abs(exp[3] - obs[3]) <= 1e-12
        mismatched += not same
    return max(len(expected), len(observed)), mismatched


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "s2wef").rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "S2WEF_THREADS": os.environ.get("S2WEF_THREADS"),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload_seed": seed,
    }


def load_package():
    """Import numpy and s2wef from this checkout, after the thread pools are pinned."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import s2wef
    import s2wef.cli  # noqa: F401  (loads every module the spans wrap)

    if Path(s2wef.__file__).resolve().parent != SRC / "s2wef":
        raise ImportError(f"s2wef imported from {s2wef.__file__}, not from {SRC}")
    return np, s2wef


def benchmark(args) -> int:
    if not (SRC / "s2wef" / "__init__.py").is_file():
        print(f"error: no s2wef package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.environ["S2WEF_THREADS"] = str(nproc)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    np, s2wef = load_package()

    workload = WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        jobs = make_jobs(workload, args.seed, args.tiny, work)
        bench = Bench(s2wef, workload, jobs, bool(args.trace))
        setup_repeats = 0 if args.trace else 2 if args.tiny else SETUP_REPEATS
        with Probe() as probe:
            bench.measure(args.seconds, setup_repeats, probe)
            while len(bench.setup) < setup_repeats:
                bench.sample_setup(probe)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = bench.setup

        rows = [row for job in jobs for row in trace_rows(job.trace)] if all(j.digest for j in jobs) else []
        observed = decisions(rows)
        if args.record_reference:
            if args.tiny or args.seed != DEFAULT_SEED or bench.tally.failed:
                print("error: record the reference from a clean full-size run of the default seed", file=sys.stderr)
                return 2
            REFERENCE_DIR.mkdir(exist_ok=True)
            (REFERENCE_DIR / f"{args.workload}.json").write_text(
                json.dumps({"workload": args.workload, "seed": args.seed, "rounds": observed}) + "\n",
                encoding="utf-8",
            )
        elif args.seed == DEFAULT_SEED and not args.tiny:
            compared, mismatched = compare_reference(args.workload, args.seed, observed)
            bench.tally.add(compared, mismatched, f"{mismatched} rounds differ from reference/{args.workload}.json")

        env = environment(np, args.seed)
        env["decisions_sha256"] = hashlib.sha256(json.dumps(observed).encode()).hexdigest()
        print(json.dumps({"environment": env}))

        run_rates, replay_rates = bench.rates["run"], bench.rates["replay"]
        correct = bench.tally.failed == 0 and bool(rows) and bool(run_rates) and bool(replay_rates)
        if not correct:
            for note in bench.tally.notes:
                print(f"check failed: {note}", file=sys.stderr)
            if not rows:
                print("check failed: a job wrote no trace", file=sys.stderr)
            metrics = {}
        elif args.trace:
            from spans import layer_metrics

            primary_rates = bench.rates[workload.primary]
            overhead = (throughput(primary_rates) / throughput(bench.traced_rates) - 1.0) * 100.0
            metrics = dict(layer_metrics(bench.tracers))
            metrics["trace_overhead_pct"] = (overhead, "%")
        else:
            scores = quality(rows)
            # A single probe is noisy, so the rates use the mean of all of them but the
            # first (cold) one, set-up brackets included.
            speed = PROBE_REFERENCE_S / statistics.fmean(probe.times[1:] or probe.times)
            raw = {
                "client_rounds_per_s": throughput(run_rates),
                "replay_rounds_per_s": throughput(replay_rates),
                "setup_s": statistics.median(setup),
            }
            # Each set-up sample is scaled by its own probes: a sample is short, so
            # the machine's speed during it is known better than over the run.
            scaled_setup = [s * PROBE_REFERENCE_S / p for s, p in zip(setup, bench.setup_probes)]
            metrics = {
                "client_rounds_per_s": raw["client_rounds_per_s"] / speed,
                "replay_rounds_per_s": raw["replay_rounds_per_s"] / speed,
                "setup_s": statistics.median(scaled_setup),
                "peak_rss_mb": peak_rss,
                "trace_mb": statistics.fmean(job.trace.stat().st_size for job in jobs) / 1e6,
                "tnr": scores["tnr"],
                "final_accuracy": scores["final_accuracy"],
            }
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
            print(json.dumps({"detail": {
                "machine_speed": speed,
                "unscaled": raw,
                "probe_s": probe.times,
                "setup_probe_s": bench.setup_probes,
                "samples": {"client_rounds_per_s": run_rates, "replay_rounds_per_s": replay_rates, "setup_s": setup},
                "quartiles": {
                    "client_rounds_per_s": quartiles(run_rates),
                    "replay_rounds_per_s": quartiles(replay_rates),
                    "setup_s": quartiles(setup),
                },
                "f1_attack": scores["f1_attack"],
                "fpr": scores["fpr"],
            }}))
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print(json.dumps({
            "correct": correct,
            "attempted": bench.tally.attempted,
            "failed": bench.tally.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def main(argv=None) -> int:
    return benchmark(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
