"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Simulation-backed criteria share a memoized run cache so each experiment
executes once per session.  The pass/fail lines are written through the
capture-proof stream so they always appear in the console output.
"""

import time

import numpy as np

from s2wef.attacks import AttackParams, dwa
from s2wef.config import DatasetParams, SimConfig
from s2wef.detect import (
    detect_round,
    pairwise_distances,
    simulate_global_wef,
)
from s2wef.fedsim import run_simulation
from s2wef.nn import Layout, TrainConfig, init_model
from s2wef.trace import RoundRow, mean_over_trials, write_trace
from s2wef.wef import build_wef

from conftest import ACCEPTANCE_LINES
from test_detect_oracle import ward_merge_sequence

ATTACKS = ("RWA", "SPA", "DWA", "ADWA", "AWCA")


def announce(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"CRITERION {number:2d} {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)


def base_config(**overrides) -> SimConfig:
    defaults = dict(
        clients=10,
        free_rider_ratio=0.3,
        scenario="S1",
        attack=AttackParams(kind="DWA"),
        rounds=20,
        train=TrainConfig(learning_rate=0.1, momentum=0.0, batch_size=32, local_iterations=5),
        detector="S2WEF",
        seeds=(1, 2, 3),
        dataset=DatasetParams(),
        hidden_layers=(256,),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


_CACHE: dict = {}


def report_for(kind: str, scenario: str, ratio: float, detector: str, **extra):
    key = (kind, scenario, ratio, detector, tuple(sorted(extra.items())))
    if key not in _CACHE:
        cfg = base_config(
            attack=AttackParams(kind=kind) if kind else None,
            scenario=scenario,
            free_rider_ratio=ratio,
            detector=detector,
            **extra,
        )
        _CACHE[key] = [[RoundRow.of(rec) for rec in records] for records in run_simulation(cfg)]
    return _CACHE[key]


def clean_report(detector: str):
    key = ("CLEAN", detector)
    if key not in _CACHE:
        cfg = base_config(
            attack=None, scenario="CLEAN", free_rider_ratio=0.0,
            detector=detector, rounds=30, seeds=(1, 2, 3, 4, 5),
        )
        _CACHE[key] = [[RoundRow.of(rec) for rec in records] for records in run_simulation(cfg)]
    return _CACHE[key]


# --- criterion 1: clustering oracle ------------------------------------------------

def naive_ward_merges(points):
    pts = np.asarray(points, dtype=float)
    clusters = {i: [i] for i in range(len(pts))}
    merges = []

    def cost(a, b):
        pa, pb = pts[clusters[a]], pts[clusters[b]]
        na, nb = len(pa), len(pb)
        gap = pa.mean(axis=0) - pb.mean(axis=0)
        return float(np.sqrt(2.0 * na * nb / (na + nb)) * np.linalg.norm(gap))

    while len(clusters) > 1:
        keys = sorted(clusters)
        d, a, b = min(
            ((cost(a, b), a, b) for i, a in enumerate(keys) for b in keys[i + 1:]),
            key=lambda t: (t[0], t[1], t[2]),
        )
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
        merges.append((d, frozenset(clusters[a])))
    return merges


def test_criterion_1_clustering_oracle():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(3, 9))
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        mine = ward_merge_sequence(pairwise_distances(pts))
        oracle = naive_ward_merges(pts)
        assert [m for _, m in mine] == [m for _, m in oracle], f"case {case}: partitions differ"
        gap = max(abs(h1 - h2) for (h1, _), (h2, _) in zip(mine, oracle))
        worst = max(worst, gap)
        assert gap <= 1e-9, f"case {case}: height gap {gap}"
    elapsed = time.monotonic() - start
    ok = elapsed < 5.0
    announce(1, "clustering oracle", ok,
             f"200 cases, max height gap {worst:.2e}, {elapsed:.2f}s")
    assert ok


# --- criterion 2: WEF oracle ----------------------------------------------------

def test_criterion_2_wef_oracle():
    rng = np.random.default_rng(7)
    for case in range(100):
        h, w = rng.integers(1, 5, size=2)
        e = int(rng.integers(0, 6))
        snaps = [rng.normal(size=(h, w)) for _ in range(e + 1)]
        counts = np.zeros((h, w), dtype=int)
        for prev, curr in zip(snaps[:-1], snaps[1:]):
            delta = np.abs(curr - prev)
            alpha = sum(delta.ravel().tolist()) / (h * w)
            for j in range(h):
                for k in range(w):
                    if delta[j, k] > alpha:
                        counts[j, k] += 1
        np.testing.assert_array_equal(build_wef(snaps), counts, err_msg=f"case {case}")
    announce(2, "WEF construction oracle", True, "100 random sequences exact")


# --- criterion 3: simulated matrix equals the delta-replay counterfeit ---------------

def test_criterion_3_dwa_equality():
    rng = np.random.default_rng(99)
    for case in range(50):
        layout = Layout([4, int(rng.integers(3, 9)), int(rng.integers(2, 5))])
        model = init_model(layout.sizes, seed=int(rng.integers(1_000_000)))
        prev = model + rng.normal(0, 0.05, layout.num_params)
        e = int(rng.integers(1, 9))
        _, wef = dwa(layout, model, prev, e)
        simulated = simulate_global_wef(layout.penultimate(model), layout.penultimate(prev), e)
        np.testing.assert_array_equal(wef, simulated, err_msg=f"case {case}")
    announce(3, "delta-replay equality", True, "50 random global pairs exact")


# --- criteria 4-5: DWA / AWCA desk-scale trends -----------------------------------

def trend(kind: str):
    start = time.monotonic()
    s2 = mean_over_trials(report_for(kind, "S1", 0.3, "S2WEF"), "f1", attack_only=True)
    baseline = mean_over_trials(report_for(kind, "S1", 0.3, "WEF_NA_BASELINE"), "f1", attack_only=True)
    return s2, baseline, time.monotonic() - start


def test_criterion_4_dwa_trend():
    s2, baseline, elapsed = trend("DWA")
    ok = s2 >= 0.90 and baseline <= 0.60 and elapsed < 60
    announce(4, "DWA trend", ok,
             f"S2-WEF F1 {s2:.3f} (>=0.90), baseline {baseline:.3f} (<=0.60), {elapsed:.0f}s")
    assert ok


def test_criterion_5_awca_trend():
    s2, baseline, _ = trend("AWCA")
    ok = s2 >= 0.90 and baseline <= 0.60
    announce(5, "AWCA trend", ok,
             f"S2-WEF F1 {s2:.3f} (>=0.90), baseline {baseline:.3f} (<=0.60)")
    assert ok


# --- criterion 6: remaining attacks ------------------------------------------------

def test_criterion_6_remaining_attacks():
    cells = {}
    for kind in ("RWA", "SPA", "ADWA"):
        for scenario in ("S1", "S2"):
            for ratio in (0.1, 0.3):
                f1 = mean_over_trials(report_for(kind, scenario, ratio, "S2WEF"), "f1", attack_only=True)
                cells[(kind, scenario, ratio)] = f1
    worst = min(cells, key=cells.get)
    ok = cells[worst] >= 0.90
    announce(6, "RWA/SPA/ADWA coverage", ok,
             f"min F1 {cells[worst]:.3f} at {worst} (>=0.90 in all 12 cells)")
    assert ok, cells


# --- criterion 7: scenario robustness -----------------------------------------------

def test_criterion_7_scenario_robustness():
    gaps = {}
    for kind in ATTACKS:
        for ratio in (0.1, 0.3):
            f1_s1 = mean_over_trials(report_for(kind, "S1", ratio, "S2WEF"), "f1", attack_only=True)
            f1_s2 = mean_over_trials(report_for(kind, "S2", ratio, "S2WEF"), "f1", attack_only=True)
            gaps[(kind, ratio)] = abs(f1_s1 - f1_s2)
    worst = max(gaps, key=gaps.get)
    ok = gaps[worst] <= 0.10
    announce(7, "scenario robustness", ok,
             f"max |F1(S1)-F1(S2)| {gaps[worst]:.3f} at {worst} (<=0.10)")
    assert ok, gaps


# --- criterion 8: majority-vote ablation ----------------------------------------------

def test_criterion_8_vote_ablation():
    fpr_full = mean_over_trials(clean_report("S2WEF"), "fpr")
    fpr_cluster = mean_over_trials(clean_report("CLUSTER_ONLY"), "fpr")
    bound = 0.6 * fpr_cluster + 0.02
    ok = fpr_full <= bound
    announce(8, "vote ablation", ok,
             f"FPR full {fpr_full:.3f} <= 0.6 x {fpr_cluster:.3f} + 0.02 = {bound:.3f}")
    assert ok


# --- criterion 9: L1-term ablation ------------------------------------------------------

def test_criterion_9_l1_ablation():
    f1_ratio = mean_over_trials(report_for("DWA", "S1", 0.3, "CLUSTER_ONLY"), "f1", attack_only=True)
    f1_cos = mean_over_trials(report_for("DWA", "S1", 0.3, "COS_ONLY_CLUSTER"), "f1", attack_only=True)
    ok = f1_ratio >= f1_cos
    announce(9, "L1-term ablation", ok,
             f"cos/L1 F1 {f1_ratio:.3f} >= cos-only F1 {f1_cos:.3f}")
    assert ok


# --- criterion 10: main-task accuracy ----------------------------------------------------

def test_criterion_10_main_task_accuracy():
    acc_fedavg = float(np.mean([rows[-1].accuracy for rows in clean_report("NONE")]))
    acc_clean = float(np.mean([rows[-1].accuracy for rows in clean_report("S2WEF")]))
    acc_awca = float(np.mean([rows[-1].accuracy for rows in report_for("AWCA", "S1", 0.3, "S2WEF")]))
    clean_gap = abs(acc_clean - acc_fedavg)
    awca_gap = abs(acc_awca - acc_fedavg)
    ok = clean_gap <= 0.01 and awca_gap <= 0.02
    announce(10, "main-task accuracy", ok,
             f"clean gap {clean_gap:.4f} (<=0.01), AWCA-30% gap {awca_gap:.4f} (<=0.02); "
             f"FedAvg {acc_fedavg:.3f}")
    assert ok


# --- criterion 11: determinism ------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    cfg = base_config(rounds=6, seeds=(1,), hidden_layers=(64,))
    blobs = []
    for run in (1, 2):
        path = tmp_path / f"trace_{run}.jsonl"
        write_trace(cfg, run_simulation(cfg), path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    announce(11, "determinism", ok,
             f"byte-identical traces from two independent runs ({len(blobs[0])} bytes)")
    assert ok


# --- criterion 12: invariant sweep ----------------------------------------------------------

def test_criterion_12_invariant_suite():
    rng = np.random.default_rng(31)
    checks = 0

    # WEF bounds and monotonicity
    for _ in range(30):
        e = int(rng.integers(1, 6))
        snaps = [rng.normal(size=(3, 4)) for _ in range(e + 1)]
        f = build_wef(snaps)
        assert 0 <= f.min() and f.max() <= e
        checks += 1

    # detection pipeline invariants on random synthetic rounds
    for _ in range(25):
        n = int(rng.integers(4, 9))
        e = 5
        now = rng.normal(size=(4, 4))
        prev = now + rng.normal(0, 0.1, size=(4, 4))
        wefs = [rng.integers(0, e + 1, size=(4, 4)) for _ in range(n)]
        result = detect_round(wefs, now, prev, e)
        assert result.decision.free_rider_list <= result.cluster.suspicious
        if result.cluster.k == 1:
            assert not result.decision.free_rider_list
        assert -1.0 <= result.cluster.s2 <= 1.0
        assert (np.diff(result.cluster.heights) >= -1e-9).all()
        checks += 1

    # permutation equivariance of the decision
    wefs = [rng.integers(0, 6, size=(4, 4)) for _ in range(7)]
    now = rng.normal(size=(4, 4))
    prev = now + rng.normal(0, 0.1, size=(4, 4))
    base = detect_round(wefs, now, prev, 5)
    perm = list(rng.permutation(7))
    permuted = detect_round([wefs[p] for p in perm], now, prev, 5)
    mapped = frozenset(perm.index(i) for i in base.decision.free_rider_list)
    assert permuted.decision.free_rider_list == mapped
    np.testing.assert_allclose(permuted.scores.gamma, base.scores.gamma[perm], rtol=1e-12)
    checks += 1

    announce(12, "invariant suite", True, f"{checks} invariant checks passed")
