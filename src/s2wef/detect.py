"""Server-side free-rider detection.

Two per-client scores are computed each round: gamma, the similarity of a
submitted WEF matrix to the one the server simulates from its last two
broadcasts (which is exactly what a delta-replay free-rider would upload),
and Dev, a deviation score from mutual comparison of all submitted
matrices.  Clients are clustered in the robust-standardized (gamma, Dev)
plane with Ward agglomerative clustering; validity gates may collapse the
split to a single cluster, and a majority vote of raw-score threshold
flags inside the suspicious cluster decides whether to label it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, HistoryError, ShapeError
from .wef import WefMatrix, accumulate, counterfeit_one_step

EPS = 1e-12
GAMMA_EPS = 1e-12
SILHOUETTE_MIN = 0.30
MERGE_GAP_MIN = 0.9
GAMMA_MEDIAN_FACTOR = 1.5
DEV_MAX_MARGIN = 0.05

GAMMA_COS_OVER_L1 = "cos_over_l1"
GAMMA_COS_ONLY = "cos_only"
BASELINE = "dev_threshold"

# Every detector by name: the (gamma mode, require_vote) of the clustering
# pipeline, BASELINE for the Dev threshold alone, or None for no detection.
DETECTORS: dict[str, tuple[str, bool] | str | None] = {
    "S2WEF": (GAMMA_COS_OVER_L1, True),
    "WEF_NA_BASELINE": BASELINE,
    "CLUSTER_ONLY": (GAMMA_COS_OVER_L1, False),
    "COS_ONLY_CLUSTER": (GAMMA_COS_ONLY, False),
    "NONE": None,
}


@dataclass(frozen=True)
class RoundScores:
    """Raw per-client scores and their robust-standardized 2-D embedding."""

    gamma: np.ndarray
    dev: np.ndarray
    z: np.ndarray  # shape (n, 2): columns are standardized gamma and dev


@dataclass(frozen=True)
class ClusterOutcome:
    """Result of the two-vs-one cluster decision."""

    k: int
    assignment: np.ndarray
    suspicious: frozenset[int]
    s2: float
    delta: float
    heights: np.ndarray

    def __post_init__(self):
        if self.k == 1 and self.suspicious:
            raise ConfigurationError("single-cluster outcome cannot mark anyone suspicious")


@dataclass(frozen=True)
class DetectionDecision:
    """Threshold flags, vote proportions, and the round's labels."""

    flags_gamma: np.ndarray
    flags_dev: np.ndarray
    p_gamma: float
    p_dev: float
    detected: bool
    free_rider_list: frozenset[int]


@dataclass(frozen=True)
class RoundDetection:
    """Everything the detector produced for one round."""

    scores: RoundScores
    cluster: ClusterOutcome
    decision: DetectionDecision


def _as_float_mats(wefs: Sequence[WefMatrix]) -> list[np.ndarray]:
    if not wefs:
        raise ConfigurationError("need at least one WEF matrix")
    shape = wefs[0].shape
    for m in wefs[1:]:
        if m.shape != shape:
            raise ShapeError(f"WEF shapes differ: {shape} vs {m.shape}")
    return [m.counts.astype(np.float64).ravel() for m in wefs]


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    # an all-zero matrix carries no direction: define its similarity as 0
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def deviation_statistics(wefs: Sequence[WefMatrix]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-client mean distance, mean cosine similarity, and mean entry value."""
    mats = _as_float_mats(wefs)
    n = len(mats)
    if n < 2:
        raise ConfigurationError("deviation statistics need at least 2 clients")
    dis = np.zeros(n)
    cos = np.zeros(n)
    for i in range(n):
        d_sum = c_sum = 0.0
        for j in range(n):
            if j == i:
                continue
            d_sum += float(np.linalg.norm(mats[i] - mats[j]))
            c_sum += _cosine(mats[i], mats[j])
        dis[i] = d_sum / (n - 1)
        cos[i] = c_sum / (n - 1)
    avg = np.array([m.mean() for m in mats])
    return dis, cos, avg


def dev_scores(wefs: Sequence[WefMatrix]) -> np.ndarray:
    """Deviation score: normalized distance-from-mean over three statistics.

    For each of (mean distance, mean cosine, mean entry value) the client's
    absolute deviation from the population mean is divided by the summed
    deviations; a statistic on which all clients agree contributes 0.
    """
    terms = []
    for stat in deviation_statistics(wefs):
        dev = np.abs(stat - stat.mean())
        denom = dev.sum()
        terms.append(dev / denom if denom > 0 else np.zeros_like(dev))
    return terms[0] + terms[1] + terms[2]


def simulate_global_wef(
    global_now: np.ndarray, global_prev: np.ndarray | None, e: int
) -> WefMatrix:
    """WEF pattern of the last broadcast delta, scaled to the full budget e.

    This is the counterfeit a delta-replay free-rider would upload, so
    matching against it exposes global-model-mimicking submissions.
    """
    if global_prev is None:
        raise HistoryError("simulating the global WEF needs two prior broadcasts")
    return counterfeit_one_step(global_now, global_prev, e)


def gamma_scores(
    wefs: Sequence[WefMatrix],
    simulated: WefMatrix,
    mode: str = GAMMA_COS_OVER_L1,
) -> np.ndarray:
    """Similarity of each submitted WEF to the simulated one.

    Default is cosine over L1 distance (with a tiny guard so an exact match
    is finite); cos_only drops the L1 denominator.
    """
    if mode not in (GAMMA_COS_OVER_L1, GAMMA_COS_ONLY):
        raise ConfigurationError(f"unknown gamma mode {mode!r}")
    if wefs and wefs[0].shape != simulated.shape:
        raise ShapeError(
            f"simulated WEF {simulated.shape} differs from submissions {wefs[0].shape}"
        )
    mats = _as_float_mats(wefs)
    ref = simulated.counts.astype(np.float64).ravel()
    out = np.zeros(len(mats))
    for i, m in enumerate(mats):
        c = _cosine(m, ref)
        if mode == GAMMA_COS_ONLY:
            out[i] = c
        else:
            out[i] = c / (float(np.abs(m - ref).sum()) + GAMMA_EPS)
    return out


def robust_standardize(values: Sequence[float]) -> np.ndarray:
    """Center on the median and scale by the median absolute deviation."""
    x = np.asarray(values, dtype=np.float64)
    if x.size < 1:
        raise ConfigurationError("robust_standardize needs at least one value")
    med = np.median(x)
    mad = np.median(np.abs(x - med))
    return (x - med) / (mad + EPS)


def _euclidean(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


def ward_merge_sequence(points: np.ndarray) -> list[tuple[float, frozenset[int]]]:
    """Full Ward agglomeration via the Lance-Williams recurrence.

    Each step merges the pair of clusters with minimal Ward distance; ties
    merge the lexicographically smallest pair, where a cluster is named by
    its smallest member.  Returns, per merge, the height and the member set
    of the newly formed cluster.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < 2:
        raise ConfigurationError("clustering needs at least 2 points")

    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    dist: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = _euclidean(pts[i], pts[j])

    merges: list[tuple[float, frozenset[int]]] = []
    while len(members) > 1:
        (a, b), d_ab = min(dist.items(), key=lambda kv: (kv[1], kv[0]))
        na, nb = len(members[a]), len(members[b])
        for k in members:
            if k in (a, b):
                continue
            nk = len(members[k])
            d_ka = dist[(min(a, k), max(a, k))]
            d_kb = dist[(min(b, k), max(b, k))]
            merged_sq = (
                (na + nk) * d_ka**2 + (nb + nk) * d_kb**2 - nk * d_ab**2
            ) / (na + nb + nk)
            dist[(min(a, k), max(a, k))] = float(np.sqrt(max(merged_sq, 0.0)))
        members[a] = members[a] + members[b]
        del members[b]
        dist = {pair: d for pair, d in dist.items() if b not in pair}
        merges.append((d_ab, frozenset(members[a])))
    return merges


def ward_hac(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ward clustering heights plus the two-cluster cut of the points.

    Returns all n-1 merge heights and the labels of the two-cluster cut
    (label 0 is the cluster containing client 0).
    """
    pts = np.asarray(points, dtype=np.float64)
    merges = ward_merge_sequence(pts)
    n = len(pts)
    heights = np.asarray([h for h, _ in merges])
    labels = np.zeros(n, dtype=np.int64)
    if n == 2:
        labels[1] = 1
        return heights, labels
    last_members = merges[-1][1]
    second_last = merges[-2][1]
    # the final merge joins second_last with its complement
    other = sorted(last_members - second_last)
    inside = sorted(second_last)
    if 0 in second_last:
        labels[other] = 1
    else:
        labels[inside] = 1
    return heights, labels


def silhouette_two_clusters(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette of a two-cluster partition; singletons contribute 0."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    scores = np.zeros(n)
    for i in range(n):
        own = np.flatnonzero((labels == labels[i]))
        other = np.flatnonzero(labels != labels[i])
        if len(own) <= 1 or len(other) == 0:
            continue
        a_i = float(np.mean([_euclidean(pts[i], pts[j]) for j in own if j != i]))
        b_i = float(np.mean([_euclidean(pts[i], pts[j]) for j in other]))
        top = max(a_i, b_i)
        scores[i] = (b_i - a_i) / top if top > 0 else 0.0
    return float(scores.mean())


def decide_k(heights: np.ndarray, labels: np.ndarray, points: np.ndarray) -> ClusterOutcome:
    """Keep the two-cluster split only if it passes both validity gates.

    The split collapses to one cluster when the silhouette is below 0.30 or
    the final merge-gap ratio is below 0.9.  With two clusters, the one
    whose centroid lies farther from the origin is suspicious; a norm tie
    goes to the cluster with larger mean standardized gamma.
    """
    pts = np.asarray(points, dtype=np.float64)
    s2 = silhouette_two_clusters(pts, labels)
    h_prev = float(heights[-2]) if len(heights) >= 2 else 0.0
    delta = float(heights[-1]) / (h_prev + EPS)
    k, assignment, suspicious = 1, np.zeros(len(pts), dtype=np.int64), frozenset()
    if not (s2 < SILHOUETTE_MIN or delta < MERGE_GAP_MIN):
        c0 = pts[labels == 0].mean(axis=0)
        c1 = pts[labels == 1].mean(axis=0)
        n0, n1 = float(np.linalg.norm(c0)), float(np.linalg.norm(c1))
        if n1 > n0:
            sus_label = 1
        elif n0 > n1:
            sus_label = 0
        else:
            sus_label = 1 if c1[0] > c0[0] else 0
        k, assignment = 2, labels.copy()
        suspicious = frozenset(int(i) for i in np.flatnonzero(labels == sus_label))
    return ClusterOutcome(
        k=k,
        assignment=assignment,
        suspicious=suspicious,
        s2=s2,
        delta=delta,
        heights=np.asarray(heights),
    )


def threshold_flags(
    gammas: Sequence[float], devs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Raw-score tests: gamma above 1.5x median, Dev within 0.05 of the max."""
    g = np.asarray(gammas, dtype=np.float64)
    d = np.asarray(devs, dtype=np.float64)
    if g.size < 1 or g.shape != d.shape:
        raise ConfigurationError("need matching nonempty score vectors")
    return g > GAMMA_MEDIAN_FACTOR * np.median(g), d > d.max() - DEV_MAX_MARGIN


def majority_vote(
    outcome: ClusterOutcome,
    flags_gamma: np.ndarray,
    flags_dev: np.ndarray,
    require_vote: bool = True,
) -> DetectionDecision:
    """Label the suspicious cluster when either flag rate reaches one half.

    With require_vote=False (clustering-only ablation) any two-cluster
    outcome labels the suspicious cluster directly.
    """
    sus = sorted(outcome.suspicious)
    fg = np.asarray(flags_gamma, dtype=bool)
    fd = np.asarray(flags_dev, dtype=bool)
    p_gamma = p_dev = 0.0
    detected = False
    if outcome.k != 1:
        p_gamma = float(fg[sus].mean())
        p_dev = float(fd[sus].mean())
        detected = (p_gamma >= 0.5 or p_dev >= 0.5) if require_vote else True
    return DetectionDecision(
        flags_gamma=fg,
        flags_dev=fd,
        p_gamma=p_gamma,
        p_dev=p_dev,
        detected=detected,
        free_rider_list=frozenset(sus) if detected else frozenset(),
    )


def wef_defense_baseline(devs: Sequence[float], epsilon: float = DEV_MAX_MARGIN) -> frozenset[int]:
    """Deviation-threshold baseline: flag clients with Dev above max - epsilon."""
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be > 0")
    d = np.asarray(devs, dtype=np.float64)
    return frozenset(int(i) for i in np.flatnonzero(d > d.max() - epsilon))


def empty_round_detection(n_clients: int) -> RoundDetection:
    """Benign placeholder used when no detection can run yet."""
    zeros = np.zeros(n_clients)
    return RoundDetection(
        scores=RoundScores(gamma=zeros.copy(), dev=zeros.copy(), z=np.zeros((n_clients, 2))),
        cluster=ClusterOutcome(
            k=1,
            assignment=np.zeros(n_clients, dtype=np.int64),
            suspicious=frozenset(),
            s2=0.0,
            delta=0.0,
            heights=np.zeros(0),
        ),
        decision=DetectionDecision(
            flags_gamma=np.zeros(n_clients, dtype=bool),
            flags_dev=np.zeros(n_clients, dtype=bool),
            p_gamma=0.0,
            p_dev=0.0,
            detected=False,
            free_rider_list=frozenset(),
        ),
    )


def detect_round(
    wefs: Sequence[WefMatrix],
    global_now: np.ndarray,
    global_prev: np.ndarray | None,
    e: int,
    gamma_mode: str = GAMMA_COS_OVER_L1,
    require_vote: bool = True,
) -> RoundDetection:
    """Run the full per-round pipeline over submitted WEF matrices.

    global_now / global_prev are the penultimate matrices of the two most
    recent broadcasts.  At the very first round (no previous broadcast) the
    pipeline cannot simulate the delta pattern, so everyone is treated as
    benign.
    """
    n = len(wefs)
    if n < 3:
        raise ConfigurationError("detection needs at least 3 clients")
    if global_prev is None:
        return empty_round_detection(n)

    simulated = simulate_global_wef(global_now, global_prev, e)
    gammas = gamma_scores(wefs, simulated, mode=gamma_mode)
    devs = dev_scores(wefs)
    z = np.column_stack([robust_standardize(gammas), robust_standardize(devs)])

    heights, labels = ward_hac(z)
    outcome = decide_k(heights, labels, z)
    flags_gamma, flags_dev = threshold_flags(gammas, devs)
    decision = majority_vote(outcome, flags_gamma, flags_dev, require_vote=require_vote)
    return RoundDetection(
        scores=RoundScores(gamma=gammas, dev=devs, z=z),
        cluster=outcome,
        decision=decision,
    )


def run_detector(
    name: str,
    wefs: Sequence[WefMatrix],
    global_now: np.ndarray,
    global_prev: np.ndarray | None,
    e: int,
) -> tuple[RoundDetection, frozenset[int]]:
    """Run the named detector on one round; returns its record and flagged set.

    The baseline records its Dev scores and flags outside the vote, so its
    decision stays empty and the flagged set is returned separately.
    """
    if name not in DETECTORS:
        raise ConfigurationError(f"unknown detector {name!r}; choose from {tuple(DETECTORS)}")
    spec = DETECTORS[name]
    if spec is None or global_prev is None:
        return empty_round_detection(len(wefs)), frozenset()
    if spec == BASELINE:
        devs = dev_scores(wefs)
        empty = empty_round_detection(len(wefs))
        return replace(empty, scores=replace(empty.scores, dev=devs)), wef_defense_baseline(devs)
    gamma_mode, require_vote = spec
    detection = detect_round(
        wefs, global_now, global_prev, e, gamma_mode=gamma_mode, require_vote=require_vote
    )
    return detection, detection.decision.free_rider_list


class TrialDetector:
    """What the server's detector sees over the rounds of one trial.

    Each round it scores the submitted grids against the last two
    broadcasts, so it remembers the previous broadcast's penultimate
    matrix; with accumulate it scores each client's running WEF sum
    instead of the round's grid.  The simulator and trace replay both
    drive one per trial, so a replay sees exactly what the run saw.
    """

    def __init__(self, name: str, accumulate: bool = False):
        self.name = name
        self.accumulate = accumulate
        self._prev_pen: np.ndarray | None = None
        self._sums: list[WefMatrix] | None = None

    def step(
        self, wefs: Sequence[WefMatrix], pen_now: np.ndarray, e: int
    ) -> tuple[RoundDetection, frozenset[int]]:
        """Detect on this round's submissions, broadcast pen_now, budget e."""
        if self.accumulate:
            if self._sums is not None:
                wefs = [accumulate([s, w]) for s, w in zip(self._sums, wefs)]
            self._sums = list(wefs)
        result = run_detector(self.name, wefs, pen_now, self._prev_pen, e)
        self._prev_pen = pen_now
        return result
