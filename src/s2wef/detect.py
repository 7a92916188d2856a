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

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .wef import counterfeit_one_step

EPS = 1e-12
ROUNDING_TOL = 1e-12  # relative gap within which scores tie: Dev sums in client order
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


@dataclass(frozen=True)
class DetectionDecision:
    """Threshold flags, vote proportions, and the round's labels:
    free_rider_list is the flagged set under every detector, the baseline's
    (whose flags and vote stay empty) included."""

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


# Grids are small non-negative integers, so Gram entries, squared norms,
# dots and L1 distances between grids are integers that float64 holds
# exactly, in any summation order: distances and cosines built from them
# equal np.linalg.norm of each pair to the bit, wherever the blocks below
# split the columns.  That holds while every count, and so the budget e,
# keeps 2 * h*w * e**2 below _EXACT_LIMIT (exact_budget); the config and the
# trace reader refuse a larger e, so the detector takes any grids they pass.
_EXACT_LIMIT = 2**53
# Grid entries per float block (at most 410 KB): gamma and Dev take their
# products block by block, never holding the stack as floats at once.  A block
# is sized in entries, so a 10-client round of 256 x 10 grids is one block.
_BLOCK_ENTRIES = 51_200
# float32 holds every integer up to 2**24 exactly, so when h*w * peak**2
# stays below it every product, partial sum and total of the grids' h*w
# entries is an exact integer in float32 too, in whatever order BLAS adds
# them; the blocks add up in float64.
_FLOAT32_EXACT = 2**24


def exact_budget(cells: int) -> int:
    """The largest budget e for grids of cells entries whose distances stay
    exact: the largest e with 2 * cells * e**2 < 2**53."""
    return math.isqrt((_EXACT_LIMIT - 1) // (2 * cells))


def _float_blocks(x: np.ndarray, peak: int):
    """Consecutive float column blocks of an integer (..., n, g) stack whose
    entries, and those of whatever its blocks meet, lie in [0, peak], with
    their column slices; a block holds about _BLOCK_ENTRIES entries, in
    float32 when g * peak**2 < _FLOAT32_EXACT and in float64 otherwise."""
    dtype = np.float32 if x.shape[-1] * peak**2 < _FLOAT32_EXACT else np.float64
    width = max(1, _BLOCK_ENTRIES // max(1, math.prod(x.shape[:-1])))
    for start in range(0, x.shape[-1], width):
        cols = slice(start, start + width)
        yield cols, x[..., cols].astype(dtype)


def _cosines(dots: np.ndarray, denom: np.ndarray) -> np.ndarray:
    # an all-zero grid carries no direction: its similarity is 0
    return np.divide(dots, denom, out=np.zeros_like(denom), where=denom > 0)


def deviation_statistics(grids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-client mean distance, mean cosine similarity, and mean entry value.

    grids is a round's (n, h, w) integer submissions, n >= 2, or (..., n, h, w)
    grids of several rounds, each scored against its own round.
    """
    x = grids.reshape(*grids.shape[:-2], -1)
    n, size = x.shape[-2:]
    gram = np.zeros((*x.shape[:-1], n))
    total = np.zeros(x.shape[:-1])
    for _, block in _float_blocks(x, int(x.max(initial=0))):
        gram += block @ block.mT
        total += block.sum(axis=-1)
    sq = np.diagonal(gram, axis1=-2, axis2=-1)
    dist = np.sqrt(sq[..., :, None] + sq[..., None, :] - 2.0 * gram)
    norms = np.sqrt(sq)
    cos = _cosines(gram, norms[..., :, None] * norms[..., None, :])
    diagonal = np.arange(n)
    cos[..., diagonal, diagonal] = 0.0
    # both matrices are symmetric to the bit, so summing down a column adds
    # client j's term in j order, the left-to-right order of a per-client
    # sum over j, and the means round the same way
    return dist.sum(axis=-2) / (n - 1), cos.sum(axis=-2) / (n - 1), total / size


def dev_scores(grids: np.ndarray) -> np.ndarray:
    """Deviation score of each of (n, h, w) grids: normalized distance-from-mean.

    For each of (mean distance, mean cosine, mean entry value) the client's
    absolute deviation from the population mean is divided by the summed
    deviations; a statistic on which all clients agree up to rounding
    contributes 0.  (..., n, h, w) grids give (..., n) scores, each round on its own.
    """
    terms = []
    for stat in deviation_statistics(grids):
        mean = stat.mean(axis=-1, keepdims=True)
        dev = np.abs(stat - mean)
        dev = np.where(dev.max(axis=-1, keepdims=True) <= ROUNDING_TOL * np.abs(mean), 0.0, dev)
        denom = dev.sum(axis=-1, keepdims=True)
        terms.append(np.divide(dev, denom, out=np.zeros_like(dev), where=denom > 0))
    return terms[0] + terms[1] + terms[2]


def simulate_global_wef(global_now: np.ndarray, global_prev: np.ndarray, e: int) -> np.ndarray:
    """WEF pattern of the last broadcast delta, scaled to the full budget e.

    This is the counterfeit a delta-replay free-rider would upload, so
    matching against it exposes global-model-mimicking submissions.
    (..., h, w) broadcasts give one grid per round.
    """
    return counterfeit_one_step(global_now, global_prev, e)


def gamma_scores(
    grids: np.ndarray,
    simulated: np.ndarray,
    mode: str = GAMMA_COS_OVER_L1,
) -> np.ndarray:
    """Similarity of each of (n, h, w) submitted grids to the simulated
    one, an integer grid of 0 and e.

    Default is cosine over L1 distance (with a tiny guard so an exact match
    is finite); cos_only drops the L1 denominator.  (..., n, h, w) grids
    take (..., h, w) simulated grids, one per round.
    """
    x = grids.reshape(*grids.shape[:-2], -1)
    ref = simulated.reshape(*simulated.shape[:-2], 1, -1)
    sq, dots, l1 = np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1])
    ref_sq = np.zeros(ref.shape[:-1])
    # a simulated grid holds 0 and e
    for cols, block in _float_blocks(x, max(int(x.max(initial=0)), int(ref.max(initial=0)))):
        part = ref[..., cols].astype(block.dtype)
        ref_sq += np.einsum("...ij,...ij->...i", part, part)
        sq += np.einsum("...ij,...ij->...i", block, block)
        dots += (block @ part.mT)[..., 0]
        block -= part
        l1 += np.abs(block, out=block).sum(axis=-1)
    cos = _cosines(dots, np.sqrt(sq) * np.sqrt(ref_sq))
    return cos if mode == GAMMA_COS_ONLY else cos / (l1 + GAMMA_EPS)


def _median(x: np.ndarray) -> np.ndarray:
    """np.median over the last axis, kept as an axis of length 1: the middle
    of the sorted values, or the mean of the middle two as np.median rounds
    it."""
    s = np.sort(x, axis=-1)
    m = s.shape[-1] // 2
    return s[..., m:m + 1] if s.shape[-1] % 2 else (s[..., m - 1:m] + s[..., m:m + 1]) / 2


def robust_standardize(values: Sequence[float]) -> np.ndarray:
    """Center on the median and scale by the median absolute deviation, over
    the last axis.  A MAD of rounding is not scaled up: then the values
    equal to the median up to rounding standardize to 0."""
    x = np.asarray(values, dtype=np.float64)
    med = _median(x)
    dev, tol = np.abs(x - med), ROUNDING_TOL * np.abs(med)
    centered = np.where((dev <= tol) & (_median(dev) <= tol), 0.0, x - med)
    return centered / (_median(np.abs(centered)) + EPS)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """(..., n, n) Euclidean distances between the rows of (..., n, d) points."""
    # vecdot is the BLAS dot np.linalg.norm takes on a 1-D difference, so
    # every entry equals norm(pts[i] - pts[j]) to the bit; hypot, x*x + y*y
    # and norm(axis=-1) round differently
    pts = np.asarray(points, dtype=np.float64)
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    dist = np.vecdot(diff, diff)
    return np.sqrt(dist, out=dist)


def _squares(values: np.ndarray) -> np.ndarray:
    # libm pow per element, the rounding of Python's float ** 2 that the
    # recurrence is defined with; x*x and np.power differ from it in the
    # last bit now and then
    return np.float_power(values, 2.0)


# Ward checks none of its distances: the z plane is bounded.  gamma <=
# 1/GAMMA_EPS = 1e12 and Dev <= 3, so |z| <= 1e12/EPS = 1e24, distances
# stay below 3e24 and their squares below 1e49, and a Ward update scales
# squares by cluster sizes (x200 at 200 clients), far below float64's
# 1.8e308.  pairwise_distances is symmetric to the bit, as the recurrence
# and the argmin tie-break, which read one triangle for both, need.
def _ward_merges(distances: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Full Ward agglomeration via the Lance-Williams recurrence.

    Starts from the pairwise_distances of n >= 2 points (left unmodified).
    Each step merges the pair of clusters with minimal Ward distance; ties
    merge the lexicographically smallest pair, where a cluster is named by
    its smallest member.  Returns each merge's height, and the names
    (a, b), a < b, of the clusters it joins, of which a names the merged
    cluster.
    """
    dist = np.array(distances, dtype=np.float64)
    n = len(dist)
    # dist[i, j] is the Ward distance of the clusters names[i] and names[j],
    # +inf on the diagonal and for merged-away rows, whose size is 0; names
    # ascend and dist is symmetric, so the first row-major argmin is the
    # lexicographically smallest minimal pair.  The recurrence keeps inf
    # entries inf, so each merge updates whole rows; once half the rows are
    # merged away, the live ones move to a smaller matrix.  Each merge squares
    # the two rows it reads.
    np.fill_diagonal(dist, np.inf)
    names, size = list(range(n)), np.ones(n)
    heights, pairs = np.empty(n - 1), []
    for step, live in enumerate(range(n, 1, -1)):
        if 2 * live <= len(dist):
            keep = size.nonzero()[0]
            dist, size = dist[keep[:, None], keep], size[keep]
            names = [names[k] for k in keep.tolist()]
        i, j = divmod(int(np.argmin(dist)), len(dist))
        sq_i, sq_j = _squares(dist[i]), _squares(dist[j])
        ni, nj = size[i], size[j]
        heights[step] = dist[i, j]
        merged_sq = ((ni + size) * sq_i + (nj + size) * sq_j - size * sq_i[j]) / (ni + nj + size)
        np.sqrt(np.maximum(merged_sq, 0.0, out=merged_sq), out=dist[i])
        dist[:, i] = dist[i]
        dist[j] = dist[:, j] = np.inf
        size[i], size[j] = ni + nj, 0.0
        pairs.append((names[i], names[j]))
    return heights, pairs


def ward_hac(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ward clustering heights plus the two-cluster cut of the points.

    Takes the points' pairwise_distances.  Returns all n-1 merge heights and
    the labels of the two-cluster cut (label 0 is the cluster containing
    client 0).
    """
    heights, pairs = _ward_merges(dist)
    # owner[c] is the name client c's cluster has after the first n - 2
    # merges, found backwards: b takes the final name of a, which absorbed it
    owner = list(range(len(dist)))
    for a, b in reversed(pairs[:-1]):
        owner[b] = owner[a]
    return heights, (np.array(owner) != 0).astype(np.int64)


def _ward_rounds(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ward_hac over each of R rounds' (R, n, n) pairwise_distances at once:
    the (R, n - 1) heights and (R, n) two-cluster labels, each round's to
    the bit.

    Each merge updates every round's matrix with _ward_merges' arithmetic,
    on the matrix's full size.  A round's cut is read from its recorded
    merge pairs as ward_hac reads it.
    """
    rounds, n = dist.shape[:2]
    dist = dist.copy()
    diagonal, r = np.arange(n), np.arange(rounds)
    dist[:, diagonal, diagonal] = np.inf
    size = np.ones((rounds, n))
    heights = np.empty((rounds, n - 1))
    pairs = []
    for step in range(n - 1):
        a, b = np.divmod(dist.reshape(rounds, -1).argmin(axis=1), n)
        heights[:, step] = dist[r, a, b]
        sq_a, sq_b = _squares(dist[r, a]), _squares(dist[r, b])
        na, nb, sq_ab = size[r, a, None], size[r, b, None], sq_a[r, b, None]
        merged_sq = ((na + size) * sq_a + (nb + size) * sq_b - size * sq_ab) / (na + nb + size)
        dist[r, a] = dist[r, :, a] = np.sqrt(np.maximum(merged_sq, 0.0))
        dist[r, b] = dist[r, :, b] = np.inf
        size[r, a] = (na + nb)[:, 0]
        pairs.append((a, b))
    owner = np.tile(diagonal, (rounds, 1))
    for a, b in reversed(pairs[:-1]):
        owner[r, b] = owner[r, a]
    return heights, (owner != 0).astype(np.int64)


def silhouette_two_clusters(dist: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    """Mean silhouette of a two-cluster partition, from (..., n, n)
    pairwise_distances and (..., n) labels: a float for one round, one per
    round for several.  A singleton scores 0, as does a single cluster.

    A stable sort lays each row out as its own cluster but itself, the
    other cluster, then itself, each in client order, so each mean sums one
    compact run, as np.mean over that client's list of distances would;
    rows are taken in groups of one own-cluster size, since numpy's
    pairwise summation groups terms by run length and padding would move
    the last bit.
    """
    labels = np.asarray(labels)
    n = labels.shape[-1]
    same = labels[..., :, None] == labels[..., None, :]
    own = same.sum(axis=-1).ravel()  # each row's cluster size, itself included
    key = (~same).view(np.int8)
    diagonal = np.arange(n)
    key[..., diagonal, diagonal] = 2
    rows = np.take_along_axis(dist, np.argsort(key, axis=-1, kind="stable"), axis=-1).reshape(-1, n)
    scores = np.zeros(len(rows))
    for m in np.unique(own).tolist():
        if m == 1 or m == n:
            continue
        pick = np.flatnonzero(own == m)
        block = rows[pick]
        a = block[:, :m - 1].sum(axis=1) / (m - 1)
        b = block[:, m - 1:-1].sum(axis=1) / (n - m)
        top = np.maximum(a, b)
        scores[pick] = np.divide(b - a, top, out=np.zeros(len(pick)), where=top > 0)
    means = scores.reshape(labels.shape).mean(axis=-1)
    return float(means) if labels.ndim == 1 else means


def decide_k(heights: np.ndarray, labels: np.ndarray, points: np.ndarray, s2: float) -> ClusterOutcome:
    """Keep the two-cluster split, whose silhouette is s2, only if it passes
    both validity gates.

    The split collapses to one cluster when the silhouette is below 0.30 or
    the final merge-gap ratio is below 0.9.  With two clusters, the one
    whose centroid lies farther from the origin is suspicious; a norm tie
    goes to the cluster with larger mean standardized gamma, then Dev.
    """
    pts = np.asarray(points, dtype=np.float64)
    h_prev = float(heights[-2]) if len(heights) >= 2 else 0.0
    delta = float(heights[-1]) / (h_prev + EPS)
    k, assignment, suspicious = 1, np.zeros(len(pts), dtype=np.int64), frozenset()
    if not (s2 < SILHOUETTE_MIN or delta < MERGE_GAP_MIN):
        c0 = pts[labels == 0].mean(axis=0)
        c1 = pts[labels == 1].mean(axis=0)
        # farther centroid, then larger gamma, then larger Dev; a full tie is 0
        sus_label = int((np.linalg.norm(c1), *c1) > (np.linalg.norm(c0), *c0))
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


def _dev_near_max(d: np.ndarray) -> np.ndarray:
    """The Dev rule of the vote and the baseline: within 0.05 of the max."""
    return d > d.max(axis=-1, keepdims=True) - DEV_MAX_MARGIN


def threshold_flags(
    gammas: Sequence[float], devs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Raw-score tests over the last axis: gamma above 1.5x median, Dev
    within 0.05 of the max."""
    g = np.asarray(gammas, dtype=np.float64)
    d = np.asarray(devs, dtype=np.float64)
    return g > GAMMA_MEDIAN_FACTOR * _median(g), _dev_near_max(d)


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


def wef_defense_baseline(devs: Sequence[float]) -> frozenset[int]:
    """Deviation-threshold baseline: flag clients with Dev within 0.05 of the max."""
    return frozenset(int(i) for i in np.flatnonzero(_dev_near_max(np.asarray(devs, dtype=np.float64))))


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


def _scores(grids: np.ndarray, simulated: np.ndarray, gamma_mode: str) -> tuple[np.ndarray, ...]:
    """The score stage of (..., n, h, w) checked grids against their
    (..., h, w) simulated grids: gamma, Dev, z, the distances in the z plane,
    and the gamma and Dev threshold flags, each with the grids' leading axes."""
    gammas = gamma_scores(grids, simulated, mode=gamma_mode)
    devs = dev_scores(grids)
    z = np.stack([robust_standardize(gammas), robust_standardize(devs)], axis=-1)
    flags_gamma, flags_dev = threshold_flags(gammas, devs)
    return gammas, devs, z, pairwise_distances(z), flags_gamma, flags_dev


def detect_round(
    wefs: Sequence[np.ndarray],
    global_now: np.ndarray,
    global_prev: np.ndarray,
    e: int,
    gamma_mode: str = GAMMA_COS_OVER_L1,
    require_vote: bool = True,
    *,
    scores: tuple[np.ndarray, ...] | None = None,
    clusters: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> RoundDetection:
    """Run the full per-round pipeline over the round's (n, h, w) WEF grids.

    global_now / global_prev are the penultimate matrices of the round's
    broadcast and the one before it (a trial's round 0 has none, and
    detect_trial leaves it empty).  scores is the round's score stage
    (_scores), and clusters its Ward heights, two-cluster labels and
    silhouette, as _detect_rounds takes them for a chunk of rounds; called
    alone, the round takes both here.
    """
    if scores is None:
        scores = _scores(np.asarray(wefs), simulate_global_wef(global_now, global_prev, e), gamma_mode)
        heights, labels = ward_hac(scores[3])
        clusters = heights, labels, silhouette_two_clusters(scores[3], labels)
    gammas, devs, z, _, flags_gamma, flags_dev = scores
    heights, labels, s2 = clusters
    outcome = decide_k(heights, labels, z, s2)
    decision = majority_vote(outcome, flags_gamma, flags_dev, require_vote=require_vote)
    return RoundDetection(
        scores=RoundScores(gamma=gammas, dev=devs, z=z),
        cluster=outcome,
        decision=decision,
    )


def _baseline(devs: np.ndarray) -> RoundDetection:
    # the baseline records its Dev scores and flags outside the vote: its
    # flags and vote stay empty
    empty = empty_round_detection(len(devs))
    decision = replace(empty.decision, free_rider_list=wef_defense_baseline(devs))
    return replace(empty, scores=replace(empty.scores, dev=devs), decision=decision)


def _detect_rounds(
    name: str, wefs: Sequence[np.ndarray], pens: Sequence[np.ndarray], e: int
) -> list[RoundDetection]:
    """The named detector on each of R consecutive rounds of a trial, none
    of them its round 0.  The rounds' score stage, Ward and the silhouette
    are each taken in one pass; Ward is ward_hac for a single round, each
    round of a run, which is faster on one round, and _ward_rounds for more.

    wefs holds the rounds' (n, h, w) grids and pens R + 1 broadcasts: the
    one before the first round, then each round's.
    """
    spec = DETECTORS[name]
    if spec is None:
        return [empty_round_detection(len(wefs[0])) for _ in wefs]
    grids = wefs[0][None] if len(wefs) == 1 else np.stack(wefs)  # one round's grids stay uncopied
    if spec == BASELINE:
        return [_baseline(devs) for devs in dev_scores(grids)]
    gamma_mode, require_vote = spec
    pens = np.stack(pens)
    scores = _scores(grids, simulate_global_wef(pens[1:], pens[:-1], e), gamma_mode)
    dist = scores[3]
    heights, labels = _ward_rounds(dist) if len(grids) > 1 else (x[None] for x in ward_hac(dist[0]))
    clusters = zip(heights, labels, silhouette_two_clusters(dist, labels).tolist())
    return [
        detect_round(
            grids[k], pens[k + 1], pens[k], e, gamma_mode=gamma_mode, require_vote=require_vote,
            scores=tuple(s[k] for s in scores), clusters=cluster,
        )
        for k, cluster in enumerate(clusters)
    ]


# Transient arrays a chunk of detect_trial may hold: 200-client rounds of
# 256 x 10 grids are scored one at a time, 10-client rounds 11 at a time,
# and replay peaks below 2.8 MB of detector arrays (tracemalloc).
_CHUNK_BYTES = 4_000_000


def _chunk_rounds(n: int, h: int, w: int) -> int:
    """How many rounds of n clients' h x w grids detect_trial scores in one pass."""
    # at most one float64 block of _BLOCK_ENTRIES, and per round: the stacked
    # grids (8 bytes an entry, the widest wef_dtype), five float64 h x w
    # arrays that simulate the broadcast's WEF, nine float64 n x n arrays of
    # Gram entries, distances and cosines, and the cluster stage's four:
    # Ward's distances, and the silhouette's keys, sort order and sorted rows
    per_round = 8 * n * h * w + 40 * h * w + 104 * n * n
    return max(1, (_CHUNK_BYTES - 8 * _BLOCK_ENTRIES) // per_round)


def detect_trial(
    name: str, wefs: Sequence[np.ndarray], pens: Sequence[np.ndarray], e: int, first: int = 0
) -> list[RoundDetection]:
    """The named detector's decisions on rounds first, first + 1, ... of a
    trial with one budget e, given the (n, h, w) WEF grids and the broadcast
    penultimate matrix of each of the trial's rounds so far, as lists or
    array views.  The grids hold counts in [0, e] of 3 clients or more, and
    e is at most exact_budget(h * w), as the config and the trace reader
    require.  Round 0 has no broadcast before it and is empty under every
    detector.

    The run detects its newest round (first = t); replay hands in a whole
    trial, scored a chunk at a time.  Each round's result is, to the bit,
    what a chunk of one gives.
    """
    size = _chunk_rounds(*np.shape(wefs[0])) if len(wefs) - first > 1 else 1
    results = [empty_round_detection(len(wefs[0]))] if first == 0 else []
    for start in range(max(first, 1), len(wefs), size):
        results += _detect_rounds(name, wefs[start:start + size], pens[start - 1:start + size], e)
    return results
