"""Bit-exact oracle for the vectorized detector.

The scalar pair loops below are the detector's original definitions of the
deviation statistics, gamma, the Ward merge sequence and the silhouette.
The matrix code in s2wef.detect must reproduce every float they produce to
the last bit, because those floats are written to traces and replayed.
The inputs lean on ties: blocks of identical grids (DWA colluders),
all-equal and all-zero grids, and duplicated points in the z plane.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from s2wef import detect as det
from s2wef.detect import (
    GAMMA_COS_ONLY,
    GAMMA_COS_OVER_L1,
    GAMMA_EPS,
    ROUNDING_TOL,
    dev_scores,
    deviation_statistics,
    gamma_scores,
    pairwise_distances,
    robust_standardize,
    silhouette_two_clusters,
    ward_hac,
)

# --- the detector's merge sequence and one-round entry, as tests read them ----


def ward_merge_sequence(distances):
    """det._ward_merges as, per merge, the height and the member set of the
    newly formed cluster."""
    heights, pairs = det._ward_merges(distances)
    members = {i: [i] for i in range(len(heights) + 1)}
    merges = []
    for height, (a, b) in zip(heights.tolist(), pairs):
        members[a] += members.pop(b)
        merges.append((height, frozenset(members[a])))
    return merges


def run_detector(name, wefs, global_now, global_prev, e):
    """The named detector on one round."""
    return det.detect_trial(name, [wefs], [global_now], global_prev, e)[0]


# --- the scalar oracle -------------------------------------------------------


def _as_float_mats(wefs):
    return [m.astype(np.float64).ravel() for m in wefs]


def _cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def _euclidean(a, b):
    return float(np.linalg.norm(a - b))


def oracle_deviation_statistics(wefs):
    mats = _as_float_mats(wefs)
    n = len(mats)
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


def oracle_dev_scores(wefs):
    terms = []
    for stat in oracle_deviation_statistics(wefs):
        dev = np.abs(stat - stat.mean())
        if dev.max() <= ROUNDING_TOL * abs(stat.mean()):  # agreement up to rounding
            dev = np.zeros_like(dev)
        denom = dev.sum()
        terms.append(dev / denom if denom > 0 else np.zeros_like(dev))
    return terms[0] + terms[1] + terms[2]


def oracle_gamma_scores(wefs, simulated, mode):
    mats = _as_float_mats(wefs)
    ref = simulated.astype(np.float64).ravel()
    out = np.zeros(len(mats))
    for i, m in enumerate(mats):
        c = _cosine(m, ref)
        if mode == GAMMA_COS_ONLY:
            out[i] = c
        else:
            out[i] = c / (float(np.abs(m - ref).sum()) + GAMMA_EPS)
    return out


def oracle_ward_merge_sequence(pts):
    n = len(pts)
    members = {i: [i] for i in range(n)}
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = _euclidean(pts[i], pts[j])
    merges = []
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


def oracle_silhouette(pts, labels):
    n = len(pts)
    scores = np.zeros(n)
    for i in range(n):
        own = np.flatnonzero(labels == labels[i])
        other = np.flatnonzero(labels != labels[i])
        if len(own) <= 1 or len(other) == 0:
            continue
        a_i = float(np.mean([_euclidean(pts[i], pts[j]) for j in own if j != i]))
        b_i = float(np.mean([_euclidean(pts[i], pts[j]) for j in other]))
        top = max(a_i, b_i)
        scores[i] = (b_i - a_i) / top if top > 0 else 0.0
    return float(scores.mean())


# --- byte-level comparison ---------------------------------------------------


def assert_same_bits(mine, oracle):
    mine, oracle = np.asarray(mine), np.asarray(oracle)
    assert mine.dtype == oracle.dtype and mine.shape == oracle.shape
    assert mine.tobytes() == oracle.tobytes(), f"\n{mine!r}\n!=\n{oracle!r}"


def assert_same_merges(mine, oracle):
    assert [(h.hex(), m) for h, m in mine] == [(h.hex(), m) for h, m in oracle]


# --- tie-heavy inputs --------------------------------------------------------


@st.composite
def grid_rounds(draw, max_clients=60):
    """A round of WEF grids drawn from a few prototypes, so rows repeat.

    With one prototype every grid is equal; all-zero prototypes are common
    because each prototype's entries come from a small, zero-heavy range.
    """
    n = draw(st.integers(3, max_clients))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    e = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    protos = []
    for _ in range(k):
        top = draw(st.sampled_from([0, 1, e]))
        flat = draw(st.lists(st.integers(0, top), min_size=h * w, max_size=h * w))
        protos.append(np.array(flat).reshape(h, w))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    simulated = draw(st.sampled_from(protos) | st.builds(
        lambda mask: np.where(np.array(mask).reshape(h, w), e, 0),
        st.lists(st.booleans(), min_size=h * w, max_size=h * w),
    ))
    return np.array([protos[p] for p in picks]), simulated


def _zeros_round(n):
    return np.zeros((n, 2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)


def _equal_round(n):
    grid = np.array([[1, 0, 5], [2, 2, 0]])
    return np.array([grid] * n), grid


def _budget_round():
    """1 x 2 grids of counts 0 and e at e = 47,453,132, the largest budget
    det.exact_budget allows for them: squared norms add up to 4 * e**2,
    just below 2**53, where float64 still holds every integer."""
    e = 47_453_132
    return np.array([[[0, e]], [[e, 0]], [[e, e]], [[e, e]], [[0, 0]]]), np.array([[e, 0]])


def _mad_zero_round():
    """Six equal grids and one twice theirs against a zero simulated grid:
    every gamma is 0, Dev's MAD is 0, and the odd client's z reaches
    0.8333.../EPS, about 8.3e11, whose squares Ward's overflow check sees."""
    grid = np.array([[1, 0, 2], [0, 1, 1]])
    return np.array([grid] * 6 + [2 * grid]), np.zeros((2, 3), dtype=np.int64)


def _colluder_plane(n=100):
    """A many_clients-shaped z plane: n spread benign points, with every
    fifth client at one point, as n / 5 identical DWA submissions
    standardize.  At 200 points Ward's matrix shrinks at 100, 50, 25, 12, 6
    and 3 live clusters."""
    pts = np.random.default_rng(10).normal(size=(n, 2))
    pts[::5] = [6.5, 9.0]
    return pts


def _lattice_plane():
    """200 points on a 6 x 6 lattice: the first 164 merges or more join
    duplicates at height 0, so Ward's matrix shrinks in the middle of ties."""
    return np.random.default_rng(20).integers(0, 6, size=(200, 2)).astype(np.float64)


_COORDS = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e-12, 1e12, -0.6744897501960817])


@st.composite
def z_points(draw, max_points=60):
    """Points in the z plane with duplicates and many equal distances."""
    n = draw(st.integers(3, max_points))
    k = draw(st.integers(1, n))
    coord = _COORDS | st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    protos = draw(st.lists(st.tuples(coord, coord), min_size=k, max_size=k))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return np.array([protos[p] for p in picks], dtype=np.float64)


# --- properties --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(grid_rounds())
@example(_zeros_round(3))
@example(_zeros_round(60))
@example(_equal_round(4))
@example(_equal_round(41))
@example(_budget_round())
def test_deviation_statistics_match_oracle(round_):
    wefs, _ = round_
    for mine, oracle in zip(deviation_statistics(wefs), oracle_deviation_statistics(wefs)):
        assert_same_bits(mine, oracle)
    assert_same_bits(dev_scores(wefs), oracle_dev_scores(wefs))


@settings(max_examples=120, deadline=None)
@given(grid_rounds(), st.sampled_from([GAMMA_COS_OVER_L1, GAMMA_COS_ONLY]))
@example(_zeros_round(5), GAMMA_COS_OVER_L1)
@example(_equal_round(5), GAMMA_COS_OVER_L1)
@example(_equal_round(5), GAMMA_COS_ONLY)
@example(_budget_round(), GAMMA_COS_OVER_L1)
@example(_budget_round(), GAMMA_COS_ONLY)
def test_gamma_scores_match_oracle(round_, mode):
    wefs, simulated = round_
    assert_same_bits(
        gamma_scores(wefs, simulated, mode),
        oracle_gamma_scores(wefs, simulated, mode),
    )


@settings(max_examples=80, deadline=None)
@given(z_points())
@example(np.zeros((3, 2)))
@example(np.ones((60, 2)))
@example(np.array([[0.0, 0.0]] * 20 + [[3.0, 4.0]] * 20 + [[1e12, -1.0]] * 5))
@example(_colluder_plane())
@example(_colluder_plane(200))
@example(_lattice_plane())
def test_ward_and_silhouette_match_oracle(pts):
    dist = pairwise_distances(pts)
    merges = ward_merge_sequence(dist)
    assert_same_merges(merges, oracle_ward_merge_sequence(pts))
    _, labels = ward_hac(dist)
    assert silhouette_two_clusters(dist, labels).hex() == oracle_silhouette(pts, labels).hex()


@settings(max_examples=60, deadline=None)
@given(z_points(), st.data())
def test_silhouette_matches_oracle_on_any_labels(pts, data):
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(pts), max_size=len(pts))))
    dist = pairwise_distances(pts)
    assert silhouette_two_clusters(dist, labels).hex() == oracle_silhouette(pts, labels).hex()


@settings(max_examples=40, deadline=None)
@given(grid_rounds(), st.sampled_from([GAMMA_COS_OVER_L1, GAMMA_COS_ONLY]))
@example(_zeros_round(7), GAMMA_COS_OVER_L1)
@example(_equal_round(7), GAMMA_COS_OVER_L1)
@example(_mad_zero_round(), GAMMA_COS_OVER_L1)
def test_detector_z_plane_matches_oracle(round_, mode):
    """Scores from tie-heavy grids, standardized as detect_round does, then clustered."""
    wefs, simulated = round_
    z = np.column_stack([
        robust_standardize(oracle_gamma_scores(wefs, simulated, mode)),
        robust_standardize(oracle_dev_scores(wefs)),
    ])
    dist = pairwise_distances(z)
    assert_same_merges(ward_merge_sequence(dist), oracle_ward_merge_sequence(z))
    _, labels = ward_hac(dist)
    assert silhouette_two_clusters(dist, labels).hex() == oracle_silhouette(z, labels).hex()
