import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from s2wef.detect import (
    _squares,
    BASELINE,
    DETECTORS,
    GAMMA_COS_ONLY,
    decide_k,
    detect_round,
    detect_trial,
    dev_scores,
    deviation_statistics,
    gamma_scores,
    majority_vote,
    pairwise_distances,
    robust_standardize,
    silhouette_two_clusters,
    simulate_global_wef,
    threshold_flags,
    ward_hac,
    wef_defense_baseline,
)
from s2wef import detect as det
from s2wef.errors import ConfigurationError, ShapeError
from s2wef.wef import wef_dtype

from test_detect_oracle import run_detector, ward_merge_sequence


def wm(rows):
    return np.array(rows)


# --- deviation scores ----------------------------------------------------

def test_dev_identical_clients_zero():
    wefs = np.array([wm([[1, 2], [3, 0]])] * 4)
    np.testing.assert_array_equal(dev_scores(wefs), np.zeros(4))


def test_dev_identical_clients_zero_at_any_size():
    # 41 identical grids: the mean distance and cosine agree up to rounding
    wefs = np.array([wm([[1, 0, 5], [2, 2, 0]])] * 41)
    np.testing.assert_array_equal(dev_scores(wefs), np.zeros(41))


def test_dev_two_clients_symmetric():
    devs = dev_scores(np.array([wm([[1, 0], [0, 0]]), wm([[4, 4], [4, 4]])]))
    assert devs[0] == pytest.approx(devs[1])


def test_dev_hand_case_three_matrices():
    wefs = np.array([wm([[1, 0], [0, 0]]), wm([[1, 0], [0, 0]]), wm([[5, 5], [5, 5]])])
    devs = dev_scores(wefs)
    np.testing.assert_allclose(devs, [0.75, 0.75, 1.5], atol=1e-12)
    assert devs[2] > devs[0] and devs[2] > devs[1]


def test_dev_requires_two_clients():
    with pytest.raises(ConfigurationError):
        dev_scores(np.array([wm([[1, 0], [0, 0]])]))


def test_dev_translation_leaves_distances_unchanged():
    rng = np.random.default_rng(0)
    base = np.array([rng.integers(0, 4, size=(3, 3)) for _ in range(5)])
    shifted = base + 2
    dis_a, _, _ = deviation_statistics(base)
    dis_b, _, _ = deviation_statistics(shifted)
    np.testing.assert_allclose(dis_a, dis_b, atol=1e-12)


@pytest.mark.parametrize("cells", [1, 2, 3, 320, 2560, 10**6])
def test_exact_budget_is_the_largest_e_with_exact_distances(cells):
    """2 * cells * e**2 < 2**53 holds at exact_budget(cells) and fails one above it."""
    e = det.exact_budget(cells)
    assert 2 * cells * e**2 < 2**53 <= 2 * cells * (e + 1) ** 2


# --- simulated global WEF -------------------------------------------------

def test_simulate_identical_globals_zero():
    w = np.random.default_rng(1).normal(size=(3, 3))
    assert not simulate_global_wef(w, w, 5).any()


def test_simulate_hand_case():
    prev = np.zeros((2, 2))
    now = np.array([[0.4, 0.1], [0.1, 0.0]])
    np.testing.assert_array_equal(simulate_global_wef(now, prev, 5), [[5, 0], [0, 0]])


def test_simulate_equals_dwa_counterfeit():
    from s2wef.wef import counterfeit_one_step

    rng = np.random.default_rng(7)
    for _ in range(50):
        now = rng.normal(size=(4, 3))
        prev = now + rng.normal(0, 0.1, size=(4, 3))
        e = int(rng.integers(1, 8))
        simulated = simulate_global_wef(now, prev, e)
        fake = now + (now - prev)
        counterfeit = counterfeit_one_step(fake, now, e)
        np.testing.assert_array_equal(simulated, counterfeit)


# --- gamma ----------------------------------------------------------------

def test_gamma_disjoint_support_zero():
    f_i = wm([[2, 0], [0, 0]])
    f_g = wm([[0, 0], [0, 3]])
    assert gamma_scores(f_i[None], f_g)[0] == 0.0


def test_gamma_hand_case():
    f_i = wm([[2, 0], [0, 0]])
    f_g = wm([[2, 0], [0, 2]])
    gamma = gamma_scores(f_i[None], f_g)[0]
    assert gamma == pytest.approx(0.35355, abs=1e-4)


def test_gamma_exact_match_hits_guard():
    f = wm([[2, 1], [0, 3]])
    assert gamma_scores(f[None], f)[0] == pytest.approx(1e12, rel=1e-6)


def test_gamma_ordering_exact_match_dominates():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ref = rng.integers(0, 5, size=(3, 3))
        if not ref.any():
            continue
        other = (ref + rng.integers(1, 3, size=(3, 3))) % 5
        gammas = gamma_scores(np.array([ref, other]), ref)
        assert gammas[0] > gammas[1]


def test_gamma_cos_only_mode():
    f_i = wm([[2, 0], [0, 0]])
    f_g = wm([[2, 0], [0, 2]])
    gamma = gamma_scores(f_i[None], f_g, mode=GAMMA_COS_ONLY)[0]
    assert gamma == pytest.approx(1 / np.sqrt(2))


def test_gamma_shape_mismatch():
    with pytest.raises(ShapeError):
        gamma_scores(wm([[[1, 0]]]), wm([[1], [0]]))


# --- robust standardization -------------------------------------------------

def test_standardize_constant_is_zero():
    np.testing.assert_array_equal(robust_standardize([3.0, 3.0, 3.0]), np.zeros(3))


def test_standardize_rounding_spread_is_zero():
    # Dev's exact 1/3 in two roundings: a MAD of 3e-17 scales up nothing
    third, next_up = 1 / 3, np.nextafter(1 / 3, 1)
    np.testing.assert_array_equal(robust_standardize([third, next_up] * 3), np.zeros(6))
    z = robust_standardize([third, next_up, third, next_up, 0.5])
    np.testing.assert_array_equal(z[:4], np.zeros(4))
    assert z[4] > 1e10  # a real outlier over a MAD of 0


def test_standardize_hand_case():
    z = robust_standardize([1, 2, 3, 4, 100])
    np.testing.assert_allclose(z, [-2, -1, 0, 1, 97], atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
def test_standardize_median_zero_property(values):
    z = robust_standardize(values)
    x = np.asarray(values)
    mad = np.median(np.abs(x - np.median(x)))
    if mad > 0:
        # zero up to float cancellation, which scales with the z magnitudes
        tol = 1e-9 * max(1.0, float(np.abs(z).max()))
        assert abs(np.median(z)) <= tol


# --- Ward clustering ---------------------------------------------------------

def naive_ward(points):
    """O(N^3) oracle using the variance-increase formula on raw points."""
    pts = np.asarray(points, dtype=float)
    clusters = {i: [i] for i in range(len(pts))}
    heights, cut = [], None

    def merge_cost(a, b):
        pa, pb = pts[clusters[a]], pts[clusters[b]]
        na, nb = len(pa), len(pb)
        gap = pa.mean(axis=0) - pb.mean(axis=0)
        return float(np.sqrt(2.0 * na * nb / (na + nb)) * np.linalg.norm(gap))

    while len(clusters) > 1:
        if len(clusters) == 2:
            cut = [sorted(m) for m in clusters.values()]
        keys = sorted(clusters)
        best = min(
            ((merge_cost(a, b), a, b) for i, a in enumerate(keys) for b in keys[i + 1:]),
            key=lambda t: (t[0], t[1], t[2]),
        )
        d, a, b = best
        heights.append(d)
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return np.array(heights), cut


def as_partition(labels):
    return frozenset(
        frozenset(np.flatnonzero(labels == v).tolist()) for v in np.unique(labels)
    )


def test_ward_matches_naive_oracle_small():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        pts = rng.normal(size=(n, 2))
        heights, labels = ward_hac(pairwise_distances(pts))
        oracle_heights, oracle_cut = naive_ward(pts)
        np.testing.assert_allclose(heights, oracle_heights, atol=1e-9)
        assert as_partition(labels) == frozenset(frozenset(c) for c in oracle_cut)


def test_ward_separated_groups():
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.normal(0, 0.1, size=(3, 2)), rng.normal(10, 0.1, size=(3, 2))])
    _, labels = ward_hac(pairwise_distances(pts))
    assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
    assert labels[0] != labels[3]


def test_ward_identical_points_zero_heights():
    heights, _ = ward_hac(pairwise_distances(np.ones((5, 2))))
    np.testing.assert_allclose(heights, 0.0, atol=1e-12)


def test_ward_heights_nondecreasing():
    rng = np.random.default_rng(9)
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(3, 10)), 2))
        heights, _ = ward_hac(pairwise_distances(pts))
        assert (np.diff(heights) >= -1e-12).all()


def test_ward_rejects_single_point():
    with pytest.raises(ConfigurationError):
        ward_hac(pairwise_distances(np.zeros((1, 2))))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("where", ["everywhere", "one-pair", "diagonal"])
def test_ward_rejects_non_finite_distances(bad, where):
    dist = pairwise_distances(np.arange(8.0).reshape(4, 2))
    if where == "everywhere":
        dist[:] = bad
    elif where == "one-pair":
        dist[1, 2] = dist[2, 1] = bad
    else:
        dist[3, 3] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        ward_merge_sequence(dist)
    with pytest.raises(ConfigurationError, match="finite"):
        ward_hac(dist)


@pytest.mark.parametrize(
    "dist",
    [
        # row-major argmin would read dist[1, 0] = 1 and merge 0 and 1 at height 1.0
        [[0.0, 5.0, 4.0], [1.0, 0.0, 6.0], [4.0, 6.0, 0.0]],
        [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, np.nextafter(3.0, 4.0), 0.0]],
        [[0.0, 1.0, 2.0]] * 2,
    ],
    ids=["lower-triangle-smaller", "one-ulp", "not-square"],
)
def test_ward_rejects_asymmetric_distances(dist):
    with pytest.raises(ConfigurationError, match="symmetric"):
        ward_merge_sequence(np.array(dist))
    with pytest.raises(ConfigurationError, match="symmetric"):
        ward_hac(np.array(dist))


@pytest.mark.parametrize("far", [2e154, 1e154], ids=["squares-overflow", "recurrence-overflows"])
def test_ward_refuses_distances_too_large_to_square(far):
    """2e154 squares past the float64 range; 1e154 squares to 1e308, and the
    first merge's update of the far point doubles that."""
    dist = np.array([[0.0, far, 1.0], [far, 0.0, far], [1.0, far, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="too large"):
            ward_merge_sequence(dist)


def test_ward_refuses_a_distance_too_large_to_square_first_read_after_a_shrink():
    """Points 0-3 merge first, at height 1, which leaves 3 of 6 clusters and
    shrinks the matrix; only the next merge squares the row that holds the
    2e154 between points 4 and 5."""
    dist = np.full((6, 6), 10.0)
    dist[:4, :4] = 1.0
    dist[4, 5] = dist[5, 4] = 2e154
    np.fill_diagonal(dist, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ward in (ward_merge_sequence, ward_hac, lambda d: det._ward_rounds(d[None])):
            with pytest.raises(ConfigurationError, match="too large for float64 Ward"):
                ward(dist)


def assert_merges_form_a_hierarchy(merges, n):
    """Each merge joins two distinct current clusters at a finite height."""
    clusters = {frozenset({i}) for i in range(n)}
    for height, merged in merges:
        assert np.isfinite(height)
        parts = {c for c in clusters if c <= merged}
        assert len(parts) == 2 and frozenset().union(*parts) == merged
        clusters = (clusters - parts) | {merged}
    assert clusters == {frozenset(range(n))}


_MAGNITUDES = st.sampled_from([0.0, 1.0, 1e100, 1e150, 1e153, 5e153, 1e154, 2e154, 1e300])


@st.composite
def symmetric_distances(draw):
    """Finite symmetric (n, n) matrices with a zero diagonal, many entries near sqrt(max float)."""
    n = draw(st.integers(2, 8))
    pairs = n * (n - 1) // 2
    dist = np.zeros((n, n))
    dist[np.triu_indices(n, 1)] = draw(st.lists(
        _MAGNITUDES | st.floats(0.0, 1.7e308), min_size=pairs, max_size=pairs))
    return dist + dist.T


@settings(max_examples=150, deadline=None)
@given(symmetric_distances())
def test_ward_merges_finite_distances_or_refuses_them(dist):
    """A proper hierarchy at finite heights, or ConfigurationError, and never a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            merges = ward_merge_sequence(dist)
        except ConfigurationError:
            return
    assert_merges_form_a_hierarchy(merges, len(dist))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e154, exclude_max=True), min_size=1, max_size=40))
@example([9.62758541716221])  # v*v rounds one bit below v**2
@example([5.384848373059271])  # and here one bit above
@example([0.0])
@example([5e-324])
@example([1e-160])  # squares to a subnormal
def test_squares_round_as_python_float_pow(values):
    """Ward squares with libm pow, as Python's float ** 2 does, to the bit."""
    x = np.array(values, dtype=np.float64)
    assert _squares(x).tobytes() == np.array([v**2 for v in values]).tobytes()


# --- silhouette and cluster decision ------------------------------------------

def test_silhouette_clear_split_and_k2():
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.normal(0, 0.05, size=(3, 2)), rng.normal(10, 0.05, size=(3, 2))])
    dist = pairwise_distances(pts)
    heights, labels = ward_hac(dist)
    s2 = silhouette_two_clusters(dist, labels)
    assert s2 > 0.9
    outcome = decide_k(heights, labels, pts, dist)
    assert outcome.k == 2


def test_silhouette_matches_hand_formula():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    # hand: a(0)=1, b(0)=(10+11)/2=10.5, s=9.5/10.5; symmetric for the rest
    expected = np.mean([(10.5 - 1) / 10.5, (9.5 - 1) / 9.5, (9.5 - 1) / 9.5, (10.5 - 1) / 10.5])
    assert silhouette_two_clusters(pairwise_distances(pts), labels) == pytest.approx(expected)


def test_silhouette_range_property():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        pts = rng.normal(size=(n, 2))
        dist = pairwise_distances(pts)
        _, labels = ward_hac(dist)
        assert -1.0 <= silhouette_two_clusters(dist, labels) <= 1.0


def test_decide_k_identical_points_collapse():
    pts = np.ones((5, 2))
    dist = pairwise_distances(pts)
    heights, labels = ward_hac(dist)
    outcome = decide_k(heights, labels, pts, dist)
    assert outcome.k == 1
    assert outcome.suspicious == frozenset()


def test_decide_k_suspicious_is_farther_centroid():
    pts = np.vstack([np.zeros((6, 2)) + [[0.01, 0], [0, 0.01], [-0.01, 0], [0, -0.01], [0.01, 0.01], [0, 0]],
                     np.full((3, 2), 8.0) + np.random.default_rng(0).normal(0, 0.01, (3, 2))])
    dist = pairwise_distances(pts)
    heights, labels = ward_hac(dist)
    outcome = decide_k(heights, labels, pts, dist)
    assert outcome.k == 2
    assert outcome.suspicious == frozenset({6, 7, 8})


def test_decide_k_norm_and_gamma_tie_goes_to_larger_dev():
    # mirror clusters at z = (0, -1) and (0, 1), whichever holds client 0
    for low, high in ((0, 1), (1, 0)):
        labels = np.array([low, high, low, high])
        pts = np.column_stack([np.zeros(4), np.where(labels == high, 1.0, -1.0)])
        dist = pairwise_distances(pts)
        heights, _ = ward_hac(dist)
        outcome = decide_k(heights, labels, pts, dist)
        assert outcome.k == 2
        assert outcome.suspicious == frozenset({1, 3})


# --- threshold flags and vote ---------------------------------------------------

def test_flags_all_equal_gamma_none():
    fg, _ = threshold_flags([2.0, 2.0, 2.0], [0.1, 0.2, 0.3])
    assert not fg.any()


def test_flags_dev_argmax_always_flagged():
    _, fd = threshold_flags([1, 1, 1], [0.2, 0.9, 0.3])
    assert fd[1]


def test_flags_gamma_hand_case():
    fg, _ = threshold_flags([1, 1, 1, 1, 10], [0, 0, 0, 0, 0])
    np.testing.assert_array_equal(fg, [False, False, False, False, True])


def make_outcome(k, suspicious, n):
    from s2wef.detect import ClusterOutcome

    return ClusterOutcome(
        k=k,
        assignment=np.zeros(n, dtype=np.int64),
        suspicious=frozenset(suspicious),
        s2=0.5,
        delta=2.0,
        heights=np.zeros(max(n - 1, 0)),
    )


def test_vote_single_cluster_never_labels():
    decision = majority_vote(make_outcome(1, [], 5), np.ones(5, bool), np.ones(5, bool))
    assert not decision.detected
    assert decision.free_rider_list == frozenset()


def test_vote_two_thirds_labels_whole_cluster():
    flags_g = np.array([True, True, False, False, False])
    decision = majority_vote(make_outcome(2, [0, 1, 2], 5), flags_g, np.zeros(5, bool))
    assert decision.p_gamma == pytest.approx(2 / 3)
    assert decision.detected
    assert decision.free_rider_list == frozenset({0, 1, 2})


def test_vote_quarter_each_does_not_label():
    flags_g = np.array([True, False, False, False, False])
    flags_d = np.array([False, True, False, False, False])
    decision = majority_vote(make_outcome(2, [0, 1, 2, 3], 5), flags_g, flags_d)
    assert decision.p_gamma == pytest.approx(0.25)
    assert decision.p_dev == pytest.approx(0.25)
    assert not decision.detected
    assert decision.free_rider_list == frozenset()


def test_vote_bypass_labels_on_k2():
    decision = majority_vote(make_outcome(2, [4], 5), np.zeros(5, bool), np.zeros(5, bool),
                             require_vote=False)
    assert decision.detected
    assert decision.free_rider_list == frozenset({4})


# --- baseline -------------------------------------------------------------------

def test_baseline_flags_argmax():
    wefs = np.array([wm([[1, 0], [0, 0]]), wm([[1, 0], [0, 0]]), wm([[5, 5], [5, 5]])])
    devs = dev_scores(wefs)
    assert wef_defense_baseline(devs) == frozenset({2})


def test_baseline_hand_epsilon():
    # the margin is DEV_MAX_MARGIN = 0.05, the Dev rule of threshold_flags
    for devs, flagged in (([0.75, 0.75, 1.5], {2}), ([1.0, 0.96, 0.94], {0, 1})):
        assert wef_defense_baseline(devs) == frozenset(flagged)
        _, flags_dev = threshold_flags([1.0] * len(devs), devs)
        assert set(np.flatnonzero(flags_dev)) == flagged


def test_baseline_degenerate_all_equal_flags_everyone():
    devs = dev_scores(np.ones((4, 2, 2), dtype=np.int64))
    assert wef_defense_baseline(devs) == frozenset({0, 1, 2, 3})


def test_baseline_accumulation_changes_input():
    early = wm([[5, 5], [5, 5]])
    late = wm([[1, 0], [0, 0]])
    # rounds by clients: client 0 submitted early then late, the others late twice
    history = np.array([[early, late, late], [late, late, late]])
    now = np.zeros((2, 2))
    latest = history[-1]
    summed = history.sum(axis=0)
    assert run_detector("WEF_NA_BASELINE", latest, now, now, e=5).decision.free_rider_list == frozenset({0, 1, 2})
    detection = run_detector("WEF_NA_BASELINE", summed, now, now, e=5)
    assert detection.decision.free_rider_list == frozenset({0})
    np.testing.assert_array_equal(detection.scores.dev, dev_scores(summed))


# --- full round pipeline ----------------------------------------------------------

def synthetic_round(seed=0, n=6, h=4, w=3, e=5, attackers=(0,)):
    """Benign clients share a noisy sparse pattern; attackers replay the
    global-delta pattern exactly (sigma-0 delta-replay counterfeit)."""
    rng = np.random.default_rng(seed)
    now = rng.normal(size=(h, w))
    prev = now + rng.normal(0, 0.1, size=(h, w))
    base = rng.integers(0, 3, size=(h, w))
    wefs = []
    ref = simulate_global_wef(now, prev, e)
    for i in range(n):
        if i in attackers:
            wefs.append(ref.copy())
        else:
            noisy = np.clip(base + rng.integers(-1, 2, size=(h, w)), 0, e)
            wefs.append(noisy)
    return np.array(wefs), now, prev


def test_detect_round_benign_only_near_identical():
    rng = np.random.default_rng(2)
    now = rng.normal(size=(3, 3))
    prev = now + rng.normal(0, 0.1, size=(3, 3))
    wefs = np.array([wm([[1, 2, 0], [0, 1, 0], [3, 0, 1]])] * 5)
    result = detect_round(wefs, now, prev, e=5)
    assert result.cluster.k == 1
    assert result.decision.free_rider_list == frozenset()


def test_detect_round_delta_replay_attacker_max_gamma():
    wefs, now, prev = synthetic_round(seed=5, attackers=(2,))
    result = detect_round(wefs, now, prev, e=5)
    assert result.scores.gamma.argmax() == 2
    assert result.scores.gamma[2] == pytest.approx(1e12, rel=1e-6)


def test_detect_round_first_round_skips():
    wefs, now, _ = synthetic_round()
    result = detect_round(wefs, now, None, e=5)
    assert result.cluster.k == 1
    assert not result.decision.detected


def test_detect_round_permutation_equivariance():
    wefs, now, prev = synthetic_round(seed=9, n=7, attackers=(1, 4))
    base = detect_round(wefs, now, prev, e=5)
    perm = [3, 0, 6, 1, 5, 2, 4]
    permuted = detect_round(wefs[perm], now, prev, e=5)
    np.testing.assert_allclose(permuted.scores.gamma, base.scores.gamma[perm], rtol=1e-12)
    np.testing.assert_allclose(permuted.scores.dev, base.scores.dev[perm], rtol=1e-12)
    mapped = frozenset(perm.index(i) for i in base.decision.free_rider_list)
    assert permuted.decision.free_rider_list == mapped
    assert as_partition(permuted.cluster.assignment) == frozenset(
        frozenset(perm.index(i) for i in part) for part in as_partition(base.cluster.assignment)
    )


def test_detect_round_deterministic():
    wefs, now, prev = synthetic_round(seed=3, attackers=(0, 5))
    a = detect_round(wefs, now, prev, e=5)
    b = detect_round(wefs, now, prev, e=5)
    assert a.decision.free_rider_list == b.decision.free_rider_list
    np.testing.assert_array_equal(a.cluster.assignment, b.cluster.assignment)
    np.testing.assert_array_equal(a.scores.z, b.scores.z)


def test_detect_round_flags_subset_of_suspicious():
    rng = np.random.default_rng(1)
    for seed in range(15):
        wefs, now, prev = synthetic_round(seed=seed, n=8, attackers=(0, 1))
        result = detect_round(wefs, now, prev, e=5)
        assert result.decision.free_rider_list <= result.cluster.suspicious
        if result.cluster.k == 1:
            assert result.decision.free_rider_list == frozenset()


# --- degenerate rounds ----------------------------------------------------------

CLUSTERING_DETECTORS = [name for name, spec in DETECTORS.items() if spec not in (None, BASELINE)]


def assert_finite_and_repeatable(wefs, now, prev, e):
    """Every recorded number is finite, and a second call gives the same output."""
    results = []
    for name in CLUSTERING_DETECTORS:
        runs = [run_detector(name, wefs, now, prev, e) for _ in range(2)]
        numbers = [(d.scores.gamma, d.scores.dev, d.scores.z, d.cluster.heights, d.cluster.assignment,
                    [d.cluster.k, d.cluster.s2, d.cluster.delta, d.decision.p_gamma, d.decision.p_dev])
                   for d in runs]
        for x, y in zip(*numbers):
            assert np.isfinite(x).all()
            np.testing.assert_array_equal(x, y)
        assert runs[0].decision.free_rider_list == runs[1].decision.free_rider_list
        results.append(runs[0])
    return results


@st.composite
def broadcasts(draw, h, w):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    now = rng.normal(size=(h, w))
    still = draw(st.booleans())  # an unchanged broadcast gives an all-zero simulated grid
    prev = now.copy() if still else now + rng.normal(0, draw(st.sampled_from([1e-6, 0.1, 10.0])), size=(h, w))
    return now, prev


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(3, 12), h=st.integers(1, 5), w=st.integers(1, 5),
       e=st.integers(1, 12), zero=st.booleans())
def test_identical_submissions_flag_nobody(data, n, h, w, e, zero):
    """All-equal and all-zero rounds: finite, repeatable, one cluster, no flags."""
    cells = [0] * (h * w) if zero else data.draw(st.lists(st.integers(0, e), min_size=h * w, max_size=h * w))
    grid = np.array(cells, dtype=np.int64).reshape(h, w)
    now, prev = data.draw(broadcasts(h, w))
    wefs = np.array([grid] * n)
    for detection in assert_finite_and_repeatable(wefs, now, prev, e):
        assert detection.cluster.k == 1
        assert not detection.decision.free_rider_list and not detection.decision.detected


@settings(max_examples=60, deadline=None)
@given(data=st.data(), h=st.integers(1, 5), w=st.integers(1, 5), e=st.integers(1, 12))
def test_three_clients_finite_and_repeatable(data, h, w, e):
    grids = data.draw(st.lists(st.lists(st.integers(0, e), min_size=h * w, max_size=h * w),
                               min_size=3, max_size=3))
    wefs = np.array(grids, dtype=np.int64).reshape(3, h, w)
    now, prev = data.draw(broadcasts(h, w))
    for detection in assert_finite_and_repeatable(wefs, now, prev, e):
        assert detection.decision.free_rider_list <= detection.cluster.suspicious


# --- rounds scored together ------------------------------------------------------

def round_grids(rng, kind, n, h, w, e, simulated):
    """One round's (n, h, w) grids of the given kind, of wef_dtype(e) as a run holds them."""
    if kind == "zero":
        return np.zeros((n, h, w), dtype=wef_dtype(e))
    if kind == "equal":
        return np.repeat(rng.integers(0, e + 1, size=(1, h, w)), n, axis=0).astype(wef_dtype(e))
    grids = rng.integers(0, e + 1, size=(n, h, w))
    if kind == "colluders":  # a block of identical grids, the simulated one or another
        block = rng.choice(n, size=rng.integers(2, n + 1), replace=False)
        grids[block] = simulated if rng.random() < 0.5 else rng.integers(0, e + 1, size=(h, w))
    return grids.astype(wef_dtype(e))


def trial(rng, rounds, n, h, w, e, kinds):
    """Consecutive rounds of a trial: their grids, broadcasts and budget e."""
    pens = rng.normal(size=(rounds, h, w))
    for t in np.flatnonzero(rng.random(rounds) < 0.2)[1:]:  # an unchanged broadcast
        pens[t] = pens[t - 1]
    sims = [simulate_global_wef(pens[t], pens[t - 1], e) if t else np.zeros((h, w), dtype=int)
            for t in range(rounds)]
    wefs = [round_grids(rng, kind, n, h, w, e, sims[t]) for t, kind in enumerate(kinds)]
    return wefs, list(pens), e


@st.composite
def trial_rounds(draw):
    rounds, n = draw(st.integers(1, 8)), draw(st.integers(3, 9))
    h, w, e = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(["random", "colluders", "equal", "zero"]),
                          min_size=rounds, max_size=rounds))
    return trial(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), rounds, n, h, w, e, kinds)


def long_trial():
    """25 rounds at e = 300, in int64 grids, with one client at the full budget."""
    rng = np.random.default_rng(16)
    wefs, pens, e = trial(rng, 25, 6, 3, 4, 300, rng.choice(["random", "colluders", "equal"], size=25))
    for grids in wefs:
        grids[2] = e
    return wefs, pens, e


def detection_bits(detection):
    """Every number a round's detection holds, as bytes."""
    arrays = (detection.scores.gamma, detection.scores.dev, detection.scores.z, detection.cluster.heights,
              detection.cluster.assignment, detection.decision.flags_gamma, detection.decision.flags_dev,
              [detection.cluster.s2, detection.cluster.delta, detection.decision.p_gamma, detection.decision.p_dev])
    return ([np.asarray(a).tobytes() for a in arrays], detection.cluster.k, detection.cluster.suspicious,
            detection.decision.detected, detection.decision.free_rider_list)


def median_standardize(x):
    """robust_standardize as np.median gives it."""
    med = np.median(x)
    centered, tol = x - med, det.ROUNDING_TOL * abs(med)
    if np.median(np.abs(centered)) <= tol:  # a MAD of rounding: near-ties are ties
        centered[np.abs(centered) <= tol] = 0.0
    return centered / (np.median(np.abs(centered)) + det.EPS)


@settings(max_examples=40, deadline=None)
@given(trial_rounds(), st.integers(1, 8))
@example(long_trial(), 7)
def test_rounds_scored_together_score_as_each_round_alone(rounds, size):
    wefs, pens, e = rounds
    size = min(size, len(wefs))  # rounds a chunk
    grids = np.stack(wefs)
    if len(wefs) > 1:
        sims = simulate_global_wef(np.stack(pens[1:]), np.stack(pens[:-1]), e)
        for mode in (det.GAMMA_COS_OVER_L1, GAMMA_COS_ONLY):
            together = det._scores(grids[1:], sims, mode)
            for k in range(len(wefs) - 1):
                alone = det._scores(grids[k + 1], sims[k], mode)
                for a, b in zip(together, alone):
                    assert a[k].tobytes() == b.tobytes()
                gammas, devs = alone[:2]
                # the sort-based median rounds as np.median
                z = np.column_stack([median_standardize(gammas), median_standardize(devs)])
                assert alone[2].tobytes() == z.tobytes()
                assert alone[4].tobytes() == (gammas > 1.5 * np.median(gammas)).tobytes()
    for name in DETECTORS:
        alone = [detection_bits(detect_trial(name, [g], [p], before, e)[0])
                 for g, p, before in zip(wefs, pens, [None, *pens])]
        with patch.object(det, "_chunk_rounds", lambda n, h, w: size):
            together = detect_trial(name, wefs, pens, None, e)
        assert [detection_bits(d) for d in together] == alone
        if DETECTORS[name] not in (None, det.BASELINE):  # detect_round scoring its own round
            for t in range(1, len(wefs)):
                direct = detect_round(grids[t], pens[t], pens[t - 1], e, *DETECTORS[name])
                assert detection_bits(direct) == alone[t]


@st.composite
def clustered_trial(draw):
    """2-6 rounds of 3-24 clients, their grids from trial(): identical
    colluder blocks tie at distance 0, and all-equal and all-zero rounds
    collapse to k = 1."""
    rounds, n = draw(st.integers(2, 6)), draw(st.integers(3, 24))
    h, w, e = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(["random", "colluders", "colluders", "equal", "zero"]),
                          min_size=rounds, max_size=rounds))
    return trial(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), rounds, n, h, w, e, kinds)


def mad_zero_trial():
    """3 rounds of six equal grids and one twice theirs, under an unchanged
    broadcast: the simulated grid and every gamma are 0, Dev's MAD is 0, and
    the odd client's standardized Dev is 0.8333.../EPS, about 8.3e11."""
    grid = np.array([[1, 0, 2], [0, 1, 1]], dtype=np.uint8)
    wefs = [np.array([grid] * 6 + [2 * grid]) for _ in range(3)]
    return wefs, [np.ones((2, 3))] * 3, 5


def wide_trial():
    """3 rounds of 140 clients, 8 of them identical colluders at the
    simulated grid: the 132 others form one cluster, so each row's silhouette
    sums run past 128 terms, where numpy's pairwise summation splits them."""
    rng = np.random.default_rng(17)
    pens = rng.normal(size=(3, 3, 4))
    wefs = [np.zeros((140, 3, 4), dtype=np.uint8)]
    for t in (1, 2):
        grids = rng.integers(0, 6, size=(140, 3, 4))
        grids[rng.choice(140, 8, replace=False)] = simulate_global_wef(pens[t], pens[t - 1], 5)
        wefs.append(grids.astype(np.uint8))
    return wefs, list(pens), 5


@settings(max_examples=40, deadline=None)
@given(clustered_trial())
@example(mad_zero_trial())
@example(wide_trial())
def test_rounds_clustered_together_decide_as_each_round_alone(rounds):
    wefs, pens, e = rounds
    grids = np.stack(wefs[1:])
    sims = simulate_global_wef(np.stack(pens[1:]), np.stack(pens[:-1]), e)
    for name, spec in DETECTORS.items():
        if spec in (None, BASELINE):
            continue
        dist = det._scores(grids, sims, spec[0])[3]
        heights, labels = det._ward_rounds(dist)
        s2 = det._silhouette_rounds(dist, labels)
        together = det._detect_rounds(name, wefs[1:], pens[1:], pens[:-1], e)
        for k, detection in enumerate(together):
            alone_heights, alone_labels = ward_hac(dist[k])
            assert heights[k].tobytes() == alone_heights.tobytes()
            assert labels[k].tobytes() == alone_labels.tobytes()
            assert s2[k].hex() == silhouette_two_clusters(dist[k], alone_labels).hex()
            alone = run_detector(name, wefs[k + 1], pens[k + 1], pens[k], e)
            assert detection_bits(detection) == detection_bits(alone)


@settings(max_examples=30, deadline=None)
@given(clustered_trial())
@example(wide_trial())
def test_ward_hac_cuts_off_the_second_last_merges_cluster(rounds):
    """ward_hac's cut, read from the merge pairs, is the member set the
    second-last merge formed against the rest, label 0 holding client 0."""
    wefs, pens, e = rounds
    sims = simulate_global_wef(np.stack(pens[1:]), np.stack(pens[:-1]), e)
    for dist in det._scores(np.stack(wefs[1:]), sims, det.GAMMA_COS_OVER_L1)[3]:
        merges = ward_merge_sequence(dist)
        cut = np.zeros(len(dist), dtype=np.int64)
        cut[sorted(merges[-2][1])] = 1
        heights, labels = ward_hac(dist)
        assert labels.tobytes() == (cut ^ cut[0]).tobytes()
        assert heights.tobytes() == np.array([h for h, _ in merges]).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(3, 40), st.data())
def test_rounds_take_their_silhouettes_together_for_any_labels(rounds, n, data):
    """Any partition, singletons and a single cluster included."""
    coords = st.sampled_from([0.0, 1.0, -2.0, 0.5]) | st.floats(-50.0, 50.0)
    pts = np.array(data.draw(st.lists(st.tuples(coords, coords), min_size=rounds * n, max_size=rounds * n)))
    dist = pairwise_distances(pts.reshape(rounds, n, 2))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rounds * n, max_size=rounds * n)))
    labels = labels.reshape(rounds, n)
    together = det._silhouette_rounds(dist, labels)
    for k in range(rounds):
        assert together[k].hex() == silhouette_two_clusters(dist[k], labels[k]).hex()


@pytest.mark.parametrize("far", [2e154, 1e154])
def test_rounds_clustered_together_refuse_what_ward_alone_refuses(far):
    """A chunk refuses distances that one of its rounds refuses alone."""
    bad = np.array([[0.0, far, 1.0], [far, 0.0, far], [1.0, far, 0.0]])
    dist = np.stack([pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])), bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="too large for float64 Ward"):
            det._ward_rounds(dist)
        for value in (np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="finite"):
                det._ward_rounds(np.where(dist == far, value, dist))
        asymmetric = dist.copy()
        asymmetric[0, 0, 1] = 2.0
        with pytest.raises(ConfigurationError, match="symmetric"):
            det._ward_rounds(asymmetric)


# --- float32 products -----------------------------------------------------------

def float64_only():
    """The scores with every block in float64."""
    return patch.object(det, "_FLOAT32_EXACT", 0)


def largest_float32_peak(size):
    """The largest peak at which grids of size entries take float32 blocks."""
    return math.isqrt((det._FLOAT32_EXACT - 1) // size)


def bound_round(n, h, w, peak, e, kind, seed):
    """n grids of h x w counts in [0, peak], about a third of them at peak,
    held as kind, and a simulated grid with e on about 70% of its entries."""
    rng = np.random.default_rng(seed)
    grids = rng.integers(0, peak + 1, size=(n, h, w))
    grids[rng.random(grids.shape) < 1 / 3] = peak
    return grids.astype(kind), np.where(rng.random((h, w)) < 0.7, e, 0)


@st.composite
def rounds_near_the_float32_bound(draw):
    """bound_round's parameters: 1 to 2560 entries a grid, a peak on either
    side of the largest float32 peak, and e at or above the peak, on either
    side of it too."""
    h, w = draw(st.integers(1, 256)), draw(st.integers(1, 10))
    edge = largest_float32_peak(h * w)
    peak = draw(st.integers(max(0, edge - 2), edge + 2) | st.integers(0, 2 * edge + 2))
    kind = draw(st.sampled_from([np.uint8, np.int64]) if peak <= 255 else st.just(np.int64))
    e = draw(st.integers(max(1, peak), 3 * edge + 3))
    return draw(st.integers(2, 8)), h, w, peak, e, kind, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(rounds_near_the_float32_bound())
@example((4, 256, 10, 80, 80, np.uint8, 0))  # the largest float32 peak of 2560 entries
@example((4, 256, 10, 81, 81, np.uint8, 0))
@example((4, 1, 1, 4095, 4095, np.int64, 0))  # and of one entry
@example((4, 1, 1, 4096, 4096, np.int64, 0))
@example((4, 256, 10, 80, 201, np.uint8, 1))  # grids in float32 range, the simulated one past it
@example((4, 64, 10, 300, 300, np.int64, 2))  # 640 * 300 < 2**24 < 640 * 300**2
def test_float32_blocks_score_as_float64_blocks(params):
    grids, simulated = bound_round(*params)

    def scores():
        gammas = [gamma_scores(grids, simulated, mode) for mode in (det.GAMMA_COS_OVER_L1, GAMMA_COS_ONLY)]
        return [s.tobytes() for s in (*deviation_statistics(grids), dev_scores(grids), *gammas)]

    with float64_only():
        expected = scores()
    assert scores() == expected


@pytest.mark.parametrize("size", [1, 16, 2560])
def test_float32_blocks_up_to_the_largest_exact_peak(size):
    stack = np.zeros((3, size), dtype=np.int64)
    edge = largest_float32_peak(size)
    assert size * edge**2 < 2**24 <= size * (edge + 1) ** 2
    assert {block.dtype for _, block in det._float_blocks(stack, edge)} == {np.dtype(np.float32)}
    assert {block.dtype for _, block in det._float_blocks(stack, edge + 1)} == {np.dtype(np.float64)}


def test_grids_crossing_the_float32_bound_between_chunks_score_as_float64():
    """4 x 4 grids at e = 2000 whose first 4 rounds peak at 1023 or below,
    the largest float32 peak of 16 entries, and whose last 4 rounds do not:
    of replay's chunks of 4 rounds, the first takes float32 blocks for Dev
    and the second float64."""
    wefs, pens, e = trial(np.random.default_rng(18), 8, 6, 4, 4, 2000, ["random", "colluders"] * 4)
    for grids in wefs[:4]:
        np.minimum(grids, 1023, out=grids)
    assert max(g.max() for g in wefs[:4]) <= largest_float32_peak(16) < min(g.max() for g in wefs[4:])
    for name in DETECTORS:
        with patch.object(det, "_chunk_rounds", lambda n, h, w: 4):
            mixed = detect_trial(name, wefs, pens, None, e)
            with float64_only():
                expected = detect_trial(name, wefs, pens, None, e)
        assert [detection_bits(d) for d in mixed] == [detection_bits(d) for d in expected]


def permutable_round(n, h, w, e, colluders, seed):
    """Benign clients' noisy copies of one grid, and a block of identical
    colluder grids equal to the simulated one; the broadcasts."""
    rng = np.random.default_rng(seed)
    now = rng.normal(size=(h, w))
    prev = now + rng.normal(0, 0.1, size=(h, w))
    base = rng.integers(0, e + 1, size=(h, w))
    wefs = np.clip(base + rng.integers(-1, 2, size=(n, h, w)), 0, e)
    # identical colluder grids: Ward meets their ties, which it breaks by index
    wefs[rng.choice(n, size=min(colluders, n // 2), replace=False)] = simulate_global_wef(now, prev, e)
    return wefs, now, prev


def assert_permuted(wefs, now, prev, e, perm, flags=True):
    """Scoring wefs[perm] permutes each detector's gamma (to the bit), Dev
    (to its rounding: each client sums the others in client order) and,
    with flags, its flagged set."""
    for name in DETECTORS:
        detection = run_detector(name, wefs, now, prev, e)
        moved = run_detector(name, wefs[perm], now, prev, e)
        flagged, moved_flagged = detection.decision.free_rider_list, moved.decision.free_rider_list
        assert moved.scores.gamma.tobytes() == detection.scores.gamma[perm].tobytes()
        np.testing.assert_allclose(moved.scores.dev, detection.scores.dev[perm], rtol=1e-12, atol=1e-12)
        if flags:
            assert moved_flagged == frozenset(j for j, i in enumerate(perm) if i in flagged)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(3, 12), h=st.integers(1, 6), w=st.integers(1, 6),
       e=st.integers(1, 12), colluders=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_permuting_the_clients_permutes_scores_and_flags(data, n, h, w, e, colluders, seed):
    wefs, now, prev = permutable_round(n, h, w, e, colluders, seed)
    # at 4 clients the flagged set can follow client order, a known defect
    # that the strict xfail below pins; its fix drops the n != 4 here
    assert_permuted(wefs, now, prev, e, data.draw(st.permutations(range(n))), flags=n != 4)


@pytest.mark.xfail(strict=True, reason="a near-tie of Ward distances follows Dev's rounding, which follows client order")
def test_four_clients_with_two_colluders_flag_by_client_order():
    # the two benign clients' z points mirror each other about the colluders'
    # (-1, -2) and (-1, 2) against (1, 0), up to Dev's rounding: the
    # clustering cuts off whichever mirror point lies a rounding error
    # farther, and S2WEF flags client 3 in this order and nobody in the other
    wefs, now, prev = permutable_round(n=4, h=3, w=4, e=2, colluders=2, seed=0)
    assert_permuted(wefs, now, prev, 2, [1, 2, 0, 3])


# inputs on which the permutation property above once failed, each with the
# permutation that showed it: values equal but for rounding, which follows
# client order, were divided by a spread that rounding alone makes (the
# summed deviations in dev_scores, a MAD of about 1e-17 in
# robust_standardize), or mirror clusters tied on centroid norm and gamma
# went to client 0's
@pytest.mark.parametrize("n, h, w, e, colluders, seed, perm", [
    (6, 1, 1, 1, 1, 600638329, [1, 0, 4, 2, 5, 3]),
    (4, 1, 5, 1, 2, 26243, [3, 0, 2, 1]),  # Dev off by 0.33
    (10, 1, 1, 1, 0, 41494, [0, 1, 8, 6, 5, 7, 9, 2, 3, 4]),
    (6, 1, 1, 1, 0, 230484, [5, 2, 3, 0, 4, 1]),
    (8, 1, 1, 3, 0, 11, [1, 6, 7, 2, 3, 4, 5, 0]),  # z exactly (0, +-1): the Dev tie-break
    (6, 1, 1, 1, 2, 6, [2, 1, 3, 5, 4, 0]),  # Dev exactly 1/3 by symmetry
    (6, 1, 1, 1, 0, 1, [0, 1, 3, 4, 2, 5]),  # Dev exactly 1/3 by symmetry
])
def test_rounding_ties_do_not_follow_client_order(n, h, w, e, colluders, seed, perm):
    wefs, now, prev = permutable_round(n, h, w, e, colluders, seed)
    assert_permuted(wefs, now, prev, e, perm)


# inputs on which the permutation property still fails: an exact tie, which
# Dev's client-order rounding breaks (a near-tie of Ward distances or of
# centroid norms, Dev at exactly 0.05 below the max), or which Ward breaks
# by client index (three clusters equally spaced)
@pytest.mark.xfail(strict=True, reason="an exact tie is broken by rounding or by index, which follow client order")
@pytest.mark.parametrize("n, h, w, e, colluders, seed, perm", [
    (8, 4, 4, 4, 4, 3648, [3, 1, 6, 7, 4, 5, 0, 2]),
    (8, 6, 5, 2, 5, 2225104841, [3, 2, 5, 1, 6, 0, 4, 7]),
    (11, 1, 2, 1, 1, 2783782263, [9, 10, 7, 4, 2, 0, 5, 3, 6, 1, 8]),  # the baseline's margin
    (9, 1, 1, 2, 2, 3366551180, [2, 3, 0, 8, 5, 1, 4, 7, 6]),  # z_dev at -1, 0 and 1
])
def test_rounding_ties_flag_by_client_order(n, h, w, e, colluders, seed, perm):
    wefs, now, prev = permutable_round(n, h, w, e, colluders, seed)
    assert_permuted(wefs, now, prev, e, perm)
