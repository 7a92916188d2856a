import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s2wef.errors import ConfigurationError, ShapeError
from s2wef.wef import build_wef, counterfeit_one_step


def naive_build(snapshots):
    """Independent recomputation with explicit Python loops."""
    snaps = [np.asarray(s, dtype=float) for s in snapshots]
    h, w = snaps[0].shape
    counts = [[0] * w for _ in range(h)]
    for prev, curr in zip(snaps[:-1], snaps[1:]):
        total = 0.0
        for j in range(h):
            for k in range(w):
                total += abs(curr[j][k] - prev[j][k])
        alpha = total / (h * w)
        for j in range(h):
            for k in range(w):
                if abs(curr[j][k] - prev[j][k]) > alpha:
                    counts[j][k] += 1
    return np.array(counts)


def test_dynamic_threshold_hand_case():
    # |changes| 0.75, 0.25, 0.5, 0.5 have mean 0.5 exactly; a change equal to
    # the threshold does not count, and negative changes count by magnitude
    prev = np.zeros((2, 2))
    curr = np.array([[0.75, -0.25], [-0.5, 0.5]])
    np.testing.assert_array_equal(build_wef([prev, curr]), [[1, 0], [0, 0]])


def test_dynamic_threshold_constant_deltas():
    prev = np.zeros((4, 5))
    assert not build_wef([prev, prev + 0.25]).any()


def test_wef_step_equal_deltas_never_increment():
    assert not build_wef([np.zeros((2, 2)), np.full((2, 2), 0.7)]).any()


def test_wef_step_hand_case():
    f = build_wef([np.zeros((2, 2)), np.array([[0.4, 0.1], [0.1, 0.0]])])
    np.testing.assert_array_equal(f, [[1, 0], [0, 0]])
    assert f.dtype == np.int64


def test_wef_step_no_change():
    m = np.ones((2, 2))
    assert not build_wef([m, m]).any()


def test_build_wef_single_snapshot_is_zero():
    f = build_wef([np.ones((3, 2))])
    assert f.shape == (3, 2)
    assert not f.any()


def test_build_wef_constant_sequence_is_zero():
    f = build_wef([np.ones((2, 2))] * 4)
    assert f.shape == (2, 2)
    assert not f.any()


def test_build_wef_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        h, w = rng.integers(1, 5, size=2)
        e = int(rng.integers(0, 6))
        snaps = [rng.normal(size=(h, w)) for _ in range(e + 1)]
        np.testing.assert_array_equal(build_wef(snaps), naive_build(snaps))


def test_build_wef_shape_mismatch():
    with pytest.raises(ShapeError):
        build_wef([np.zeros((2, 2)), np.zeros((3, 2))])
    with pytest.raises(ShapeError):
        build_wef([np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3))])


def test_build_wef_empty():
    with pytest.raises(ConfigurationError):
        build_wef([])


def test_counterfeit_identical_weights_zero():
    w = np.random.default_rng(0).normal(size=(3, 3))
    assert not counterfeit_one_step(w, w, 5).any()


def test_counterfeit_values_only_zero_or_e():
    rng = np.random.default_rng(1)
    for _ in range(20):
        fake = rng.normal(size=(4, 3))
        base = rng.normal(size=(4, 3))
        f = counterfeit_one_step(fake, base, 7)
        assert set(np.unique(f)) <= {0, 7}


def test_counterfeit_compares_magnitudes():
    base = np.zeros((1, 3))
    fake = np.array([[1.0, -1.0, 0.1]])  # alpha = 0.7: a fall by 1 counts as a rise by 1 does
    np.testing.assert_array_equal(counterfeit_one_step(fake, base, 5), [[5, 5, 0]])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_build_wef_bounded_and_monotone(h, w, e, seed):
    rng = np.random.default_rng(seed)
    snaps = [rng.normal(size=(h, w)) for _ in range(e + 1)]
    running = np.zeros((h, w), dtype=np.int64)
    for k in range(2, e + 2):
        f = build_wef(snaps[:k])
        assert (f >= running).all()  # a further step never decreases an entry
        assert (f <= running + 1).all()  # and adds at most one
        assert f.max() <= k - 1
        running = f


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_counterfeit_range_property(h, w, e, seed):
    rng = np.random.default_rng(seed)
    f = counterfeit_one_step(rng.normal(size=(h, w)), rng.normal(size=(h, w)), e)
    assert set(np.unique(f)) <= {0, e}
