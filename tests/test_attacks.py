import hashlib
import sys

import numpy as np
import pytest

from s2wef.attacks import AttackParams, adwa, awca, dwa, make_submission, rwa, spa
from s2wef.errors import ConfigurationError
from s2wef.nn import Layout, init_model

LAYOUT = Layout([4, 8, 3])


@pytest.fixture
def globals_pair():
    now = init_model(LAYOUT.sizes, seed=1)
    return now, now + np.random.default_rng(5).normal(0, 0.05, size=LAYOUT.num_params)


def test_rwa_range_and_determinism(globals_pair):
    now, _ = globals_pair
    row1, wef1 = rwa(LAYOUT, now, 1e-3, e=5, seed=3)
    row2, _ = rwa(LAYOUT, now, 1e-3, e=5, seed=3)
    assert row1.shape == now.shape and np.abs(row1).max() <= 1e-3
    assert row1.tobytes() == row2.tobytes()
    assert wef1.shape == LAYOUT.penultimate_shape


def test_rwa_default_range():
    assert AttackParams(kind="RWA").rwa_range == 1e-3


def test_rwa_rejects_bad_range():
    for bad in (0.0, -1e-3):
        with pytest.raises(ConfigurationError, match="rwa_range"):
            AttackParams(kind="RWA", rwa_range=bad)


def test_rwa_range_is_bounded_where_numpy_can_draw_it(globals_pair):
    """rng.uniform needs the width 2R finite: R = max / 2 draws, and
    AttackParams refuses the next float up, as it does NaN."""
    top = sys.float_info.max / 2
    with np.errstate(over="ignore"):  # the counterfeit's mean change overflows
        row, _ = rwa(LAYOUT, globals_pair[0], top, e=5, seed=1)
    assert np.isfinite(row).all()
    assert AttackParams(kind="RWA", rwa_range=top).rwa_range == top
    for bad in (np.nextafter(top, np.inf), float("nan")):
        with pytest.raises(ConfigurationError, match="rwa_range"):
            AttackParams(kind="RWA", rwa_range=bad)


def test_dwa_degenerate_history(globals_pair):
    now, _ = globals_pair
    row, wef = dwa(LAYOUT, now, now, e=5)
    np.testing.assert_array_equal(row, now)
    assert not wef.any()


def test_dwa_colluders_identical(globals_pair):
    now, prev = globals_pair
    a_row, a_wef = dwa(LAYOUT, now, prev, e=5)
    b_row, b_wef = dwa(LAYOUT, now, prev, e=5)
    assert a_row.tobytes() == b_row.tobytes()
    np.testing.assert_array_equal(a_wef, b_wef)


def test_dwa_wef_binary(globals_pair):
    now, prev = globals_pair
    _, wef = dwa(LAYOUT, now, prev, e=4)
    assert set(np.unique(wef)) <= {0, 4}


def test_adwa_zero_sigma_reduces_to_dwa(globals_pair):
    now, prev = globals_pair
    a_row, a_wef = adwa(LAYOUT, now, prev, sigma=0.0, e=5, seed=7)
    d_row, d_wef = dwa(LAYOUT, now, prev, e=5)
    np.testing.assert_array_equal(a_row, d_row)
    np.testing.assert_array_equal(a_wef, d_wef)


def test_adwa_different_seeds_differ(globals_pair):
    now, prev = globals_pair
    a_row, _ = adwa(LAYOUT, now, prev, sigma=1e-3, e=5, seed=1)
    b_row, _ = adwa(LAYOUT, now, prev, sigma=1e-3, e=5, seed=2)
    assert not np.array_equal(a_row, b_row)


def test_spa_zero_sigma_is_identity(globals_pair):
    now, _ = globals_pair
    row, _ = spa(LAYOUT, now, sigma=0.0, e=5, seed=1)
    np.testing.assert_array_equal(row, now)


def test_spa_deterministic(globals_pair):
    now, _ = globals_pair
    a_row, _ = spa(LAYOUT, now, sigma=1e-3, e=5, seed=4)
    b_row, _ = spa(LAYOUT, now, sigma=1e-3, e=5, seed=4)
    assert a_row.tobytes() == b_row.tobytes()


def test_spa_half_normal_mean():
    # mean absolute Gaussian perturbation is sigma * sqrt(2/pi)
    layout = Layout([8, 64, 10])
    now = init_model(layout.sizes, seed=2)
    sigma = 1e-3
    perturbations = []
    for seed in range(40):
        row, _ = spa(layout, now, sigma=sigma, e=5, seed=seed)
        perturbations.append(np.abs(row - now).mean())
    expected = sigma * np.sqrt(2 / np.pi)
    assert np.mean(perturbations) == pytest.approx(expected, rel=0.05)


def test_awca_zero_sigma_matches_dwa_weights(globals_pair):
    now, prev = globals_pair
    a_row, _ = awca(LAYOUT, now, prev, e=5, sigma=0.0, seed=3)
    d_row, _ = dwa(LAYOUT, now, prev, e=5)
    np.testing.assert_allclose(a_row, d_row, atol=1e-12, rtol=0)


def test_awca_constant_deltas_give_zero_wef():
    # both globals differ by a constant, so every per-step delta equals the
    # threshold and the strict comparison never fires; weights quantized to
    # 2**-10 keep the repeated additions of 0.125 exact in float64
    now = np.round(init_model(LAYOUT.sizes, seed=1) * 1024) / 1024
    _, wef = awca(LAYOUT, now, now - 0.5, e=4, sigma=0.0, seed=0)
    assert not wef.any()


def test_awca_wef_within_budget(globals_pair):
    now, prev = globals_pair
    _, wef = awca(LAYOUT, now, prev, e=5, sigma=1e-5, seed=9)
    assert wef.max() <= 5
    assert wef.min() >= 0


def test_awca_default_sigma():
    assert AttackParams(kind="AWCA").awca_sigma == 1e-5


def test_attack_params_validation():
    with pytest.raises(ConfigurationError):
        AttackParams(kind="BOGUS")
    with pytest.raises(ConfigurationError):
        AttackParams(kind="SPA", spa_sigma=-1.0)


def test_make_submission_dispatch(globals_pair):
    now, prev = globals_pair
    for kind in ("RWA", "SPA", "DWA", "ADWA", "AWCA"):
        row, wef = make_submission(AttackParams(kind=kind), LAYOUT, now, prev, e=5, seed=1)
        assert row.shape == now.shape and row.dtype == np.float64
        assert wef.shape == LAYOUT.penultimate_shape
        assert wef.max() <= 5


# sha256 of each attack's fabricated row and grid bytes from the fixture's
# pair, recorded before parameters became rows.  At the defaults, DWA, ADWA
# and AWCA fabricate one grid; noisier AWCA steps give a grid of their own.
PINNED = {
    "RWA": ({"kind": "RWA"}, "4540ef1863f52e7b8e896b0951901b2628ec513f1f799506d00ebba916176690",
            "331cc43dd4e684372fdc9f05de24230589cda1164c33499460c95cddb7fbf057"),
    "SPA": ({"kind": "SPA"}, "eac28cf9860b02c16a784400beff51cdbb780dde7eea391991f85b820dca37f0",
            "df90c42f7e40b0b9bd441cc4de97b8da1cbf59292a78ffe862360cbc85f0c269"),
    "DWA": ({"kind": "DWA"}, "cba3764667c8477ae1962bcca8659be22cf8d0dc9d0eb8460cae9cdf07fb97f4",
            "58b30069057a86cde31437bf4f6131dcbd3b64cd0e45cc72dc9a6122d2308483"),
    "ADWA": ({"kind": "ADWA"}, "b7775055956cbfdd58531c73190f8cce59fdf1f61bb5b56259e9f96611507fa4",
             "58b30069057a86cde31437bf4f6131dcbd3b64cd0e45cc72dc9a6122d2308483"),
    "AWCA": ({"kind": "AWCA"}, "6de59002395e6059f978d79a56fec65ab57f0a03eaaf8ef0f07c73b9940314a4",
             "58b30069057a86cde31437bf4f6131dcbd3b64cd0e45cc72dc9a6122d2308483"),
    "AWCA-noisy": ({"kind": "AWCA", "awca_sigma": 1e-2},
                   "d484870625e7b273d37b4f09601c99dbcf2a9899db2c39dd7e6ecf39b344e7a4",
                   "93c1cd6b5ca20b242cf6d425572765a90c2c6e11fbc9e0bb497a2451c38874ff"),
}


@pytest.mark.parametrize("params, row_sha, grid_sha", PINNED.values(), ids=PINNED.keys())
def test_each_attack_reproduces_its_pinned_bits(globals_pair, params, row_sha, grid_sha):
    row, wef = make_submission(AttackParams(**params), LAYOUT, *globals_pair, e=5, seed=1)
    assert row.dtype == np.float64 and wef.dtype == np.int64
    assert hashlib.sha256(row.tobytes()).hexdigest() == row_sha
    assert hashlib.sha256(wef.tobytes()).hexdigest() == grid_sha


def test_defaults_match_documented_values():
    p = AttackParams(kind="ADWA")
    assert p.adwa_sigma == 1e-3
    assert p.spa_sigma == 1e-3
