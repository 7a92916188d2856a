import numpy as np
import pytest

from s2wef.attacks import AttackParams, adwa, awca, dwa, make_submission, rwa, spa
from s2wef.errors import ConfigurationError, HistoryError
from s2wef.nn import init_model


@pytest.fixture
def globals_pair():
    now = init_model([4, 8, 3], seed=1)
    prev_flat = now.to_flat() + np.random.default_rng(5).normal(0, 0.05, size=now.num_params)
    return now, now.from_flat(prev_flat)


def test_rwa_range_and_determinism(globals_pair):
    now, _ = globals_pair
    sub1 = rwa(now, 1e-3, e=5, seed=3)
    sub2 = rwa(now, 1e-3, e=5, seed=3)
    assert np.abs(sub1.weights.to_flat()).max() <= 1e-3
    assert sub1.weights.to_flat().tobytes() == sub2.weights.to_flat().tobytes()
    assert sub1.wef.shape == now.penultimate.shape


def test_rwa_default_range():
    assert AttackParams(kind="RWA").rwa_range == 1e-3


def test_rwa_rejects_bad_range(globals_pair):
    with pytest.raises(ConfigurationError):
        rwa(globals_pair[0], 0.0, e=5, seed=1)


def test_dwa_degenerate_history(globals_pair):
    now, _ = globals_pair
    sub = dwa(now, now, e=5)
    np.testing.assert_array_equal(sub.weights.to_flat(), now.to_flat())
    assert not sub.wef.any()


def test_dwa_colluders_identical(globals_pair):
    now, prev = globals_pair
    a = dwa(now, prev, e=5)
    b = dwa(now, prev, e=5)
    assert a.weights.to_flat().tobytes() == b.weights.to_flat().tobytes()
    np.testing.assert_array_equal(a.wef, b.wef)


def test_dwa_wef_binary(globals_pair):
    now, prev = globals_pair
    sub = dwa(now, prev, e=4)
    assert set(np.unique(sub.wef)) <= {0, 4}


def test_dwa_missing_history(globals_pair):
    with pytest.raises(HistoryError):
        dwa(globals_pair[0], None, e=5)


def test_adwa_zero_sigma_reduces_to_dwa(globals_pair):
    now, prev = globals_pair
    a = adwa(now, prev, sigma=0.0, e=5, seed=7)
    d = dwa(now, prev, e=5)
    np.testing.assert_array_equal(a.weights.to_flat(), d.weights.to_flat())
    np.testing.assert_array_equal(a.wef, d.wef)


def test_adwa_different_seeds_differ(globals_pair):
    now, prev = globals_pair
    a = adwa(now, prev, sigma=1e-3, e=5, seed=1)
    b = adwa(now, prev, sigma=1e-3, e=5, seed=2)
    assert not np.array_equal(a.weights.to_flat(), b.weights.to_flat())


def test_adwa_missing_history(globals_pair):
    with pytest.raises(HistoryError):
        adwa(globals_pair[0], None, sigma=1e-3, e=5, seed=0)


def test_spa_zero_sigma_is_identity(globals_pair):
    now, _ = globals_pair
    sub = spa(now, sigma=0.0, e=5, seed=1)
    np.testing.assert_array_equal(sub.weights.to_flat(), now.to_flat())


def test_spa_deterministic(globals_pair):
    now, _ = globals_pair
    a = spa(now, sigma=1e-3, e=5, seed=4)
    b = spa(now, sigma=1e-3, e=5, seed=4)
    assert a.weights.to_flat().tobytes() == b.weights.to_flat().tobytes()


def test_spa_half_normal_mean():
    # mean absolute Gaussian perturbation is sigma * sqrt(2/pi)
    now = init_model([8, 64, 10], seed=2)
    sigma = 1e-3
    perturbations = []
    for seed in range(40):
        sub = spa(now, sigma=sigma, e=5, seed=seed)
        perturbations.append(np.abs(sub.weights.to_flat() - now.to_flat()).mean())
    expected = sigma * np.sqrt(2 / np.pi)
    assert np.mean(perturbations) == pytest.approx(expected, rel=0.05)


def test_awca_zero_sigma_matches_dwa_weights(globals_pair):
    now, prev = globals_pair
    a = awca(now, prev, e=5, sigma=0.0, seed=3)
    d = dwa(now, prev, e=5)
    np.testing.assert_allclose(a.weights.to_flat(), d.weights.to_flat(), atol=1e-12, rtol=0)


def test_awca_constant_deltas_give_zero_wef():
    # both globals differ by a constant, so every per-step delta equals the
    # threshold and the strict comparison never fires; weights quantized to
    # 2**-10 keep the repeated additions of 0.125 exact in float64
    now = init_model([4, 8, 3], seed=1)
    now = now.from_flat(np.round(now.to_flat() * 1024) / 1024)
    prev = now.from_flat(now.to_flat() - 0.5)
    sub = awca(now, prev, e=4, sigma=0.0, seed=0)
    assert not sub.wef.any()


def test_awca_wef_within_budget(globals_pair):
    now, prev = globals_pair
    sub = awca(now, prev, e=5, sigma=1e-5, seed=9)
    assert sub.wef.max() <= 5
    assert sub.wef.min() >= 0


def test_awca_missing_history(globals_pair):
    with pytest.raises(HistoryError):
        awca(globals_pair[0], None, e=5, sigma=1e-5, seed=0)


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
        sub = make_submission(AttackParams(kind=kind), now, prev, e=5, seed=1)
        assert sub.wef.shape == now.penultimate.shape
        assert sub.wef.max() <= 5


def test_defaults_match_documented_values():
    p = AttackParams(kind="ADWA")
    assert p.adwa_sigma == 1e-3
    assert p.spa_sigma == 1e-3
