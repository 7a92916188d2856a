import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from s2wef.errors import ConfigurationError, NumericError
from s2wef.nn import (
    DatasetShard,
    Layout,
    TrainConfig,
    _forward,
    _log_softmax,
    evaluate_accuracy,
    init_model,
    local_train,
)
from s2wef.wef import build_wef

LAYOUT = Layout([4, 8, 2])


def tiny_shard(n=8, dim=4, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return DatasetShard(rng.normal(size=(n, dim)), rng.integers(0, classes, size=n), classes)


def cross_entropy_loss(layout, row, x, y):
    """Mean softmax cross-entropy of the model row on a batch."""
    logp = _log_softmax(_forward(*layout.views(row), x)[-1])
    return float(-logp[np.arange(len(y)), y].mean())


def test_init_model_deterministic():
    a = init_model([4, 8, 2], seed=7)
    b = init_model([4, 8, 2], seed=7)
    assert a.tobytes() == b.tobytes()


def test_init_model_penultimate_shape():
    m = init_model([4, 8, 2], seed=3)
    assert m.shape == (LAYOUT.num_params,) == (4 * 8 + 8 + 8 * 2 + 2,) and m.dtype == np.float64
    assert LAYOUT.penultimate(m).shape == LAYOUT.penultimate_shape == (8, 2)


def test_init_model_bounds():
    layout = Layout([9, 16, 3])
    weights, biases = layout.views(init_model(layout.sizes, seed=11))
    assert np.abs(weights[0]).max() <= 1 / 3
    assert np.abs(weights[1]).max() <= 1 / 4
    assert all(not b.any() for b in biases)


def test_flat_round_trip():
    m = init_model([4, 8, 2], seed=5)
    weights, biases = LAYOUT.views(m)
    # the noise attacks draw one value per row position, so its layout is part of the trace
    np.testing.assert_array_equal(weights[0], m[:32].reshape(4, 8))
    np.testing.assert_array_equal(biases[0], m[32:40])
    np.testing.assert_array_equal(weights[1], m[40:56].reshape(8, 2))
    np.testing.assert_array_equal(biases[1], m[56:58])
    layout = np.concatenate([weights[0].ravel(), biases[0], weights[1].ravel(), biases[1]])
    np.testing.assert_array_equal(m, layout)
    again = m.copy()
    LAYOUT.penultimate(again)[0, 0] += 1.0  # layers are views into the row
    assert again[4 * 8 + 8] == m[4 * 8 + 8] + 1.0
    # a (k, P) stack gives each row's layers, with the stack's leading axis
    stack = np.stack([m, 2 * m])
    np.testing.assert_array_equal(LAYOUT.penultimate(stack)[1], 2 * weights[1])
    assert [w.shape for w in LAYOUT.views(stack)[0]] == [(2, 4, 8), (2, 8, 2)]


@pytest.mark.parametrize("rate", [0.0, -0.1])
def test_train_config_rejects_a_rate_that_trains_nothing(rate):
    with pytest.raises(ConfigurationError, match="learning_rate must be > 0"):
        TrainConfig(learning_rate=rate)


def test_local_train_snapshot_count_and_start():
    # one step: the WEF grid compares the start snapshot with the trained one
    m = init_model([4, 8, 2], seed=2)
    rows, wefs = local_train(LAYOUT, m, [tiny_shard()], TrainConfig(learning_rate=0.1, local_iterations=1), seeds=[3])
    assert rows.shape == (1, LAYOUT.num_params) and wefs.shape == (1, 8, 2)
    np.testing.assert_array_equal(wefs[0], build_wef([LAYOUT.penultimate(m), LAYOUT.penultimate(rows[0])]))
    assert wefs.dtype == np.int64 and 0 < wefs.sum() < 16


def test_local_train_deterministic():
    m = init_model([4, 8, 2], seed=2)
    cfg = TrainConfig(learning_rate=0.1, batch_size=4, local_iterations=5)
    w1, f1 = local_train(LAYOUT, m, [tiny_shard()], cfg, seeds=[9])
    w2, f2 = local_train(LAYOUT, m, [tiny_shard()], cfg, seeds=[9])
    assert w1.tobytes() == w2.tobytes()
    assert f1.tobytes() == f2.tobytes()


def test_local_train_loss_decreases():
    # frozen from a run of this fixed setup; the oracle for the update rule
    # itself is the finite-difference check below
    shard = tiny_shard(n=8, dim=4, classes=2, seed=1)
    m = init_model([4, 8, 2], seed=4)
    before = cross_entropy_loss(LAYOUT, m, shard.features, shard.labels)
    cfg = TrainConfig(learning_rate=0.5, batch_size=8, local_iterations=3)
    rows, _ = local_train(LAYOUT, m, [shard], cfg, seeds=[11])
    after = cross_entropy_loss(LAYOUT, rows[0], shard.features, shard.labels)
    assert after < before


def test_gradient_matches_finite_differences_logistic():
    # 1-input 2-logit softmax with zero biases is plain logistic regression
    # in the weight difference; the two weight entries are the parameters
    layout = Layout([1, 2])
    flat = np.array([0.3, -0.2, 0.0, 0.0])  # w0 = [[0.3, -0.2]], b0 = 0
    shard = DatasetShard(np.array([[1.0], [-2.0], [0.5], [3.0]]), np.array([0, 1, 1, 0]), 2)
    lr = 1e-4
    cfg = TrainConfig(learning_rate=lr, batch_size=4, local_iterations=1)
    rows, _ = local_train(layout, flat, [shard], cfg, seeds=[0])
    grad = (flat - rows[0]) / lr

    eps = 1e-6
    for k in range(2):  # the two logistic weights
        bump = np.zeros_like(flat)
        bump[k] = eps
        up = cross_entropy_loss(layout, flat + bump, shard.features, shard.labels)
        down = cross_entropy_loss(layout, flat - bump, shard.features, shard.labels)
        assert grad[k] == pytest.approx((up - down) / (2 * eps), rel=1e-5, abs=1e-10)


def test_gradient_matches_finite_differences():
    # recover the gradient of one full-batch SGD step as (w_start - w_end)/lr
    # and compare against central finite differences of the loss
    shard = tiny_shard(n=6, dim=2, classes=2, seed=3)
    layout = Layout([2, 3, 2])
    flat = init_model(layout.sizes, seed=8)
    lr = 1e-4
    cfg = TrainConfig(learning_rate=lr, batch_size=6, local_iterations=1)
    rows, _ = local_train(layout, flat, [shard], cfg, seeds=[0])
    grad = (flat - rows[0]) / lr

    eps = 1e-6
    for k in range(flat.size):
        bump = np.zeros_like(flat)
        bump[k] = eps
        up = cross_entropy_loss(layout, flat + bump, shard.features, shard.labels)
        down = cross_entropy_loss(layout, flat - bump, shard.features, shard.labels)
        numeric = (up - down) / (2 * eps)
        assert grad[k] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


def test_evaluate_accuracy_constant_predictor():
    # output bias forces class 0 regardless of input
    layout = Layout([3, 4, 2])
    m = init_model(layout.sizes, seed=1)
    weights, biases = layout.views(m)
    for w in weights:
        w[:] = 0.0
    biases[-1][:] = [1.0, 0.0]
    all_zero = DatasetShard(np.random.default_rng(0).normal(size=(5, 3)), np.zeros(5, dtype=int), 2)
    all_one = DatasetShard(all_zero.features, np.ones(5, dtype=int), 2)
    assert evaluate_accuracy(layout, m, all_zero) == 1.0
    assert evaluate_accuracy(layout, m, all_one) == 0.0


def test_evaluate_accuracy_hand_built_half():
    # logits = x @ W with identity-ish penultimate: sample 0 correct, sample 1 wrong
    layout = Layout([2, 2, 2])
    m = np.zeros(layout.num_params)  # biases zero
    weights, _ = layout.views(m)
    weights[0][:] = np.eye(2)
    weights[1][:] = [[1.0, 0.0], [0.0, 1.0]]
    shard = DatasetShard(np.array([[2.0, 1.0], [2.0, 1.0]]), np.array([0, 1]), 2)
    assert evaluate_accuracy(layout, m, shard) == 0.5


def test_evaluate_accuracy_tie_goes_to_lowest_class():
    layout = Layout([2, 3, 2])
    m = np.zeros(layout.num_params)
    shard0 = DatasetShard(np.ones((4, 2)), np.zeros(4, dtype=int), 2)
    shard1 = DatasetShard(np.ones((4, 2)), np.ones(4, dtype=int), 2)
    assert evaluate_accuracy(layout, m, shard0) == 1.0  # all-equal logits resolve to class 0
    assert evaluate_accuracy(layout, m, shard1) == 0.0


def test_snapshots_finite_and_shaped():
    # six steps: each entry of the grid counts at most six threshold crossings
    m = init_model([4, 8, 2], seed=2)
    shards = [tiny_shard(seed=s) for s in range(3)]
    rows, wefs = local_train(LAYOUT, m, shards, TrainConfig(learning_rate=0.2, local_iterations=6), seeds=[5, 6, 7])
    assert rows.shape == (3, LAYOUT.num_params) and np.isfinite(rows).all()
    assert wefs.shape == (3, 8, 2) and wefs.min() >= 0 and wefs.max() <= 6


def chained_forward(weights, biases, x):
    """The forward pass as one expression per layer: the reference for _forward."""
    acts = [x]
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
        acts.append(z if l == len(weights) - 1 else np.maximum(z, 0.0))
    return acts


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 40), min_size=1, max_size=2),
    dim=st.integers(1, 12),
    classes=st.integers(1, 6),
    batch=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    room=st.none() | st.floats(0.0, 1.5),
)
# the shipped configs evaluate 2,000 rows of 16 features through 256 hidden units
@example(hidden=[256], dim=16, classes=10, batch=2000, seed=3, room=None)
@example(hidden=[256], dim=16, classes=10, batch=2000, seed=3, room=1.0)
def test_forward_is_bit_equal_to_the_chained_reference(hidden, dim, classes, batch, seed, room):
    """With or without scratch, whose room is a share of all activations' entries."""
    rng = np.random.default_rng(seed)
    layout = Layout([dim, *hidden, classes])
    weights, biases = layout.views(init_model(layout.sizes, seed=seed))
    for b in biases:  # init_model's biases are zero
        b[:] = rng.normal(size=b.shape)
    x = rng.normal(size=(batch, dim))
    scratch = None if room is None else np.full(int(room * batch * (sum(hidden) + classes)), np.nan)
    got, want = _forward(weights, biases, x, scratch), chained_forward(weights, biases, x)
    assert len(got) == len(want)
    used = 0
    for a, b in zip(got[1:], want[1:]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        if scratch is not None:  # each activation that fits takes the next entries
            fits = used + a.size <= scratch.size
            assert np.shares_memory(a, scratch) == fits
            assert not fits or np.shares_memory(a, scratch[used:used + a.size])
            used += a.size if fits else 0


def test_training_and_evaluation_leave_their_inputs_unchanged():
    layout = Layout([4, 8, 3])
    m = init_model(layout.sizes, seed=6)
    layout.views(m)[1][0][:] = np.linspace(-1.0, 1.0, 8)
    shard = tiny_shard(n=40, classes=3, seed=2)
    model_bytes, feature_bytes = m.tobytes(), shard.features.tobytes()
    local_train(layout, m, [shard], TrainConfig(learning_rate=0.3, batch_size=8, local_iterations=4), seeds=[1])
    evaluate_accuracy(layout, m, shard)
    cross_entropy_loss(layout, m, shard.features, shard.labels)
    assert m.tobytes() == model_bytes
    assert shard.features.tobytes() == feature_bytes


def reference_local_train(layout, w_start, shard, cfg, seed):
    """One client's SGD steps and WEF count as one client trained before the
    lockstep trainer: the reference for local_train.  Returns the parameter
    row and the WEF grid."""
    rng = np.random.default_rng(seed)
    model = w_start.copy()
    weights, biases = layout.views(model)
    layers = len(weights)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    snapshots = [weights[-1].copy()]
    n = len(shard)
    batch = min(cfg.batch_size, n)
    order = rng.permutation(n)
    pos = 0
    for _ in range(cfg.local_iterations):
        if pos + batch > n:
            order = rng.permutation(n)
            pos = 0
        idx = order[pos:pos + batch]
        pos += batch
        y = shard.labels[idx]
        acts = chained_forward(weights, biases, shard.features[idx])
        shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        delta = np.exp(logp)
        delta[np.arange(batch), y] -= 1.0
        delta /= batch
        grads_w, grads_b = [None] * layers, [None] * layers
        for l in range(layers - 1, -1, -1):
            grads_w[l] = acts[l].T @ delta
            grads_b[l] = delta.sum(axis=0)
            if l > 0:
                delta = (delta @ weights[l].T) * (acts[l] > 0)
        for l in range(layers):
            vel_w[l] = cfg.momentum * vel_w[l] + grads_w[l]
            vel_b[l] = cfg.momentum * vel_b[l] + grads_b[l]
            weights[l] -= cfg.learning_rate * vel_w[l]
            biases[l] -= cfg.learning_rate * vel_b[l]
        snapshots.append(weights[-1].copy())
    counts = np.zeros(snapshots[0].shape, dtype=np.int64)
    for prev, curr in zip(snapshots[:-1], snapshots[1:]):
        change = np.abs(curr - prev)
        counts += change > change.mean()
    return model, counts


@settings(max_examples=80, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 40), min_size=1, max_size=2),
    dim=st.integers(1, 12),
    classes=st.integers(1, 6),
    rows=st.integers(1, 30),
    clients=st.integers(1, 10),
    batch=st.integers(1, 40),
    iterations=st.integers(1, 12),
    momentum=st.sampled_from([0.0, 0.5, 0.9]),
    rate=st.sampled_from([0.01, 0.1, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
# a many_clients group: 16 -> 256 -> 10, 20-row shards under the default batch of 32
@example(hidden=[256], dim=16, classes=10, rows=20, clients=8, batch=32, iterations=5,
         momentum=0.0, rate=0.1, seed=1)
def test_lockstep_training_is_bit_equal_to_the_per_client_reference(
    hidden, dim, classes, rows, clients, batch, iterations, momentum, rate, seed
):
    rng = np.random.default_rng(seed)
    layout = Layout([dim, *hidden, classes])
    m = init_model(layout.sizes, seed=seed)
    for b in layout.views(m)[1]:  # init_model's biases are zero
        b[:] = 0.1 * rng.normal(size=b.shape)
    shards = [
        DatasetShard(rng.normal(size=(rows, dim)), rng.integers(0, classes, size=rows), classes)
        for _ in range(clients)
    ]
    seeds = rng.integers(0, 2**63, size=clients).tolist()
    cfg = TrainConfig(learning_rate=rate, momentum=momentum, batch_size=batch, local_iterations=iterations)
    got_rows, got_wefs = local_train(layout, m, shards, cfg, seeds)
    assert got_rows.shape == (clients, layout.num_params)
    assert got_wefs.shape == (clients, *layout.penultimate_shape) and got_wefs.dtype == np.int64
    for j, (shard, client_seed) in enumerate(zip(shards, seeds)):
        want_row, want_wef = reference_local_train(layout, m, shard, cfg, client_seed)
        assert got_rows[j].tobytes() == want_row.tobytes(), f"client {j} parameters"
        assert got_wefs[j].tobytes() == want_wef.tobytes(), f"client {j} WEF grid"


def test_local_train_names_the_first_shard_to_diverge():
    # huge finite features: shard 1 overflows at step 3, shards 2 and 3 at
    # step 2, so the error names shard 2, the lowest of the earliest to diverge
    m = init_model([4, 8, 2], seed=2)
    shards = [tiny_shard(seed=s) for s in range(4)]
    for j, scale in ((1, 1e100), (2, 1e200), (3, 1e200)):
        shards[j].features *= scale
    cfg = TrainConfig(learning_rate=0.1, batch_size=8, local_iterations=4)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite loss at local iteration 2") as info:
        local_train(LAYOUT, m, shards, cfg, seeds=[0, 1, 2, 3])
    assert info.value.shard == 2
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite loss at local iteration 3") as info:
        local_train(LAYOUT, m, shards[:2], cfg, seeds=[0, 1])
    assert info.value.shard == 1
