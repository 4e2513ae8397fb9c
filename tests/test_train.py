import math

import numpy as np
import pytest

from gsn.core import Dataset, ShallowNetwork, batch_eval
from gsn.train import (
    InitSpec,
    NetParams,
    OptimizerState,
    TrainConfig,
    adam_update,
    loss_and_gradients,
    lr_at,
    multi_restart,
    params_from_network,
    params_to_network,
    predict,
    train,
    train_params,
    truncated_normal_params,
)

from conftest import unit_rows


def random_network(rng, n_nodes, dim):
    rows = unit_rows(rng, n_nodes, dim + 1)
    return ShallowNetwork(rows, rng.standard_normal(n_nodes))


def random_batch(rng, n, dim):
    X = rng.uniform(-1.0, 1.0, size=(n, dim))
    y = rng.standard_normal(n)
    return Dataset(X, y, [[-1.0, 1.0]] * dim)


def test_zero_loss_zero_gradients(rng):
    net = random_network(rng, 4, 2)
    X = rng.uniform(-1, 1, size=(8, 2))
    batch = Dataset(X, batch_eval(net, X), [[-1, 1]] * 2)
    loss, grads = loss_and_gradients(net, batch)
    assert loss == pytest.approx(0.0, abs=1e-28)
    assert np.all(grads.A == 0) and np.all(grads.b == 0) and np.all(grads.c == 0)


def test_dead_node_zero_gradients(rng):
    # second node never activates on the batch
    live, dead = [1.0, 0.0], [0.0, -1.0]
    net = ShallowNetwork([live, dead], [1.0, 2.0])
    batch = random_batch(rng, 6, 1)
    _, grads = loss_and_gradients(net, batch)
    assert np.all(grads.A[1] == 0) and grads.b[1] == 0 and grads.c[1] == 0
    assert np.any(grads.A[0] != 0)


def central_difference(net, batch, setter, h=1e-6):
    base = params_from_network(net)

    def loss_at(delta):
        p = base.copy()
        setter(p, delta)
        pred = predict(p, batch.inputs)
        err = pred - batch.targets
        return float(err @ err / batch.n_points)

    return (loss_at(+h) - loss_at(-h)) / (2.0 * h)


def test_gradients_match_finite_differences(rng):
    kink_tol = 1e-4
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        n_nodes = int(rng.integers(1, 6))
        net = random_network(rng, n_nodes, dim)
        batch = random_batch(rng, int(rng.integers(2, 10)), dim)
        _, grads = loss_and_gradients(net, batch)
        params = params_from_network(net)
        z = batch.inputs @ params.A.T + params.b
        near_kink = np.abs(z).min(axis=0) < kink_tol
        for n in range(n_nodes):
            fd_c = central_difference(net, batch, lambda p, d, n=n: p.c.__setitem__(n, p.c[n] + d))
            assert fd_c == pytest.approx(grads.c[n], rel=1e-5, abs=1e-9)
            if near_kink[n]:
                continue
            fd_b = central_difference(net, batch, lambda p, d, n=n: p.b.__setitem__(n, p.b[n] + d))
            assert fd_b == pytest.approx(grads.b[n], rel=1e-5, abs=1e-9)
            for k in range(dim):
                fd_a = central_difference(
                    net, batch, lambda p, d, n=n, k=k: p.A.__setitem__((n, k), p.A[n, k] + d))
                assert fd_a == pytest.approx(grads.A[n, k], rel=1e-5, abs=1e-9)


def test_empty_batch_rejected(rng):
    net = random_network(rng, 2, 1)
    with pytest.raises(ValueError):
        loss_and_gradients(net, Dataset(np.zeros((0, 1)), np.zeros(0), [[-1, 1]]))


def test_lr_schedule():
    cfg = TrainConfig(initial_lr=1e-3, decay_rate=4.6e-4)
    assert lr_at(0, cfg) == pytest.approx(1e-3)
    assert lr_at(10_000, cfg) == pytest.approx(1e-3 * math.exp(-4.6), rel=1e-12)
    flat = TrainConfig(initial_lr=1e-3, decay_rate=0.0)
    assert lr_at(123, flat) == 1e-3


def test_adam_zero_gradient_is_identity():
    state = OptimizerState.zeros(5)
    params = np.linspace(-1, 1, 5)
    state, out = adam_update(state, params, np.zeros(5), lr=1e-3)
    assert np.array_equal(out, params)


def test_adam_step_magnitude_bounded():
    state = OptimizerState.zeros(3)
    params = np.zeros(3)
    g = np.array([1e-3, 1.0, 250.0])
    lr = 1e-3
    for _ in range(1000):
        before = params.copy()
        state, params = adam_update(state, params, g, lr)
        assert np.abs(params - before).max() <= 1.1 * lr
    # constant gradient drives near-constant steps of size ~lr
    assert np.abs(params + 1000 * lr * np.sign(g)).max() <= 0.1


def test_adam_shape_mismatch():
    state = OptimizerState.zeros(3)
    with pytest.raises(ValueError):
        adam_update(state, np.zeros(3), np.zeros(4), 1e-3)


def test_adam_determinism(rng):
    def run():
        state = OptimizerState.zeros(4)
        params = np.ones(4)
        g = np.array([0.3, -0.1, 2.0, -5.0])
        for t in range(50):
            state, params = adam_update(state, params, g * (1 + t % 3), 1e-3)
        return params

    assert np.array_equal(run(), run())


def test_train_zero_epochs_returns_input(rng):
    net = random_network(rng, 3, 1)
    ds = random_batch(rng, 10, 1)
    out, curve = train(net, ds, None, TrainConfig(epochs=0, batch_size=4))
    assert out is net
    assert curve.size == 0


def test_train_inline_adam_matches_adam_update(rng):
    # one full-batch epoch of train_params equals a manual loss/grad +
    # adam_update step on the flattened parameters (up to summation-order
    # roundoff between the two forward-pass implementations)
    net = random_network(rng, 3, 2)
    ds = random_batch(rng, 6, 2)
    cfg = TrainConfig(epochs=1, batch_size=6, shuffle=False, seed=0)
    params0 = params_from_network(net)
    trained, _ = train_params(params0.copy(), ds, cfg)

    _, grads = loss_and_gradients(net, ds)
    theta = np.concatenate([params0.A.ravel(), params0.b, params0.c])
    flat_g = np.concatenate([grads.A.ravel(), grads.b, grads.c])
    state = OptimizerState.zeros(theta.size)
    _, theta1 = adam_update(state, theta, flat_g, lr_at(0, cfg))
    got = np.concatenate([trained.A.ravel(), trained.b, trained.c])
    np.testing.assert_allclose(got, theta1, rtol=1e-13, atol=1e-15)


def test_train_convex_outer_only_monotone(rng):
    # single node, inner weights frozen: the loss is convex in c and the
    # decayed Adam iteration settles monotonically after a burn-in
    node = [[2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0)]]
    net = ShallowNetwork(node, [0.0])
    X = rng.uniform(-1, 1, size=(20, 1))
    target_net = ShallowNetwork(node, [1.7])
    ds = Dataset(X, batch_eval(target_net, X), [[-1, 1]])
    cfg = TrainConfig(epochs=1200, batch_size=20, initial_lr=1e-3,
                      decay_rate=5e-2, seed=3, train_outer_only=True)
    _, curve = train(net, ds, None, cfg)
    diffs = np.diff(curve[100:])
    assert np.all(diffs <= 1e-9)
    assert curve[-1] < curve[0]


def test_train_determinism(rng):
    net = random_network(rng, 4, 2)
    ds = random_batch(rng, 12, 2)
    cfg = TrainConfig(epochs=40, batch_size=3, seed=11)
    _, c1 = train(net, ds, None, cfg)
    _, c2 = train(net, ds, None, cfg)
    assert np.array_equal(c1, c2)


def test_dead_node_inner_weights_frozen(rng):
    live, dead = [1.0, 0.0], [0.0, -1.0]
    net = ShallowNetwork([live, dead], [0.5, 2.0])
    ds = random_batch(rng, 8, 1)
    cfg = TrainConfig(epochs=30, batch_size=8, seed=0)
    params, _ = train_params(params_from_network(net), ds, cfg)
    assert params.A[1, 0] == 0.0
    assert params.b[1] == -1.0


def test_truncated_normal_bounds_and_determinism():
    spec = InitSpec(stddev=0.05, truncation=2.0, seed=42)
    p1 = truncated_normal_params(50, 3, spec)
    p2 = truncated_normal_params(50, 3, spec)
    for arr in (p1.A, p1.b, p1.c):
        assert np.abs(arr).max() <= 2.0 * 0.05
    assert np.array_equal(p1.A, p2.A) and np.array_equal(p1.c, p2.c)


def test_params_network_round_trip(rng):
    params = NetParams(rng.standard_normal((5, 2)), rng.standard_normal(5),
                       rng.standard_normal(5))
    net = params_to_network(params, 2)
    X = rng.uniform(-1, 1, size=(9, 2))
    assert np.allclose(batch_eval(net, X), predict(params, X), rtol=1e-12, atol=1e-12)


def test_multi_restart_reporting(rng):
    ds = random_batch(rng, 16, 1)
    test = random_batch(rng, 32, 1)
    cfg = TrainConfig(epochs=5, batch_size=8, seed=7)
    init = InitSpec(seed=100)
    best, records, curve = multi_restart(4, ds, None, test, cfg, init, n_restarts=3)
    assert len(records) == 3
    assert [r.init_seed for r in records] == [100, 101, 102]
    errs = sorted(r.test_error for r in records)
    assert min(r.test_error for r in records) <= np.median(errs)
    assert best.n_nodes <= 4
    single, srecords, _ = multi_restart(4, ds, None, test, cfg, init, n_restarts=1)
    assert len(srecords) == 1
    assert srecords[0].test_error == records[0].test_error


def test_multi_restart_untrained_network_is_bad(rng):
    target = ShallowNetwork([[0.6, 0.8]], [5.0])
    X = rng.uniform(-1, 1, size=(64, 1))
    ds = Dataset(X, batch_eval(target, X), [[-1, 1]])
    cfg = TrainConfig(epochs=0, batch_size=8)
    best, records, curve = multi_restart(6, ds, None, ds, cfg, InitSpec(seed=0), 1)
    # an untrained 0.05-stddev network is near zero; its error is near ||f||
    target_rms = np.linalg.norm(ds.targets) / np.sqrt(ds.n_points)
    assert records[0].test_error >= 0.5 * target_rms
