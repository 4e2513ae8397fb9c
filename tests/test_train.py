import math
import re

import numpy as np
import pytest

from gsn.core import Dataset, GsnError, ShallowNetwork, batch_eval
from gsn.sampling import substream
from gsn.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    INIT_STDDEV,
    INIT_TRUNCATION,
    NetParams,
    TrainConfig,
    gradients,
    lr_at,
    multi_restart,
    params_from_network,
    params_to_network,
    train,
    train_params,
    truncated_normal_params,
    work_buffers,
)

from conftest import unit_rows


def random_network(rng, n_nodes, dim):
    rows = unit_rows(rng, n_nodes, dim + 1)
    return ShallowNetwork(rows, rng.standard_normal(n_nodes))


def random_batch(rng, n, dim):
    X = rng.uniform(-1.0, 1.0, size=(n, dim))
    y = rng.standard_normal(n)
    return Dataset(X, y, [[-1.0, 1.0]] * dim)


def forward(p, X):
    return np.maximum(X @ p.A.T + p.b, 0.0) @ p.c


def kernel_gradients(p, X, y):
    g = NetParams(np.empty_like(p.A), np.empty_like(p.b), np.empty_like(p.c))
    gradients(p.A, p.b, p.c, X, y, g.A, g.b, g.c)
    return g


def test_zero_loss_zero_gradients(rng):
    p = params_from_network(random_network(rng, 4, 2))
    X = rng.uniform(-1, 1, size=(8, 2))
    grads = kernel_gradients(p, X, forward(p, X))
    assert np.all(grads.A == 0) and np.all(grads.b == 0) and np.all(grads.c == 0)


def test_dead_node_zero_gradients(rng):
    # second node never activates on the batch
    live, dead = [1.0, 0.0], [0.0, -1.0]
    p = params_from_network(ShallowNetwork([live, dead], [1.0, 2.0]))
    batch = random_batch(rng, 6, 1)
    grads = kernel_gradients(p, batch.inputs, batch.targets)
    assert np.all(grads.A[1] == 0) and grads.b[1] == 0 and grads.c[1] == 0
    assert np.any(grads.A[0] != 0)


def central_difference(base, batch, setter, h=1e-6):
    def loss_at(delta):
        p = NetParams(base.A.copy(), base.b.copy(), base.c.copy())
        setter(p, delta)
        err = forward(p, batch.inputs) - batch.targets
        return float(err @ err / batch.n_points)

    return (loss_at(+h) - loss_at(-h)) / (2.0 * h)


def test_gradients_match_finite_differences(rng):
    kink_tol = 1e-4
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        n_nodes = int(rng.integers(1, 6))
        base = params_from_network(random_network(rng, n_nodes, dim))
        batch = random_batch(rng, int(rng.integers(2, 10)), dim)
        grads = kernel_gradients(base, batch.inputs, batch.targets)
        z = batch.inputs @ base.A.T + base.b
        near_kink = np.abs(z).min(axis=0) < kink_tol
        for n in range(n_nodes):
            fd_c = central_difference(base, batch, lambda p, d, n=n: p.c.__setitem__(n, p.c[n] + d))
            assert fd_c == pytest.approx(grads.c[n], rel=1e-5, abs=1e-9)
            if near_kink[n]:
                continue
            fd_b = central_difference(base, batch, lambda p, d, n=n: p.b.__setitem__(n, p.b[n] + d))
            assert fd_b == pytest.approx(grads.b[n], rel=1e-5, abs=1e-9)
            for k in range(dim):
                fd_a = central_difference(
                    base, batch, lambda p, d, n=n, k=k: p.A.__setitem__((n, k), p.A[n, k] + d))
                assert fd_a == pytest.approx(grads.A[n, k], rel=1e-5, abs=1e-9)


def test_empty_batch_rejected(rng):
    # training never forms an empty batch (a Dataset holds at least one
    # point); given one, the kernel raises instead of writing NaN gradients
    p = params_from_network(random_network(rng, 2, 1))
    with pytest.raises(ZeroDivisionError):
        kernel_gradients(p, np.zeros((0, 1)), np.zeros(0))


def test_lr_schedule():
    cfg = TrainConfig(initial_lr=1e-3, decay_rate=4.6e-4)
    assert lr_at(0, cfg) == pytest.approx(1e-3)
    assert lr_at(10_000, cfg) == pytest.approx(1e-3 * math.exp(-4.6), rel=1e-12)
    flat = TrainConfig(initial_lr=1e-3, decay_rate=0.0)
    assert lr_at(123, flat) == 1e-3


def test_train_zero_epochs_returns_input(rng):
    net = random_network(rng, 3, 1)
    ds = random_batch(rng, 10, 1)
    out, curve = train(net, ds, TrainConfig(epochs=0, batch_size=4))
    assert out is net
    assert curve.size == 0


@pytest.mark.parametrize("n_restarts", [1, 3])
def test_train_params_stops_at_the_first_diverged_epoch(rng, n_restarts):
    # an overflowing learning rate makes the loss non-finite within a few epochs:
    # training stops there, naming the epoch, instead of stepping on to the last
    ds = random_batch(rng, 10, 1)
    params = truncated_normal_params(3, 1, seed=2)
    if n_restarts > 1:
        params = NetParams(*(np.stack([getattr(params, k)] * n_restarts) for k in ("A", "b", "c")))
    cfg = TrainConfig(epochs=50, batch_size=4, initial_lr=1e300)
    with np.errstate(all="ignore"), pytest.raises(GsnError, match="training diverged") as info:
        train_params(params, ds, cfg)
    epoch = int(re.fullmatch(r"training diverged: loss not finite after epoch (\d+) of 50",
                             str(info.value))[1])
    assert 1 <= epoch < cfg.epochs


def test_train_inline_adam_matches_adam_update(rng):
    # one full-batch epoch of train_params equals one textbook bias-corrected
    # Adam step, written out here, on the kernel's gradient at the start point
    net = random_network(rng, 3, 2)
    ds = random_batch(rng, 6, 2)
    cfg = TrainConfig(epochs=1, batch_size=6, seed=0)
    params0 = params_from_network(net)
    trained, _ = train_params(params0, ds, cfg)

    grads = kernel_gradients(params0, ds.inputs, ds.targets)
    theta = np.concatenate([params0.A.ravel(), params0.b, params0.c])
    g = np.concatenate([grads.A.ravel(), grads.b, grads.c])
    m = (1.0 - ADAM_BETA1) * g
    v = (1.0 - ADAM_BETA2) * g * g
    mhat, vhat = m / (1.0 - ADAM_BETA1), v / (1.0 - ADAM_BETA2)
    theta1 = theta - lr_at(0, cfg) * mhat / (np.sqrt(vhat) + ADAM_EPS)
    got = np.concatenate([trained.A.ravel(), trained.b, trained.c])
    # the shuffled batch sums its rows in another order than the kernel call above
    np.testing.assert_allclose(got, theta1, rtol=1e-13, atol=1e-15)


def reference_train_params(params, train_set, cfg):
    """The training loop as it read before it wrote into work buffers: a
    fresh array per operation, the minibatch gathered with X[idx] and the
    activations taken with np.where. train_params must match it bit for bit."""
    n_nodes, d = params.A.shape
    n = train_set.n_points
    X, y = train_set.inputs, train_set.targets
    batch = min(cfg.batch_size, n)
    rng = substream(cfg.seed, "shuffle")
    theta = np.concatenate([params.A.ravel(), params.b, params.c])
    A = theta[: n_nodes * d].reshape(n_nodes, d)
    b = theta[n_nodes * d: n_nodes * (d + 1)]
    c = theta[n_nodes * (d + 1):]
    mom = np.zeros_like(theta)
    vel = np.zeros_like(theta)
    curve = np.empty(cfg.epochs)
    t = 0
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            idx = order[lo: lo + batch]
            Xb, yb = X[idx], y[idx]
            z = Xb @ A.T + b
            gate = z > 0.0
            act = np.where(gate, z, 0.0)
            coef = (2.0 / yb.size) * (act @ c - yb)
            gc = act.T @ coef
            P = gate * coef[:, None]
            gA = (P.T @ Xb) * c[:, None]
            gb = P.sum(axis=0) * c
            grad = np.concatenate([gA.ravel(), gb, gc])
            t += 1
            mom *= ADAM_BETA1
            mom += (1.0 - ADAM_BETA1) * grad
            vel *= ADAM_BETA2
            vel += (1.0 - ADAM_BETA2) * (grad * grad)
            mhat = mom / (1.0 - ADAM_BETA1**t)
            vhat = vel / (1.0 - ADAM_BETA2**t)
            theta -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        full_err = np.maximum(X @ A.T + b, 0.0) @ c - y
        curve[epoch] = np.dot(full_err, full_err) / n
    return NetParams(A.copy(), b.copy(), c.copy()), curve


@pytest.mark.parametrize("n, dim, n_nodes, batch_size", [
    (40, 2, 6, 3), (40, 2, 6, 11), (40, 2, 6, 40), (300, 4, 40, 11), (300, 4, 40, 1000),
])
def test_train_params_matches_reference_bits(rng, n, dim, n_nodes, batch_size):
    # batch 11 leaves a partial last batch (40 = 3*11 + 7, 300 = 27*11 + 3),
    # batch 3 one of a single row, and batch_size >= n is full batch
    params = params_from_network(random_network(rng, n_nodes, dim))
    params.b[0] = -2.0  # one node dead on the whole box
    ds = random_batch(rng, n, dim)
    cfg = TrainConfig(epochs=25, batch_size=batch_size, initial_lr=1e-2, seed=3)
    got, got_curve = train_params(params, ds, cfg)
    want, want_curve = reference_train_params(params, ds, cfg)
    for g, w in ((got.A, want.A), (got.b, want.b), (got.c, want.c), (got_curve, want_curve)):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_gradients_reused_buffers_match_fresh_call(rng):
    p = params_from_network(random_network(rng, 7, 3))
    work = work_buffers((11, 4, 1, 9), 7)
    for rows in (11, 4, 11, 1, 9):
        batch = random_batch(rng, rows, 3)
        fresh = kernel_gradients(p, batch.inputs, batch.targets)
        reused = NetParams(np.empty_like(p.A), np.empty_like(p.b), np.empty_like(p.c))
        gradients(p.A, p.b, p.c, batch.inputs, batch.targets, reused.A, reused.b, reused.c, work[rows])
        for g, w in ((reused.A, fresh.A), (reused.b, fresh.b), (reused.c, fresh.c)):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_stacked_gradients_match_each_restart(rng):
    # a leading restart axis gives each restart the gradients of a lone network
    nets = [params_from_network(random_network(rng, 5, 2)) for _ in range(3)]
    stacked = NetParams(*(np.stack([getattr(p, k) for p in nets]) for k in ("A", "b", "c")))
    batch = random_batch(rng, 9, 2)
    got = NetParams(np.empty_like(stacked.A), np.empty_like(stacked.b), np.empty_like(stacked.c))
    gradients(stacked.A, stacked.b, stacked.c, batch.inputs, batch.targets, got.A, got.b, got.c)
    for r, p in enumerate(nets):
        want = kernel_gradients(p, batch.inputs, batch.targets)
        for g, w in ((got.A[r], want.A), (got.b[r], want.b), (got.c[r], want.c)):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("batch_size", [1, 3, 11, 1000])
def test_multi_restart_trains_restarts_together(rng, monkeypatch, batch_size):
    # batch 11 leaves a partial last batch (40 = 3*11 + 7), 1000 is full batch;
    # node 0 of every restart is dead on the whole box
    import gsn.train as train_module

    draw = train_module.truncated_normal_params

    def with_dead_node(n_nodes, input_dim, seed):
        p = draw(n_nodes, input_dim, seed)
        p.b[0] = -1.0
        return p

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].A.shape)
        return train_params(*args, **kwargs)

    monkeypatch.setattr(train_module, "truncated_normal_params", with_dead_node)
    monkeypatch.setattr(train_module, "train_params", counting)
    ds, test = random_batch(rng, 40, 2), random_batch(rng, 50, 2)
    cfg = TrainConfig(epochs=15, batch_size=batch_size, initial_lr=1e-2, seed=5)
    best, records, curve = multi_restart(6, ds, None, test, cfg, 100, n_restarts=3)
    assert calls == [(3, 6, 2)]  # all three restarts in one call
    singles = [multi_restart(6, ds, None, test, cfg, 100 + r, n_restarts=1) for r in range(3)]
    assert calls[1:] == [(6, 2)] * 3  # a lone restart steps 2-D arrays
    for r, (record, (_, (single,), _)) in enumerate(zip(records, singles)):
        assert (record.restart, record.init_seed) == (r, 100 + r)
        assert np.array_equal(np.float64([record.test_error, record.final_train_loss]).view(np.uint64),
                              np.float64([single.test_error, single.final_train_loss]).view(np.uint64))
    s_best, _, s_curve = singles[int(np.argmin([s[1][0].test_error for s in singles]))]
    assert np.array_equal(best.directions.view(np.uint64), s_best.directions.view(np.uint64))
    assert np.array_equal(best.weights.view(np.uint64), s_best.weights.view(np.uint64))
    assert np.array_equal(curve.view(np.uint64), s_curve.view(np.uint64))


def test_train_determinism(rng):
    net = random_network(rng, 4, 2)
    ds = random_batch(rng, 12, 2)
    cfg = TrainConfig(epochs=40, batch_size=3, seed=11)
    _, c1 = train(net, ds, cfg)
    _, c2 = train(net, ds, cfg)
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
    p1 = truncated_normal_params(50, 3, 42)
    p2 = truncated_normal_params(50, 3, 42)
    for arr in (p1.A, p1.b, p1.c):
        assert np.abs(arr).max() <= INIT_TRUNCATION * INIT_STDDEV
    assert np.array_equal(p1.A, p2.A) and np.array_equal(p1.c, p2.c)


def test_params_network_round_trip(rng):
    params = NetParams(rng.standard_normal((5, 2)), rng.standard_normal(5),
                       rng.standard_normal(5))
    net = params_to_network(params, 2)
    X = rng.uniform(-1, 1, size=(9, 2))
    assert np.allclose(batch_eval(net, X), forward(params, X), rtol=1e-12, atol=1e-12)


def test_multi_restart_reporting(rng):
    ds = random_batch(rng, 16, 1)
    test = random_batch(rng, 32, 1)
    cfg = TrainConfig(epochs=5, batch_size=8, seed=7)
    best, records, curve = multi_restart(4, ds, None, test, cfg, 100, n_restarts=3)
    assert len(records) == 3
    assert [r.init_seed for r in records] == [100, 101, 102]
    errs = sorted(r.test_error for r in records)
    assert min(r.test_error for r in records) <= np.median(errs)
    assert best.n_nodes <= 4
    single, srecords, _ = multi_restart(4, ds, None, test, cfg, 100, n_restarts=1)
    assert len(srecords) == 1
    assert srecords[0].test_error == records[0].test_error


def test_multi_restart_untrained_network_is_bad(rng):
    target = ShallowNetwork([[0.6, 0.8]], [5.0])
    X = rng.uniform(-1, 1, size=(64, 1))
    ds = Dataset(X, batch_eval(target, X), [[-1, 1]])
    cfg = TrainConfig(epochs=0, batch_size=8)
    best, records, curve = multi_restart(6, ds, None, ds, cfg, 0, 1)
    # an untrained 0.05-stddev network is near zero; its error is near ||f||
    target_rms = np.linalg.norm(ds.targets) / np.sqrt(ds.n_points)
    assert records[0].test_error >= 0.5 * target_rms
