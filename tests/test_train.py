import math
import re
from dataclasses import replace

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


def with_ones(X):
    return np.hstack([X, np.ones((len(X), 1))])


def forward(p, X):
    """relu(X @ A.T + b) @ c, for each restart on a leading axis."""
    z = X @ p.W[..., :-1].swapaxes(-1, -2) + p.W[..., None, :, -1]
    return (np.maximum(z, 0.0) @ p.c[..., None])[..., 0]


def kernel_gradients(p, X, y):
    g = NetParams(np.empty_like(p.W), np.empty_like(p.c))
    gradients(p.W, p.c, with_ones(X), y, g.W, g.c)
    return g


def stack(params):
    return NetParams(np.stack([p.W for p in params]), np.stack([p.c for p in params]))


def test_zero_loss_zero_gradients(rng):
    p = params_from_network(random_network(rng, 4, 2))
    X = rng.uniform(-1, 1, size=(8, 2))
    grads = kernel_gradients(p, X, forward(p, X))
    assert np.all(grads.W == 0) and np.all(grads.c == 0)


def test_dead_node_zero_gradients(rng):
    # second node never activates on the batch
    live, dead = [1.0, 0.0], [0.0, -1.0]
    p = params_from_network(ShallowNetwork([live, dead], [1.0, 2.0]))
    batch = random_batch(rng, 6, 1)
    grads = kernel_gradients(p, batch.inputs, batch.targets)
    assert np.all(grads.W[1] == 0) and grads.c[1] == 0
    assert np.any(grads.W[0, :-1] != 0)


def central_difference(base, batch, setter, h=1e-6):
    def loss_at(delta):
        p = NetParams(base.W.copy(), base.c.copy())
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
        z = batch.inputs @ base.W[:, :-1].T + base.W[:, -1]
        near_kink = np.abs(z).min(axis=0) < kink_tol
        for n in range(n_nodes):
            fd_c = central_difference(base, batch, lambda p, d, n=n: p.c.__setitem__(n, p.c[n] + d))
            assert fd_c == pytest.approx(grads.c[n], rel=1e-5, abs=1e-9)
            if near_kink[n]:
                continue
            for k in range(dim + 1):  # the inner weights a_n, then the bias b_n
                fd_w = central_difference(
                    base, batch, lambda p, d, n=n, k=k: p.W.__setitem__((n, k), p.W[n, k] + d))
                assert fd_w == pytest.approx(grads.W[n, k], rel=1e-5, abs=1e-9)


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
    # training stops there, naming the epoch, instead of stepping on to the last.
    # Batch 10 is full batch, whose epoch loss comes from the next forward pass
    # (three nodes would all die there after one step, leaving the loss finite):
    # the epoch named is still the first whose parameters give a non-finite loss
    ds = random_batch(rng, 10, 1)
    for batch_size, n_nodes in ((4, 3), (10, 10)):
        params = truncated_normal_params(n_nodes, 1, seed=2)
        if n_restarts > 1:
            params = stack([params] * n_restarts)
        cfg = TrainConfig(epochs=50, batch_size=batch_size, initial_lr=1e300)

        def diverged_epoch(epochs):
            with np.errstate(all="ignore"), pytest.raises(GsnError, match="training diverged") as info:
                train_params(params, ds, replace(cfg, epochs=epochs))
            return int(re.fullmatch(rf"training diverged: loss not finite after epoch (\d+) of {epochs}",
                                    str(info.value))[1])

        epoch = diverged_epoch(cfg.epochs)
        assert 1 <= epoch < cfg.epochs
        assert diverged_epoch(epoch) == epoch
        with np.errstate(all="ignore"):
            before, curve = train_params(params, ds, replace(cfg, epochs=epoch - 1))
            err = forward(before, ds.inputs) - ds.targets
        assert np.all(np.isfinite(curve)) and np.all(np.isfinite(np.sum(err * err, axis=-1)))


def test_train_inline_adam_matches_adam_update(rng):
    # one full-batch epoch of train_params equals one textbook bias-corrected
    # Adam step, written out here, on the kernel's gradient at the start point
    net = random_network(rng, 3, 2)
    ds = random_batch(rng, 6, 2)
    cfg = TrainConfig(epochs=1, batch_size=6, seed=0)
    params0 = params_from_network(net)
    trained, _ = train_params(params0, ds, cfg)

    grads = kernel_gradients(params0, ds.inputs, ds.targets)
    theta = np.concatenate([params0.W.ravel(), params0.c])
    g = np.concatenate([grads.W.ravel(), grads.c])
    m = (1.0 - ADAM_BETA1) * g
    v = (1.0 - ADAM_BETA2) * g * g
    mhat, vhat = m / (1.0 - ADAM_BETA1), v / (1.0 - ADAM_BETA2)
    theta1 = theta - lr_at(0, cfg) * mhat / (np.sqrt(vhat) + ADAM_EPS)
    got = np.concatenate([trained.W.ravel(), trained.c])
    np.testing.assert_allclose(got, theta1, rtol=1e-13, atol=1e-15)


def reference_train_params(params, train_set, cfg):
    """The training loop with a fresh array per operation: the minibatch gathered
    with X1[idx] from X1 = [X | 1], the activations taken with np.where, Adam's
    bias corrections folded into its step size and epsilon, and at full batch no
    shuffle. The loss takes a fresh forward pass after each epoch, which at full
    batch is the next epoch's. train_params must match it bit for bit."""
    n_nodes, d1 = params.W.shape
    n = train_set.n_points
    X1, y = with_ones(train_set.inputs), train_set.targets
    batch = min(cfg.batch_size, n)
    rng = substream(cfg.seed, "shuffle")
    theta = np.concatenate([params.W.ravel(), params.c])
    W = theta[: n_nodes * d1].reshape(n_nodes, d1)
    c = theta[n_nodes * d1:]
    mom = np.zeros_like(theta)
    vel = np.zeros_like(theta)
    curve = np.empty(cfg.epochs)
    t = 0
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = np.arange(n) if batch == n else rng.permutation(n)
        for lo in range(0, n, batch):
            idx = order[lo: lo + batch]
            Xb, yb = X1[idx], y[idx]
            z = Xb @ W.T
            gate = z > 0.0
            act = np.where(gate, z, 0.0)
            coef = (act @ c - yb) * (2.0 / yb.size)
            gc = act.T @ coef
            P = gate * coef[:, None]
            gW = (P.T @ Xb) * c[:, None]
            grad = np.concatenate([gW.ravel(), gc])
            t += 1
            root2 = math.sqrt(1.0 - ADAM_BETA2**t)
            mom *= ADAM_BETA1
            mom += (1.0 - ADAM_BETA1) * grad
            vel *= ADAM_BETA2
            vel += (1.0 - ADAM_BETA2) * (grad * grad)
            theta -= mom / (np.sqrt(vel) + ADAM_EPS * root2) * (lr * root2 / (1.0 - ADAM_BETA1**t))
        full_err = np.maximum(X1 @ W.T, 0.0) @ c - y
        curve[epoch] = np.dot(full_err, full_err) / n
    return NetParams(W.copy(), c.copy()), curve


@pytest.mark.parametrize("n, dim, n_nodes, batch_size", [
    (40, 2, 6, 3), (40, 2, 6, 11), (40, 2, 6, 40), (300, 4, 40, 11), (300, 4, 40, 1000),
])
def test_train_params_matches_reference_bits(rng, n, dim, n_nodes, batch_size):
    # batch 11 leaves a partial last batch (40 = 3*11 + 7, 300 = 27*11 + 3),
    # batch 3 one of a single row, and batch_size >= n is full batch
    params = params_from_network(random_network(rng, n_nodes, dim))
    params.W[0, -1] = -2.0  # one node dead on the whole box
    ds = random_batch(rng, n, dim)
    cfg = TrainConfig(epochs=25, batch_size=batch_size, initial_lr=1e-2, seed=3)
    got, got_curve = train_params(params, ds, cfg)
    want, want_curve = reference_train_params(params, ds, cfg)
    for g, w in ((got.W, want.W), (got.c, want.c), (got_curve, want_curve)):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_gradients_reused_buffers_match_fresh_call(rng):
    p = params_from_network(random_network(rng, 7, 3))
    work = work_buffers((11, 4, 1, 9), 7)
    for rows in (11, 4, 11, 1, 9):
        batch = random_batch(rng, rows, 3)
        fresh = kernel_gradients(p, batch.inputs, batch.targets)
        reused = NetParams(np.empty_like(p.W), np.empty_like(p.c))
        gradients(p.W, p.c, with_ones(batch.inputs), batch.targets, reused.W, reused.c, work[rows])
        for g, w in ((reused.W, fresh.W), (reused.c, fresh.c)):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_stacked_gradients_match_each_restart(rng):
    # a leading restart axis gives each restart the gradients of a lone network
    nets = [params_from_network(random_network(rng, 5, 2)) for _ in range(3)]
    stacked = stack(nets)
    batch = random_batch(rng, 9, 2)
    got = NetParams(np.empty_like(stacked.W), np.empty_like(stacked.c))
    gradients(stacked.W, stacked.c, with_ones(batch.inputs), batch.targets, got.W, got.c)
    for r, p in enumerate(nets):
        want = kernel_gradients(p, batch.inputs, batch.targets)
        for g, w in ((got.W[r], want.W), (got.c[r], want.c)):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("batch_size", [1, 3, 11, 1000])
def test_multi_restart_trains_restarts_together(rng, monkeypatch, batch_size):
    # batch 11 leaves a partial last batch (40 = 3*11 + 7), 1000 is full batch;
    # node 0 of every restart is dead on the whole box
    import gsn.train as train_module

    draw = train_module.truncated_normal_params

    def with_dead_node(n_nodes, input_dim, seed):
        p = draw(n_nodes, input_dim, seed)
        p.W[0, -1] = -1.0
        return p

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].W.shape)
        return train_params(*args, **kwargs)

    monkeypatch.setattr(train_module, "truncated_normal_params", with_dead_node)
    monkeypatch.setattr(train_module, "train_params", counting)
    ds = random_batch(rng, 40, 2)
    cfg = TrainConfig(epochs=15, batch_size=batch_size, initial_lr=1e-2, seed=5)
    nets, curves = multi_restart(6, ds, cfg, 100, n_restarts=3)
    assert calls == [(3, 6, 3)]  # all three restarts in one call
    singles = [multi_restart(6, ds, cfg, 100 + r, n_restarts=1) for r in range(3)]
    assert calls[1:] == [(6, 3)] * 3  # a lone restart steps 2-D arrays
    assert curves.shape == (3, 15)
    for net, curve, ((single,), single_curves) in zip(nets, curves, singles):
        assert np.array_equal(net.directions.view(np.uint64), single.directions.view(np.uint64))
        assert np.array_equal(net.weights.view(np.uint64), single.weights.view(np.uint64))
        assert np.array_equal(curve.view(np.uint64), single_curves[0].view(np.uint64))


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
    assert params.W[1, 0] == 0.0
    assert params.W[1, 1] == -1.0


def test_truncated_normal_bounds_and_determinism():
    p1 = truncated_normal_params(50, 3, 42)
    p2 = truncated_normal_params(50, 3, 42)
    for arr in (p1.W, p1.c):
        assert np.abs(arr).max() <= INIT_TRUNCATION * INIT_STDDEV
    assert np.array_equal(p1.W, p2.W) and np.array_equal(p1.c, p2.c)


@pytest.mark.parametrize("n_nodes, input_dim, seed", [(50, 3, 42), (76, 2, 7), (1, 1, 0)])
def test_truncated_normal_draws_a_then_b_then_c(n_nodes, input_dim, seed):
    # random inits keep their draw order: A, then b, then c, from one fresh init
    # stream, each redrawing its out-of-bound entries until none is left
    rng = substream(seed, "init")
    bound = INIT_TRUNCATION * INIT_STDDEV

    def draw(shape):
        out = rng.normal(0.0, INIT_STDDEV, size=shape)
        while np.any(bad := np.abs(out) > bound):
            out[bad] = rng.normal(0.0, INIT_STDDEV, size=int(bad.sum()))
        return out

    A, b, c = draw((n_nodes, input_dim)), draw(n_nodes), draw(n_nodes)
    p = truncated_normal_params(n_nodes, input_dim, seed)
    assert p.W.shape == (n_nodes, input_dim + 1) and p.c.shape == (n_nodes,)
    for got, want in ((p.W[:, :-1], A), (p.W[:, -1], b), (p.c, c)):
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64))


def test_params_network_round_trip(rng):
    params = NetParams(rng.standard_normal((5, 3)), rng.standard_normal(5))
    net = params_to_network(params, 2)
    X = rng.uniform(-1, 1, size=(9, 2))
    assert np.allclose(batch_eval(net, X), forward(params, X), rtol=1e-12, atol=1e-12)


def test_multi_restart_reporting(rng):
    # one network and one loss curve per restart, restart r drawn from init seed 100 + r
    ds = random_batch(rng, 16, 1)
    cfg = TrainConfig(epochs=5, batch_size=8, seed=7)
    nets, curves = multi_restart(4, ds, cfg, 100, n_restarts=3)
    assert len(nets) == 3 and curves.shape == (3, 5)
    assert all(net.n_nodes <= 4 for net in nets)
    (single,), single_curves = multi_restart(4, ds, cfg, 102, n_restarts=1)
    assert np.array_equal(batch_eval(single, ds.inputs), batch_eval(nets[2], ds.inputs))
    assert np.array_equal(single_curves[0], curves[2])


def test_multi_restart_untrained_network_is_bad(rng):
    target = ShallowNetwork([[0.6, 0.8]], [5.0])
    X = rng.uniform(-1, 1, size=(64, 1))
    ds = Dataset(X, batch_eval(target, X), [[-1, 1]])
    cfg = TrainConfig(epochs=0, batch_size=8)
    (net,), curves = multi_restart(6, ds, cfg, 0, 1)
    assert curves.shape == (1, 0)
    # an untrained 0.05-stddev network is near zero; its error is near ||f||
    target_rms = np.linalg.norm(ds.targets) / np.sqrt(ds.n_points)
    assert np.linalg.norm(batch_eval(net, ds.inputs) - ds.targets) / np.sqrt(ds.n_points) >= 0.5 * target_rms
