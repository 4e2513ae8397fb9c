"""Backpropagation fine-tuning with Adam, and the random-init baseline.

Training operates on the raw node parametrization (a_n, b_n, c_n); the
unit-norm constraint on inner weights is not maintained while optimizing.
The mean-squared-error loss keeps the learning-rate scale independent of
batch size, and the learning rate decays exponentially per epoch.

`gradients` is the one minibatch gradient kernel: `train_params` steps it
with the one Adam update, and the finite-difference acceptance check tests
it. Both take an optional leading restart axis, so the baseline's R
restarts step together on one shuffle stream, in work views of R x batch x
N values. Random inits draw every raw parameter from a normal of standard
deviation INIT_STDDEV, truncated at INIT_TRUNCATION of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, GsnError, ShallowNetwork, batch_eval, rescale_node, write_csv_table
from .sampling import substream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
INIT_STDDEV = 0.05
INIT_TRUNCATION = 2.0  # in units of INIT_STDDEV


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10_000
    batch_size: int = 32
    initial_lr: float = 1e-3
    decay_rate: float = 4.6e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.initial_lr < math.inf:
            raise ValueError("initial_lr must be finite and positive")
        if not 0.0 <= self.decay_rate < math.inf:
            raise ValueError("decay_rate must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class NetParams:
    """Unconstrained node parameters: rows of A pair with b and c entries."""

    A: np.ndarray  # (n_nodes, d), or (n_restarts, n_nodes, d)
    b: np.ndarray  # (n_nodes,), or (n_restarts, n_nodes)
    c: np.ndarray  # likewise


def params_from_network(net: ShallowNetwork) -> NetParams:
    W = net.directions
    return NetParams(W[:, :-1].copy(), W[:, -1].copy(), net.weights.copy())


def params_to_network(params: NetParams, input_dim: int) -> ShallowNetwork:
    """Rescale raw nodes back onto the sphere; exact-zero nodes (relu(0) = 0) drop out."""
    nodes = [rescale_node(a, b, c) for a, b, c in zip(params.A, params.b, params.c)
             if np.dot(a, a) + b * b != 0.0]
    return ShallowNetwork(np.reshape([row for row, _ in nodes], (-1, input_dim + 1)), [w for _, w in nodes])


def gradients(A: np.ndarray, b: np.ndarray, c: np.ndarray, X: np.ndarray, y: np.ndarray,
              gA: np.ndarray, gb: np.ndarray, gc: np.ndarray, work=None) -> None:
    """Gradients of the minibatch MSE mean((relu(X @ A.T + b) @ c - y)**2).

    Writes them into gA, gb and gc (C-contiguous); with a restart axis, each
    restart's arithmetic is that of a lone network. The ReLU subgradient at 0
    is 0: a node dead on the whole batch gets zero gradients. Intermediates go
    into ``work`` (``work_buffers``' views for y.size rows) or fresh arrays.
    On non-NaN z, np.maximum(z, 0.0) is np.where(z > 0, z, 0.0) bit for bit
    (both map -0.0 to +0.0), and its sign is the gate z > 0 as 0.0 or 1.0."""
    act, P, r, r_col, act_T, P_T = work or work_buffers((y.size,), c.shape[-1], c.shape[:-1])[y.size]
    product = np.dot if A.ndim == 2 else np.matmul  # the same BLAS calls; np.dot's call is cheaper
    product(X, A.swapaxes(-1, -2), out=act)
    act += b[..., None, :]
    np.maximum(act, 0.0, out=act)
    np.sign(act, out=P)
    c_col = c[..., None]
    product(act, c_col, out=r_col)
    r -= y
    r *= 2.0 / y.size
    product(act_T, r_col, out=gc[..., None])
    P *= r_col  # (batch, nodes)
    product(P_T, X, out=gA)
    gA *= c_col
    np.add.reduce(P, axis=-2, out=gb)
    gb *= c


def work_buffers(sizes, n_nodes: int, lead: tuple = ()) -> dict:
    """``gradients``' work views per batch size in ``sizes``: act, P, the residual as
    a row and a column, act.T and P.T, in the leading rows of one set of (*lead, rows,
    n_nodes) arrays; 2-D slices keep unit stride, so each restart gets a lone net's BLAS call."""
    stack, resid = np.empty((2, *lead, max(sizes), n_nodes)), np.empty((*lead, max(sizes)))
    return {rows: (*stack[..., :rows, :], resid[..., :rows], resid[..., :rows, None],
                   *stack[..., :rows, :].swapaxes(-1, -2)) for rows in sizes}


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Exponentially decayed learning rate, indexed by epoch."""
    return cfg.initial_lr * math.exp(-cfg.decay_rate * epoch)


@np.errstate(over="ignore", invalid="ignore")  # the loss check below reports a divergence
def train_params(params: NetParams, train_set: Dataset, cfg: TrainConfig) -> tuple[NetParams, np.ndarray]:
    """Mini-batch Adam loop on raw parameters; returns per-epoch train loss.

    Restarts on a leading axis share the shuffle stream, the learning-rate
    schedule and the step count t; their curve is (n_restarts, epochs).
    Minibatches are slices of a per-epoch shuffled copy of the data. The loss
    takes one restart at a time in one (n, N) buffer, at full batch the kernel's.
    The first non-finite loss raises GsnError, naming its epoch; numpy's
    overflow and invalid-value warnings on the way there are not printed.
    """
    *lead, n_nodes, d = params.A.shape
    n_nets = math.prod(lead)
    X, y, n = train_set.inputs, train_set.targets, train_set.n_points
    batch = min(cfg.batch_size, n)
    rng = substream(cfg.seed, "shuffle")

    # theta, the gradient and its square; the last two become the moment increments
    state = np.zeros((3, *lead, n_nodes * (d + 2)))
    (theta, g, g2), grads = state, state[1:]
    (A, gA, _), (b, gb, _), (c, gc, _) = (state[..., : n_nodes * d].reshape(3, *lead, n_nodes, d),
                                          state[..., n_nodes * d: n_nodes * (d + 1)],
                                          state[..., n_nodes * (d + 1):])
    A[...], b[...], c[...] = params.A, params.b, params.c
    m, v = moments = np.zeros_like(grads)  # Adam's moments
    # constants as full arrays, since a ufunc over equal shapes is the cheapest call
    beta = np.stack([np.full_like(theta, ADAM_BETA1), np.full_like(theta, ADAM_BETA2)])
    one_minus_beta, eps = 1.0 - beta, np.full_like(theta, ADAM_EPS)
    lr_t, step, scratch = np.empty((3, *theta.shape))
    Xs, ys = np.empty(X.shape), np.empty(n)  # C order: contiguous minibatches
    views = work_buffers({batch, n % batch or batch}, n_nodes, tuple(lead))
    batches = [(Xs[lo: lo + batch], ys[lo: lo + batch], views[min(batch, n - lo)])
               for lo in range(0, n, batch)]
    z_full = views[n][0].reshape(n_nets, n, n_nodes)[0] if batch == n else np.empty((n, n_nodes))
    err, curve = np.empty(n), np.empty((*lead, cfg.epochs))
    nets = list(zip(A.reshape(n_nets, n_nodes, d), b.reshape(n_nets, n_nodes), c.reshape(n_nets, n_nodes),
                    curve.reshape(n_nets, cfg.epochs)))

    t = 0
    for epoch in range(cfg.epochs):
        lr_t.fill(lr_at(epoch, cfg))
        order = rng.permutation(n)
        np.take(X, order, axis=0, out=Xs, mode="clip")  # "raise" would buffer
        np.take(y, order, out=ys, mode="clip")
        for Xb, yb, work in batches:
            gradients(A, b, c, Xb, yb, gA, gb, gc, work)
            # bias-corrected Adam, theta -= lr * mhat / (sqrt(vhat) + eps),
            # one operation at a time; m and v update in one call each
            t += 1
            moments *= beta
            np.multiply(g, g, out=g2)
            grads *= one_minus_beta
            moments += grads
            np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
            step *= lr_t
            np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch), out=scratch)
            scratch += eps
            step /= scratch
            theta -= step
        for A_r, b_r, c_r, curve_r in nets:
            np.matmul(X, A_r.T, out=z_full)
            z_full += b_r
            np.maximum(z_full, 0.0, out=z_full)
            np.matmul(z_full, c_r, out=err)
            err -= y
            curve_r[epoch] = loss = np.dot(err, err) / n
            if not math.isfinite(loss):
                raise GsnError(f"training diverged: loss not finite after epoch {epoch + 1} "
                               f"of {cfg.epochs}")
    return NetParams(A.copy(), b.copy(), c.copy()), curve


def train(net0: ShallowNetwork, train_set: Dataset,
          cfg: TrainConfig) -> tuple[ShallowNetwork, np.ndarray]:
    """Fine-tune a network; returns the final network and the loss curve."""
    if net0.input_dim != train_set.dim:
        raise ValueError("network and training set dimensions differ")
    if cfg.epochs == 0 or net0.n_nodes == 0:
        return net0, np.zeros(0)
    params, curve = train_params(params_from_network(net0), train_set, cfg)
    return params_to_network(params, train_set.dim), curve


def truncated_normal_params(n_nodes: int, input_dim: int, seed: int) -> NetParams:
    """Rejection-sampled truncated normal draws for every raw parameter."""
    rng = substream(seed, "init")
    bound = INIT_TRUNCATION * INIT_STDDEV

    def draw(shape):
        out = rng.normal(0.0, INIT_STDDEV, size=shape)
        while np.any(bad := np.abs(out) > bound):
            out[bad] = rng.normal(0.0, INIT_STDDEV, size=int(bad.sum()))
        return out

    return NetParams(draw((n_nodes, input_dim)), draw(n_nodes), draw(n_nodes))


@dataclass(frozen=True)
class RestartRecord:
    restart: int
    init_seed: int
    test_error: float
    final_train_loss: float


def multi_restart(n_nodes: int, train_set: Dataset, val_set: Dataset | None,
                  test_set: Dataset, cfg: TrainConfig, init_seed: int,
                  n_restarts: int) -> tuple[ShallowNetwork, list[RestartRecord], np.ndarray]:
    """Best-of-n randomly initialized training runs.

    Restart r draws its init from seed init_seed + r; all restarts train in
    one ``train_params`` call, stacked on a restart axis if n_restarts > 1.
    Returns the network with the lowest test RMSE, the per-restart table,
    and the best run's loss curve.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    inits = [truncated_normal_params(n_nodes, train_set.dim, init_seed + r) for r in range(n_restarts)]
    params = inits[0] if n_restarts == 1 else NetParams(*(np.stack([getattr(p, k) for p in inits])
                                                          for k in ("A", "b", "c")))
    params, curves = train_params(params, train_set, cfg)
    best_err, best_net, best_curve, records = np.inf, None, None, []
    sqrt_n = np.sqrt(test_set.n_points)
    shape = (n_restarts, n_nodes)
    for r, (A, b, c, curve) in enumerate(zip(params.A.reshape(*shape, train_set.dim), params.b.reshape(shape),
                                             params.c.reshape(shape), curves.reshape(n_restarts, cfg.epochs))):
        net = params_to_network(NetParams(A, b, c), train_set.dim)
        err = float(np.linalg.norm(batch_eval(net, test_set.inputs) - test_set.targets) / sqrt_n)
        records.append(RestartRecord(r, init_seed + r, err, float(curve[-1]) if curve.size else float("nan")))
        if err < best_err:
            best_err, best_net, best_curve = err, net, curve
    return best_net, records, best_curve


def save_loss_csv(curve: np.ndarray, path) -> None:
    write_csv_table(path, ["epoch", "train_loss"], [np.arange(len(curve)), curve])
