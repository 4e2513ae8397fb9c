"""Backpropagation fine-tuning with Adam, and the random-init baseline.

Training operates on raw node parameters in ``core``'s direction layout, row
n of W being [a_n | b_n], without keeping them unit-norm. The inputs carry a
ones column, X1 = [X | 1], so X1 @ W.T is the pre-activation with its bias and
(P.T @ X1) * c is [gA | gb]. The mean-squared-error loss keeps the learning
rate's scale independent of batch size; the rate decays exponentially per epoch.

`gradients` is the one minibatch gradient kernel, which the finite-difference
acceptance check tests. `train_params` steps it with Adam's bias corrections
folded in (Kingma & Ba 2015, section 2): with s_t = sqrt(1 - beta2**t),
theta -= lr * s_t / (1 - beta1**t) * m / (sqrt(v) + eps * s_t). Both take an
optional leading restart axis: the baseline's R restarts step together on one
shuffle stream, in work views of R x batch x N values. An epoch's loss is the
training-set MSE after it; at full batch the next epoch's forward pass gives
it, and one more pass follows the last epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, GsnError, ShallowNetwork, rescale_node, write_csv_table
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
    """Unconstrained node parameters in the direction layout: row n of W is [a_n | b_n]."""

    W: np.ndarray  # (n_nodes, d + 1), or (n_restarts, n_nodes, d + 1)
    c: np.ndarray  # (n_nodes,), or (n_restarts, n_nodes)


def params_from_network(net: ShallowNetwork) -> NetParams:
    return NetParams(net.directions.copy(), net.weights.copy())


def params_to_network(params: NetParams, input_dim: int) -> ShallowNetwork:
    """Rescale raw nodes back onto the sphere; exact-zero nodes (relu(0) = 0) drop out."""
    nodes = [rescale_node(w[:-1], w[-1], c) for w, c in zip(params.W, params.c) if np.dot(w, w) != 0.0]
    return ShallowNetwork(np.reshape([row for row, _ in nodes], (-1, input_dim + 1)), [w for _, w in nodes])


def gradients(W: np.ndarray, c: np.ndarray, X1: np.ndarray, y: np.ndarray,
              gW: np.ndarray, gc: np.ndarray, work=None) -> None:
    """Gradients of the minibatch MSE mean((relu(X1 @ W.T) @ c - y)**2), X1 = [X | 1].

    Writes them into gW = [gA | gb] and gc (C-contiguous); with a restart axis, each restart's
    arithmetic is that of a lone network. The ReLU subgradient at 0 is 0: a node dead on the whole
    batch gets zero gradients. Intermediates go into ``work`` (``work_buffers``' views for y.size
    rows, the third keeping the residual) or fresh arrays. On non-NaN z, np.maximum(z, 0.0) is
    np.where(z > 0, z, 0.0) bit for bit (both map -0.0 to +0.0); its sign is the gate as 0.0 or 1.0."""
    act, P, e, e_col, r_col, act_T, P_T = work or work_buffers((y.size,), c.shape[-1], c.shape[:-1])[y.size]
    product = _forward(W, c, X1, y, act, e, e_col)
    np.sign(act, out=P)
    c_col = c[..., None]
    np.multiply(e_col, 2.0 / y.size, out=r_col)
    product(act_T, r_col, out=gc[..., None])
    P *= r_col  # (batch, nodes)
    product(P_T, X1, out=gW)
    gW *= c_col


def _forward(W, c, X1, y, act, e, e_col):
    """``gradients``' forward half, act = relu(X1 @ W.T) and e = act @ c - y; returns its product call."""
    # equal bits; np.dot's call is cheaper on few rows, np.matmul's GEMM on many
    product = np.dot if W.ndim == 2 and y.size <= 64 else np.matmul
    product(X1, W.swapaxes(-1, -2), out=act)
    np.maximum(act, 0.0, out=act)
    product(act, c[..., None], out=e_col)
    e -= y
    return product


def work_buffers(sizes, n_nodes: int, lead: tuple = ()) -> dict:
    """``gradients``' work views per batch size in ``sizes``: act, P, the residual as a row and a
    column, the scaled residual as a column, act.T and P.T, in the leading rows of one set of
    arrays; 2-D slices keep unit stride, so each restart gets a lone net's BLAS call."""
    stack, resid = np.empty((2, *lead, max(sizes), n_nodes)), np.empty((2, *lead, max(sizes)))
    return {rows: (*stack[..., :rows, :], resid[0, ..., :rows], resid[0, ..., :rows, None],
                   resid[1, ..., :rows, None], *stack[..., :rows, :].swapaxes(-1, -2)) for rows in sizes}


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Exponentially decayed learning rate, indexed by epoch."""
    return cfg.initial_lr * math.exp(-cfg.decay_rate * epoch)


@np.errstate(over="ignore", invalid="ignore")  # the loss check below reports a divergence
def train_params(params: NetParams, train_set: Dataset, cfg: TrainConfig) -> tuple[NetParams, np.ndarray]:
    """Mini-batch Adam loop on raw parameters; returns per-epoch train loss.

    Restarts on a leading axis share the shuffle stream, the learning-rate schedule and
    the step count t; their curve is (n_restarts, epochs). Minibatches are slices of a
    per-epoch shuffled copy of [X | 1], whose loss pass takes one restart at a time in
    one (n, N) buffer; full batch (batch_size >= n) shuffles nothing. The first non-finite
    loss raises GsnError, naming its epoch, before the next update; numpy's overflow and
    invalid-value warnings on the way there are not printed."""
    *lead, n_nodes, d1 = params.W.shape
    n_nets, y, n = math.prod(lead), train_set.targets, train_set.n_points
    X1 = np.hstack([train_set.inputs, np.ones((n, 1))])
    batch = min(cfg.batch_size, n)
    full, rng = batch == n, substream(cfg.seed, "shuffle")

    # theta, the gradient and its square; the last two become the moment increments
    state = np.zeros((3, *lead, n_nodes * (d1 + 1)))
    (theta, g, g2), grads = state, state[1:]
    (W, gW, _), (c, gc, _) = (state[..., : n_nodes * d1].reshape(3, *lead, n_nodes, d1),
                              state[..., n_nodes * d1:])
    W[...], c[...] = params.W, params.c
    m, v = moments = np.zeros_like(grads)  # Adam's moments
    # constants as full arrays, since a ufunc over equal shapes is the cheapest call
    beta = np.stack([np.full_like(theta, ADAM_BETA1), np.full_like(theta, ADAM_BETA2)])
    one_minus_beta, (step, denom) = 1.0 - beta, np.empty((2, *theta.shape))
    views = work_buffers({batch, n % batch or batch}, n_nodes, tuple(lead))
    Xs, ys = (X1, y) if full else (np.empty(X1.shape), np.empty(n))  # C order: contiguous minibatches
    batches = [(Xs[lo: lo + batch], ys[lo: lo + batch], views[min(batch, n - lo)])
               for lo in range(0, n, batch)]
    z, curve = None if full else np.empty((n, n_nodes)), np.empty((*lead, cfg.epochs))
    nets = list(zip(W.reshape(n_nets, n_nodes, d1), c.reshape(n_nets, n_nodes),
                    views[n][2].reshape(n_nets, n) if full else np.empty((n_nets, n)),
                    curve.reshape(n_nets, cfg.epochs)))

    def record(epoch):  # at full batch, the kernel's last forward pass left the residuals
        for W_r, c_r, err, curve_r in nets:
            if not full:
                np.maximum(np.matmul(X1, W_r.T, out=z), 0.0, out=z)
                np.subtract(np.matmul(z, c_r, out=err), y, out=err)
            curve_r[epoch] = loss = np.dot(err, err) / n
            if not math.isfinite(loss):
                raise GsnError(f"training diverged: loss not finite after epoch {epoch + 1} of {cfg.epochs}")

    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        if not full:
            order = rng.permutation(n)
            np.take(X1, order, axis=0, out=Xs, mode="clip")  # "raise" would buffer
            np.take(y, order, out=ys, mode="clip")
        for t, (Xb, yb, work) in enumerate(batches, epoch * len(batches) + 1):  # t: Adam's step count
            gradients(W, c, Xb, yb, gW, gc, work)
            if full and epoch:
                record(epoch - 1)
            # folded Adam, one operation at a time; m and v update in one call each
            root2 = math.sqrt(1.0 - ADAM_BETA2**t)
            moments *= beta
            np.multiply(g, g, out=g2)
            grads *= one_minus_beta
            moments += grads
            np.sqrt(v, out=denom)
            denom += ADAM_EPS * root2
            np.divide(m, denom, out=step)
            step *= lr * root2 / (1.0 - ADAM_BETA1**t)
            theta -= step
        if not full:
            record(epoch)
    if full and cfg.epochs:
        act, _, e, e_col = views[n][:4]
        _forward(W, c, X1, y, act, e, e_col)
        record(cfg.epochs - 1)
    return NetParams(W.copy(), c.copy()), curve


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
    """A, b, then c from a normal of deviation INIT_STDDEV, redrawn beyond INIT_TRUNCATION of it."""
    rng = substream(seed, "init")
    bound = INIT_TRUNCATION * INIT_STDDEV

    def draw(shape):
        out = rng.normal(0.0, INIT_STDDEV, size=shape)
        while np.any(bad := np.abs(out) > bound):
            out[bad] = rng.normal(0.0, INIT_STDDEV, size=int(bad.sum()))
        return out

    A, b, c = draw((n_nodes, input_dim)), draw(n_nodes), draw(n_nodes)
    return NetParams(np.column_stack([A, b]), c)


def multi_restart(n_nodes: int, train_set: Dataset, cfg: TrainConfig, init_seed: int,
                  n_restarts: int) -> tuple[list[ShallowNetwork], np.ndarray]:
    """Randomly initialized training runs, for the caller to choose among.

    Restart r draws its init from seed init_seed + r; all restarts train in
    one ``train_params`` call, stacked on a restart axis if n_restarts > 1.
    Returns each restart's network and their loss curves, (n_restarts, epochs).
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    inits = [truncated_normal_params(n_nodes, train_set.dim, init_seed + r) for r in range(n_restarts)]
    params = inits[0] if n_restarts == 1 else NetParams(np.stack([p.W for p in inits]),
                                                          np.stack([p.c for p in inits]))
    params, curves = train_params(params, train_set, cfg)
    shape = (n_restarts, n_nodes)
    nets = [params_to_network(NetParams(W, c), train_set.dim)
            for W, c in zip(params.W.reshape(*shape, train_set.dim + 1), params.c.reshape(shape))]
    return nets, curves.reshape(n_restarts, cfg.epochs)


def save_loss_csv(curve: np.ndarray, path) -> None:
    write_csv_table(path, ["epoch", "train_loss"], [np.arange(len(curve)), curve])
