"""Backpropagation fine-tuning with Adam, and the random-init baseline.

Training operates on the raw node parametrization (a_n, b_n, c_n); the
unit-norm constraint on inner weights is not maintained while optimizing.
The mean-squared-error loss keeps the learning-rate scale independent of
batch size, and the learning rate decays exponentially per epoch.

`gradients` is the one minibatch gradient kernel: `train_params` steps it
with the one Adam update, both writing into arrays allocated once per call,
and the finite-difference acceptance check tests it. Random initializations
draw every raw parameter from a normal of standard deviation INIT_STDDEV,
truncated at INIT_TRUNCATION of them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, ShallowNetwork, batch_eval, rescale_node
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


@dataclass
class NetParams:
    """Unconstrained node parameters: rows of A pair with b and c entries."""

    A: np.ndarray  # (n_nodes, d)
    b: np.ndarray  # (n_nodes,)
    c: np.ndarray  # (n_nodes,)


def params_from_network(net: ShallowNetwork) -> NetParams:
    W = net.directions
    return NetParams(W[:, :-1].copy(), W[:, -1].copy(), net.weights.copy())


def params_to_network(params: NetParams, input_dim: int) -> ShallowNetwork:
    """Rescale raw nodes back onto the sphere; exact-zero nodes drop out."""
    rows, weights = [], []
    for a, b, c in zip(params.A, params.b, params.c):
        if np.dot(a, a) + b * b == 0.0:
            continue  # contributes relu(0) = 0 everywhere
        row, w = rescale_node(a, b, c)
        rows.append(row)
        weights.append(w)
    return ShallowNetwork(np.reshape(rows, (-1, input_dim + 1)), weights)


def gradients(A: np.ndarray, b: np.ndarray, c: np.ndarray, X: np.ndarray, y: np.ndarray,
              gA: np.ndarray, gb: np.ndarray, gc: np.ndarray, work=None) -> None:
    """Gradients of the minibatch MSE mean((relu(X @ A.T + b) @ c - y)**2).

    Writes them into gA, gb and gc. The ReLU subgradient at zero is taken as
    0, so a node whose pre-activations are all non-positive on the batch
    receives zero gradients.

    z, the gate, the activations and P go into the leading rows of ``work``
    (from ``work_buffers``), or into fresh arrays without it. The activations
    are np.maximum(z, 0.0), bit for bit np.where(z > 0, z, 0.0) on every
    non-NaN z (both map -0.0 to +0.0) at a fraction of its cost.
    """
    stack, gate = work or work_buffers(y.size, A.shape[0])
    z, act, P = stack[:, :y.size]
    gate = gate[:y.size]
    np.matmul(X, A.T, out=z)
    z += b
    np.greater(z, 0.0, out=gate)
    np.maximum(z, 0.0, out=act)
    coef = (2.0 / y.size) * (act @ c - y)
    np.matmul(act.T, coef, out=gc)
    np.multiply(gate, coef[:, None], out=P)  # (batch, nodes)
    np.matmul(P.T, X, out=gA)
    gA *= c[:, None]
    P.sum(axis=0, out=gb)
    gb *= c


def work_buffers(batch: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``gradients``' (z, act, P) stack and gate for batches of <= ``batch`` rows."""
    return np.empty((3, batch, n_nodes)), np.empty((batch, n_nodes), dtype=bool)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Exponentially decayed learning rate, indexed by epoch."""
    return cfg.initial_lr * math.exp(-cfg.decay_rate * epoch)


def train_params(params: NetParams, train_set: Dataset, cfg: TrainConfig) -> tuple[NetParams, np.ndarray]:
    """Mini-batch Adam loop on raw parameters; returns per-epoch train loss.

    Working arrays are allocated once per call: the kernel's work buffers,
    the per-epoch shuffled copy of the data whose slices are the minibatches,
    and the Adam and loss arrays (at full batch, the loss reuses z's buffer).
    """
    n_nodes, d = params.A.shape
    n = train_set.n_points
    X, y = train_set.inputs, train_set.targets
    batch = min(cfg.batch_size, n)
    rng = substream(cfg.seed, "shuffle")

    theta = np.concatenate([params.A.ravel(), params.b, params.c])
    A = theta[: n_nodes * d].reshape(n_nodes, d)
    b = theta[n_nodes * d: n_nodes * (d + 1)]
    c = theta[n_nodes * (d + 1):]
    grad = np.zeros_like(theta)
    gA = grad[: n_nodes * d].reshape(n_nodes, d)
    gb = grad[n_nodes * d: n_nodes * (d + 1)]
    gc = grad[n_nodes * (d + 1):]
    mom = np.zeros_like(theta)
    vel = np.zeros_like(theta)
    step, scratch = np.empty_like(theta), np.empty_like(theta)
    work = work_buffers(batch, n_nodes)
    Xs, ys = np.empty(X.shape), np.empty(n)  # C order: contiguous minibatches
    z_full = work[0][0] if batch == n else np.empty((n, n_nodes))
    err = np.empty(n)

    curve = np.empty(cfg.epochs)
    t = 0
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = rng.permutation(n)
        np.take(X, order, axis=0, out=Xs, mode="clip")  # "raise" would buffer
        np.take(y, order, out=ys, mode="clip")
        for lo in range(0, n, batch):
            gradients(A, b, c, Xs[lo: lo + batch], ys[lo: lo + batch], gA, gb, gc, work)
            # bias-corrected Adam step over the flat parameter vector:
            # theta -= lr * mhat / (sqrt(vhat) + eps), one operation at a time
            t += 1
            mom *= ADAM_BETA1
            mom += np.multiply(1.0 - ADAM_BETA1, grad, out=scratch)
            vel *= ADAM_BETA2
            vel += np.multiply(1.0 - ADAM_BETA2, np.multiply(grad, grad, out=scratch), out=scratch)
            np.divide(mom, 1.0 - ADAM_BETA1**t, out=step)
            step *= lr
            np.sqrt(np.divide(vel, 1.0 - ADAM_BETA2**t, out=scratch), out=scratch)
            scratch += ADAM_EPS
            step /= scratch
            theta -= step
        np.matmul(X, A.T, out=z_full)
        z_full += b
        np.maximum(z_full, 0.0, out=z_full)
        np.matmul(z_full, c, out=err)
        err -= y
        curve[epoch] = np.dot(err, err) / n
    return NetParams(A.copy(), b.copy(), c.copy()), curve


def train(net0: ShallowNetwork, train_set: Dataset, val_set: Dataset | None,
          cfg: TrainConfig) -> tuple[ShallowNetwork, np.ndarray]:
    """Fine-tune a network; returns the final network and the loss curve."""
    if net0.input_dim != train_set.dim:
        raise ValueError("network and training set dimensions differ")
    if val_set is not None and val_set.dim != train_set.dim:
        raise ValueError("validation set dimension differs from training set")
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
        bad = np.abs(out) > bound
        while np.any(bad):
            out[bad] = rng.normal(0.0, INIT_STDDEV, size=int(bad.sum()))
            bad = np.abs(out) > bound
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

    Restart r draws its init from seed init_seed + r; the shuffle stream
    comes from cfg.seed for every restart. Returns the network with the
    lowest test RMSE, the per-restart table, and the best run's loss curve.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    best_net, best_curve, records = None, None, []
    best_err = np.inf
    sqrt_n = np.sqrt(test_set.n_points)
    for r in range(n_restarts):
        seed_r = init_seed + r
        params = truncated_normal_params(n_nodes, train_set.dim, seed_r)
        if cfg.epochs > 0:
            params, curve = train_params(params, train_set, cfg)
        else:
            curve = np.zeros(0)
        net = params_to_network(params, train_set.dim)
        err = float(np.linalg.norm(batch_eval(net, test_set.inputs) - test_set.targets) / sqrt_n)
        final_loss = float(curve[-1]) if curve.size else float("nan")
        records.append(RestartRecord(r, seed_r, err, final_loss))
        if err < best_err:
            best_err, best_net, best_curve = err, net, curve
    return best_net, records, best_curve


def save_loss_csv(curve: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss"])
        for epoch, value in enumerate(curve):
            writer.writerow([epoch, repr(float(value))])
