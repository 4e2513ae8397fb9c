"""Least-squares outer weights for a fixed set of inner directions.

ReLU activation columns are frequently near-collinear, so the solver goes
through an SVD with an explicit rank cutoff and returns the minimum-norm
minimizer on deficiency instead of squaring the condition number via the
normal equations.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, ShallowNetwork, check_directions, preactivations, relu

RANK_REL_TOL = 1e-10  # singular values below this times the largest column norm are noise


def assemble_design(dataset: Dataset, directions) -> np.ndarray:
    """The (n_points, n_nodes) matrix of relu(a_n . x_i + b_n) over the dataset's inputs."""
    W = check_directions(directions, dataset.dim)
    return relu(preactivations(dataset.inputs, W[:, :-1], W[:, -1]))


def fit_outer_weights(A, targets) -> np.ndarray:
    """Minimum-norm least-squares coefficients for A @ c ~= targets."""
    A = np.asarray(A, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if A.ndim != 2 or A.shape[0] != targets.size:
        raise ValueError("design must be a 2-d matrix with one row per target")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(targets))):
        raise ValueError("design and targets must be finite")
    if A.shape[1] == 0:
        return np.zeros(0)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    cutoff = RANK_REL_TOL * float(np.linalg.norm(A, axis=0).max())
    keep = s > cutoff
    if not np.any(keep):
        return np.zeros(A.shape[1])
    coeff = (U[:, keep].T @ targets) / s[keep]
    return Vt[keep].T @ coeff


def refit_network(dataset: Dataset, directions) -> tuple[ShallowNetwork, np.ndarray]:
    """Network with least-squares outer weights for the given directions."""
    c = fit_outer_weights(assemble_design(dataset, directions), dataset.targets)
    return ShallowNetwork(directions, c), c
