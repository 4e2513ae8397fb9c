"""Least-squares outer weights for a fixed set of inner directions.

ReLU activation columns are frequently near-collinear, so the solver goes
through an SVD with an explicit rank cutoff and returns the minimum-norm
minimizer on deficiency instead of squaring the condition number via the
normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, ShallowNetwork, check_directions, preactivations, relu

RANK_REL_TOL = 1e-10  # singular values below this times the largest column norm are noise


@dataclass(frozen=True)
class DesignMatrix:
    """Node activations on a point set, one column per row [a | b] of ``directions``."""

    matrix: np.ndarray      # (n_points, n_nodes)
    directions: np.ndarray  # (n_nodes, d+1) provenance

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("design matrix must be 2-d")
        if matrix.shape[1] != len(self.directions):
            raise ValueError("one provenance direction per column required")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("design matrix entries must be finite")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "directions", check_directions(self.directions))

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[1]


def assemble_design(dataset: Dataset, directions) -> DesignMatrix:
    """Matrix of relu(a_n . x_i + b_n) over the dataset's inputs."""
    W = check_directions(directions, dataset.dim)
    return DesignMatrix(relu(preactivations(dataset.inputs, W[:, :-1], W[:, -1])), W)


def fit_outer_weights(design: DesignMatrix, targets) -> np.ndarray:
    """Minimum-norm least-squares coefficients for design @ c ~= targets."""
    targets = np.asarray(targets, dtype=np.float64).ravel()
    A = design.matrix
    if A.shape[0] != targets.size:
        raise ValueError("design row count must match target length")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
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
    design = assemble_design(dataset, directions)
    c = fit_outer_weights(design, dataset.targets)
    return ShallowNetwork(design.directions, c), c
