import math

import numpy as np
import pytest

from gsn.core import Dataset, Dictionary


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def unit_rows(rng, n_rows, dim):
    v = rng.standard_normal((n_rows, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def synthetic_dictionary(features: np.ndarray) -> Dictionary:
    """Wrap an arbitrary unit-column feature matrix as a Dictionary.

    Directions are placeholder circle points; greedy selection only looks
    at the feature columns, so tests can exercise it on raw matrices.
    """
    features = np.asarray(features, dtype=np.float64)
    n_atoms = features.shape[1]
    angles = 2.0 * np.pi * np.arange(n_atoms) / max(n_atoms, 1)
    return Dictionary(
        features=features,
        raw_norms=np.ones(n_atoms),
        directions=np.column_stack([np.cos(angles), np.sin(angles)]),
    )


def vector_dataset(values: np.ndarray) -> Dataset:
    """1-d dataset whose targets are the given vector; inputs are a grid."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    inputs = np.linspace(-1.0, 1.0, n)[:, None]
    return Dataset(inputs, values, np.array([[-1.0, 1.0]]))


def tau(z, dimension: int = 1):
    """The dual ReLU kernel of ``gsn.ridgelet``, whose collapsed field integrates it in
    closed form: -(z^4 - 6 z^2 + 3) * exp(-z^2/2) / (2 (2 pi)^(d-1/2)).

    Evaluated through z*z so the evenness tau(z) == tau(-z) is exact in
    floating point.
    """
    z = np.asarray(z, dtype=np.float64)
    z2 = z * z
    scale = 2.0 * (2.0 * math.pi) ** (dimension - 0.5)
    out = (z2 * (6.0 - z2) - 3.0) / scale * np.exp(-0.5 * z2)
    return out if out.ndim else float(out)
