"""Ridgelet-transform machinery for dictionary pruning.

The dual kernel is proportional to the fourth derivative of a Gaussian, so
it has four vanishing moments and pairs admissibly with the ReLU. Its
discretized transform, collapsed along rays through sphere directions,
concentrates where candidate nodes matter for a given target; thresholding
its magnitude shrinks the dictionary before greedy selection.

The ray integral is exact. With s = a.x + b, c = 2 (2 pi)^(d-1/2), X = R|s|,
a = (d+2)/2, x = X^2/2 and P the regularized lower incomplete gamma function,

    int_0^R r^(d+1) tau(r s) dr = -(R^(d+2) / c) g_d(X),
    g_d(X) = X^-(d+2) int_0^X u^(d+1) (u^4 - 6u^2 + 3) e^(-u^2/2) du
           = Gamma(a) (2a^2 - 4a + 3/2) x^-a P(a, x) + 2 (2 - a - x) e^-x,

with g_d(0) = 3/(d+2). For d = 1 the P term vanishes, g_1(X) = (1 - X^2)
e^(-X^2/2), and int_0^inf r^2 tau(r s) dr = 0 for every s != 0: the 1-d field
comes only from points near each hyperplane, where R|s| is small, and from
the cutoff R, so its peak is set by the points closest to a hyperplane.
"""

from __future__ import annotations

import csv
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, Dictionary, Direction, directions_to_arrays, preactivations, relu

# (directions x points) per chunk: temporaries stay cache-sized and threads get
# work to split (ex3 field, 2 cores: 0.14 s unchunked, 0.07 s chunked on 2 threads)
_CHUNK_BUDGET = 65_536


def tau(z, dimension: int = 1):
    """Dual ReLU kernel: -(z^4 - 6 z^2 + 3) * exp(-z^2/2) / (2 (2 pi)^(d-1/2)).

    Evaluated through z*z so the evenness tau(z) == tau(-z) is exact in
    floating point.
    """
    z = np.asarray(z, dtype=np.float64)
    z2 = z * z
    scale = 2.0 * (2.0 * math.pi) ** (dimension - 0.5)
    out = (z2 * (6.0 - z2) - 3.0) / scale * np.exp(-0.5 * z2)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RadialQuadrature:
    """Radial cutoff of the collapsed transform: rays run over r in (0, r_max]."""

    r_max: float = 40.0

    def __post_init__(self):
        if not self.r_max > 0.0:
            raise ValueError("r_max must be positive")

    @property
    def n_nodes(self) -> int:
        # one evaluation per (direction, point); the benchmark's kernel_evals reads it
        return 1


@dataclass(frozen=True)
class RidgeletField:
    """Transform values over a rectangular grid of (a, b) locations (d=1)."""

    a_grid: np.ndarray
    b_grid: np.ndarray
    values: np.ndarray     # shape (len(a_grid), len(b_grid))
    provenance: str = ""

    def __post_init__(self):
        if self.values.shape != (len(self.a_grid), len(self.b_grid)):
            raise ValueError("values grid shape must match (a_grid, b_grid)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


@dataclass(frozen=True)
class CollapsedField:
    """Collapsed transform values, one per sampled direction."""

    directions: tuple
    values: np.ndarray
    quadrature: RadialQuadrature = field(default_factory=RadialQuadrature)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if values.size != len(self.directions):
            raise ValueError("one value per direction required")
        if not np.all(np.isfinite(values)):
            raise ValueError("collapsed values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "directions", tuple(self.directions))


def ridgelet_transform(dataset: Dataset, a, b: float) -> float:
    """Uniform-measure estimate of the transform at one (a, b) location.

    Uses the training points as quadrature nodes with weight vol(domain)/n.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    z = dataset.inputs @ a + b
    w = dataset.volume / dataset.n_points
    return float(w * np.dot(dataset.targets, tau(z, dataset.dim)))


def ridgelet_field(dataset: Dataset, a_grid, b_grid) -> RidgeletField:
    """Transform evaluated on a rectangular (a, b) grid; d=1 only."""
    if dataset.dim != 1:
        raise ValueError("rectangular field grids are defined for 1-d inputs")
    a_grid = np.asarray(a_grid, dtype=np.float64).ravel()
    b_grid = np.asarray(b_grid, dtype=np.float64).ravel()
    x = dataset.inputs[:, 0]
    w = dataset.volume / dataset.n_points
    # z[i, j, k] = a_i * x_k + b_j
    z = a_grid[:, None, None] * x[None, None, :] + b_grid[None, :, None]
    values = w * (tau(z, 1) @ dataset.targets)
    return RidgeletField(a_grid, b_grid, values)


def _radial_profile(X: np.ndarray, dimension: int) -> np.ndarray:
    """g_d(X) of the module docstring, elementwise over X >= 0."""
    a = 0.5 * (dimension + 2)
    x = np.maximum(0.5 * X * X, 1e-18)    # g_d = g_d(0) + O(x): costs << 1 ulp, x^-a stays finite
    g = 2.0 * (2.0 - a - x) * np.exp(-x)
    c = math.gamma(a) * (2.0 * a * a - 4.0 * a + 1.5)    # zero for d = 1
    if c:
        from scipy.special import gammainc    # slow to import, and pruning is optional
        g += c * gammainc(a, x) / x**a
    return g


def collapsed_field(dataset: Dataset, directions, quad: RadialQuadrature | None = None,
                    threads: int = 1) -> CollapsedField:
    """Collapsed transform over a direction set, exact in r, chunked over directions.

    Results are written per-direction, so thread scheduling cannot change
    them; ``threads`` only splits the direction axis.
    """
    directions = list(directions)
    quad = quad or RadialQuadrature()
    A, b = directions_to_arrays(directions)
    d = dataset.dim
    R = quad.r_max
    scale = -R ** (d + 2) / (2.0 * (2.0 * math.pi) ** (d - 0.5))
    f = dataset.targets * (dataset.volume / dataset.n_points)
    values = np.empty(len(directions))

    chunk = max(1, _CHUNK_BUDGET // max(dataset.n_points, 1))

    def run(lo: int, hi: int) -> None:
        S = preactivations(dataset.inputs, A[lo:hi], b[lo:hi])     # (n_train, m)
        values[lo:hi] = scale * (f @ _radial_profile(R * np.abs(S), d))

    spans = [(lo, min(lo + chunk, len(directions))) for lo in range(0, len(directions), chunk)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda s: run(*s), spans))
    else:
        for lo, hi in spans:
            run(lo, hi)
    return CollapsedField(tuple(directions), values, quad)


def prune_dictionary(dictionary: Dictionary, fld: CollapsedField,
                     rel_threshold: float = 1e-3) -> Dictionary:
    """Keep atoms whose |collapsed value| exceeds rel_threshold * max.

    Field values must correspond 1-1 with the dictionary's atoms. If every
    value is zero the threshold is degenerate: the dictionary is returned
    unchanged and a warning is issued.
    """
    if not 0.0 <= rel_threshold < 1.0:
        raise ValueError("rel_threshold must lie in [0, 1)")
    if len(fld.directions) != dictionary.n_atoms:
        raise ValueError("field must hold one value per dictionary atom")
    mags = np.abs(fld.values)
    peak = mags.max()
    if peak == 0.0:
        warnings.warn("all collapsed values are zero; pruning skipped", RuntimeWarning)
        return dictionary
    keep = np.flatnonzero(mags > rel_threshold * peak)
    return Dictionary(
        features=dictionary.features[:, keep],
        raw_norms=dictionary.raw_norms[keep],
        directions=tuple(dictionary.directions[j] for j in keep),
        source_indices=tuple(dictionary.source_indices[j] for j in keep),
        source_directions=dictionary.source_directions,
    )


def sphere_surface_area(dimension: int) -> float:
    """Surface area of the unit d-sphere embedded in R^(d+1)."""
    return 2.0 * math.pi ** ((dimension + 1) / 2.0) / math.gamma((dimension + 1) / 2.0)


def reconstruct_from_crf(x, fld: CollapsedField) -> float:
    """Qualitative reconstruction of the target from collapsed values.

    Monte-Carlo estimate of the sphere integral of value * relu(a.x + b)
    over the field's direction cloud; a diagnostic, not a fitted model.
    """
    if not len(fld.directions):
        raise ValueError("field is empty")
    return float(reconstruct_batch(np.reshape(x, (1, -1)), fld)[0])


def reconstruct_batch(inputs, fld: CollapsedField) -> np.ndarray:
    """Vectorized ``reconstruct_from_crf`` over input rows."""
    inputs = np.asarray(inputs, dtype=np.float64)
    A, b = directions_to_arrays(fld.directions)
    area = sphere_surface_area(A.shape[1])
    return area / len(fld.directions) * (relu(inputs @ A.T + b) @ fld.values)


def save_field_csv(fld: CollapsedField, path) -> None:
    """Direction coordinates then value, one row per direction."""
    d = fld.directions[0].dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"a{i+1}" for i in range(d)] + ["b", "value"])
        for dr, val in zip(fld.directions, fld.values):
            writer.writerow([repr(float(v)) for v in dr.a] + [repr(float(dr.b)), repr(float(val))])


def load_field_csv(path, quad: RadialQuadrature | None = None) -> CollapsedField:
    dirs, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row:
                nums = [float(v) for v in row]
                dirs.append(Direction(np.asarray(nums[:-2]), nums[-2]))
                vals.append(nums[-1])
    return CollapsedField(tuple(dirs), np.asarray(vals), quad or RadialQuadrature())
