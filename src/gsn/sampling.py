"""Seeded direction sampling, dataset generation, and dictionary construction.

Reproducibility contract: every random draw flows from a 64-bit master seed
through numpy's PCG64 generator. Purpose-specific sub-streams are derived as

    SeedSequence(master_seed, spawn_key=(STREAMS[purpose], index))

with the fixed purpose table below, so train/validation/test/direction/init/
shuffle draws are independent and individually reproducible across runs.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

import numpy as np

from .core import (BLOCK_BUDGET, Dataset, Dictionary, check_directions, preactivations,
                   read_csv_table, write_csv_table)

# Fixed purpose -> sub-stream index table. Changing it changes every seeded
# output, so it is part of the on-disk format.
STREAMS = {
    "directions": 0,
    "train": 1,
    "validation": 2,
    "test": 3,
    "init": 4,
    "shuffle": 5,
}

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def substream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Generator for one documented sub-stream of the master seed."""
    key = (STREAMS[purpose], index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def substream_seed(seed: int, purpose: str, index: int = 0) -> int:
    """A derived 64-bit integer seed for handing to nested components."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    key = (STREAMS[purpose], index)
    words = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, dtype=np.uint32)
    return int(words[0]) | (int(words[1]) << 32)


def sample_circle(count: int, seed: int = 0) -> np.ndarray:
    """Directions [cos phi, sin phi] on the unit circle (d=1), phi i.i.d.
    uniform on [-pi, pi) from the 'directions' sub-stream."""
    if count < 1:
        raise ValueError("count must be >= 1")
    phi = substream(seed, "directions").uniform(-math.pi, math.pi, size=count)
    return check_directions(np.column_stack([np.cos(phi), np.sin(phi)]), 1)


def golden_spiral(count: int) -> np.ndarray:
    """Deterministic golden-spiral point set on the 2-sphere.

    Point i sits at height z_i = 1 - 2*(i+0.5)/count with azimuth
    2*pi*i/golden_ratio**2; (x, y, z) is read as (a1, a2, b).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = 2.0 * math.pi * i / GOLDEN_RATIO**2
    x = rho * np.cos(theta)
    y = rho * np.sin(theta)
    return check_directions(np.column_stack([x, y, z]), 2)


def sample_gaussian_sphere(dimension: int, count: int, seed: int = 0) -> np.ndarray:
    """I.i.d. standard Gaussian (d+1)-vectors normalized onto the sphere."""
    if dimension < 1 or count < 1:
        raise ValueError("dimension and count must be >= 1")
    rng = substream(seed, "directions")
    vecs = rng.standard_normal(size=(count, dimension + 1))
    norms = np.linalg.norm(vecs, axis=1)
    while np.any(norms == 0.0):  # probability zero, guarded anyway
        dead = norms == 0.0
        vecs[dead] = rng.standard_normal(size=(int(dead.sum()), dimension + 1))
        norms = np.linalg.norm(vecs, axis=1)
    vecs /= norms[:, None]
    return check_directions(vecs, dimension)


def sample_directions(dimension: int, count: int, seed: int) -> np.ndarray:
    """``count`` directions by the scheme of the dimension: uniform circle
    angles for d=1, the golden spiral for d=2, normalized Gaussians for d>=3."""
    if dimension == 1:
        return sample_circle(count, seed)
    if dimension == 2:
        return golden_spiral(count)
    return sample_gaussian_sphere(dimension, count, seed)


def _grid_inputs(bounds: np.ndarray, n_points: int) -> np.ndarray:
    d = bounds.shape[0]
    per_axis = round(n_points ** (1.0 / d))
    if per_axis**d != n_points:
        raise ValueError(f"grid layout needs a perfect {d}-th power of points, got {n_points}")
    axes = [np.linspace(lo, hi, per_axis) if per_axis > 1 else np.array([(lo + hi) / 2.0])
            for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def generate_dataset(target, n_points: int, seed: int, layout: str = "random-uniform",
                     purpose: str = "train") -> Dataset:
    """Draw inputs over the target's domain and evaluate it exactly.

    ``target`` needs ``dimension``, ``domain_bounds`` and a vectorized
    ``evaluate(inputs)``; ``purpose`` picks the sub-stream (train /
    validation / test) so the three splits are independent.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    bounds = np.asarray(target.domain_bounds, dtype=np.float64).reshape(-1, 2)
    if layout == "grid":
        inputs = _grid_inputs(bounds, n_points)
    elif layout == "random-uniform":
        rng = substream(seed, purpose)
        u = rng.uniform(size=(n_points, bounds.shape[0]))
        inputs = bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])
    else:
        raise ValueError(f"unknown layout {layout!r}")
    targets = np.asarray(target.evaluate(inputs), dtype=np.float64).ravel()
    return Dataset(inputs, targets, bounds)


def _relu_blocks(inputs: np.ndarray, A: np.ndarray, b: np.ndarray):
    """ReLU activations of the directions [A | b] on ``inputs``, block by block.

    Yields (lo, block, norms): block[k] is the activation vector of direction
    lo + k and norms[k] its raw l2 norm, summed over the points in order
    whatever the blocks. Each block overwrites the last in two buffers sharing
    BLOCK_BUDGET values, each smaller than the ridgelet field's chunk temporaries
    (the full budget each raised ex3's peak RSS by 1 MB: glibc's mmap threshold).
    """
    n, m = inputs.shape[0], A.shape[0]
    width = max(1, BLOCK_BUDGET // (2 * n))
    columns = np.ascontiguousarray(inputs.T).T  # contiguous coordinate columns
    z, squares, z_norms = np.empty((width, n)), np.empty((width, n)), np.empty(width)
    for lo in range(0, m, width):
        hi = min(lo + width, m)
        block, sq, block_norms = z[:hi - lo], squares[:hi - lo], z_norms[:hi - lo]
        preactivations(A[lo:hi], columns, b[lo:hi, None], block, sq)
        np.maximum(block, 0.0, out=block)
        np.multiply(block, block, out=sq)
        np.sqrt(np.add.accumulate(sq, axis=1, out=sq)[:, -1], out=block_norms)
        yield lo, block, block_norms


def _atom_rows(inputs: np.ndarray, A: np.ndarray, b: np.ndarray, drop_tol: float):
    """Normalized ReLU atoms, each written once into one atom-major buffer.

    Returns (rows, norms, kept): rows[k] is the unit-norm activation vector
    of direction kept[k] and norms[k] its raw l2 norm. Directions whose raw
    norm is <= drop_tol are skipped; the rest keep their order. The rows of
    skipped directions at the end of the buffer are never written, so they
    take address space but no resident memory.
    """
    m = A.shape[0]
    rows, norms, kept = np.empty((m, inputs.shape[0])), np.empty(m), np.empty(m, dtype=np.intp)
    k = 0
    for lo, block, block_norms in _relu_blocks(inputs, A, b):
        live = np.flatnonzero(block_norms > drop_tol)
        n_live = live.size
        np.divide(block if n_live == len(block) else block[live], block_norms[live, None], out=rows[k:k + n_live])
        norms[k:k + n_live] = block_norms[live]
        kept[k:k + n_live] = lo + live
        k += n_live
    return rows[:k], norms[:k], kept[:k]


# the rows of a dictionary CSV: one atom each, without its features
DictionaryRows = namedtuple("DictionaryRows", "source_indices directions raw_norms")


def live_rows(dataset: Dataset, directions, drop_tol: float = 1e-12) -> DictionaryRows:
    """The rows of ``directions`` whose atoms ``build_dictionary`` keeps, with their
    raw norms, found with its block kernel but without writing any feature."""
    W = check_directions(directions, dataset.dim)
    norms = np.empty(len(W))
    for lo, _, block_norms in _relu_blocks(dataset.inputs, W[:, :-1], W[:, -1]):
        norms[lo:lo + len(block_norms)] = block_norms
    live = np.flatnonzero(norms > drop_tol)
    if not live.size:
        raise ValueError("every sampled direction is dead on the training set")
    return DictionaryRows(live, W[live], norms[live])


def build_dictionary(dataset: Dataset, directions, drop_tol: float = 1e-12) -> Dictionary:
    """Normalized ReLU activation vectors for each row [a | b] of ``directions``.

    Directions whose activations have l2 norm <= drop_tol on the training
    inputs carry no information and are dropped; the rest keep their order,
    and ``live_rows`` names their rows in ``directions``.
    """
    W = check_directions(directions, dataset.dim)
    rows, norms, kept = _atom_rows(dataset.inputs, W[:, :-1], W[:, -1], drop_tol)
    if not kept.size:
        raise ValueError("every sampled direction is dead on the training set")
    return Dictionary(features=rows.T, raw_norms=norms, directions=W[kept])


# --- CSV import/export -------------------------------------------------

def save_dataset_csv(dataset: Dataset, path) -> None:
    """One row per point, d input columns then the target column.

    The domain box rides along in a leading comment line so a round trip
    preserves the exact bounds (and with them integration weights).
    """
    write_csv_table(path, [f"x{i+1}" for i in range(dataset.dim)] + ["f"],
                    [*dataset.inputs.T, dataset.targets],
                    comment=f"domain_bounds={json.dumps(dataset.domain_bounds.tolist())}")


def load_dataset_csv(path) -> Dataset:
    comment, data = read_csv_table(path)
    inputs, targets = data[:, :-1], data[:, -1]
    if comment is None:
        bounds = np.stack([inputs.min(axis=0), inputs.max(axis=0)], axis=1)
    else:
        bounds = np.asarray(json.loads(comment.partition("=")[2]), dtype=np.float64)
    return Dataset(inputs, targets, bounds)


def save_directions_csv(directions, path) -> None:
    """One row a1..ad,b per direction: the in-memory (M, d+1) layout."""
    W = check_directions(directions)
    write_csv_table(path, [f"a{i+1}" for i in range(W.shape[1] - 1)] + ["b"], W.T)


def load_directions_csv(path, dim: int) -> np.ndarray:
    """Validated (M, dim+1) direction array."""
    return check_directions(read_csv_table(path)[1], dim)


def save_dictionary_csv(rows, path) -> None:
    """One row per atom of ``rows`` (DictionaryRows): source index, direction
    coordinates, raw norm."""
    d = rows.directions.shape[1] - 1
    write_csv_table(path, ["source_index"] + [f"a{i+1}" for i in range(d)] + ["b", "raw_norm"],
                    [rows.source_indices, *rows.directions.T, rows.raw_norms])


def read_dictionary_csv(path, dim: int | None = None) -> DictionaryRows:
    """Validated rows of a dictionary CSV: unique integer source indices, unit directions
    (with ``dim`` input coordinates, if given) and finite positive raw norms."""
    _, data = read_csv_table(path)
    if not len(data):
        raise ValueError("no atom rows")
    source = data[:, 0].astype(np.intp)
    # duplicates found by sorting: np.unique would import numpy.ma
    if not np.array_equal(source, data[:, 0]) or not np.diff(np.sort(source)).all():
        raise ValueError("source_index entries must be unique integers")
    raw_norms = data[:, -1]
    if not np.all(np.isfinite(raw_norms) & (raw_norms > 0.0)):
        raise ValueError("raw_norm entries must be finite and positive")
    return DictionaryRows(source, check_directions(data[:, 1:-1], dim), raw_norms)

