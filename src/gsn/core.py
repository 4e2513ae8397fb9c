"""Domain types and ReLU evaluation semantics shared by all stages.

Values are plain frozen dataclasses over float64 numpy arrays; everything
here is immutable after construction and safe to share across threads.

A set of M directions (inner weights on the unit sphere S^d in R^(d+1)) is
one float64 array W of shape (M, d+1): row m is [a_m | b_m] with unit l2
norm, the same layout as a row of the directions CSV, and W[:, :-1],
W[:, -1] are views of the a and b parts. ``check_directions`` validates
such an array; Dictionary, CollapsedField, ShallowNetwork and every loader of
directions call it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-12

# Values (rows x columns) per block of directions in the ridgelet field and
# the dictionary build: block temporaries stay cache-sized and the heap reuses
# them instead of page-faulting fresh ones (ex3 field, 2 cores: 0.14 s
# unchunked, 0.07 s chunked on 2 threads). Blocks of 512 KiB sit below glibc's
# dynamic mmap threshold once one has been freed, so they come from the heap,
# and from each thread's own arena: a threaded ridgelet field leaves ~3 MiB
# of freed blocks resident per worker until it trims them.
BLOCK_BUDGET = 65_536


class GsnError(Exception):
    """Base class for errors raised by this package."""


class InvalidNodeError(GsnError, ValueError):
    """A node's inner weight vector is degenerate (zero)."""


def relu(z):
    """max(z, 0), elementwise on arrays."""
    return np.maximum(z, 0.0)


def preactivations(inputs: np.ndarray, A: np.ndarray, b: np.ndarray,
                   out: np.ndarray | None = None, products: np.ndarray | None = None) -> np.ndarray:
    """z[i, n] = A[n] . inputs[i] + b[n], accumulated in a fixed order.

    Sequential accumulation over coordinates keeps every row independent
    of the batch it sits in, so all evaluation paths agree bit for bit.
    With the roles swapped, preactivations(A, inputs, b[:, None]) is z.T,
    node-major, bit for bit. Written into ``out`` when given, and each
    coordinate's products into ``products``; either way ``out`` is returned.
    """
    if out is None:
        out = np.empty((inputs.shape[0], A.shape[0]))
    out[...] = b
    for k in range(A.shape[1]):
        out += np.multiply(inputs[:, k:k + 1], A[:, k], out=products)
    return out


def check_directions(directions, dim: int | None = None) -> np.ndarray:
    """A direction set as one validated, C-ordered float64 (M, d+1) array.

    Every row must be finite and have unit l2 norm within UNIT_NORM_TOL.
    With ``dim`` given, rows must have dim + 1 entries, and an empty
    sequence becomes the (0, dim + 1) array.
    """
    W = np.ascontiguousarray(directions, dtype=np.float64)
    if dim is not None and W.size == 0:
        W = W.reshape(0, dim + 1)
    if W.ndim != 2 or W.shape[1] < 2:
        raise ValueError(f"directions must be an (M, d+1) array with d >= 1, got shape {W.shape}")
    if dim is not None and W.shape[1] != dim + 1:
        raise ValueError(f"directions have {W.shape[1] - 1} input coordinates, expected {dim}")
    finite = np.isfinite(W).all(axis=1)
    if not finite.all():
        raise ValueError(f"direction row {int(np.argmin(finite))} is not finite")
    off = np.abs(np.sqrt(np.einsum("ij,ij->i", W, W)) - 1.0)
    if np.any(off > UNIT_NORM_TOL):
        j = int(np.argmax(off))
        raise ValueError(f"direction row {j} is off the unit sphere, |norm-1|={off[j]:.3e}")
    return W


@dataclass(frozen=True)
class Dataset:
    """Input points, target values, and the closed box they were drawn from."""

    inputs: np.ndarray        # (n_points, d)
    targets: np.ndarray       # (n_points,)
    domain_bounds: np.ndarray  # (d, 2) closed intervals per coordinate

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        targets = np.asarray(self.targets, dtype=np.float64).ravel()
        bounds = np.asarray(self.domain_bounds, dtype=np.float64).reshape(-1, 2)
        if inputs.shape[0] != targets.size:
            raise ValueError("row count of inputs must equal length of targets")
        if inputs.shape[0] < 1 or inputs.shape[1] < 1:
            raise ValueError("dataset needs at least one point and one input dimension")
        for name, finite in (("input", np.isfinite(inputs).all(axis=1)),
                             ("target", np.isfinite(targets))):
            if not finite.all():
                raise ValueError(f"{name} of point {int(np.argmin(finite))} is not finite")
        if bounds.shape[0] != inputs.shape[1]:
            raise ValueError("domain_bounds must give one interval per input coordinate")
        if np.any(bounds[:, 0] > bounds[:, 1]):
            raise ValueError("domain_bounds intervals must satisfy lo <= hi")
        if np.any(inputs < bounds[:, 0]) or np.any(inputs > bounds[:, 1]):
            raise ValueError("every input row must lie within domain_bounds")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "domain_bounds", bounds)

    @property
    def n_points(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def volume(self) -> float:
        """Volume of the bounding box (used as the uniform-measure weight)."""
        return float(np.prod(self.domain_bounds[:, 1] - self.domain_bounds[:, 0]))


@dataclass(frozen=True)
class Dictionary:
    """Ordered set of candidate atoms and the directions they come from.

    ``features`` holds the atoms column-wise, shape (n_train, n_atoms).
    The sampling builders store the atoms in one atom-major buffer of shape
    (n_atoms, n_train), each atom written once, and hand out its transpose:
    ``features`` is then a Fortran-ordered view, and greedy's
    ``features.T @ q`` GEMVs read that buffer row by row.
    ``directions`` is the (n_atoms, d+1) array whose row j is [a_j | b_j],
    unit norm, the same layout as a row of the directions CSV, and names atom j.
    """

    features: np.ndarray
    raw_norms: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        raw_norms = np.asarray(self.raw_norms, dtype=np.float64).ravel()
        directions = check_directions(self.directions)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix (n_train, n_atoms)")
        if not features.shape[1] == raw_norms.size == len(directions):
            raise ValueError("features columns, raw_norms and directions must align")
        norms = np.sqrt(np.einsum("ij,ij->j", features, features))  # no (n_train, n_atoms) temporary
        if not np.all(np.abs(norms - 1.0) <= 1e-10):
            raise ValueError("all atom feature columns must be finite with unit norm")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "raw_norms", raw_norms)
        object.__setattr__(self, "directions", directions)

    @property
    def n_atoms(self) -> int:
        return self.features.shape[1]

    @property
    def n_train(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class ShallowNetwork:
    """Single-hidden-layer ReLU network with unit-sphere inner weights.

    Evaluates x -> sum_n c_n * relu(a_n . x + b_n). Row n of the (N, d+1)
    ``directions`` array is [a_n | b_n], unit norm, the same layout as a row
    of the directions CSV; ``weights`` holds c. The empty network, with
    (0, d+1) directions, is a valid value and evaluates to 0 everywhere.
    """

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        directions = check_directions(self.directions)
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if weights.size != len(directions):
            raise ValueError("one outer weight per direction required")
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "weights", weights)

    @property
    def input_dim(self) -> int:
        return self.directions.shape[1] - 1

    @property
    def n_nodes(self) -> int:
        return self.weights.size


def rescale_node(a, b: float, c: float) -> tuple[np.ndarray, float]:
    """Project an unconstrained node onto the sphere: ([a | b] / norm, c * norm).

    Positive homogeneity of the ReLU gives c*relu(a.x+b) == w*relu(ab.x+bb)
    with (ab, bb) = (a, b)/||(a, b)|| and w = c*||(a, b)||.
    """
    row = np.append(np.asarray(a, dtype=np.float64), float(b))
    norm = math.hypot(*row)  # scale-safe for tiny and huge components
    if norm == 0.0:
        raise InvalidNodeError("inner weight vector (a, b) must be nonzero")
    return row / norm, float(c) * norm


def batch_eval(net: ShallowNetwork, inputs) -> np.ndarray:
    """Row-wise network evaluation; returns one value per input row.

    Accumulation order is fixed (sequential over input coordinates and
    nodes) so each output row is independent of the batch it sits in;
    batched and pointwise evaluation agree bit for bit. The points go in
    blocks of BLOCK_BUDGET activations, through buffers allocated once.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be a 2-d matrix")
    if inputs.shape[1] != net.input_dim:
        raise ValueError(f"inputs have dimension {inputs.shape[1]}, network expects {net.input_dim}")
    width = max(1, min(len(inputs), BLOCK_BUDGET // max(1, net.n_nodes)))
    z, products = np.empty((net.n_nodes, width)), np.empty((net.n_nodes, width))
    out = np.zeros(len(inputs))
    for lo in range(0, len(out), width):
        hi = min(lo + width, len(out))
        block = preactivations(net.directions[:, :-1], inputs[lo:hi], net.directions[:, -1:],
                               z[:, :hi - lo], products[:, :hi - lo])  # node-major rows
        np.maximum(block, 0.0, out=block)
        acc = out[lo:hi]
        for w, row in zip(net.weights, block):
            acc += w * row
    return out


def write_csv_table(path, header, columns, comment: str | None = None) -> None:
    """The CSV artifact format: an optional leading ``# comment`` line, the
    header, then one row per entry of the equal-length ``columns``, each line
    ending in LF. A cell is the ``repr`` of its ``tolist()`` value, so floats
    round-trip bit for bit; ``None`` is an empty cell."""
    values = [np.asarray(col).tolist() for col in columns]
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(["" if v is None else repr(v) for v in row] for row in zip(*values))


def read_csv_table(path) -> tuple[str | None, np.ndarray]:
    """The leading ``#`` comment (None without one) and the float rows of a CSV
    artifact; every row must match the header's width."""
    with open(path, newline="") as fh:
        first = fh.readline()
        comment = first[1:].strip() if first.startswith("#") else None
        if comment is None:
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError("missing CSV header")
        rows = [row for row in reader if row]
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"data row {k} has {len(row)} columns; the header has {len(header)}")
    data = np.array([[float(v) for v in row] for row in rows], dtype=np.float64)
    return comment, data.reshape(len(rows), len(header))


def directions_from_json(entries, dim: int) -> np.ndarray:
    """Direction array from a JSON list of {"a": [...], "b": ...} objects."""
    return check_directions([list(e["a"]) + [e["b"]] for e in entries], dim)


def network_to_json(net: ShallowNetwork) -> str:
    """Serialize to the documented JSON schema with round-tripping decimals."""
    doc = {
        "input_dim": net.input_dim,
        "nodes": [{"a": row[:-1], "b": row[-1], "c": c}
                  for row, c in zip(net.directions.tolist(), net.weights.tolist())],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def network_from_json(text: str) -> ShallowNetwork:
    doc = json.loads(text)
    directions = directions_from_json(doc["nodes"], int(doc["input_dim"]))
    return ShallowNetwork(directions, [n["c"] for n in doc["nodes"]])


def save_network(net: ShallowNetwork, path) -> None:
    with open(path, "w") as fh:
        fh.write(network_to_json(net))
        fh.write("\n")


def load_network(path) -> ShallowNetwork:
    with open(path) as fh:
        return network_from_json(fh.read())
