"""Domain types and ReLU evaluation semantics shared by all stages.

Values are plain frozen dataclasses over float64 numpy arrays; everything
here is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

UNIT_NORM_TOL = 1e-12


class GsnError(Exception):
    """Base class for errors raised by this package."""


class InvalidNodeError(GsnError, ValueError):
    """A node's inner weight vector is degenerate (zero)."""


def relu(z):
    """max(z, 0), elementwise on arrays."""
    return np.maximum(z, 0.0)


def preactivations(inputs: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z[i, n] = A[n] . inputs[i] + b[n], accumulated in a fixed order.

    Sequential accumulation over coordinates keeps every row independent
    of the batch it sits in, so all evaluation paths agree bit for bit.
    """
    z = np.broadcast_to(b, (inputs.shape[0], A.shape[0])).copy()
    for k in range(A.shape[1]):
        z += inputs[:, k:k + 1] * A[:, k]
    return z


@dataclass(frozen=True)
class Direction:
    """A unit vector (a, b) on the sphere in R^{d+1}; one candidate node."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=np.float64))
        if a.ndim != 1 or a.size < 1:
            raise ValueError("direction component a must be a 1-d vector")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))
        norm = float(np.sqrt(np.dot(a, a) + self.b * self.b))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"direction must lie on the unit sphere, |norm-1|={abs(norm-1.0):.3e}")

    @property
    def dim(self) -> int:
        return self.a.size


def directions_to_arrays(directions) -> tuple[np.ndarray, np.ndarray]:
    """Stack a direction list into (A, b) with A of shape (M, d), b of shape (M,)."""
    A = np.stack([dr.a for dr in directions])
    b = np.array([dr.b for dr in directions], dtype=np.float64)
    return A, b


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
class Atom:
    """One dictionary element: normalized ReLU activations on the training inputs."""

    direction: Direction
    features: np.ndarray   # (n_train,), unit l2 norm
    raw_norm: float        # pre-normalization l2 norm

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64).ravel()
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "raw_norm", float(self.raw_norm))
        if self.raw_norm <= 0.0:
            raise ValueError("atom raw_norm must be positive")
        if abs(np.linalg.norm(features) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("atom features must have unit l2 norm")


# Columns per block of the Dictionary unit-norm check, so that the check's
# temporaries stay small next to the feature matrix.
_NORM_CHECK_COLUMNS = 128


@dataclass(frozen=True)
class Dictionary:
    """Ordered set of candidate atoms plus the full sampled direction list.

    ``features`` holds the atoms column-wise, shape (n_train, n_atoms).
    The sampling builders store the atoms in one atom-major buffer of shape
    (n_atoms, n_train), each atom written once, and hand out its transpose:
    ``features`` is then a Fortran-ordered view, and greedy's
    ``features.T @ q`` GEMVs read that buffer row by row.
    ``source_indices[j]`` is the index of atom j in ``source_directions``,
    which also records directions whose atoms were dropped as dead.
    """

    features: np.ndarray
    raw_norms: np.ndarray
    directions: tuple
    source_indices: tuple
    source_directions: tuple

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        raw_norms = np.asarray(self.raw_norms, dtype=np.float64).ravel()
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix (n_train, n_atoms)")
        if features.shape[1] != raw_norms.size or features.shape[1] != len(self.directions):
            raise ValueError("features columns, raw_norms and directions must align")
        if len(self.source_indices) != len(self.directions):
            raise ValueError("source_indices must align with atoms")
        if len(set(self.source_indices)) != len(self.source_indices):
            raise ValueError("source_indices must be unique")
        for lo in range(0, features.shape[1], _NORM_CHECK_COLUMNS):
            norms = np.linalg.norm(features[:, lo:lo + _NORM_CHECK_COLUMNS], axis=0)
            if np.any(np.abs(norms - 1.0) > 1e-10):
                raise ValueError("all atom feature columns must have unit norm")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "raw_norms", raw_norms)
        object.__setattr__(self, "directions", tuple(self.directions))
        object.__setattr__(self, "source_indices", tuple(int(i) for i in self.source_indices))
        object.__setattr__(self, "source_directions", tuple(self.source_directions))

    @property
    def n_atoms(self) -> int:
        return self.features.shape[1]

    @property
    def n_train(self) -> int:
        return self.features.shape[0]

    def atom(self, j: int) -> Atom:
        return Atom(self.directions[j], self.features[:, j], self.raw_norms[j])

    @property
    def atoms(self) -> list:
        return [self.atom(j) for j in range(self.n_atoms)]

    @property
    def n_discarded(self) -> int:
        return len(self.source_directions) - self.n_atoms


@dataclass(frozen=True)
class ShallowNetwork:
    """Single-hidden-layer ReLU network with unit-sphere inner weights.

    Evaluates x -> sum_n c_n * relu(a_n . x + b_n). The empty network is a
    valid value and evaluates to 0 everywhere.
    """

    nodes: tuple            # of (Direction, float outer weight)
    input_dim: int

    node_a: np.ndarray = field(init=False, repr=False, compare=False)
    node_b: np.ndarray = field(init=False, repr=False, compare=False)
    node_c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple((dr, float(w)) for dr, w in self.nodes)
        for dr, _ in nodes:
            if dr.dim != self.input_dim:
                raise ValueError("node direction dimension must equal input_dim")
        object.__setattr__(self, "nodes", nodes)
        if nodes:
            A, b = directions_to_arrays([dr for dr, _ in nodes])
            c = np.array([w for _, w in nodes], dtype=np.float64)
        else:
            A = np.zeros((0, self.input_dim))
            b = np.zeros(0)
            c = np.zeros(0)
        object.__setattr__(self, "node_a", A)
        object.__setattr__(self, "node_b", b)
        object.__setattr__(self, "node_c", c)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def rescale_node(a, b: float, c: float) -> tuple[Direction, float]:
    """Project an unconstrained node onto the sphere.

    Positive homogeneity of the ReLU gives c*relu(a.x+b) == w*relu(ab.x+bb)
    with (ab, bb) = (a, b)/||(a, b)|| and w = c*||(a, b)||.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    norm = math.hypot(*a, float(b))  # scale-safe for tiny and huge components
    if norm == 0.0:
        raise InvalidNodeError("inner weight vector (a, b) must be nonzero")
    return Direction(a / norm, float(b) / norm), float(c) * norm


def network_eval(net: ShallowNetwork, x) -> float:
    """Evaluate the network at a single point."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.size != net.input_dim:
        raise ValueError(f"input has dimension {x.size}, network expects {net.input_dim}")
    return float(batch_eval(net, x[None, :])[0])


def batch_eval(net: ShallowNetwork, inputs) -> np.ndarray:
    """Row-wise network evaluation; returns one value per input row.

    Accumulation order is fixed (sequential over input coordinates and
    nodes) so each output row is independent of the batch it sits in;
    batched and pointwise evaluation agree bit for bit.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be a 2-d matrix")
    if inputs.shape[1] != net.input_dim:
        raise ValueError(f"inputs have dimension {inputs.shape[1]}, network expects {net.input_dim}")
    if not net.nodes:
        return np.zeros(inputs.shape[0])
    z = preactivations(inputs, net.node_a, net.node_b)
    np.maximum(z, 0.0, out=z)
    out = np.zeros(inputs.shape[0])
    for n in range(net.n_nodes):
        out += net.node_c[n] * z[:, n]
    return out


def network_to_json(net: ShallowNetwork) -> str:
    """Serialize to the documented JSON schema with round-tripping decimals."""
    doc = {
        "input_dim": net.input_dim,
        "nodes": [{"a": dr.a.tolist(), "b": dr.b, "c": w} for dr, w in net.nodes],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def network_from_json(text: str) -> ShallowNetwork:
    doc = json.loads(text)
    nodes = [(Direction(np.asarray(n["a"]), n["b"]), n["c"]) for n in doc["nodes"]]
    return ShallowNetwork(tuple(nodes), int(doc["input_dim"]))


def save_network(net: ShallowNetwork, path) -> None:
    with open(path, "w") as fh:
        fh.write(network_to_json(net))
        fh.write("\n")


def load_network(path) -> ShallowNetwork:
    with open(path) as fh:
        return network_from_json(fh.read())
