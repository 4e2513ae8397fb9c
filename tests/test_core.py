import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gsn.core import (
    BLOCK_BUDGET,
    UNIT_NORM_TOL,
    Dataset,
    Dictionary,
    InvalidNodeError,
    ShallowNetwork,
    batch_eval,
    check_directions,
    network_from_json,
    network_to_json,
    relu,
    rescale_node,
)
from gsn.ridgelet import CollapsedField

from conftest import unit_rows

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_relu_values():
    assert relu(-1.0) == 0.0
    assert relu(0.0) == 0.0
    assert relu(2.5) == 2.5


@given(z=finite, lam=st.floats(min_value=1e-6, max_value=1e6))
def test_relu_positive_homogeneity(z, lam):
    assert relu(lam * z) == pytest.approx(lam * relu(z), rel=1e-12, abs=0.0)


def test_rescale_node_345():
    row, w = rescale_node(np.array([3.0]), 4.0, 1.0)
    assert np.allclose(row[:-1], [0.6])
    assert row[-1] == pytest.approx(0.8)
    assert w == pytest.approx(5.0)
    # the rescaled node computes the same function
    rng = np.random.default_rng(0)
    for x in rng.uniform(-5, 5, size=20):
        before = 1.0 * relu(3.0 * x + 4.0)
        after = w * relu(row[0] * x + row[1])
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


def test_rescale_node_already_unit():
    d1, w1 = rescale_node(np.array([1.0]), 0.0, 1.0)
    assert np.array_equal(d1, [1.0, 0.0]) and w1 == 1.0
    d2, w2 = rescale_node(np.array([0.0]), 1.0, 2.0)
    assert np.array_equal(d2, [0.0, 1.0]) and w2 == 2.0


def test_rescale_node_zero_vector_rejected():
    with pytest.raises(InvalidNodeError):
        rescale_node(np.zeros(2), 0.0, 1.0)


@given(
    a=st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=4),
    b=st.floats(min_value=-10, max_value=10),
    c=st.floats(min_value=-10, max_value=10),
    data=st.data(),
)
def test_rescale_exactness(a, b, c, data):
    a = np.asarray(a)
    if np.dot(a, a) + b * b == 0.0:
        return
    row, w = rescale_node(a, b, c)
    x = np.asarray(data.draw(st.lists(
        st.floats(min_value=-10, max_value=10), min_size=a.size, max_size=a.size)))
    before = c * relu(float(a @ x) + b)
    after = w * relu(float(row[:-1] @ x) + row[-1])
    assert abs(before - after) <= 1e-12 * (1.0 + abs(before))


def evaluate_at(net, x):
    return batch_eval(net, np.reshape(x, (1, -1)))[0]


def random_network(rng, n_nodes, dim):
    return ShallowNetwork(unit_rows(rng, n_nodes, dim + 1), rng.standard_normal(n_nodes))


def test_direction_requires_unit_norm():
    with pytest.raises(ValueError):
        check_directions([[1.0, 1.0]])
    check_directions([[0.6, 0.8]])  # fine


def test_check_directions_keeps_contiguous_input(rng):
    W = unit_rows(rng, 5, 3)
    assert check_directions(W, 2) is W
    assert np.shares_memory(W[:, :-1], W) and np.shares_memory(W[:, -1], W)
    assert check_directions((), 3).shape == (0, 4)


BAD_ROWS = {
    "flat": np.array([0.6, 0.8]),
    "narrow": np.ones((2, 1)),
    "nan": np.array([[0.6, 0.8], [np.nan, np.nan]]),
    "inf": np.array([[np.inf, 0.0]]),
    "non-unit": np.array([[0.6, 0.8], [0.5, 0.5]]),
    "barely-off": np.array([[1.0 + 10 * UNIT_NORM_TOL, 0.0]]),
}

CONTAINERS = {
    "Dictionary": lambda W: Dictionary(np.eye(len(W)), np.ones(len(W)), W),
    "CollapsedField": lambda W: CollapsedField(W, np.zeros(len(W))),
    "ShallowNetwork": lambda W: ShallowNetwork(W, np.ones(len(W))),
}


@pytest.mark.parametrize("fault", sorted(BAD_ROWS))
@pytest.mark.parametrize("container", sorted(CONTAINERS))
def test_containers_reject_bad_directions(container, fault):
    with pytest.raises(ValueError, match="direction"):
        CONTAINERS[container](BAD_ROWS[fault])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, 2.0])
def test_dictionary_rejects_non_unit_feature_columns(bad):
    # a NaN column passed the former check, abs(nan - 1) > tol being False
    features = np.eye(3)
    features[:, 1] = [bad, 0.0, 0.0]
    with pytest.raises(ValueError, match="finite with unit norm"):
        Dictionary(features, np.ones(3), [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])


@pytest.mark.parametrize("container", sorted(CONTAINERS))
def test_containers_accept_unit_rows(container, rng):
    W = unit_rows(rng, 3, 3)
    assert CONTAINERS[container](W).directions is W


def test_check_directions_rejects_wrong_width():
    with pytest.raises(ValueError, match="2 input coordinates, expected 1"):
        check_directions([[0.6, 0.0, 0.8]], 1)


def test_network_eval_empty_network():
    net = ShallowNetwork(np.empty((0, 4)), ())
    assert net.input_dim == 3 and net.n_nodes == 0
    assert evaluate_at(net, np.zeros(3)) == 0.0


def test_network_eval_single_nodes():
    net = ShallowNetwork([[1.0, 0.0]], [2.0])
    assert evaluate_at(net, np.array([3.0])) == pytest.approx(6.0)
    net2 = ShallowNetwork([[0.6, 0.8]], [5.0])
    assert evaluate_at(net2, np.array([-2.0])) == 0.0


def test_network_eval_dimension_mismatch():
    net = ShallowNetwork([[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        evaluate_at(net, np.zeros(2))


def test_network_rejects_misaligned_weights():
    with pytest.raises(ValueError, match="outer weight"):
        ShallowNetwork([[1.0, 0.0]], [1.0, 2.0])


def test_batch_eval_empty_and_single(rng):
    net = ShallowNetwork([[0.6, 0.8]], [2.0])
    assert batch_eval(net, np.zeros((0, 1))).shape == (0,)
    X = rng.uniform(-1, 1, size=(4, 1))
    assert batch_eval(net, X[:1])[0] == batch_eval(net, X)[0]


def test_batch_eval_matches_loop(rng):
    net = random_network(rng, 5, 3)
    X = rng.uniform(-2, 2, size=(10, 3))
    out = batch_eval(net, X)
    expected = np.array([evaluate_at(net, x) for x in X])
    assert np.array_equal(out, expected)


def pointwise_sum(net, x):
    """sum_n c_n relu(a_n . x + b_n) in Python floats, in batch_eval's order."""
    total = 0.0
    for row, c in zip(net.directions.tolist(), net.weights.tolist()):
        z = row[-1]
        for a, xk in zip(row[:-1], x.tolist()):
            z += xk * a
        total += c * max(z, 0.0)
    return total


def dead_at_origin_network(rng, n_nodes, dim):
    """Negative outer weights and negative biases: at x = 0 every node is dead, so
    the output there is a sum of -0.0 terms, which node order from 0.0 makes +0.0."""
    rows = unit_rows(rng, n_nodes, dim + 1)
    rows[:, -1] = -np.abs(rows[:, -1])
    return ShallowNetwork(rows, -np.abs(rng.standard_normal(n_nodes)))


def test_batch_eval_point_blocks_match_pointwise(rng):
    for net in (random_network(rng, 64, 3), dead_at_origin_network(rng, 64, 3)):
        width = BLOCK_BUDGET // net.n_nodes  # points per block
        X = rng.uniform(-2, 2, size=(width + 1, 3))
        X[3::7] = 0.0   # points in every block where the dead network is dead
        for n in (1, width - 1, width, width + 1):
            out = batch_eval(net, X[:n])
            expected = np.array([pointwise_sum(net, x) for x in X[:n]])
            assert np.array_equal(out.view(np.uint64), expected.view(np.uint64)), n
            assert np.array_equal(out[-1:], batch_eval(net, X[n - 1:n])), n


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.zeros(3), [[-1, 1]])
    with pytest.raises(ValueError):
        Dataset(np.array([[2.0]]), np.zeros(1), [[-1, 1]])  # outside bounds
    ds = Dataset(np.array([[0.5]]), np.array([1.0]), [[-1, 1]])
    assert ds.n_points == 1 and ds.dim == 1 and ds.volume == 2.0


def bits(a):
    return np.asarray(a).view(np.uint64)


def test_network_json_round_trip(rng):
    net = random_network(rng, 4, 2)
    text = network_to_json(net)
    doc = json.loads(text)
    assert doc["input_dim"] == 2 and len(doc["nodes"]) == 4
    back = network_from_json(text)
    assert np.array_equal(bits(back.directions), bits(net.directions))
    assert np.array_equal(bits(back.weights), bits(net.weights))
    assert network_to_json(back) == text
    X = rng.uniform(-1, 1, size=(7, 2))
    assert np.array_equal(batch_eval(back, X), batch_eval(net, X))


def test_empty_network_json_round_trip():
    net = network_from_json(network_to_json(ShallowNetwork(np.empty((0, 3)), ())))
    assert net.input_dim == 2 and net.n_nodes == 0


@pytest.mark.parametrize("node", [{"a": [0.5], "b": 0.5, "c": 1.0},
                                  {"a": [0.6, 0.0], "b": 0.8, "c": 1.0},
                                  {"a": [float("nan")], "b": float("nan"), "c": 1.0}])
def test_network_json_rejects_bad_rows(node):
    with pytest.raises(ValueError):
        network_from_json(json.dumps({"input_dim": 1, "nodes": [node]}))
