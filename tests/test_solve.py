import numpy as np
import pytest

from gsn.core import Dataset, ShallowNetwork, batch_eval
from gsn.solve import assemble_design, fit_outer_weights, refit_network

from conftest import unit_rows


def design(matrix):
    return np.asarray(matrix, dtype=np.float64)


def test_identity_design():
    c = fit_outer_weights(design(np.eye(3)), np.array([1.0, -2.0, 3.0]))
    assert np.allclose(c, [1.0, -2.0, 3.0])


def test_single_column_mean():
    c = fit_outer_weights(design([[1.0], [1.0], [1.0]]), np.array([1.0, 2.0, 3.0]))
    assert c == pytest.approx([2.0])


def test_duplicated_column_min_norm():
    v = np.array([3.0, 4.0]) / 5.0
    c = fit_outer_weights(design(np.column_stack([v, v])), v)
    assert np.allclose(c, [0.5, 0.5])
    # residual is optimal and the norm is minimal among optimal solutions
    A = np.column_stack([v, v])
    assert np.linalg.norm(A @ c - v) <= 1e-12
    other = np.array([1.0, 0.0])  # also optimal, larger norm
    assert np.linalg.norm(c) < np.linalg.norm(other)


def test_normal_equations_residual_bound(rng):
    A = rng.standard_normal((30, 8))
    A[:, 3] = A[:, 2]  # force deficiency
    b = rng.standard_normal(30)
    c = fit_outer_weights(design(A), b)
    bound = 1e-8 * np.linalg.norm(A, 2) * np.linalg.norm(b)
    assert np.abs(A.T @ (A @ c - b)).max() <= bound


def test_perturbation_never_improves(rng):
    A = rng.standard_normal((20, 6))
    b = rng.standard_normal(20)
    c = fit_outer_weights(design(A), b)
    base = np.linalg.norm(A @ c - b)
    for _ in range(25):
        direction = rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        delta = 1e-4 * np.linalg.norm(c) + 1e-8
        for sign in (+1.0, -1.0):
            perturbed = np.linalg.norm(A @ (c + sign * delta * direction) - b)
            assert perturbed >= base - 1e-12


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        fit_outer_weights(design(np.eye(3)), np.zeros(2))
    with pytest.raises(ValueError):
        fit_outer_weights(design(np.array([[np.nan]])), np.zeros(1))


def test_assemble_design_zero_nodes():
    ds = Dataset(np.array([[0.0], [0.5]]), np.zeros(2), [[-1, 1]])
    dm = assemble_design(ds, ())
    assert dm.shape == (2, 0)
    assert fit_outer_weights(dm, ds.targets).shape == (0,)


def test_assemble_design_constant_node():
    ds = Dataset(np.array([[-1.0], [0.0], [1.0]]), np.zeros(3), [[-1, 1]])
    dm = assemble_design(ds, [[0.0, 1.0]])
    assert np.allclose(dm, 1.0)


def test_assemble_design_matches_batch_eval(rng):
    ds = Dataset(rng.uniform(-1, 1, size=(12, 2)), np.zeros(12), [[-1, 1], [-1, 1]])
    dirs = unit_rows(rng, 5, 3)
    dm = assemble_design(ds, dirs)
    for j, dr in enumerate(dirs):
        net = ShallowNetwork(dr[None], [1.0])
        assert np.array_equal(dm[:, j], batch_eval(net, ds.inputs))


def test_refit_network_reproduces_targets_in_span(rng):
    ds = Dataset(rng.uniform(-1, 1, size=(15, 1)), rng.standard_normal(15), [[-1, 1]])
    dirs = unit_rows(rng, 15, 2)
    net, c = refit_network(ds, dirs)
    pred = batch_eval(net, ds.inputs)
    dm = assemble_design(ds, dirs)
    assert np.allclose(pred, dm @ c, atol=1e-10)


def test_refit_matches_greedy_final_residual(rng):
    # the least-squares refit over the selected directions can only match
    # or improve the greedy projection residual
    from gsn.greedy import oga_run
    from gsn.sampling import build_dictionary, sample_circle

    x = np.linspace(-1, 1, 30)[:, None]
    ds = Dataset(x, np.sin(3 * x.ravel()) + 0.2 * rng.standard_normal(30), [[-1, 1]])
    dic = build_dictionary(ds, sample_circle(150, seed=6))
    path = oga_run(dic, ds, ds, max_iter=10)
    nodes = [dic.directions[j] for j in path.atom_indices]
    net, _ = refit_network(ds, nodes)
    refit_res = np.linalg.norm(batch_eval(net, ds.inputs) - ds.targets)
    assert refit_res <= path.residual_norms[-1] + 1e-10
