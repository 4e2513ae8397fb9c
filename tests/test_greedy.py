import tracemalloc

import numpy as np
import pytest

from gsn import greedy
from gsn.core import Dataset, ShallowNetwork, batch_eval
from gsn.greedy import (
    DictionaryExhausted,
    GreedyPath,
    GreedyState,
    PathRecord,
    ResidualBelowTolerance,
    oga_run,
    oga_step,
    select_model,
)
from gsn.sampling import build_dictionary, sample_circle, sample_gaussian_sphere

from conftest import synthetic_dictionary, unit_rows, vector_dataset


def brute_force_best(features, selected, f):
    """Exact least-squares residual of f over span(selected + candidate)."""
    best_j, best_res = None, np.inf
    for j in range(features.shape[1]):
        if j in selected:
            continue
        cols = features[:, selected + [j]]
        res = f - cols @ np.linalg.lstsq(cols, f, rcond=None)[0]
        r = float(np.linalg.norm(res))
        if r < best_res - 0.0:
            best_res, best_j = r, j
    return best_j, best_res


def test_canonical_basis_selection():
    feats = np.eye(3)
    dic = synthetic_dictionary(feats)
    f = np.array([3.0, 2.0, 1.0])
    state = GreedyState(dic, f, 3)
    picks, res = [], []
    for _ in range(3):
        state, j = oga_step(state, dic)
        picks.append(j)
        res.append(state.residual_norm)
    assert picks == [0, 1, 2]
    assert res[0] == pytest.approx(np.sqrt(5.0))
    assert res[1] == pytest.approx(1.0)
    assert res[2] == pytest.approx(0.0, abs=1e-12)


def test_step_errors_when_target_in_span():
    dic = synthetic_dictionary(np.eye(2))
    f = np.array([1.0, 0.0])
    state = GreedyState(dic, f, 2)
    state, j = oga_step(state, dic)
    assert j == 0
    with pytest.raises(ResidualBelowTolerance):
        oga_step(state, dic)


def test_exhaustion_error(rng):
    # two copies of the same atom: second adds nothing to the span
    g = unit_rows(rng, 1, 4).ravel()
    dic = synthetic_dictionary(np.column_stack([g, g]))
    f = g + 0.5 * np.array([1.0, -1.0, 0.5, 0.25])
    state = GreedyState(dic, f, 2)
    state, _ = oga_step(state, dic)
    with pytest.raises(DictionaryExhausted):
        oga_step(state, dic)


def test_selection_matches_brute_force(rng):
    for _ in range(20):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(6, 41))
        feats = unit_rows(rng, m, n).T
        f = rng.standard_normal(n)
        dic = synthetic_dictionary(feats)
        state = GreedyState(dic, f, n)
        selected = []
        while True:
            oracle_j, oracle_res = brute_force_best(feats, selected, f)
            if oracle_j is None:
                break
            try:
                state, j = oga_step(state, dic)
            except greedy.GreedyStop:
                break
            # allow ties: the greedy pick must achieve the oracle residual
            cols = feats[:, selected + [j]]
            res = f - cols @ np.linalg.lstsq(cols, f, rcond=None)[0]
            assert np.linalg.norm(res) <= oracle_res + 1e-10
            assert state.residual_norm == pytest.approx(np.linalg.norm(res), abs=1e-9)
            selected.append(j)


def test_orthogonality_and_monotonicity(rng):
    feats = unit_rows(rng, 60, 24).T
    f = rng.standard_normal(24)
    dic = synthetic_dictionary(feats)
    state = GreedyState(dic, f, 24)
    prev = state.residual_norm
    while True:
        try:
            state, _ = oga_step(state, dic)
        except greedy.GreedyStop:
            break
        assert state.residual_norm <= prev * (1.0 + 1e-12)
        prev = state.residual_norm
        m = state.n_selected
        Q = state.ortho_basis[:, :m]
        assert np.abs(Q.T @ state.residual).max() <= 1e-10 * np.linalg.norm(f)
        assert np.abs(Q.T @ Q - np.eye(m)).max() <= 1e-10


def test_convex_hull_rate(rng):
    # target in the convex hull of the atoms: residual ~ N^(-1/2) or better
    n_pts, n_atoms = 64, 500
    feats = unit_rows(rng, n_atoms, n_pts).T
    lam = rng.uniform(size=n_atoms)
    lam /= lam.sum()
    f = feats @ lam
    dic = synthetic_dictionary(feats)
    state = GreedyState(dic, f, 64)
    norms = []
    for _ in range(64):
        try:
            state, _ = oga_step(state, dic)
        except greedy.GreedyStop:
            break
        norms.append(state.residual_norm)
    norms = np.array(norms)
    ns = np.arange(1, norms.size + 1)
    mask = (ns >= 4) & (norms > 1e-13)
    slope = np.polyfit(np.log(ns[mask]), np.log(norms[mask]), 1)[0]
    assert slope <= -0.4


def _ill_conditioned_1d(rng):
    # 40-point grid, 200 circle directions, run to 40 atoms: the selected
    # features reach condition number ~4e6; validation points lie off the grid
    x = np.linspace(-1, 1, 40)[:, None]
    ds = Dataset(x, rng.standard_normal(40), [[-1, 1]])
    xv = np.linspace(-0.98, 0.98, 25)[:, None]
    return ds, Dataset(xv, np.sin(3 * xv[:, 0]), [[-1, 1]]), sample_circle(200, seed=3), 40


def _random_2d(rng):
    X, Xv = rng.uniform(-1, 1, (60, 2)), rng.uniform(-1, 1, (30, 2))
    ds = Dataset(X, np.sin(X.sum(axis=1)), [[-1, 1]] * 2)
    val = Dataset(Xv, np.sin(Xv.sum(axis=1)), [[-1, 1]] * 2)
    return ds, val, sample_gaussian_sphere(2, 500, seed=1), 30


@pytest.mark.parametrize("case", [_ill_conditioned_1d, _random_2d])
def test_validation_error_matches_least_squares_fit(rng, case):
    ds, val, directions, max_iter = case(rng)
    dic = build_dictionary(ds, directions)
    path = oga_run(dic, ds, val, max_iter=max_iter)
    assert len(path) == max_iter
    for rec in path.records:
        sel = path.atom_indices[:rec.iteration]
        w = np.linalg.lstsq(dic.features[:, sel], ds.targets, rcond=None)[0]
        # w weighs the unit atoms, so each outer weight divides by the atom's raw norm
        net = ShallowNetwork(dic.directions[sel], w / dic.raw_norms[sel])
        rmse = np.linalg.norm(batch_eval(net, val.inputs) - val.targets) / np.sqrt(val.n_points)
        assert rec.validation_error == pytest.approx(rmse, rel=1e-9), rec.iteration


def test_oga_run_zero_iterations(rng):
    ds = vector_dataset(rng.standard_normal(8))
    dic = build_dictionary(ds, sample_circle(30, seed=1))
    path = oga_run(dic, ds, ds, max_iter=0)
    assert len(path) == 0
    assert path.termination == "max_iter"
    with pytest.raises(ValueError):
        select_model(path)


def test_oga_run_exact_representation_terminates(rng):
    # orthonormal dictionary containing an exact representation of f
    feats = np.eye(6)
    dic = synthetic_dictionary(feats)
    f = np.zeros(6)
    f[[1, 3, 4]] = [2.0, -1.0, 0.5]
    ds = vector_dataset(f)
    path = oga_run(dic, ds, ds, max_iter=10)
    assert path.termination == "residual_tol"
    assert len(path) == 3  # rank of the support
    assert path.residual_norms[-1] <= 1e-12 * np.linalg.norm(f)


def test_oga_run_residuals_strictly_decreasing(rng):
    ds = vector_dataset(rng.standard_normal(30))
    dic = build_dictionary(ds, sample_circle(300, seed=5))
    path = oga_run(dic, ds, ds, max_iter=25)
    r = path.residual_norms
    assert np.all(np.diff(r) < 0)


def test_select_model_rules():
    def path_with_vals(vals):
        recs = tuple(
            PathRecord(i + 1, i, 1.0 / (i + 1), v) for i, v in enumerate(vals))
        return GreedyPath(recs, "max_iter")

    assert select_model(path_with_vals([5.0, 4.0, 3.0, 2.0])) == 4
    assert select_model(path_with_vals([9, 8, 7, 6, 5, 4, 2.0, 3.0, 3.1])) == 7
    assert select_model(path_with_vals([3.0, 2.0, 1.0, 4.0, 1.0])) == 3
    # a fixed node count wins over validation, capped at the path length
    assert select_model(path_with_vals([3.0, 2.0, 1.0, 4.0, 1.0]), 2) == 2
    assert select_model(path_with_vals([3.0, 2.0, 1.0, 4.0, 1.0]), 9) == 5


def test_step_past_max_iter_raises(rng):
    feats = unit_rows(rng, 40, 20).T
    dic = synthetic_dictionary(feats)
    state = GreedyState(dic, rng.standard_normal(20), 10)
    for _ in range(10):
        state, _ = oga_step(state, dic)
    with pytest.raises(ValueError, match="sized for 10 steps"):
        oga_step(state, dic)
    assert state.n_selected == 10


def test_oga_run_memory_independent_of_max_iter_times_atoms(rng):
    # greedy's working set is the n_train x max_iter basis plus vectors over the
    # atoms; a per-step record over every atom would take max_iter x n_atoms floats
    n_train, n_atoms, max_iter = 128, 20_000, 100
    dic = synthetic_dictionary(unit_rows(rng, n_atoms, n_train).T)
    ds = vector_dataset(rng.standard_normal(n_train))
    tracemalloc.start()
    try:
        path = oga_run(dic, ds, ds, max_iter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path) == max_iter
    assert peak < max_iter * n_atoms * 8 / 4


def test_path_csv_export(tmp_path, rng):
    ds = vector_dataset(rng.standard_normal(12))
    dic = build_dictionary(ds, sample_circle(50, seed=2))
    path = oga_run(dic, ds, ds, max_iter=5)
    out = tmp_path / "path.csv"
    greedy.save_path_csv(path, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,atom_index,residual_norm,validation_error"
    assert len(lines) == len(path) + 1
