import math
import tracemalloc

import numpy as np
import pytest

from gsn import bench, sampling
from gsn.core import BLOCK_BUDGET, Dataset, preactivations, relu
from gsn.sampling import (
    build_dictionary,
    generate_dataset,
    golden_spiral,
    load_dataset_csv,
    read_dictionary_csv,
    load_directions_csv,
    sample_circle,
    sample_directions,
    sample_gaussian_sphere,
    save_dataset_csv,
    save_dictionary_csv,
    save_directions_csv,
    substream,
    substream_seed,
)


def norms(directions):
    return np.array([math.hypot(*row) for row in directions])


def test_sample_circle_m4_angles():
    dirs = sample_circle(4, seed=3)
    assert dirs.shape == (4, 2)
    phi = substream(3, "directions").uniform(-math.pi, math.pi, size=4)
    assert np.arctan2(dirs[:, 1], dirs[:, 0]) == pytest.approx(phi, abs=1e-15)


def test_sample_circle_unit_norm():
    assert np.allclose(norms(sample_circle(64, seed=3)), 1.0, atol=1e-12)


def test_sample_circle_uniform_mean():
    dirs = sample_circle(100_000, seed=7)
    mean_cos = np.mean(dirs[:, 0])
    assert abs(mean_cos) < 0.02


def test_golden_spiral_unit_norm_and_determinism():
    a = golden_spiral(5000)
    b = golden_spiral(5000)
    assert a.shape == (5000, 3)
    assert np.allclose(norms(a), 1.0, atol=1e-12)
    assert np.array_equal(a, b)


def test_golden_spiral_equidistribution():
    pts = golden_spiral(1000)
    # nearest-neighbor geodesic distances should be nearly uniform
    dots = np.clip(pts @ pts.T, -1.0, 1.0)
    np.fill_diagonal(dots, -1.0)
    nearest = np.arccos(dots.max(axis=1))
    assert nearest.std() / nearest.mean() <= 0.25


def test_gaussian_sphere_unit_norm_and_symmetry():
    dirs = sample_gaussian_sphere(4, 100_000, seed=5)
    assert np.allclose(norms(dirs[:1000]), 1.0, atol=1e-12)
    assert dirs.shape == (100_000, 5)
    mean_vec = dirs.mean(axis=0)
    assert np.linalg.norm(mean_vec) <= 0.02


def test_gaussian_sphere_seed_determinism():
    a = sample_gaussian_sphere(3, 50, seed=11)
    b = sample_gaussian_sphere(3, 50, seed=11)
    assert np.array_equal(a, b)


def test_sample_directions_follows_dimension():
    assert np.array_equal(sample_directions(1, 50, 4), sample_circle(50, 4))
    assert np.array_equal(sample_directions(2, 50, 4), golden_spiral(50))
    assert np.array_equal(sample_directions(3, 50, 4), sample_gaussian_sphere(3, 50, 4))
    with pytest.raises(ValueError):
        sample_directions(1, 0, 0)


def test_substreams_are_independent():
    a = substream(0, "train").uniform(size=4)
    b = substream(0, "validation").uniform(size=4)
    assert not np.allclose(a, b)
    assert substream_seed(0, "train") != substream_seed(0, "test")
    assert substream_seed(0, "train") == substream_seed(0, "train")


def test_generate_dataset_grid_1d():
    target = bench.get_target("ex1")
    ds = generate_dataset(target, 3, seed=0, layout="grid")
    assert np.allclose(ds.inputs.ravel(), [-1.0, 0.0, 1.0])


def test_generate_dataset_ex1_values():
    target = bench.get_target("ex1")
    assert target.evaluate(np.array([[0.0]]))[0] == pytest.approx(1.0)
    assert target.evaluate(np.array([[0.5]]))[0] == pytest.approx(
        math.cos(math.pi) * math.exp(0.5))  # ~ -1.64872


def test_generate_dataset_grid_requires_perfect_power():
    target = bench.get_target("ex3")
    with pytest.raises(ValueError):
        generate_dataset(target, 50, seed=0, layout="grid")
    ds = generate_dataset(target, 49, seed=0, layout="grid")
    assert ds.n_points == 49


def test_generate_dataset_determinism():
    target = bench.get_target("ex5")
    a = generate_dataset(target, 32, seed=9, layout="random-uniform")
    b = generate_dataset(target, 32, seed=9, layout="random-uniform")
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)


def test_build_dictionary_constant_atom():
    ds = Dataset(np.array([[-0.5], [0.0], [0.5]]), np.zeros(3), [[-1, 1]])
    dirs = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    dic = build_dictionary(ds, dirs)
    # (a, b) = (0, 1) gives relu(1) = 1 at every point -> constant column
    up = [j for j, dr in enumerate(dic.directions) if dr[-1] > 0.9]
    assert len(up) == 1
    col = dic.features[:, up[0]]
    assert np.allclose(col, 1.0 / math.sqrt(3.0))
    # (0, -1), row 1, is dead everywhere -> discarded; the rows kept keep their order
    assert np.array_equal(dic.directions, dirs[[0, 2, 3]])


def test_build_dictionary_hand_case():
    ds = Dataset(np.array([[-1.0], [0.0], [1.0]]), np.zeros(3), [[-1, 1]])
    dirs = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    dic = build_dictionary(ds, dirs)
    j = [k for k, dr in enumerate(dic.directions)
         if abs(dr[0] - 1.0) < 1e-12][0]
    assert dic.raw_norms[j] == pytest.approx(1.0)
    assert np.allclose(dic.features[:, j], [0.0, 0.0, 1.0])


def test_build_dictionary_all_dead_errors():
    ds = Dataset(np.array([[0.5]]), np.array([1.0]), [[0, 1]])
    down = [[0.0, -1.0]]
    with pytest.raises(ValueError):
        build_dictionary(ds, down)


def test_dataset_csv_round_trip(tmp_path):
    target = bench.get_target("ex3")
    ds = generate_dataset(target, 25, seed=4, layout="random-uniform")
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.targets, ds.targets)
    assert np.array_equal(back.domain_bounds, ds.domain_bounds)


def test_directions_csv_round_trip(tmp_path):
    dirs = sample_gaussian_sphere(2, 20, seed=2)
    path = tmp_path / "dirs.csv"
    save_directions_csv(dirs, path)
    back = load_directions_csv(path, 2)
    assert np.array_equal(bits(back), bits(dirs))
    save_directions_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("row", ["0.5,0.5", "0.6,0.0,0.8", "nan,nan", "inf,0.0"])
def test_load_directions_csv_rejects_bad_rows(tmp_path, row):
    path = tmp_path / "dirs.csv"
    path.write_text(f"a1,b\n0.6,0.8\n{row}\n")
    with pytest.raises(ValueError):
        load_directions_csv(path, 1)


def build_width(n_train):
    """Directions per block of the dictionary build."""
    return max(1, BLOCK_BUDGET // (2 * n_train))


def blocked_case():
    """2-d data and a direction list that is not a whole number of build
    blocks, with dead directions in the first, a middle and the last block."""
    ds = generate_dataset(bench.get_target("ex3"), 40, seed=6)
    width = build_width(ds.n_points)
    m = 2 * width + 37
    dirs = sample_gaussian_sphere(2, m, seed=8)
    dead = (5, width + 60, m - 1)
    for j in dead:
        dirs[j] = [0.0, 0.0, -1.0]
    return ds, dirs, dead


def lone_column_case(n_train, m):
    """Directions whose last build block holds a single direction."""
    ds = generate_dataset(bench.get_target("ex3"), n_train, seed=6)
    return ds, sample_gaussian_sphere(2, m, seed=8), ()


def bits(a):
    return np.asarray(a).view(np.uint64)


def test_build_dictionary_matches_unblocked_reference():
    cases = {
        "blocked": blocked_case(),
        "k=1-at-256": lone_column_case(256, build_width(256) + 1),
        "k=2-at-256": lone_column_case(256, 2 * build_width(256) + 1),
        "one-at-40": lone_column_case(40, 1),
        "one-at-1024": lone_column_case(1024, 1),
        "width-8-at-4000": lone_column_case(4000, 3 * build_width(4000) + 1),
    }
    for name, (ds, dirs, dead) in cases.items():
        dic = build_dictionary(ds, dirs)
        feats = relu(preactivations(ds.inputs, dirs[:, :-1], dirs[:, -1]))
        # every norm summed row by row, whatever the block layout
        squares = np.zeros(len(dirs))
        for row in feats:
            squares += row * row
        norms = np.sqrt(squares)
        kept = np.flatnonzero(norms > 1e-12)
        assert not set(dead) & set(kept.tolist()), name
        assert np.array_equal(bits(dic.features), bits(feats[:, kept] / norms[kept])), name
        assert np.array_equal(bits(dic.raw_norms), bits(norms[kept])), name
        assert np.array_equal(dic.directions, dirs[kept]), name
        assert dic.features.flags.f_contiguous, name


def test_dictionary_csv_round_trip_same_bits(tmp_path):
    # the rows that live_rows finds read back bit for bit, name the directions of
    # build_dictionary's atoms, and rebuild the same features through build_dictionary
    ds, dirs, _ = blocked_case()
    dic = build_dictionary(ds, dirs)
    live = sampling.live_rows(ds, dirs)
    path = tmp_path / "dict.csv"
    save_dictionary_csv(live, path)
    rows = read_dictionary_csv(path, ds.dim)
    assert np.array_equal(rows.source_indices, live.source_indices)
    assert np.array_equal(bits(rows.raw_norms), bits(live.raw_norms))
    assert np.array_equal(bits(rows.raw_norms), bits(dic.raw_norms))
    assert np.array_equal(bits(rows.directions), bits(dirs[rows.source_indices]))
    assert np.array_equal(bits(rows.directions), bits(dic.directions))
    back = build_dictionary(ds, rows.directions, 0.0)
    assert np.array_equal(bits(back.features), bits(dic.features))
    assert np.array_equal(bits(back.raw_norms), bits(dic.raw_norms))
    assert back.features.flags.f_contiguous
    save_dictionary_csv(rows, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_build_dictionary_peak_memory():
    n_train, m = 1000, 3000
    ds = generate_dataset(bench.get_target("ex5"), n_train, seed=2)
    dirs = sample_gaussian_sphere(4, m, seed=2)
    tracemalloc.start()
    try:
        build_dictionary(ds, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n_train * m * 8
