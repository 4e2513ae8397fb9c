import ctypes
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc

from gsn import ridgelet
from gsn.core import BLOCK_BUDGET, Dataset
from gsn.ridgelet import (
    CollapsedField,
    RadialQuadrature,
    _far_cutoff,
    _gamma_cutoff,
    _gamma_p_over_power,
    _radial_profile,
    collapsed_field,
    load_field_csv,
    prune_dictionary,
    save_field_csv,
)
from gsn.sampling import build_dictionary, sample_circle, sample_gaussian_sphere

from conftest import tau, vector_dataset


@given(z=st.floats(min_value=-15, max_value=15), d=st.integers(min_value=1, max_value=5))
def test_tau_is_even(z, d):
    assert tau(z, d) == tau(-z, d)


def test_tau_at_zero():
    assert tau(0.0, 1) == pytest.approx(-3.0 / (2.0 * math.sqrt(2.0 * math.pi)))
    assert tau(0.0, 1) == pytest.approx(-0.598413, abs=1e-6)


def test_tau_roots():
    # sign changes of the quartic factor at z^2 = 3 +/- sqrt(6)
    for root in (math.sqrt(3.0 - math.sqrt(6.0)), math.sqrt(3.0 + math.sqrt(6.0))):
        assert abs(tau(root, 1)) < 1e-14
        assert tau(root - 1e-3, 1) * tau(root + 1e-3, 1) < 0
    assert math.sqrt(3.0 - math.sqrt(6.0)) == pytest.approx(0.742, abs=5e-4)
    assert math.sqrt(3.0 + math.sqrt(6.0)) == pytest.approx(2.334, abs=5e-4)


def test_tau_vanishing_moments():
    for k in range(4):
        moment, _ = quad(lambda z, k=k: z**k * tau(z, 1), -30.0, 30.0, limit=200)
        assert abs(moment) <= 1e-8


def test_tau_decay():
    z = np.linspace(10.0, 60.0, 500)
    for d in (1, 2, 5):
        assert np.abs(tau(z, d)).max() <= 1e-12


def test_collapsed_zero_function():
    ds = vector_dataset(np.zeros(9))
    assert np.all(collapsed_field(ds, sample_circle(5, seed=0)).values == 0.0)


def test_collapsed_linearity(rng):
    vals = rng.standard_normal(13)
    other = rng.standard_normal(13)
    quad_rule = RadialQuadrature(20.0)
    dirs = sample_circle(6, seed=1)
    a = collapsed_field(vector_dataset(vals), dirs, quad_rule).values
    b = collapsed_field(vector_dataset(other), dirs, quad_rule).values
    ab = collapsed_field(vector_dataset(vals + other), dirs, quad_rule).values
    assert np.allclose(ab, a + b, rtol=1e-10, atol=1e-12)


def _trapezoid_field(dataset, directions, r_max, n_nodes):
    """Collapsed transform by the trapezoid rule on n_nodes equispaced radii in (0, r_max].

    The integrand carries an r^(d+1) factor, so the r = 0 endpoint adds nothing.
    """
    h = r_max / n_nodes
    r = h * np.arange(1, n_nodes + 1)
    w = np.full(n_nodes, h)
    w[-1] = h / 2.0
    w *= r ** (dataset.dim + 1)
    S = directions[:, :-1] @ dataset.inputs.T + directions[:, -1:]
    f = dataset.targets * (dataset.volume / dataset.n_points)
    return np.array([(tau(np.outer(r, s), dataset.dim) @ f) @ w for s in S])


def _cube_dataset(rng, dim, n):
    inputs = rng.uniform(-1.0, 1.0, (n, dim))
    return Dataset(inputs, np.sin(inputs.sum(axis=1)) + 0.5, [[-1.0, 1.0]] * dim)


def test_collapsed_matches_dense_trapezoid():
    for dim in range(1, 6):
        rng = np.random.default_rng(dim)
        ds = _cube_dataset(rng, dim, 30)
        dirs = sample_gaussian_sphere(dim, 24, seed=dim)
        # the rule's own O(h^2) error is 1.7e-8 of the peak at d = 5 here
        # (6.6e-8 with 8000 nodes); the former 400-node rule was off by ~7e-6
        want = _trapezoid_field(ds, dirs, 40.0, 16000)
        got = collapsed_field(ds, dirs, RadialQuadrature(40.0)).values
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max(), dim


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_collapsed_on_hyperplane_is_exact(dim):
    # a = e1, b = 0 and every x1 = 0: s = 0 exactly at every point, where the
    # ray integral is -R^(d+2) * 3 / ((d+2) c)
    rng = np.random.default_rng(dim)
    inputs = rng.uniform(-1.0, 1.0, (7, dim))
    inputs[:, 0] = 0.0
    ds = Dataset(inputs, rng.uniform(0.5, 1.5, 7), [[-1.0, 1.0]] * dim)
    e1 = np.eye(dim + 1)[0]
    r_max = 40.0
    c = 2.0 * (2.0 * math.pi) ** (dim - 0.5)
    want = -r_max ** (dim + 2) * 3.0 / ((dim + 2) * c) * ds.targets.sum() * ds.volume / 7
    got = collapsed_field(ds, [e1], RadialQuadrature(r_max)).values[0]
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_radial_profile_continuous_through_zero(dim):
    # small-X series g_d = 3/(d+2) - 7.5 X^2/(d+4) + O(X^4), across the point
    # where x = X^2/2 stops being raised to keep x^-a finite; the bound is a
    # few hundred ulps, the incomplete gamma's own accuracy at tiny x
    X = np.array([0.0, 1e-12, 1.414e-9, 1.415e-9, 1e-8, 1e-6, 1e-4])
    series = 3.0 / (dim + 2) - 7.5 * X**2 / (dim + 4)
    assert np.abs(_radial_profile(X, dim) - series).max() <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_radial_profile_matches_adaptive_quadrature(dim):
    for X in (0.05, 0.7, 2.0, 3.9, 4.1, 9.0, 60.0):
        moment, _ = quad(lambda u: u ** (dim + 1) * (u**4 - 6 * u**2 + 3) * math.exp(-u * u / 2),
                         0.0, X, limit=200)
        assert _radial_profile(np.array([X]), dim)[0] == pytest.approx(
            moment / X ** (dim + 2), rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("dim", range(2, 9))
def test_gamma_p_over_power_matches_scipy(dim):
    # a log grid plus both sides of the two range boundaries, x = a + 1 and the cutoff
    a = 0.5 * (dim + 2)
    edges = np.array([a + 1.0, _gamma_cutoff(a)])
    x = np.concatenate([np.logspace(-18, 3, 20_001),
                        np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    want = gammainc(a, x) / x**a
    assert np.abs(_gamma_p_over_power(a, x) / want - 1.0).max() <= 1e-13


@pytest.mark.parametrize("dim", range(2, 9))
def test_gamma_p_over_power_cutoff(dim):
    # P rounds to 1 from the cutoff on, where the value is exactly 1 / x^a
    a = 0.5 * (dim + 2)
    cut = _gamma_cutoff(a)
    assert gammaincc(a, cut) < 2.0**-53
    x = cut + np.array([0.0, 1e-9, 0.5, 3.0, 100.0, 1e4])
    assert np.array_equal(_gamma_p_over_power(a, x), 1.0 / x**a)


def full_range_profile(X, dimension):
    """g_d(X) with E = 2 (2 - a - x) e^-x summed at every x, the far range included."""
    a = 0.5 * (dimension + 2)
    x = np.maximum(0.5 * X * X, 1e-18)
    g = 2.0 * (2.0 - a - x) * np.exp(-x)
    c = math.gamma(a) * (2.0 * a * a - 4.0 * a + 1.5)
    if c:
        g += c * _gamma_p_over_power(a, x)
    return g


@pytest.mark.parametrize("dim", range(1, 9))
def test_radial_profile_far_range_keeps_the_bits(dim):
    # from x_far on, g_d is c x^-a alone (d >= 2); that must give the bits of the
    # full sum. X = sqrt(2 x) for x at integers up to 120, at quarter steps across
    # x_c and x_far (41 to 60) and at both cutoffs, each with float neighbours;
    # then 0, tiny X (x raised to 1e-18) and a random spread
    a = 0.5 * (dim + 2)
    c = math.gamma(a) * (2.0 * a * a - 4.0 * a + 1.5)
    edges = []
    if dim > 1:
        far, cut = _far_cutoff(a, c), _gamma_cutoff(a)
        assert 2.0 * (far + a - 2.0) * math.exp(-far) < 2.0**-56 * c * far**-a
        assert far == cut or 2.0 * (far + a - 3.0) * math.exp(1.0 - far) >= 2.0**-56 * c * (far - 1.0)**-a
        edges = [cut, far]
    X = np.sqrt(2.0 * np.concatenate([np.arange(121.0), np.arange(41.0, 60.0, 0.25), edges]))
    for _ in range(4):
        X = np.concatenate([X, np.nextafter(X, 0.0), np.nextafter(X, np.inf)])
    X = np.concatenate([X, [0.0, 1e-30, 1e-12, math.sqrt(2e-18)],
                        np.random.default_rng(dim).uniform(0.0, 20.0, 50_000)])
    x = 0.5 * X * X
    for edge in edges:  # within 1e-14 relative of each cutoff, on both sides
        assert 0.0 < edge - x[x < edge].max() <= 1e-14 * edge
        assert 0.0 <= x[x >= edge].min() - edge <= 1e-14 * edge
    got, want = _radial_profile(X, dim), full_range_profile(X, dim)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_d1_field_vanishes_away_from_hyperplane():
    # int_0^inf r^2 tau(r s) dr = 0 for d = 1: points with R|s| large add
    # nothing, while for d = 2 the same points still contribute
    X = np.array([0.0, 1.0, 3.0, 10.0])
    assert np.allclose(_radial_profile(X, 1), (1.0 - X**2) * np.exp(-X**2 / 2), rtol=1e-15)
    moment, _ = quad(lambda r: r * r * tau(0.7 * r, 1), 0.0, np.inf)
    assert abs(moment) <= 1e-12
    far = [1.0, 0.0]
    ds = Dataset(np.array([[-0.9], [-0.5], [0.5], [0.8]]), np.ones(4), [[-1.0, 1.0]])
    near = Dataset(np.array([[0.0]]), np.ones(1), [[-1.0, 1.0]])
    assert abs(collapsed_field(ds, [far]).values[0]) <= 1e-60 * abs(collapsed_field(near, [far]).values[0])
    # d = 2: g_2(X) ~ 6 / X^4, an algebraic tail
    far2 = [1.0, 0.0, 0.0]
    ds2 = Dataset(np.array([[0.5, 0.1], [0.8, -0.3]]), np.ones(2), [[-1.0, 1.0]] * 2)
    near2 = Dataset(np.array([[0.0, 0.2]]), np.ones(1), [[-1.0, 1.0]] * 2)
    assert abs(collapsed_field(ds2, [far2]).values[0]) >= 1e-5 * abs(collapsed_field(near2, [far2]).values[0])


def test_collapsed_relabeling_invariance(rng):
    vals = rng.standard_normal(21)
    ds = vector_dataset(vals)
    perm = rng.permutation(21)
    ds_perm = Dataset(ds.inputs[perm], ds.targets[perm], ds.domain_bounds)
    dirs = sample_circle(4, seed=4)
    a = collapsed_field(ds, dirs).values
    b = collapsed_field(ds_perm, dirs).values
    assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_collapsed_threads_match_serial(monkeypatch, rng):
    # four chunks, so the threads share them; also where the C library has no
    # malloc_trim, so the threaded field leaves its workers' freed heap as it is
    ds = vector_dataset(rng.standard_normal(1000))
    dirs = sample_circle(4 * (BLOCK_BUDGET // ds.n_points), seed=6)
    serial = bits(collapsed_field(ds, dirs, threads=1).values)
    assert np.array_equal(serial, bits(collapsed_field(ds, dirs, threads=4).values))
    monkeypatch.setattr(ridgelet, "ctypes", SimpleNamespace(CDLL=lambda name: SimpleNamespace()))
    assert np.array_equal(serial, bits(collapsed_field(ds, dirs, threads=4).values))


def _has_malloc_trim():
    try:
        return hasattr(ctypes.CDLL(None), "malloc_trim")
    except (OSError, TypeError):
        return False


HEAP_SCRIPT = """
import os
from gsn import bench, ridgelet, sampling

cfg = bench.default_config("ex3", 0, dict_size=5_000)
train_set = bench.make_datasets(cfg)[0]
rows = sampling.live_rows(train_set, bench.make_directions(cfg), cfg.drop_tol)


def rss_mib():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


before = rss_mib()
ridgelet.collapsed_field(train_set, rows.directions, cfg.quadrature, threads=2)
print(rss_mib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
@pytest.mark.skipif(not _has_malloc_trim(), reason="needs the C library's malloc_trim")
def test_threaded_field_returns_worker_heap():
    # a fresh process, so no earlier test has grown the allocator's arenas:
    # the ex3 field on two threads leaves at most 3 MiB more resident than
    # before it (each worker's arena kept ~3 MiB of freed chunk temporaries
    # resident before the field handed them back)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ridgelet.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", HEAP_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 3.0


def _field_for(dictionary, values):
    return CollapsedField(dictionary.directions, np.asarray(values, dtype=np.float64))


def test_prune_zero_threshold_keeps_nonzero(rng):
    ds = vector_dataset(rng.standard_normal(10))
    dic = build_dictionary(ds, sample_circle(40, seed=3))
    values = rng.standard_normal(dic.n_atoms)
    values[::7] = 0.0
    pruned = prune_dictionary(dic, _field_for(dic, values), 0.0)
    assert pruned.n_atoms == int(np.count_nonzero(values))


def test_prune_single_atom_kept(rng):
    ds = vector_dataset(rng.standard_normal(10))
    dic = build_dictionary(ds, sample_circle(40, seed=3))
    one = prune_dictionary(dic, _field_for(dic, np.arange(dic.n_atoms) == 5), 0.9)
    assert one.n_atoms == 1
    assert np.array_equal(one.directions, dic.directions[5:6])


def test_prune_submultiset_and_max_kept(rng):
    ds = vector_dataset(rng.standard_normal(16))
    dic = build_dictionary(ds, sample_circle(60, seed=8))
    values = rng.standard_normal(dic.n_atoms)
    pruned = prune_dictionary(dic, _field_for(dic, values), 0.25)
    # each kept atom is an atom of the original dictionary, found by its direction
    rows = [dic.directions.tolist().index(w) for w in pruned.directions.tolist()]
    assert rows == sorted(set(rows))
    assert int(np.argmax(np.abs(values))) in rows
    # kept features are identical columns of the original dictionary
    assert np.array_equal(pruned.features, dic.features[:, rows])


def test_prune_degenerate_all_zero_warns(rng):
    ds = vector_dataset(rng.standard_normal(10))
    dic = build_dictionary(ds, sample_circle(20, seed=9))
    with pytest.warns(RuntimeWarning):
        out = prune_dictionary(dic, _field_for(dic, np.zeros(dic.n_atoms)), 1e-3)
    assert out.n_atoms == dic.n_atoms


def test_prune_threshold_validation(rng):
    ds = vector_dataset(rng.standard_normal(10))
    dic = build_dictionary(ds, sample_circle(20, seed=9))
    with pytest.raises(ValueError):
        prune_dictionary(dic, _field_for(dic, np.ones(dic.n_atoms)), 1.0)


def bits(a):
    return np.asarray(a).view(np.uint64)


def test_field_csv_round_trip(tmp_path, rng):
    fld = CollapsedField(sample_gaussian_sphere(2, 12, seed=7), rng.standard_normal(12))
    path = tmp_path / "field.csv"
    save_field_csv(fld, path)
    back = load_field_csv(path)
    assert np.array_equal(bits(back.values), bits(fld.values))
    assert np.array_equal(bits(back.directions), bits(fld.directions))
    save_field_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
