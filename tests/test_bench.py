import contextlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from gsn import bench, greedy, sampling, solve
from gsn.bench import (
    ExperimentConfig,
    compute_errors,
    default_config,
    get_target,
    node_sweep,
    run_experiment,
    run_gsn_pipeline,
    run_size,
    strip_meta,
    target_registry,
    write_run_artifacts,
    write_sweep_artifacts,
)
from gsn.core import BLOCK_BUDGET, Dataset, ShallowNetwork
from gsn.ridgelet import collapsed_field, prune_dictionary
from gsn.sampling import build_dictionary, sample_gaussian_sphere
from gsn.train import TrainConfig


def tiny_config(**overrides):
    base = dict(
        n_train=16, n_val=6, n_test=64, dict_size=200, prune=True,
        max_iter=8,
        gsn_train=TrainConfig(epochs=3, batch_size=16, seed=1),
        random_train=TrainConfig(epochs=3, batch_size=4, seed=1),
        n_restarts=2, seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(target_id=base.pop("target_id", "ex1"), **base)


def test_registry_contents():
    targets = target_registry()
    assert [t.id for t in targets] == ["ex1", "ex2", "ex3", "ex4", "ex5", "ex6"]
    dims = {t.id: t.dimension for t in targets}
    assert dims == {"ex1": 1, "ex2": 1, "ex3": 2, "ex4": 2, "ex5": 4, "ex6": 5}
    for t in targets[:4]:
        assert all(tuple(b) == (-1.0, 1.0) for b in t.domain_bounds)
    assert all(tuple(b) == (0.0, 1.0) for b in targets[5].domain_bounds)


def test_registry_values():
    assert get_target("ex5").evaluate(np.zeros((1, 4)))[0] == 0.0
    assert get_target("ex6").evaluate(np.zeros((1, 5)))[0] == 1.0
    got = get_target("ex3").evaluate(np.array([[0.5, 0.0]]))[0]
    assert got == pytest.approx(math.exp(-0.25), abs=1e-12)
    assert got == pytest.approx(0.77880, abs=1e-5)
    with pytest.raises(KeyError):
        get_target("ex7")


def test_compute_errors_perfect():
    net = ShallowNetwork(np.empty((0, 2)), ())
    ds = Dataset(np.linspace(-1, 1, 5)[:, None], np.zeros(5), [[-1, 1]])
    err = compute_errors(net, ds)
    assert err.abs_l2 == 0.0 and err.rmse == 0.0 and err.rel_l2 == 0.0
    assert not err.rel_l2_defined  # zero-norm targets flagged


def test_compute_errors_offset_case():
    # empty network predicts 0; choose targets = -1 so the residual is the
    # constant 1 over n = 4 points with ||targets|| = 2
    net = ShallowNetwork(np.empty((0, 2)), ())
    ds = Dataset(np.linspace(-1, 1, 4)[:, None], -np.ones(4), [[-1, 1]])
    err = compute_errors(net, ds)
    assert err.abs_l2 == pytest.approx(2.0)
    assert err.rmse == pytest.approx(1.0)
    assert err.rel_l2 == pytest.approx(1.0)
    assert err.rel_l2_defined


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1e3))
def test_compute_errors_scaling(lam):
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(12, 1))
    y = rng.standard_normal(12)
    d = [[0.6, 0.8]]
    net1 = ShallowNetwork(d, [2.0])
    net2 = ShallowNetwork(d, [2.0 * lam])
    e1 = compute_errors(net1, Dataset(X, y, [[-1, 1]]))
    e2 = compute_errors(net2, Dataset(X, lam * y, [[-1, 1]]))
    assert e2.abs_l2 == pytest.approx(lam * e1.abs_l2, rel=1e-9)
    assert e2.rel_l2 == pytest.approx(e1.rel_l2, rel=1e-9)


def test_default_config_tables():
    cfg = default_config("ex1")
    assert (cfg.n_train, cfg.n_val, cfg.n_test) == (50, 15, 1000)
    assert cfg.dict_size == 10_000 and cfg.prune
    assert cfg.gsn_train.batch_size == 50 and cfg.random_train.batch_size == 1
    cfg4 = default_config("ex4")
    assert cfg4.dict_size == 20_000 and cfg4.random_train.batch_size == 11
    cfg5 = default_config("ex5")
    assert not cfg5.prune and cfg5.notes  # flags the batch-size guess
    cfg6 = default_config("ex6")
    assert cfg6.n_restarts == 5
    with pytest.raises(KeyError):
        default_config("nope")


def test_default_worker_count_is_the_usable_cpus():
    # the affinity set, which taskset and cgroup cpusets limit and os.cpu_count() ignores
    usable = len(os.sched_getaffinity(0))
    assert ExperimentConfig("ex1", 1, 1, 1, 1).threads == usable
    assert default_config("ex3").threads == usable


def test_config_hash_changes_with_fields():
    a, b = tiny_config(), tiny_config(seed=1)
    assert bench.config_hash(a.to_dict()) != bench.config_hash(b.to_dict())
    assert bench.config_hash(a.to_dict()) == bench.config_hash(tiny_config().to_dict())


def test_pipeline_degenerate_smoke():
    cfg = tiny_config(n_train=2, n_val=2, n_test=8, dict_size=50, max_iter=1,
                      prune=False, n_nodes=1,
                      gsn_train=TrainConfig(epochs=2, batch_size=2, seed=0),
                      random_train=TrainConfig(epochs=2, batch_size=1, seed=0),
                      n_restarts=1)
    report = run_experiment(cfg)
    assert report.run.n_nodes == 1
    assert report.run.trained_net.n_nodes >= 1
    assert np.isfinite(report.run.gsn_trained.rel_l2)
    assert len(report.run.random_restarts) == 1


def test_pipeline_records_both_error_sets():
    report = run_experiment(tiny_config())
    m = report.manifest()
    errs = m["results"]["errors"]
    for key in ("gsn_init", "gsn_trained", "random_trained"):
        assert np.isfinite(errs[key]["rel_l2"])
        assert errs[key]["abs_l2"] >= 0.0
    assert len(m["results"]["random_restarts"]) == report.config.n_restarts
    assert m["results"]["selected_nodes"] == report.run.n_nodes


def test_baseline_node_count_matches_selection():
    cfg = tiny_config()
    g = run_gsn_pipeline(cfg)
    n = greedy.select_model(g.path)
    r = run_size(cfg, g, n)
    assert r.n_nodes == r.init_net.n_nodes == r.random_net.n_nodes == n
    assert len(r.random_restarts) == cfg.n_restarts


def test_baseline_selects_its_restart_on_validation():
    # the restart of lowest validation RMSE: test targets of NaN leave the choice, and
    # so the network and its loss curve, as they are; test errors are computed after it
    cfg = tiny_config(n_restarts=4)
    base = run_gsn_pipeline(cfg)
    n = greedy.select_model(base.path)
    blind = replace(base.test_set)
    object.__setattr__(blind, "targets", np.full(blind.n_points, np.nan))
    seen, unseen = run_size(cfg, base, n), run_size(cfg, replace(base, test_set=blind), n)
    val = [row["val_rmse"] for row in seen.random_restarts]
    assert [row["val_rmse"] for row in unseen.random_restarts] == val
    assert compute_errors(seen.random_net, base.val_set).rmse == min(val)
    for got, want in ((unseen.random_net.directions, seen.random_net.directions),
                      (unseen.random_net.weights, seen.random_net.weights),
                      (unseen.random_loss_curve, seen.random_loss_curve)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert seen.random_restarts[int(np.argmin(val))]["test_rmse"] == seen.random_trained.rmse
    assert np.isnan(unseen.random_trained.rmse)


def test_baseline_untrained_error_is_large():
    cfg = tiny_config(random_train=TrainConfig(epochs=0, batch_size=4, seed=1),
                      n_restarts=1)
    assert run_experiment(cfg).run.random_trained.rel_l2 >= 0.5


def test_node_sweep_lengths_and_singleton():
    cfg = tiny_config(max_iter=8)
    sweep = node_sweep(replace(cfg, node_counts=[2, 4, 6]))
    assert [run.n_nodes for run in sweep.runs] == [2, 4, 6]
    # a one-point sweep is a single run at that fixed node count, to the bit
    (single,) = node_sweep(replace(cfg, node_counts=[4])).runs
    fixed = run_experiment(replace(cfg, n_nodes=4)).run
    for branch in ("gsn_init", "gsn_trained", "random_trained"):
        assert getattr(single, branch) == getattr(fixed, branch), branch
    # a sweep point beyond the path length is reported unavailable
    over = node_sweep(replace(cfg, node_counts=[4, 500]))
    assert over.runs[1] is None
    assert [row["available"] for row in over.manifest()["results"]["sweep"]] == [True, False]


def test_sweep_manifest_sums_baseline_time(monkeypatch):
    # a clock that advances one second per reading: each stage call takes 1 s,
    # so a stage that runs at each of the two available sizes records 2 s
    clock = itertools.count()
    monkeypatch.setattr(bench.time, "perf_counter", lambda: float(next(clock)))
    doc = node_sweep(tiny_config(max_iter=8, node_counts=[2, 4, 500])).manifest()
    assert doc["meta"]["timings_sec"] == {
        "sample": 1.0, "directions": 1.0, "scan": 1.0, "ridgelet": 1.0, "prune": 1.0,
        "dict": 1.0, "greedy": 1.0, "fit": 2.0, "train": 2.0, "baseline": 2.0}


def test_node_sweep_records_the_max_iter_it_ran_with(tmp_path):
    # the sweep raises max_iter to its largest node count; two configs that
    # differ only below that run the same sweep, under one name
    for max_iter in (2, 6):
        cfg = tiny_config(target_id="ex6", n_train=40, dict_size=300, max_iter=max_iter,
                          prune=False, n_restarts=1, node_counts=[3, 6])
        run_dir = write_sweep_artifacts(node_sweep(cfg), tmp_path)
        with open(f"{run_dir}/manifest.json") as fh:
            assert json.load(fh)["config"]["max_iter"] == 6
    assert len(list(tmp_path.iterdir())) == 1


class StopAtGreedy(Exception):
    """Ends a pipeline run where greedy would start."""


def dictionary_at_greedy(monkeypatch, cfg, on_entry=lambda dictionary: None):
    """The dictionary that run_gsn_pipeline hands to greedy."""
    got = []

    def stop(dictionary, *args):
        on_entry(dictionary)
        got.append(dictionary)
        raise StopAtGreedy

    with monkeypatch.context() as m:
        m.setattr(greedy, "oga_run", stop)
        with pytest.raises(StopAtGreedy):
            run_gsn_pipeline(cfg)
    return got[0]


def bits(a):
    return np.asarray(a).view(np.uint64)


@pytest.mark.parametrize("zero_field", [False, True])
def test_pruned_pipeline_dictionary_matches_prune_of_full_build(monkeypatch, zero_field):
    cfg = tiny_config(target_id="ex3", n_train=40, prune_threshold=0.1, threads=2)
    width = BLOCK_BUDGET // (2 * cfg.n_train)  # directions per build block
    dirs = sample_gaussian_sphere(2, 2 * width + 37, seed=8)
    dead = [5, width + 60, len(dirs) - 1]  # in the first, a middle and the last block
    dirs[dead] = [0.0, 0.0, -1.0]
    monkeypatch.setattr(bench, "make_directions", lambda cfg: dirs)
    if zero_field:  # zero targets: every field value is zero, so every atom is kept
        zero = [Dataset(d.inputs, np.zeros(d.n_points), d.domain_bounds)
                for d in bench.make_datasets(cfg)]
        monkeypatch.setattr(bench, "make_datasets", lambda cfg: zero)

    def warns():
        return pytest.warns(RuntimeWarning, match="zero") if zero_field else contextlib.nullcontext()

    train_set = bench.make_datasets(cfg)[0]
    full = build_dictionary(train_set, dirs, cfg.drop_tol)
    assert not (full.directions == dirs[dead[0]]).all(axis=1).any()  # no dead atom
    fld = collapsed_field(train_set, full.directions, cfg.quadrature, threads=cfg.threads)
    with warns():
        expected = prune_dictionary(full, fld, cfg.prune_threshold)
    with warns():
        got = dictionary_at_greedy(monkeypatch, cfg)
    if zero_field:
        assert expected.n_atoms == full.n_atoms
    else:
        assert 0 < expected.n_atoms < full.n_atoms
    for name in ("features", "raw_norms", "directions"):
        assert np.array_equal(bits(getattr(got, name)), bits(getattr(expected, name))), name
    assert got.features.flags.f_contiguous


def test_pruned_build_peak_memory(monkeypatch):
    """Scan, field and kept build together peak at no more than 1.1x the kept
    features plus the field's chunk temporaries, which it reaches alone."""
    cfg = default_config("ex3", 0, n_test=64, dict_size=5_000, threads=1)
    train_set, directions = bench.make_datasets(cfg)[0], bench.make_directions(cfg)
    rows = sampling.live_rows(train_set, directions, cfg.drop_tol)
    tracemalloc.start()
    try:
        collapsed_field(train_set, rows.directions, cfg.quadrature, threads=cfg.threads)
        temporaries = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scan = sampling.live_rows

    def traced_scan(*args):
        tracemalloc.start()
        return scan(*args)

    monkeypatch.setattr(sampling, "live_rows", traced_scan)
    peaks = []
    try:
        kept = dictionary_at_greedy(
            monkeypatch, cfg, lambda d: peaks.append(tracemalloc.get_traced_memory()[1]))
    finally:
        tracemalloc.stop()
    assert kept.n_atoms < len(rows.directions)
    assert peaks[0] <= 1.1 * kept.features.nbytes + temporaries


@pytest.mark.parametrize("prune", [True, False])
def test_no_dictionary_alive_at_refit(monkeypatch, prune):
    refs, alive = [], []
    build, oga, refit = sampling.build_dictionary, greedy.oga_run, solve.refit_network

    def recorded_build(*args):
        out = build(*args)
        refs.append(weakref.ref(out))
        return out

    def recorded_oga(dictionary, *args):
        refs.append(weakref.ref(dictionary))
        return oga(dictionary, *args)

    def checked_refit(*args):
        alive.append([ref() is not None for ref in refs])
        return refit(*args)

    monkeypatch.setattr(sampling, "build_dictionary", recorded_build)
    monkeypatch.setattr(greedy, "oga_run", recorded_oga)
    monkeypatch.setattr(solve, "refit_network", checked_refit)
    run_experiment(tiny_config(prune=prune))
    assert alive == [[False, False]]


def test_manifest_determinism(tmp_path):
    cfg = tiny_config()
    r1, r2 = run_experiment(cfg), run_experiment(cfg)
    m1, m2 = r1.manifest(), r2.manifest()
    assert strip_meta(m1) == strip_meta(m2)
    assert "created_at" in m1["meta"]
    # non-manifest artifacts are byte-identical across re-runs
    d1 = write_run_artifacts(r1, tmp_path / "a")
    d2 = write_run_artifacts(r2, tmp_path / "b")
    import pathlib
    for name in ("path.csv", "gsn_loss.csv", "field.csv", "gsn_init_network.json"):
        assert (pathlib.Path(d1) / name).read_bytes() == (pathlib.Path(d2) / name).read_bytes()


def test_manifest_config_round_trip():
    cfg = tiny_config()
    doc = run_experiment(cfg).manifest()
    rebuilt = bench.config_from_dict(doc["config"])
    assert rebuilt == cfg
    # rerunning from the embedded config reproduces the results block
    m2 = run_experiment(rebuilt).manifest()
    assert strip_meta(m2) == strip_meta(doc)


def test_gsn_training_preserves_init_quality():
    # full-epoch fine-tuning from the greedy initialization must not
    # degrade the test error by more than 5%
    cfg = default_config("ex1", seed=0,
                         random_train=TrainConfig(epochs=0, batch_size=1, seed=0),
                         n_restarts=1)
    run = run_experiment(cfg).run
    assert run.gsn_trained.rel_l2 <= 1.05 * run.gsn_init.rel_l2


def test_artifacts_written(tmp_path):
    report = run_experiment(tiny_config())
    run_dir = write_run_artifacts(report, tmp_path)
    names = {p.name for p in (tmp_path / run_dir.split("/")[-1]).iterdir()}
    expected = {"manifest.json", "path.csv", "field.csv", "gsn_loss.csv", "random_loss_best.csv",
                "gsn_init_network.json", "gsn_trained_network.json", "random_best_network.json"}
    assert names == expected  # no dataset: gsn sample --config <manifest> regenerates them
    doc = json.loads((tmp_path / run_dir.split("/")[-1] / "manifest.json").read_text())
    assert doc["config"]["target_id"] == "ex1"


# a pruned ex3 run, its artifacts, and a dictionary CSV written and read back; argv:
# output directory. Exits 3 if numpy itself loads numpy.ma on import (numpy 1.x)
NO_NUMPY_MA_SCRIPT = """
import os, sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit(3)
from gsn import bench, sampling
from gsn.train import TrainConfig

out = sys.argv[1]
cfg = bench.ExperimentConfig(target_id="ex3", n_train=16, n_val=6, n_test=64, dict_size=200,
                             max_iter=8, gsn_train=TrainConfig(epochs=3, batch_size=16, seed=1),
                             random_train=TrainConfig(epochs=3, batch_size=4, seed=1),
                             n_restarts=2, seed=0)
report = bench.run_experiment(cfg)
assert report.base.dictionary_size_after < report.base.dictionary_size_before
bench.write_run_artifacts(report, out)
path = os.path.join(out, "dictionary.csv")
sampling.save_dictionary_csv(
    sampling.live_rows(bench.make_datasets(cfg)[0], bench.make_directions(cfg)), path)
assert len(sampling.read_dictionary_csv(path, 2).directions) == report.base.dictionary_size_before
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_pruned_run_does_not_import_numpy_ma(tmp_path):
    # importing numpy.ma costs ~10 ms, paid once per process, and np.unique imports
    # it (numpy 2.4): a pruned run and a dictionary CSV read must not. A fresh
    # process, since pytest's own may already hold the module
    src = os.path.dirname(os.path.dirname(os.path.abspath(bench.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_MA_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode == 3:
        pytest.skip("this numpy imports numpy.ma on import")
    assert proc.returncode == 0, proc.stderr
