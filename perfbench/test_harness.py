"""Tests of the benchmark harness: `python3 -m pytest perfbench -q` from the repository root."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gsn import bench, ridgelet, solve, train  # noqa: E402

from run import END_TO_END, TRACE_UNITS, check  # noqa: E402
from tracer import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tiny_config():
    cfg = bench.default_config("ex1", seed=3, dict_size=400, n_restarts=2, threads=2)
    return replace(cfg, gsn_train=replace(cfg.gsn_train, epochs=5),
                   random_train=replace(cfg.random_train, epochs=3))


def run_once(out_dir) -> dict:
    report = bench.run_experiment(tiny_config())
    run_dir = bench.write_run_artifacts(report, str(out_dir))
    return bench.strip_meta(bench.load_manifest(os.path.join(run_dir, "manifest.json")))


def test_traced_manifest_equals_untraced(tmp_path):
    untraced = run_once(tmp_path / "plain")
    originals = (ridgelet.collapsed_field, solve.refit_network, train.train_params,
                 bench.compute_errors)
    with Tracer() as tracer:
        assert ridgelet.collapsed_field is not originals[0]
        traced = run_once(tmp_path / "traced")
    assert traced == untraced
    assert (ridgelet.collapsed_field, solve.refit_network, train.train_params,
            bench.compute_errors) == originals

    m = layer_metrics(tracer.spans)
    assert set(m) == set(LAYER_UNITS)
    assert m["ridgelet.collapsed_field.calls"] == 1
    assert m["solve.refit_network.nodes"] == untraced["results"]["selected_nodes"]
    assert m["train.multi_restart.adam_steps"] == 2 * 3 * 50   # restarts x epochs x batches of 1
    assert m["train.multi_restart.restart_s"] > 0.0
    assert m["ridgelet.collapsed_field.peak_mb"] > 0.0


def test_check_flags_mismatch_and_non_finite():
    def record(rel, seed=0, threads=2):
        errors = {"gsn_init": {"abs_l2": 1.0, "rmse": 1.0, "rel_l2": rel, "rel_l2_defined": True}}
        return {"manifest": {"results": {"errors": errors}}, "seed": seed,
                "env": {"blas_threads": threads}}

    records = [record(0.5), record(0.5), record(0.6), record(float("inf")), record(0.7, threads=1),
               record(0.8, seed=1), record(0.8, seed=1), {"error": "exit 1"}]
    check(records)
    assert ["error" in r for r in records] == [False, False, True, True, True, False, False, True]


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prune-ex3",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == TRACE_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
