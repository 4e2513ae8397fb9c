import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gsn import bench, cli
from gsn.bench import PipelineError
from gsn.core import BLOCK_BUDGET, Dataset
from gsn.ridgelet import CollapsedField, load_field_csv, prune_dictionary, save_field_csv
from gsn.sampling import (DictionaryRows, build_dictionary, load_dataset_csv,
                          load_directions_csv, read_dictionary_csv, save_dataset_csv,
                          save_dictionary_csv)


def run_cli(*argv):
    return cli.main(list(argv))


def bench_args(tmp_path, *extra):
    return ["bench", "ex1", "--seed", "0", "--out", str(tmp_path),
            "--epochs", "2", "--restarts", "1",
            "--config", str(write_tiny_config(tmp_path))] + list(extra)


def write_tiny_config(tmp_path, **fields):
    doc = {"n_train": 16, "n_val": 6, "n_test": 64, "dict_size": 150, "max_iter": 6}
    doc.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def manifest_in(out_dir):
    runs = [p for p in out_dir.iterdir() if p.is_dir()]
    assert len(runs) == 1
    return json.loads((runs[0] / "manifest.json").read_text())


def test_bench_smoke(tmp_path, capsys):
    assert run_cli(*bench_args(tmp_path)) == 0
    doc = manifest_in(tmp_path)
    errs = doc["results"]["errors"]
    assert set(errs) == {"gsn_init", "gsn_trained", "random_trained"}
    assert all(np.isfinite(e["rel_l2"]) for e in errs.values())


def test_manifest_is_strict_json_after_zero_epochs(tmp_path, capsys):
    # with no epoch trained a restart has no final train loss: the manifest
    # writes it as null, never as NaN, and the report prints it as undefined
    assert run_cli(*bench_args(tmp_path, "--epochs", "0", "--restarts", "2")) == 0
    run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())

    def reject(token):
        raise ValueError(f"manifest holds the non-JSON constant {token}")

    doc = json.loads((run_dir / "manifest.json").read_text(), parse_constant=reject)
    assert [r["final_train_loss"] for r in doc["results"]["random_restarts"]] == [None, None]
    capsys.readouterr()
    assert run_cli("report", str(run_dir)) == 0
    assert capsys.readouterr().out.count("final_train_loss=undefined") == 2


def test_bench_unknown_example(tmp_path, capsys):
    code = run_cli("bench", "ex9", "--out", str(tmp_path))
    assert code == 2
    assert "usage" in capsys.readouterr().err


def test_bench_requires_example(tmp_path, capsys):
    for command in ("bench", "sample"):
        assert run_cli(command, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: give an example id (ex1, ex2, ex3, ex4, ex5, ex6) "
                              "or a --config file\nusage: gsn "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bench", "sample"])
def test_bench_negative_seed_names_the_flag(tmp_path, capsys, command):
    assert run_cli(command, "ex1", "--seed", "-1", "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid --seed: seed must be >= 0\nusage: gsn ")
    assert not (tmp_path / "out").exists()


def test_config_file_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_train": "many"}))
    code = run_cli("bench", "ex1", "--config", str(bad), "--out", str(tmp_path))
    assert code == 2
    assert "n_train" in capsys.readouterr().err


def test_prune_threshold_validation(tmp_path, capsys):
    out = tmp_path / "s"
    assert run_cli("sample", "ex1", "--seed", "0", "--out", str(out),
                   "--config", str(write_tiny_config(tmp_path))) == 0
    assert run_cli("dict", "--train", str(out / "train.csv"),
                   "--directions", str(out / "directions.csv"),
                   "--out", str(out / "dictionary.csv")) == 0
    code = run_cli("prune", "--dict", str(out / "dictionary.csv"),
                   "--field", str(out / "missing.csv"),
                   "--threshold", "1.0", "--out", str(out / "pruned.csv"))
    assert code == 2
    assert "threshold" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    code = run_cli("dict", "--train", str(tmp_path / "nope.csv"),
                   "--directions", str(tmp_path / "alsono.csv"),
                   "--out", str(tmp_path / "d.csv"))
    assert code == 2


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def boom(cfg):
        raise PipelineError("greedy", ValueError("synthetic failure"))

    monkeypatch.setattr(bench, "run_experiment", boom)
    code = run_cli(*bench_args(tmp_path))
    assert code == 3
    err = capsys.readouterr().err
    assert "greedy" in err


def tiny_run_args(tmp_path, example, **fields):
    """A gsn bench call of ``example`` on the tiny config, laid over by ``fields``;
    an ex6 sweep gets 40 training points, as many as its 5 inputs need."""
    if example == "ex6":
        fields = {"n_train": 40, **fields}
    cfgp = write_tiny_config(tmp_path, **fields)
    return ["bench", example, "--seed", "0", "--epochs", "2", "--restarts", "1",
            "--config", str(cfgp), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("example, branch, stage", [
    ("ex1", "gsn_train", "train"), ("ex6", "gsn_train", "train"),
    ("ex1", "random_train", "baseline"), ("ex1", "gsn_train", None)],
    ids=["ex1", "ex6", "ex1-baseline", "gsn-train"])
def test_training_overflow_exits_3_naming_the_stage(tmp_path, capsys, example, branch, stage):
    # a single run and a sweep train through one staged step, so both name it, and
    # gsn train (stage None) fails alike: the first non-finite epoch loss stops training
    overflow = {branch: {"initial_lr": 1e300}}
    if stage is None:
        out = staged_dictionary(tmp_path)
        assert run_cli("greedy", "--train", str(out / "train.csv"), "--val", str(out / "val.csv"),
                       "--dict", str(out / "dictionary.csv"), "--out", str(out / "path.csv"),
                       "--nodes-out", str(out / "nodes.json")) == 0
        assert run_cli("fit", "--train", str(out / "train.csv"), "--nodes", str(out / "nodes.json"),
                       "--out", str(out / "network.json")) == 0
        cfgp = tmp_path / "overflow.json"
        cfgp.write_text(json.dumps({"target_id": example, **overflow}))
        argv = ["train", "--config", str(cfgp), "--network", str(out / "network.json"),
                "--train", str(out / "train.csv"), "--out", str(out / "trained.json")]
        prefix = "numerical failure: "
    else:
        argv = tiny_run_args(tmp_path, example, **overflow)
        prefix = f"numerical failure in stage {stage!r}: "
    capsys.readouterr()
    with warnings.catch_warnings():  # numpy's overflow warnings would precede the message
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv, "--epochs", "50") == 3
    err = capsys.readouterr().err
    divergence = r"training diverged: loss not finite after epoch (\d+) of 50\n"
    match = re.fullmatch(re.escape(prefix) + divergence, err)
    assert match and int(match[1]) < 50, err
    if stage is None:
        assert not (out / "trained.json").exists()
    else:
        assert not any(p.is_dir() for p in (tmp_path / "out").iterdir())


def test_sweep_reports_sizes_past_the_path_unavailable(tmp_path, capsys):
    assert run_cli(*tiny_run_args(tmp_path, "ex6", node_counts=[3, 500])) == 0
    (run_dir,) = (tmp_path / "out").iterdir()
    rows = json.loads((run_dir / "manifest.json").read_text())["results"]["sweep"]
    assert [(r["n_nodes"], r["available"]) for r in rows] == [(3, True), (500, False)]
    assert set(rows[1]) == {"n_nodes", "available"}
    lines = (run_dir / "sweep.csv").read_text().splitlines()
    assert lines[-1] == "500,,,"
    capsys.readouterr()
    assert run_cli("report", str(run_dir)) == 0
    assert re.findall(r"N=\s*(\d+)", capsys.readouterr().out) == ["3"]


def test_sweeps_of_other_node_counts_write_two_run_directories(tmp_path, capsys):
    # a run directory is named by its manifest's config object, which holds a sweep's node counts
    for counts in ([2, 6], [3, 6]):
        assert run_cli(*tiny_run_args(tmp_path, "ex6", node_counts=counts)) == 0
    runs = sorted((tmp_path / "out").iterdir())
    assert len(runs) == 2
    for run_dir in runs:
        config = json.loads((run_dir / "manifest.json").read_text())["config"]
        assert run_dir.name == f"ex6-sweep-{bench.config_hash(config)}"
    assert sorted(json.loads((p / "manifest.json").read_text())["config"]["node_counts"]
                  for p in runs) == [[2, 6], [3, 6]]


def zero_targets(dataset):
    return Dataset(dataset.inputs, np.zeros(dataset.n_points), dataset.domain_bounds)


def test_greedy_on_zero_targets_exits_3_naming_the_termination(tmp_path, capsys, monkeypatch):
    out = staged_dictionary(tmp_path)
    save_dataset_csv(zero_targets(load_dataset_csv(out / "train.csv")), out / "train.csv")
    capsys.readouterr()
    assert run_cli("greedy", "--train", str(out / "train.csv"), "--val", str(out / "val.csv"),
                   "--dict", str(out / "dictionary.csv"), "--nodes-out", str(out / "nodes.json"),
                   "--out", str(out / "path.csv")) == 3
    greedy_err = capsys.readouterr().err
    assert greedy_err.strip() == ("numerical failure in stage 'greedy': "
                                  "greedy selected no atom (termination: residual_tol)")
    assert not (out / "path.csv").exists() and not (out / "nodes.json").exists()

    # gsn bench on the same zero targets fails with the same line
    datasets = bench.make_datasets
    monkeypatch.setattr(bench, "make_datasets", lambda cfg: [zero_targets(d) for d in datasets(cfg)])
    with pytest.warns(RuntimeWarning, match="zero"):
        assert run_cli(*tiny_run_args(tmp_path, "ex1")) == 3
    assert capsys.readouterr().err == greedy_err


def test_ridgelet_stage_rows(tmp_path):
    # one field row per dictionary row, on its direction: the live rows, not all 150
    out = staged_dictionary(tmp_path)
    assert run_cli("ridgelet", "--train", str(out / "train.csv"),
                   "--dict", str(out / "dictionary.csv"),
                   "--out", str(out / "field.csv")) == 0
    rows = read_dictionary_csv(out / "dictionary.csv", 1)
    assert np.array_equal(load_field_csv(out / "field.csv").directions, rows.directions)
    assert 0 < len(rows.directions) < 150


def test_stage_idempotence(tmp_path):
    out = tmp_path / "s"
    cfgp = write_tiny_config(tmp_path)
    run_cli("sample", "ex1", "--seed", "0", "--out", str(out), "--config", str(cfgp))
    first = (out / "train.csv").read_bytes()
    run_cli("sample", "ex1", "--seed", "0", "--out", str(out), "--config", str(cfgp))
    assert (out / "train.csv").read_bytes() == first


def check_stage_chain_matches_bench(tmp_path, example, epochs, *flags):
    """sample -> dict [-> ridgelet -> prune] -> greedy -> fit -> train, each stage
    given the sample's config.json and no value flag, writes the same bytes as the
    bench run of the same call: the field (when pruning), the greedy path, the
    initial and trained networks and the loss curve. Returns the bench results."""
    call = [example, "--seed", "3", "--epochs", str(epochs), "--restarts", "1", *flags]
    bench_out = tmp_path / "bench"
    assert run_cli("bench", *call, "--out", str(bench_out)) == 0
    (run_dir,) = bench_out.iterdir()
    doc = json.loads((run_dir / "manifest.json").read_text())

    stage = tmp_path / "stage"
    assert run_cli("sample", *call, "--out", str(stage)) == 0
    cfg = ["--config", str(stage / "config.json")]
    train_csv = ["--train", str(stage / "train.csv")]
    assert run_cli("dict", *cfg, *train_csv, "--directions", str(stage / "directions.csv"),
                   "--out", str(stage / "dictionary.csv")) == 0
    dict_path = stage / "dictionary.csv"
    pairs = {"path.csv": "path.csv", "network.json": "gsn_init_network.json",
             "trained.json": "gsn_trained_network.json", "loss.csv": "gsn_loss.csv"}
    if doc["config"]["prune"]:
        assert run_cli("ridgelet", *cfg, *train_csv, "--dict", str(dict_path),
                       "--out", str(stage / "field.csv")) == 0
        assert run_cli("prune", *cfg, "--dict", str(dict_path),
                       "--field", str(stage / "field.csv"), "--out", str(stage / "pruned.csv")) == 0
        dict_path = stage / "pruned.csv"
        pairs["field.csv"] = "field.csv"
    assert run_cli("greedy", *cfg, *train_csv, "--val", str(stage / "val.csv"),
                   "--dict", str(dict_path), "--out", str(stage / "path.csv"),
                   "--nodes-out", str(stage / "nodes.json")) == 0
    assert run_cli("fit", *train_csv, "--nodes", str(stage / "nodes.json"),
                   "--out", str(stage / "network.json")) == 0
    assert run_cli("train", *cfg, *train_csv, "--network", str(stage / "network.json"),
                   "--out", str(stage / "trained.json"), "--loss-out", str(stage / "loss.csv")) == 0

    for staged, benched in pairs.items():
        assert (stage / staged).read_bytes() == (run_dir / benched).read_bytes(), staged
    return doc["results"]


def test_stage_chain_matches_bench(tmp_path):
    check_stage_chain_matches_bench(tmp_path, "ex1", 5, "--config",
                                    str(write_tiny_config(tmp_path)), "--no-prune")


def test_stage_chain_matches_bench_pruned(tmp_path):
    results = check_stage_chain_matches_bench(tmp_path, "ex1", 5, "--config",
                                              str(write_tiny_config(tmp_path)))
    assert results["dictionary_size_after_prune"] < results["dictionary_size_before_prune"]


def test_stage_chain_matches_bench_ex3_pruned(tmp_path):
    # ex3's default max_iter (80), which the greedy stage must take from
    # config.json: with its former fixed default of 50 it selected 50 nodes
    cfgp = tmp_path / "ex3.json"
    cfgp.write_text(json.dumps({"dict_size": 3000}))
    results = check_stage_chain_matches_bench(tmp_path, "ex3", 1, "--config", str(cfgp))
    assert results["selected_nodes"] > 50


# every scipy import raises inside this script; argv: output directory, config file
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None
from gsn import cli
loaded = [name for name, mod in sys.modules.items() if name.startswith("scipy") and mod]
assert not loaded, loaded
out, cfg = sys.argv[1:]
call = ["ex3", "--seed", "0", "--epochs", "2", "--restarts", "1", "--config", cfg]
assert cli.main(["bench", *call, "--out", out + "/bench"]) == 0
s = out + "/stage"
assert cli.main(["sample", *call, "--out", s]) == 0
c = ["--config", s + "/config.json"]
t = ["--train", s + "/train.csv"]
assert cli.main(["dict", *c, *t, "--directions", s + "/directions.csv",
                 "--out", s + "/dictionary.csv"]) == 0
assert cli.main(["ridgelet", *c, *t, "--dict", s + "/dictionary.csv",
                 "--out", s + "/field.csv"]) == 0
assert cli.main(["prune", *c, "--dict", s + "/dictionary.csv", "--field", s + "/field.csv",
                 "--out", s + "/pruned.csv"]) == 0
assert cli.main(["greedy", *c, *t, "--val", s + "/val.csv", "--dict", s + "/pruned.csv",
                 "--out", s + "/path.csv", "--nodes-out", s + "/nodes.json"]) == 0
"""


def src_env() -> dict:
    """The environment with the package's source directory first on PYTHONPATH, for a gsn subprocess."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_pipeline_runs_without_scipy(tmp_path):
    # the runtime needs numpy alone: importing the CLI loads no scipy module,
    # and bench with pruning on and the staged ridgelet and greedy stages run
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path),
                           str(write_tiny_config(tmp_path))],
                          env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = manifest_in(tmp_path / "bench")["results"]
    assert results["dictionary_size_after_prune"] < results["dictionary_size_before_prune"]


@pytest.mark.parametrize("source", ["sample", "manifest"])
def test_bench_config_round_trip(tmp_path, source):
    # a sample's config.json, or a manifest's config object, given back to
    # gsn bench names the same run directory; --seed re-derives the shuffle seeds
    def bench_dir(out, *argv):
        assert run_cli("bench", *argv, "--out", str(out)) == 0
        return [p.name for p in out.iterdir()]

    call = ["ex1", "--seed", "3", "--epochs", "2", "--restarts", "1",
            "--config", str(write_tiny_config(tmp_path))]
    original = bench_dir(tmp_path / "a", *call)
    if source == "sample":
        assert run_cli("sample", *call, "--out", str(tmp_path / "s")) == 0
        cfgp = tmp_path / "s" / "config.json"
    else:
        cfgp = tmp_path / "manifest_config.json"
        cfgp.write_text(json.dumps(manifest_in(tmp_path / "a")["config"]))
    assert bench_dir(tmp_path / "b", "--config", str(cfgp)) == original
    reseeded = bench_dir(tmp_path / "c", *call[:1], "--seed", "4", *call[3:])
    assert bench_dir(tmp_path / "d", "--config", str(cfgp), "--seed", "4") == reseeded != original


def test_bench_run_is_the_same_at_any_thread_count(tmp_path):
    # the worker count, from a config file's threads or else the CPUs the process
    # may use, is a runtime setting: the manifest's meta records it, and no other
    # byte of the run directory holds it
    runs = []
    for name, fields in (("a", {"threads": 1}), ("b", {"threads": 3}), ("c", {})):
        out = tmp_path / name
        out.mkdir()
        config = write_tiny_config(out, dict_size=12_000, **fields)
        assert run_cli("bench", "ex1", "--seed", "0", "--epochs", "2", "--restarts", "1", "--out", str(out),
                       "--config", str(config)) == 0
        (run_dir,) = [p for p in out.iterdir() if p.is_dir()]
        runs.append(run_dir)
    assert len({run_dir.name for run_dir in runs}) == 1
    manifests = [bench.load_manifest(run_dir / "manifest.json") for run_dir in runs]
    assert [m["meta"]["threads"] for m in manifests] == [1, 3, len(os.sched_getaffinity(0))]
    assert all(bench.strip_meta(m) == bench.strip_meta(manifests[0]) for m in manifests)
    assert "threads" not in manifests[0]["config"]
    # the field's live rows fill more than one chunk of 16-point rows, so above one
    # worker the chunks run on threads
    assert manifests[0]["results"]["dictionary_size_before_prune"] > BLOCK_BUDGET // 16
    names = sorted(p.name for p in runs[0].iterdir())
    assert "field.csv" in names
    for run_dir in runs[1:]:
        assert sorted(p.name for p in run_dir.iterdir()) == names
        for name in names:
            if name != "manifest.json":
                assert (run_dir / name).read_bytes() == (runs[0] / name).read_bytes(), name


def test_config_file_threads_sets_only_the_worker_count(tmp_path):
    # a file written while the config object held threads still loads: its value,
    # not the CPUs the process may use, is the worker count, and is neither written
    # back nor hashed
    usable = len(os.sched_getaffinity(0))
    manifests = []
    for name, fields in (("a", {}), ("b", {"threads": usable + 1})):
        out = tmp_path / name
        assert run_cli("bench", "ex1", "--epochs", "2", "--restarts", "1", "--out", str(out),
                       "--config", str(write_tiny_config(tmp_path, **fields))) == 0
        (run_dir,) = out.iterdir()
        manifests.append((run_dir.name, bench.load_manifest(run_dir / "manifest.json")))
    (name_a, doc_a), (name_b, doc_b) = manifests
    assert name_a == name_b
    assert (doc_a["meta"]["threads"], doc_b["meta"]["threads"]) == (usable, usable + 1)
    assert "threads" not in doc_b["config"]


@pytest.mark.skipif(shutil.which("taskset") is None, reason="taskset is not installed")
def test_bench_worker_count_follows_taskset(tmp_path):
    # taskset limits the CPUs the process may use, and with them its worker count,
    # which os.cpu_count() would not see
    cpu = str(min(os.sched_getaffinity(0)))
    proc = subprocess.run(["taskset", "-c", cpu, sys.executable, "-m", "gsn.cli", *bench_args(tmp_path)],
                          env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert manifest_in(tmp_path)["meta"]["threads"] == 1


@pytest.mark.parametrize("example, node_counts", [("ex1", None), ("ex6", [10, 20, 40, 80, 160])])
def test_sample_config_is_the_config_document(tmp_path, example, node_counts):
    # config.json is ExperimentConfig.to_dict(): no thread count, and ex6's sweep sizes
    out = tmp_path / "s"
    assert run_cli("sample", example, "--out", str(out),
                   "--config", str(write_tiny_config(tmp_path))) == 0
    doc = json.loads((out / "config.json").read_text())
    assert "threads" not in doc
    assert doc["node_counts"] == node_counts
    assert doc == bench.config_from_dict(doc).to_dict()


def test_artifacts_end_lines_with_lf(tmp_path):
    # every file of a run directory, a sweep directory and a sample, the CSVs'
    # leading comment lines included, ends its lines in LF alone
    assert run_cli(*tiny_run_args(tmp_path, "ex1")) == 0
    assert run_cli(*tiny_run_args(tmp_path, "ex6", node_counts=[3, 500])) == 0
    assert run_cli("sample", "ex1", "--out", str(tmp_path / "sample"),
                   "--config", str(write_tiny_config(tmp_path))) == 0
    files = [p for d in (tmp_path / "out").iterdir() for p in d.iterdir()]
    files += list((tmp_path / "sample").iterdir())
    assert {"field.csv", "path.csv", "gsn_loss.csv", "sweep.csv", "train.csv",
            "directions.csv"} <= {p.name for p in files}
    for path in files:
        assert b"\r" not in path.read_bytes(), path


def test_manifest_restores_datasets_and_reruns_in_place(tmp_path):
    # a run directory holds no dataset: gsn sample given its manifest writes the
    # run's own datasets, and gsn bench given it reruns into the same directory
    doc = json.loads(write_tiny_config(tmp_path).read_text())
    cfg = bench.config_from_dict({**doc, "target_id": "ex1", "n_restarts": 1,
                                  "gsn_train": {"epochs": 2}, "random_train": {"epochs": 2}})
    report = bench.run_experiment(cfg)
    runs = tmp_path / "runs"
    run_dir = runs / os.path.basename(bench.write_run_artifacts(report, runs))
    assert not {"train.csv", "val.csv", "test.csv"} & {p.name for p in run_dir.iterdir()}
    manifest = run_dir / "manifest.json"
    restored = tmp_path / "restored"
    assert run_cli("sample", "--config", str(manifest), "--out", str(restored)) == 0
    for name, dataset in (("train", report.base.train_set), ("val", report.base.val_set),
                          ("test", report.base.test_set)):
        save_dataset_csv(dataset, tmp_path / f"{name}.csv")
        assert (restored / f"{name}.csv").read_bytes() == (tmp_path / f"{name}.csv").read_bytes()
    results = bench.strip_meta(bench.load_manifest(manifest))
    assert run_cli("bench", "--config", str(manifest), "--out", str(runs)) == 0
    assert [p.name for p in runs.iterdir()] == [run_dir.name]
    assert bench.strip_meta(bench.load_manifest(manifest)) == results


@pytest.mark.parametrize("extra", [[], ["--no-prune"]])
def test_config_nonpositive_r_max_exits_2(tmp_path, capsys, extra):
    cfgp = write_tiny_config(tmp_path, quad_r_max=-1)
    code = run_cli("bench", "ex1", "--out", str(tmp_path / "out"), "--config", str(cfgp),
                   "--epochs", "0", "--restarts", "1", *extra)
    assert code == 2
    assert "quad_r_max" in capsys.readouterr().err


def test_ridgelet_stage_nonpositive_r_max_exits_2(tmp_path, capsys):
    out = staged_dictionary(tmp_path)
    code = run_cli("ridgelet", "--train", str(out / "train.csv"),
                   "--dict", str(out / "dictionary.csv"),
                   "--r-max", "0", "--out", str(out / "field.csv"))
    assert code == 2
    assert "r-max" in capsys.readouterr().err
    assert not (out / "field.csv").exists()


def test_train_stage(tmp_path):
    cfgp = write_tiny_config(tmp_path)
    stage = tmp_path / "s"
    run_cli("sample", "ex1", "--seed", "0", "--out", str(stage), "--config", str(cfgp))
    run_cli("dict", "--train", str(stage / "train.csv"),
            "--directions", str(stage / "directions.csv"),
            "--out", str(stage / "dictionary.csv"))
    run_cli("greedy", "--train", str(stage / "train.csv"),
            "--val", str(stage / "val.csv"), "--dict", str(stage / "dictionary.csv"),
            "--max-iter", "4", "--out", str(stage / "path.csv"),
            "--nodes-out", str(stage / "nodes.json"))
    run_cli("fit", "--train", str(stage / "train.csv"),
            "--nodes", str(stage / "nodes.json"), "--out", str(stage / "net.json"))
    assert run_cli("train", "--network", str(stage / "net.json"),
                   "--train", str(stage / "train.csv"),
                   "--epochs", "3", "--seed", "0",
                   "--out", str(stage / "trained.json"),
                   "--loss-out", str(stage / "loss.csv")) == 0
    assert (stage / "trained.json").exists()
    lines = (stage / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss" and len(lines) == 4


def test_report_command(tmp_path, capsys):
    run_cli(*bench_args(tmp_path))
    runs = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert run_cli("report", str(runs[0])) == 0
    out = capsys.readouterr().out
    assert "gsn_init" in out and "rel_l2" in out
    row = manifest_in(tmp_path)["results"]["random_restarts"][0]
    assert f"restart 0: val_rmse={row['val_rmse']:.4e} test_rmse={row['test_rmse']:.4e} " in out


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"results": []},
    {"results": {"random_restarts": [1]}},
    {"results": {"errors": {"gsn_init": {}}}},
])
def test_report_refuses_malformed_manifest(tmp_path, capsys, doc):
    # the whole manifest is checked before the report prints its first line
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert run_cli("report", str(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: malformed manifest file {path}: ")
    assert err.count("\n") == 1  # a fault of the file, not of the command line: no usage line


def test_report_of_missing_manifest_prints_one_line(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    assert run_cli("report", str(path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: missing manifest file: {path}\n"


def test_bench_prune_flag_pairs_within_ten_percent(tmp_path):
    # desk-scale paired run: skipping the pruning stage must not move the
    # resulting error materially
    out_a, out_b = tmp_path / "pruned", tmp_path / "unpruned"
    args = ["bench", "ex1", "--seed", "0", "--epochs", "0", "--restarts", "1"]
    assert run_cli(*args, "--out", str(out_a)) == 0
    assert run_cli(*args, "--out", str(out_b), "--no-prune") == 0
    rel_a = manifest_in(out_a)["results"]["errors"]["gsn_init"]["rel_l2"]
    rel_b = manifest_in(out_b)["results"]["errors"]["gsn_init"]["rel_l2"]
    assert abs(rel_a - rel_b) <= 0.10 * rel_b


def test_available_memory_reader():
    avail = cli.available_memory_bytes()
    assert avail is None or avail > 0


def test_bench_refuses_dictionary_beyond_memory(tmp_path, capsys, monkeypatch):
    def never(cfg):
        raise AssertionError("the pipeline must not start")

    monkeypatch.setattr(cli, "available_memory_bytes", lambda: 10_000)
    monkeypatch.setattr(bench, "run_experiment", never)
    out = tmp_path / "out"
    code = run_cli("bench", "ex1", "--out", str(out), "--config", str(write_tiny_config(tmp_path)))
    assert code == 2
    err = capsys.readouterr().err
    assert "16 points x 150 directions" in err and "0.00 GiB" in err
    assert not out.exists()


def test_bench_sweep_refuses_dictionary_beyond_memory(tmp_path, capsys, monkeypatch):
    def never(cfg):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "available_memory_bytes", lambda: 2**30)
    monkeypatch.setattr(bench, "node_sweep", never)
    assert run_cli("bench", "ex6", "--out", str(tmp_path / "out")) == 2
    assert "10000 points x 50000 directions needs 3.73 GiB" in capsys.readouterr().err


def test_dict_drop_tol_default_matches_bench(tmp_path):
    # gsn dict drops atoms at the ExperimentConfig default without --config,
    # at the file's drop_tol with one, and at --drop-tol over both
    out = tmp_path / "s"
    assert run_cli("sample", "ex1", "--seed", "0", "--out", str(out),
                   "--config", str(write_tiny_config(tmp_path))) == 0
    train_set = load_dataset_csv(out / "train.csv")
    directions = load_directions_csv(out / "directions.csv", 1)
    tol = float(np.median(build_dictionary(train_set, directions, 0.0).raw_norms))
    doc = json.loads((out / "config.json").read_text())
    assert doc["drop_tol"] == bench.ExperimentConfig.drop_tol
    cfgp = tmp_path / "tol.json"
    cfgp.write_text(json.dumps({**doc, "drop_tol": tol}))
    for flags, want in [([], bench.ExperimentConfig.drop_tol), (["--config", str(cfgp)], tol),
                        (["--config", str(cfgp), "--drop-tol", "0"], 0.0)]:
        assert run_cli("dict", "--train", str(out / "train.csv"), *flags,
                       "--directions", str(out / "directions.csv"),
                       "--out", str(out / "dictionary.csv")) == 0
        kept = len(read_dictionary_csv(out / "dictionary.csv").source_indices)
        assert kept == build_dictionary(train_set, directions, want).n_atoms
    assert 0 < build_dictionary(train_set, directions, tol).n_atoms < len(directions)


@pytest.mark.parametrize("argv", [["dict", "--drop-tol", "-1"], ["dict", "--drop-tol", "nan"]],
                         ids=" ".join)
def test_stage_flags_checked_by_config(tmp_path, capsys, argv):
    out = staged_dictionary(tmp_path)
    code = run_cli(*argv, "--config", str(out / "config.json"), "--train", str(out / "train.csv"),
                   "--directions", str(out / "directions.csv"), "--out", str(out / "result.csv"))
    assert code == 2
    assert f"invalid {argv[1]}: " in capsys.readouterr().err
    assert not (out / "result.csv").exists()


# A good unit row plus one faulty row, per fault: (CSV rows, JSON "a"/"b" pairs).
# "other-dim" is a well-formed set of 2-d directions, for a 1-d training set.
DIRECTION_FAULTS = {
    "non-unit": (["0.6,0.8", "0.5,0.5"], [([0.6], 0.8), ([0.5], 0.5)]),
    "wrong-width": (["0.6,0.8", "0.6,0.0,0.8"], [([0.6], 0.8), ([0.6, 0.0], 0.8)]),
    "nan": (["0.6,0.8", "nan,nan"], [([0.6], 0.8), ([float("nan")], float("nan"))]),
    "other-dim": (["0.6,0.0,0.8", "0.0,0.6,0.8"], [([0.6, 0.0], 0.8), ([0.0, 0.6], 0.8)]),
}


def write_direction_input(tmp_path, stage, fault):
    csv_rows, pairs = DIRECTION_FAULTS[fault]
    if stage in ("dict", "ridgelet"):
        width = len(csv_rows[0].split(","))
        header = [f"a{i + 1}" for i in range(width - 1)] + ["b"]
        if stage == "ridgelet":  # dictionary rows: source index, direction, raw norm
            header = ["source_index", *header, "raw_norm"]
            csv_rows = [f"{k},{row},1.0" for k, row in enumerate(csv_rows)]
        path = tmp_path / "bad_rows.csv"
        path.write_text("\n".join([",".join(header)] + csv_rows) + "\n")
    elif stage == "fit":
        path = tmp_path / "bad_nodes.json"
        path.write_text(json.dumps({"input_dim": 1, "selected_nodes": 2,
                                    "directions": [{"a": a, "b": b} for a, b in pairs]}))
    else:
        path = tmp_path / "bad_network.json"
        path.write_text(json.dumps({"input_dim": len(pairs[0][0]),
                                    "nodes": [{"a": a, "b": b, "c": 1.0} for a, b in pairs]}))
    return path


@pytest.mark.parametrize("fault", sorted(DIRECTION_FAULTS))
@pytest.mark.parametrize("stage", ["dict", "ridgelet", "fit", "train"])
def test_malformed_direction_input_exits_2(tmp_path, capsys, stage, fault):
    train_csv = tmp_path / "train.csv"
    x = np.linspace(-1.0, 1.0, 9)[:, None]
    save_dataset_csv(Dataset(x, np.cos(3.0 * x[:, 0]), [[-1.0, 1.0]]), train_csv)
    bad = write_direction_input(tmp_path, stage, fault)
    out = tmp_path / "out"
    argv = {
        "dict": ["dict", "--train", str(train_csv), "--directions", str(bad)],
        "ridgelet": ["ridgelet", "--train", str(train_csv), "--dict", str(bad)],
        "fit": ["fit", "--train", str(train_csv), "--nodes", str(bad)],
        "train": ["train", "--network", str(bad), "--train", str(train_csv), "--epochs", "1"],
    }[stage]
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert str(bad) in err.splitlines()[0]
    assert not out.exists()


@pytest.mark.parametrize("rows", [[], ["0.0,-1.0"]])
def test_dict_without_live_directions_exits_2(tmp_path, capsys, rows):
    out = tmp_path / "s"
    assert run_cli("sample", "ex1", "--seed", "0", "--out", str(out),
                   "--config", str(write_tiny_config(tmp_path))) == 0
    directions = tmp_path / "dead.csv"
    directions.write_text("\n".join(["a1,b"] + rows) + "\n")
    assert run_cli("dict", "--train", str(out / "train.csv"), "--directions", str(directions),
                   "--out", str(out / "dictionary.csv")) == 2
    assert str(directions) in capsys.readouterr().err
    assert not (out / "dictionary.csv").exists()


def test_ridgelet_without_directions_exits_2(tmp_path, capsys):
    out = staged_dictionary(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("source_index,a1,b,raw_norm\n")
    assert run_cli("ridgelet", "--train", str(out / "train.csv"), "--dict", str(empty),
                   "--out", str(out / "field.csv")) == 2
    assert f"malformed dictionary file {empty}: no atom rows" in capsys.readouterr().err
    assert not (out / "field.csv").exists()


@pytest.mark.parametrize("fields", [
    {"n_train": True},
    {"dict_size": False},
    {"gsn_train": {"initial_lr": True}},
    {"node_counts": [-3]},
    {"node_counts": [0]},
    {"node_counts": ["a"]},
    {"node_counts": [True]},
    {"node_counts": [2.5]},
    {"node_counts": []},
    {"n_nodes": 0},
    {"n_nodes": -3},
    {"max_iter": 0},
    {"gsn_train": {"epochs": -1}},
    {"threads": 0},
    {"threads": -1},
    {"drop_tol": -1},
    {"drop_tol": float("nan")},
    {"gsn_train": {"initial_lr": float("nan")}},
    {"random_train": {"decay_rate": float("nan")}},
    {"drop_tol": float("inf")},
    {"quad_r_max": float("inf")},
    {"gsn_train": {"initial_lr": float("inf")}},
    {"random_train": {"decay_rate": float("inf")}},
    {"random_train": {"decay_rate": -1}},
    {"random_train": 3},
    {"epochs": 10},
    {"gsn_batch": 5},
    {"target": "ex1"},
    {"seed": -1},
    {"gsn_train": {"seed": -5}},
    {"random_train": {"seed": -1}},
])
@pytest.mark.parametrize("example", ["ex1", "ex6"])
def test_config_field_types_checked_before_any_work(tmp_path, capsys, monkeypatch, fields, example):
    assert_config_refused(tmp_path, capsys, monkeypatch, example, fields)


# valid for the other example: only ex6 takes node_counts, and its sweep takes no n_nodes
@pytest.mark.parametrize("example, fields", [("ex1", {"node_counts": [3, 7]}),
                                             ("ex6", {"n_nodes": 5})])
def test_config_field_the_example_ignores_refused(tmp_path, capsys, monkeypatch, example, fields):
    assert_config_refused(tmp_path, capsys, monkeypatch, example, fields)


def assert_config_refused(tmp_path, capsys, monkeypatch, example, fields):
    def never(*args):
        raise AssertionError("no work may start on an invalid config")

    monkeypatch.setattr(bench, "run_experiment", never)
    monkeypatch.setattr(bench, "node_sweep", never)
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(fields))
    out = tmp_path / "out"
    assert run_cli("bench", example, "--config", str(cfgp), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert next(iter(fields)) in err
    assert "usage" not in err  # a fault of the file, not of the command line
    assert not out.exists()


def test_bench_memory_check_counts_one_copy(tmp_path, monkeypatch):
    # 16 x 150 features take 19,200 bytes: a pruned gsn bench run builds only the kept atoms
    monkeypatch.setattr(cli, "available_memory_bytes", lambda: 30_000)
    assert run_cli(*bench_args(tmp_path)) == 0


def staged_dictionary(tmp_path):
    out = tmp_path / "s"
    assert run_cli("sample", "ex1", "--seed", "0", "--out", str(out),
                   "--config", str(write_tiny_config(tmp_path))) == 0
    assert run_cli("dict", "--train", str(out / "train.csv"),
                   "--directions", str(out / "directions.csv"),
                   "--out", str(out / "dictionary.csv")) == 0
    return out


def test_greedy_refuses_dictionary_beyond_memory(tmp_path, capsys, monkeypatch):
    out = staged_dictionary(tmp_path)
    n_atoms = len((out / "dictionary.csv").read_text().strip().splitlines()) - 1

    def never(*args):
        raise AssertionError("the dictionary must not be built")

    monkeypatch.setattr(cli, "available_memory_bytes", lambda: 10_000)
    monkeypatch.setattr(cli.sampling, "build_dictionary", never)
    assert run_cli("greedy", "--train", str(out / "train.csv"), "--val", str(out / "val.csv"),
                   "--dict", str(out / "dictionary.csv"), "--nodes-out", str(out / "nodes.json"),
                   "--out", str(out / "result.csv")) == 2
    assert f"16 points x {n_atoms} directions" in capsys.readouterr().err
    assert not (out / "result.csv").exists()


def test_greedy_rejects_atoms_dead_on_its_training_set(tmp_path, capsys):
    # the dictionary rows of one training set, read with another on which some of their atoms
    # are dead, are refused before greedy runs
    out = staged_dictionary(tmp_path)
    train_set = load_dataset_csv(out / "train.csv")
    far = tmp_path / "far.csv"
    save_dataset_csv(Dataset(train_set.inputs + 100.0, train_set.targets,
                             train_set.domain_bounds + 100.0), far)
    assert run_cli("greedy", "--train", str(far), "--val", str(out / "val.csv"),
                   "--dict", str(out / "dictionary.csv"), "--nodes-out", str(out / "nodes.json"),
                   "--out", str(out / "path.csv")) == 2
    err = capsys.readouterr().err
    assert f"malformed dictionary file {out / 'dictionary.csv'}: atoms dead on this training set" in err
    assert not (out / "path.csv").exists() and not (out / "nodes.json").exists()


def staged_field(out, field):
    """Write the field CSV of the staged dictionary rows and return its path: ``field``
    "ridgelet" runs gsn ridgelet, "zero" writes every value 0."""
    path = out / "field.csv"
    if field == "ridgelet":
        assert run_cli("ridgelet", "--train", str(out / "train.csv"),
                       "--dict", str(out / "dictionary.csv"), "--out", str(path)) == 0
    else:
        directions = read_dictionary_csv(out / "dictionary.csv", 1).directions
        save_field_csv(CollapsedField(directions, np.zeros(len(directions))), path)
    return path


def feature_route_rows(dictionary, directions):
    """The DictionaryRows of a Dictionary built from ``directions``: each atom's
    source index is the row of ``directions`` that equals its direction."""
    source = (dictionary.directions[:, None] == directions).all(axis=2).argmax(axis=1)
    return DictionaryRows(source, dictionary.directions, dictionary.raw_norms)


@pytest.mark.parametrize("field", ["ridgelet", "zero"])
def test_dict_and_prune_match_the_feature_route(tmp_path, field):
    # gsn dict and gsn prune write rows without features; their files equal those
    # of the feature route: build_dictionary, then prune_dictionary by the field of its rows
    out = staged_dictionary(tmp_path)
    train_set = load_dataset_csv(out / "train.csv")
    directions = load_directions_csv(out / "directions.csv", 1)
    assert len(np.unique(directions, axis=0)) == len(directions)  # so each atom names one row
    full = build_dictionary(train_set, directions)
    assert 0 < full.n_atoms < len(directions)  # dead directions are left out
    save_dictionary_csv(feature_route_rows(full, directions), tmp_path / "reference.csv")
    assert (out / "dictionary.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    fld = load_field_csv(staged_field(out, field))
    threshold = bench.ExperimentConfig.prune_threshold
    with pytest.warns(RuntimeWarning, match="zero") if field == "zero" else contextlib.nullcontext():
        save_dictionary_csv(feature_route_rows(prune_dictionary(full, fld, threshold), directions),
                            tmp_path / "reference.csv")
        assert run_cli("prune", "--dict", str(out / "dictionary.csv"),
                       "--field", str(out / "field.csv"), "--out", str(out / "pruned.csv")) == 0
    assert (out / "pruned.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    n_kept = len(read_dictionary_csv(out / "pruned.csv").source_indices)
    assert n_kept == full.n_atoms if field == "zero" else 0 < n_kept < full.n_atoms


def forbid_feature_builds(monkeypatch):
    """Set the memory reader to 10,000 bytes and make every feature build raise."""
    def never(*args):
        raise AssertionError("no feature may be built")

    monkeypatch.setattr(cli, "available_memory_bytes", lambda: 10_000)
    for name in ("_atom_rows", "build_dictionary"):
        monkeypatch.setattr(cli.sampling, name, never)


def test_dict_builds_no_features(tmp_path, monkeypatch):
    # gsn dict holds no feature matrix, so it checks no memory
    out = tmp_path / "s"
    assert run_cli("sample", "ex1", "--seed", "0", "--out", str(out),
                   "--config", str(write_tiny_config(tmp_path))) == 0
    forbid_feature_builds(monkeypatch)
    assert run_cli("dict", "--train", str(out / "train.csv"),
                   "--directions", str(out / "directions.csv"),
                   "--out", str(out / "dictionary.csv")) == 0
    assert 0 < len(read_dictionary_csv(out / "dictionary.csv").source_indices) <= 150


def test_prune_builds_no_features(tmp_path, monkeypatch):
    # gsn prune filters dictionary rows, so it checks no memory
    out = staged_dictionary(tmp_path)
    staged_field(out, "ridgelet")
    forbid_feature_builds(monkeypatch)
    assert run_cli("prune", "--dict", str(out / "dictionary.csv"), "--field", str(out / "field.csv"),
                   "--out", str(out / "pruned.csv")) == 0
    assert 0 < len(read_dictionary_csv(out / "pruned.csv").source_indices) < 150


# per fault, (data row index, column index, value) written over the staged dictionary CSV
DICTIONARY_FAULTS = {
    "duplicate-source": (1, 0, None),  # row 1 takes row 0's source index
    "fractional-source": (0, 0, "2.5"),
    "zero-norm": (2, -1, "0.0"),
    "negative-norm": (2, -1, "-1.5"),
    "nan-norm": (2, -1, "nan"),
    "non-unit": (3, 1, "0.5"),
}


@pytest.mark.parametrize("fault", [*DICTIONARY_FAULTS, "empty"])
def test_prune_rejects_malformed_dictionary(tmp_path, capsys, fault):
    out = staged_dictionary(tmp_path)
    staged_field(out, "zero")
    header, *rows = [line.split(",") for line in (out / "dictionary.csv").read_text().splitlines()]
    if fault == "empty":
        rows = []
    else:
        k, col, value = DICTIONARY_FAULTS[fault]
        rows[k][col] = rows[0][0] if value is None else value
    bad = tmp_path / "bad_dictionary.csv"
    bad.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    assert run_cli("prune", "--dict", str(bad), "--field", str(out / "field.csv"),
                   "--out", str(out / "pruned.csv")) == 2
    assert f"malformed dictionary file {bad}" in capsys.readouterr().err
    assert not (out / "pruned.csv").exists()


@pytest.mark.parametrize("other", ["seed", "rows"])
def test_prune_rejects_field_of_other_directions(tmp_path, capsys, other):
    out = staged_dictionary(tmp_path)
    rows = tmp_path / "other.csv"
    if other == "seed":
        # the same training set with directions sampled from another seed
        assert run_cli("sample", "ex1", "--seed", "1", "--out", str(tmp_path / "s1"),
                       "--config", str(write_tiny_config(tmp_path))) == 0
        assert run_cli("dict", "--train", str(out / "train.csv"),
                       "--directions", str(tmp_path / "s1" / "directions.csv"), "--out", str(rows)) == 0
    else:  # the first ten rows of the dictionary
        lines = (out / "dictionary.csv").read_text().splitlines()
        rows.write_text("\n".join(lines[:11]) + "\n")
    assert run_cli("ridgelet", "--train", str(out / "train.csv"), "--dict", str(rows),
                   "--out", str(out / "field.csv")) == 0
    code = run_cli("prune", "--dict", str(out / "dictionary.csv"),
                   "--field", str(out / "field.csv"), "--out", str(out / "pruned.csv"))
    assert code == 2
    assert "field" in capsys.readouterr().err
    assert not (out / "pruned.csv").exists()


@pytest.mark.parametrize("flags", [["--nodes", "0"], ["--nodes", "-3"], ["--epochs", "-1"],
                                   ["--batch", "0"]], ids=" ".join)
@pytest.mark.parametrize("example", ["ex1", "ex6"])
def test_bench_count_flags_checked_before_any_work(tmp_path, capsys, monkeypatch, flags, example):
    def never(*args):
        raise AssertionError("no work may start on an invalid config")

    monkeypatch.setattr(bench, "run_experiment", never)
    monkeypatch.setattr(bench, "node_sweep", never)
    out = tmp_path / "out"
    assert run_cli("bench", example, *flags, "--out", str(out)) == 2
    assert "must be >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "sample"])
def test_bench_ex6_refuses_nodes_flag(tmp_path, capsys, monkeypatch, command):
    # gsn sample refuses too: the config.json it would write is one gsn bench refuses
    def never(*args):
        raise AssertionError("no work may start on an invalid config")

    monkeypatch.setattr(bench, "node_sweep", never)
    monkeypatch.setattr(bench, "make_datasets", never)
    out = tmp_path / "out"
    assert run_cli(command, "ex6", "--nodes", "5", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "node_counts" in err
    assert "\nusage: gsn " in err  # a fault of the command line
    assert not out.exists()


@pytest.mark.parametrize("nodes", ["0", "-2"])
def test_greedy_rejects_nonpositive_nodes(tmp_path, capsys, nodes):
    out = staged_dictionary(tmp_path)
    code = run_cli("greedy", "--train", str(out / "train.csv"), "--val", str(out / "val.csv"),
                   "--dict", str(out / "dictionary.csv"), "--nodes", nodes,
                   "--out", str(out / "path.csv"), "--nodes-out", str(out / "nodes.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "--nodes" in err
    assert "\nusage: gsn " in err  # a fault of the command line
    assert not (out / "path.csv").exists() and not (out / "nodes.json").exists()


@pytest.mark.parametrize("flag, value", [("--epochs", "-1"), ("--batch", "0"), ("--batch", "-4"),
                                         ("--seed", "-1")])
def test_train_rejects_bad_options(tmp_path, capsys, flag, value):
    out = staged_dictionary(tmp_path)
    network = tmp_path / "net.json"
    network.write_text(json.dumps({"input_dim": 1, "nodes": [{"a": [0.6], "b": 0.8, "c": 1.0}]}))
    code = run_cli("train", "--network", str(network), "--train", str(out / "train.csv"),
                   flag, value, "--out", str(out / "trained.json"))
    assert code == 2
    assert f"invalid {flag}: " in capsys.readouterr().err
    assert not (out / "trained.json").exists()


@pytest.mark.parametrize("column", ["input", "target"])
@pytest.mark.parametrize("stage", ["dict", "ridgelet", "greedy", "fit", "train"])
def test_non_finite_training_set_exits_2(tmp_path, capsys, stage, column):
    out = staged_dictionary(tmp_path)
    assert run_cli("greedy", "--train", str(out / "train.csv"), "--val", str(out / "val.csv"),
                   "--dict", str(out / "dictionary.csv"), "--out", str(out / "path.csv"),
                   "--nodes-out", str(out / "nodes.json")) == 0
    assert run_cli("fit", "--train", str(out / "train.csv"), "--nodes", str(out / "nodes.json"),
                   "--out", str(out / "network.json")) == 0
    lines = (out / "train.csv").read_text().splitlines()
    x, f = lines[4].split(",")
    lines[4] = f"nan,{f}" if column == "input" else f"{x},nan"
    bad = tmp_path / "bad_train.csv"
    bad.write_text("\n".join(lines) + "\n")
    argv = {
        "dict": ["dict", "--directions", str(out / "directions.csv")],
        "ridgelet": ["ridgelet", "--dict", str(out / "dictionary.csv")],
        "greedy": ["greedy", "--val", str(out / "val.csv"), "--dict", str(out / "dictionary.csv"),
                   "--nodes-out", str(tmp_path / "nodes.json")],
        "fit": ["fit", "--nodes", str(out / "nodes.json")],
        "train": ["train", "--network", str(out / "network.json"), "--epochs", "1"],
    }[stage]
    result = tmp_path / "result"
    assert run_cli(*argv, "--train", str(bad), "--out", str(result)) == 2
    err = capsys.readouterr().err.splitlines()[0]
    assert str(bad) in err and f"{column} of point 2 is not finite" in err
    assert not result.exists()
