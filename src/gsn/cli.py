"""Command-line driver: full benchmarks plus resumable pipeline stages.

Every stage reads and writes documented CSV/JSON artifacts so a pipeline
can be inspected or resumed mid-way; all randomness flows from --seed.
Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import bench, greedy, ridgelet, sampling, solve, train
from .core import GsnError, directions_from_json, load_network, save_network
from .bench import PipelineError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    """Bad arguments, missing inputs, or malformed artifacts."""


class UsageError(CliError):
    """A fault in the command line itself; only this kind is followed by the usage line."""


def available_memory_bytes() -> int | None:
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def check_dictionary_fits(n_train: int, n_directions: int) -> None:
    """Refuse, before allocating it, a feature matrix larger than free memory."""
    need = n_train * n_directions * 8
    avail = available_memory_bytes()
    if avail is not None and need > avail:
        raise CliError(f"dictionary of {n_train} points x {n_directions} directions needs "
                       f"{need / 2**30:.2f} GiB of features; only {avail / 2**30:.2f} GiB "
                       f"of memory is available")


def _load(loader, path: str, role: str, *args):
    """Run an artifact loader; a missing or malformed file exits 2 with a message naming it."""
    if not os.path.isfile(path):
        raise CliError(f"missing {role} file: {path}")
    try:
        return loader(path, *args)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"malformed {role} file {path}: {exc}") from exc


def load_experiment_config(path: str | None, target_id: str | None = None,
                           seed: int | None = None) -> bench.ExperimentConfig:
    """The config file laid over the example defaults. The file holds a full or partial
    manifest 'config' object, or a whole manifest, whose 'config' object is read."""
    if not (path or target_id):
        raise UsageError(f"give an example id ({', '.join(bench.EXAMPLE_IDS)}) or a --config file")
    doc = _load(bench.load_manifest, path, "config") if path else {}
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    if "config" in doc and set(doc) <= {"meta", "config", "results"}:
        doc = doc["config"]
    try:
        return bench.config_from_dict(doc, target_id, seed)
    except ValueError as exc:  # a fault of the command line's example id or seed, else of the file
        if (seed or 0) < 0:
            raise UsageError(f"invalid --seed: {exc}") from exc
        raise (CliError if target_id in (None, *bench.EXAMPLE_IDS) else UsageError)(str(exc)) from exc


def _with_flags(obj, args, flags: dict):
    """``obj`` with the fields of the flags given replaced, checked by its own
    __post_init__; ``flags`` maps each field to its flag, whose dest it is."""
    given = {field: getattr(args, field) for field in flags if getattr(args, field) is not None}
    try:
        return replace(obj, **given)
    except ValueError as exc:
        raise UsageError(f"invalid {' '.join(flags[field] for field in given)}: {exc}") from exc


def build_experiment_config(args) -> bench.ExperimentConfig:
    """The config of `gsn bench`/`gsn sample`: file, then flags."""
    cfg = load_experiment_config(args.config, args.example, args.seed)
    train_flags = {"epochs": "--epochs", "batch_size": "--batch"}
    cfg = replace(cfg, gsn_train=_with_flags(cfg.gsn_train, args, train_flags),
                  random_train=_with_flags(cfg.random_train, args, train_flags))
    return _with_flags(cfg, args, {"n_nodes": "--nodes", "n_restarts": "--restarts", "prune": "--no-prune"})


def _stage_config(args) -> bench.ExperimentConfig:
    """A stage's config: its --config file, else the first example's defaults."""
    return load_experiment_config(args.config) if args.config else bench.default_config(bench.EXAMPLE_IDS[0])


def cmd_bench(args) -> int:
    cfg = build_experiment_config(args)
    check_dictionary_fits(cfg.n_train, cfg.dict_size)
    os.makedirs(args.out, exist_ok=True)
    if cfg.node_counts is not None:
        run_dir = bench.write_sweep_artifacts(bench.node_sweep(cfg), args.out)
    else:
        run_dir = bench.write_run_artifacts(bench.run_experiment(cfg), args.out)
    print(f"wrote {run_dir}/manifest.json")
    return EXIT_OK


def cmd_sample(args) -> int:
    cfg = build_experiment_config(args)
    os.makedirs(args.out, exist_ok=True)
    train_set, val_set, test_set = bench.make_datasets(cfg)
    directions = bench.make_directions(cfg)
    sampling.save_dataset_csv(train_set, os.path.join(args.out, "train.csv"))
    sampling.save_dataset_csv(val_set, os.path.join(args.out, "val.csv"))
    sampling.save_dataset_csv(test_set, os.path.join(args.out, "test.csv"))
    sampling.save_directions_csv(directions, os.path.join(args.out, "directions.csv"))
    bench.write_json(cfg.to_dict(), os.path.join(args.out, "config.json"))
    print(f"wrote config.json, datasets and {len(directions)} directions to {args.out}")
    return EXIT_OK


def cmd_dict(args) -> int:
    cfg = _with_flags(_stage_config(args), args, args.flags)
    train_set = _load(sampling.load_dataset_csv, args.train, "training set")
    directions = _load(sampling.load_directions_csv, args.directions, "directions", train_set.dim)
    try:
        rows = sampling.live_rows(train_set, directions, cfg.drop_tol)
    except ValueError as exc:  # no direction live on this training set
        raise CliError(f"no dictionary from directions file {args.directions}: {exc}") from exc
    sampling.save_dictionary_csv(rows, args.out)
    print(f"kept {len(rows.directions)} of {len(directions)} atoms -> {args.out}")
    return EXIT_OK


def cmd_ridgelet(args) -> int:
    cfg = _with_flags(_stage_config(args), args, args.flags)
    train_set = _load(sampling.load_dataset_csv, args.train, "training set")
    rows = _load(sampling.read_dictionary_csv, args.dict, "dictionary", train_set.dim)
    fld = ridgelet.collapsed_field(train_set, rows.directions, cfg.quadrature, threads=cfg.threads)
    ridgelet.save_field_csv(fld, args.out)
    print(f"wrote collapsed transform for {len(rows.directions)} atoms -> {args.out}")
    return EXIT_OK


def cmd_prune(args) -> int:
    cfg = _with_flags(_stage_config(args), args, args.flags)
    fld = _load(ridgelet.load_field_csv, args.field, "field")
    rows = _load(sampling.read_dictionary_csv, args.dict, "dictionary")
    if not np.array_equal(fld.directions, rows.directions):
        raise CliError(f"field {args.field} was computed on other directions than "
                       f"dictionary {args.dict}")
    keep = ridgelet.keep_rows(fld.values, cfg.prune_threshold)
    sampling.save_dictionary_csv(sampling.DictionaryRows(*(col[keep] for col in rows)), args.out)
    print(f"kept {keep.size} of {len(rows.directions)} atoms -> {args.out}")
    return EXIT_OK


def cmd_greedy(args) -> int:
    cfg = _with_flags(_stage_config(args), args, args.flags)
    train_set = _load(sampling.load_dataset_csv, args.train, "training set")
    val_set = _load(sampling.load_dataset_csv, args.val, "validation set")
    rows = _load(sampling.read_dictionary_csv, args.dict, "dictionary", train_set.dim)
    check_dictionary_fits(train_set.n_points, len(rows.directions))
    try:  # an atom dead on this training set is a fault of the file
        dictionary = sampling.build_dictionary(train_set, rows.directions, 0.0)
        if dictionary.n_atoms != len(rows.directions):
            raise ValueError("atoms dead on this training set")
    except ValueError as exc:
        raise CliError(f"malformed dictionary file {args.dict}: {exc}") from exc
    path = greedy.oga_run(dictionary, train_set, val_set, cfg.max_iter)
    if not path.records:
        raise PipelineError("greedy", greedy.EmptyPathError(path))
    greedy.save_path_csv(path, args.out)
    n = greedy.select_model(path, cfg.n_nodes)
    chosen = path.atom_indices[:n]
    doc = {
        "input_dim": train_set.dim,
        "selected_nodes": n,
        "directions": [{"a": row[:-1], "b": row[-1]} for row in rows.directions[chosen].tolist()],
        "atom_indices": chosen,
        "source_indices": rows.source_indices[chosen].tolist(),
    }
    bench.write_json(doc, args.nodes_out)
    print(f"selected {n} nodes -> {args.nodes_out}; path -> {args.out}")
    return EXIT_OK


def _read_nodes(path: str, dim: int) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("input_dim", "directions"):
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
    return directions_from_json(doc["directions"], dim)


def cmd_fit(args) -> int:
    train_set = _load(sampling.load_dataset_csv, args.train, "training set")
    directions = _load(_read_nodes, args.nodes, "nodes", train_set.dim)
    net, _ = solve.refit_network(train_set, directions)
    save_network(net, args.out)
    print(f"fitted {net.n_nodes}-node network -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    train_set = _load(sampling.load_dataset_csv, args.train, "training set")
    net0 = _load(load_network, args.network, "network")
    if net0.input_dim != train_set.dim:
        raise CliError(f"network {args.network} has input dimension {net0.input_dim}; "
                       f"the training set has {train_set.dim}")
    cfg = _stage_config(args).gsn_train
    if not args.config:  # full batch
        cfg = replace(cfg, batch_size=train_set.n_points)
    cfg = _with_flags(cfg, args, args.flags)
    if args.seed is not None:
        try:
            cfg = replace(cfg, seed=sampling.substream_seed(args.seed, "shuffle"))
        except ValueError as exc:
            raise UsageError(f"invalid --seed: {exc}") from exc
    net, curve = train.train(net0, train_set, cfg)
    save_network(net, args.out)
    if args.loss_out:
        train.save_loss_csv(curve, args.loss_out)
    print(f"trained {net.n_nodes}-node network for {cfg.epochs} epochs -> {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    manifest_path = os.path.join(args.run, "manifest.json") if os.path.isdir(args.run) else args.run
    print("\n".join(_load(_report_lines, manifest_path, "manifest")))
    return EXIT_OK


def _report_lines(path) -> list[str]:
    """The report of a manifest, every line formatted before any is printed, so a
    malformed entry fails (KeyError, TypeError or ValueError) before the first line."""
    doc = bench.load_manifest(path)
    try:
        results = doc.get("results", {})
        lines = [f"target: {doc.get('config', {}).get('target_id')}",
                 f"dictionary: {results.get('dictionary_size_before_prune')} -> "
                 f"{results.get('dictionary_size_after_prune')} atoms"]
        if "errors" in results:
            lines.append(f"selected nodes: {results.get('selected_nodes')}")
            for name, err in results["errors"].items():
                lines.append(f"  {name:16s} rel_l2={_number(err['rel_l2'])} rmse={_number(err['rmse'])}")
        for row in results.get("random_restarts", []):
            lines.append(f"  restart {row['restart']}: val_rmse={_number(row.get('val_rmse'))} "
                         f"test_rmse={_number(row['test_rmse'])} "
                         f"final_train_loss={_number(row['final_train_loss'])}")
        for row in results.get("sweep", []):
            if row.get("available"):
                lines.append(f"  N={row['n_nodes']:4d} gsn_init={_number(row['gsn_init']['rel_l2'])} "
                             f"gsn_trained={_number(row['gsn_trained']['rel_l2'])} "
                             f"random={_number(row['random_trained']['rel_l2'])}")
    except AttributeError as exc:  # .get or .items on a value that is not a JSON object
        raise ValueError(f"expected a JSON object: {exc}") from exc
    return lines


def _number(value) -> str:
    """A manifest number as the report prints it; null, a non-finite value, is undefined."""
    return "undefined" if value is None else f"{value:.4e}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsn",
        description="Greedy shallow ReLU network construction and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = "JSON config: a full or partial manifest 'config' object, or a whole manifest"
    for name, fn, text in (("bench", cmd_bench, "run a full benchmark (pipeline + baseline)"),
                           ("sample", cmd_sample, "write config.json, datasets and directions")):
        p = sub.add_parser(name, help=text)
        p.add_argument("example", nargs="?", default=None, help="example id ex1..ex6")
        p.add_argument("--no-prune", dest="prune", action="store_false", default=None,
                       help="skip dictionary pruning")
        p.add_argument("--nodes", dest="n_nodes", type=int, default=None, help="fix the node count")
        p.add_argument("--epochs", type=int, default=None, help="override training epochs")
        p.add_argument("--batch", dest="batch_size", type=int, default=None,
                       help="override both batch sizes")
        p.add_argument("--restarts", dest="n_restarts", type=int, default=None,
                       help="random-init restarts")
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        p.add_argument("--config", default=None, help=config_help)
        p.add_argument("--out", default="runs", help="output directory")
        p.set_defaults(fn=fn)

    def stage(name, fn, text, inputs, fields, prefix=""):
        """A stage parser: --config, then one flag per config field it reads (dest = field
        name, unset takes the config's value); ``args.flags`` maps each field to its flag."""
        p = sub.add_parser(name, help=text)
        for flag in inputs:
            p.add_argument(flag, required=True)
        p.add_argument("--config", default=None, help=config_help + " (config.json of gsn sample)")
        for flag, field, kind in fields:
            p.add_argument(flag, dest=field, type=kind, default=None,
                           help=f"default: the config's {prefix}{field}")
        p.add_argument("--out", required=True)
        p.set_defaults(fn=fn, flags={field: flag for flag, field, _ in fields})
        return p

    stage("dict", cmd_dict, "build the atom dictionary from artifacts",
          ["--train", "--directions"], [("--drop-tol", "drop_tol", float)])
    stage("ridgelet", cmd_ridgelet, "collapsed transform over the dictionary rows",
          ["--train", "--dict"], [("--r-max", "quad_r_max", float)])
    stage("prune", cmd_prune, "threshold the dictionary rows by field magnitude",
          ["--dict", "--field"], [("--threshold", "prune_threshold", float)])
    p = stage("greedy", cmd_greedy, "orthogonal greedy selection over a dictionary",
              ["--train", "--val", "--dict"],
              [("--max-iter", "max_iter", int), ("--nodes", "n_nodes", int)])
    p.add_argument("--nodes-out", required=True, help="selected nodes JSON")

    p = sub.add_parser("fit", help="least-squares outer weights for selected nodes")
    p.add_argument("--train", required=True)
    p.add_argument("--nodes", required=True, help="nodes JSON from the greedy stage")
    p.add_argument("--out", required=True, help="network JSON")
    p.set_defaults(fn=cmd_fit)

    p = stage("train", cmd_train, "fine-tune a network with Adam", ["--network", "--train"],
              [("--epochs", "epochs", int), ("--batch", "batch_size", int)], "gsn_train.")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed of the shuffle seed (default: the config's gsn_train.seed)")
    p.add_argument("--loss-out", default=None)

    p = sub.add_parser("report", help="summarize a run directory's manifest")
    p.add_argument("run", help="run directory or manifest path")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    except (KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineError as exc:
        print(f"numerical failure in stage {exc.stage!r}: {exc.cause}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GsnError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
