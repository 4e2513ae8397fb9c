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


def default_threads() -> int:
    env = os.environ.get("GSN_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise CliError(f"GSN_THREADS must be an integer, got {env!r}") from exc
        if n < 1:
            raise CliError("GSN_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _require_file(path: str, role: str) -> str:
    if not os.path.isfile(path):
        raise CliError(f"missing {role} file: {path}")
    return path


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


def check_dictionary_fits(n_train: int, n_directions: int, copies: int = 1) -> None:
    """Refuse, before allocating them, feature matrices larger than free memory.

    ``copies`` is 2 where pruning copies the kept columns while the full
    dictionary is still alive.
    """
    need = copies * n_train * n_directions * 8
    avail = available_memory_bytes()
    if avail is not None and need > avail:
        held = " (with its pruned copy)" if copies == 2 else ""
        raise CliError(f"dictionary of {n_train} points x {n_directions} directions{held} needs "
                       f"{need / 2**30:.2f} GiB of features; only {avail / 2**30:.2f} GiB "
                       f"of memory is available")


def _load(loader, path: str, role: str, *args):
    """Run an artifact loader; a malformed file exits 2 with a message naming it."""
    try:
        return loader(_require_file(path, role), *args)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"malformed {role} file {path}: {exc}") from exc


def _count_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def _load_dictionary(path: str, train_set, copies: int = 1):
    """Dictionary CSV rebuilt on the training set, after checking its features fit in memory."""
    check_dictionary_fits(train_set.n_points, _load(_count_rows, path, "dictionary"), copies)
    return _load(sampling.load_dictionary_csv, path, "dictionary", train_set)


_CONFIG_FIELDS = {
    "target": str, "n_train": int, "n_val": int, "n_test": int,
    "dict_size": int, "prune": bool, "prune_threshold": float,
    "drop_tol": float, "max_iter": int, "n_nodes": int,
    "epochs": int, "gsn_batch": int, "random_batch": int,
    "initial_lr": float, "decay_rate": float,
    "n_restarts": int, "seed": int, "threads": int,
    "quad_r_max": float,
    "node_counts": list,
}


def load_config_file(path: str) -> dict:
    with open(_require_file(path, "config")) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("config file must hold a JSON object")
    for key, value in doc.items():
        if key not in _CONFIG_FIELDS:
            raise CliError(f"unknown config field {key!r}")
        want = _CONFIG_FIELDS[key]
        if isinstance(value, bool) and want is not bool:
            raise CliError(f"config field {key!r} must be {want.__name__}, not a boolean")
        if want is float and isinstance(value, int):
            continue
        if not isinstance(value, want):
            raise CliError(f"config field {key!r} must be {want.__name__}")
    counts = doc.get("node_counts")
    if counts is not None and not (counts and all(type(n) is int and n > 0 for n in counts)):
        raise CliError("config field 'node_counts' must be a non-empty list of positive integers")
    return doc


def build_experiment_config(args) -> bench.ExperimentConfig:
    doc = load_config_file(args.config) if args.config else {}
    target = args.example or doc.get("target")
    if target is None:
        raise CliError("an example id (ex1..ex6) or config 'target' is required")
    if target not in bench.EXAMPLE_IDS:
        raise CliError(f"unknown example id {target!r}; expected one of {', '.join(bench.EXAMPLE_IDS)}")

    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    cfg = bench.default_config(target, seed=seed)

    overrides = {}
    for key in ("n_train", "n_val", "n_test", "dict_size", "prune_threshold",
                "drop_tol", "max_iter", "n_nodes", "n_restarts", "quad_r_max"):
        if key in doc:
            overrides[key] = doc[key]
    if "prune" in doc:
        overrides["prune"] = doc["prune"]
    if args.no_prune:
        overrides["prune"] = False
    if args.nodes is not None:
        overrides["n_nodes"] = args.nodes

    if args.restarts is not None:
        overrides["n_restarts"] = args.restarts

    threads = args.threads if args.threads is not None else doc.get("threads", default_threads())
    try:
        return replace(cfg, gsn_train=_train_config(cfg.gsn_train, doc, args, "gsn_batch"),
                       random_train=_train_config(cfg.random_train, doc, args, "random_batch"),
                       threads=threads, **overrides)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc


def _train_config(base: train.TrainConfig, doc: dict, args, batch_key: str) -> train.TrainConfig:
    """One branch's training config: the example default, then the file, then the flags."""
    fields = {"epochs": args.epochs if args.epochs is not None else doc.get("epochs"),
              "batch_size": args.batch if args.batch is not None else doc.get(batch_key),
              "initial_lr": doc.get("initial_lr"), "decay_rate": doc.get("decay_rate")}
    return replace(base, **{k: v for k, v in fields.items() if v is not None})


def cmd_bench(args) -> int:
    cfg = build_experiment_config(args)
    check_dictionary_fits(cfg.n_train, cfg.dict_size, 2 if cfg.prune else 1)
    os.makedirs(args.out, exist_ok=True)
    if cfg.target_id == "ex6":
        doc = load_config_file(args.config) if args.config else {}
        counts = doc.get("node_counts", list(bench.EX6_SWEEP_DEFAULT))
        report = bench.node_sweep(cfg, counts)
        run_dir = bench.write_sweep_artifacts(report, args.out)
    else:
        report = bench.run_experiment(cfg)
        run_dir = bench.write_run_artifacts(report, args.out)
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
    print(f"wrote datasets and {len(directions)} directions to {args.out}")
    return EXIT_OK


def cmd_dict(args) -> int:
    train_set = _load(sampling.load_dataset_csv, args.train, "training set")
    directions = _load(sampling.load_directions_csv, args.directions, "directions", train_set.dim)
    check_dictionary_fits(train_set.n_points, len(directions))
    try:
        dictionary = sampling.build_dictionary(train_set, directions, args.drop_tol)
    except ValueError as exc:  # no direction, or none live on this training set
        raise CliError(f"no dictionary from directions file {args.directions}: {exc}") from exc
    sampling.save_dictionary_csv(dictionary, args.out)
    print(f"kept {dictionary.n_atoms} of {len(directions)} atoms -> {args.out}")
    return EXIT_OK


def cmd_ridgelet(args) -> int:
    try:
        quad = ridgelet.RadialQuadrature(args.r_max)
    except ValueError as exc:
        raise CliError(f"invalid --r-max: {exc}") from exc
    train_set = _load(sampling.load_dataset_csv, args.train, "training set")
    directions = _load(sampling.load_directions_csv, args.directions, "directions", train_set.dim)
    if len(directions) == 0:
        raise CliError(f"directions file {args.directions} holds no direction")
    fld = ridgelet.collapsed_field(train_set, directions, quad, threads=args.threads or default_threads())
    ridgelet.save_field_csv(fld, args.out)
    print(f"wrote collapsed transform for {len(directions)} directions -> {args.out}")
    return EXIT_OK


def cmd_prune(args) -> int:
    if not 0.0 <= args.threshold < 1.0:
        raise CliError("invalid threshold, must lie in [0, 1)")
    train_set = _load(sampling.load_dataset_csv, args.train, "training set")
    fld = _load(ridgelet.load_field_csv, args.field, "field")
    dictionary = _load_dictionary(args.dict, train_set, copies=2)
    src = dictionary.source_indices
    if src.min() < 0 or src.max() >= len(fld.values):
        raise CliError(f"field {args.field} has {len(fld.values)} rows; the dictionary refers "
                       f"to source rows {src.min()}..{src.max()}")
    if not np.array_equal(fld.directions[src], dictionary.directions):
        raise CliError(f"field {args.field} was computed on other directions than "
                       f"dictionary {args.dict}")
    sub = ridgelet.CollapsedField(dictionary.directions, fld.values[src])
    pruned = ridgelet.prune_dictionary(dictionary, sub, args.threshold)
    sampling.save_dictionary_csv(pruned, args.out)
    print(f"kept {pruned.n_atoms} of {dictionary.n_atoms} atoms -> {args.out}")
    return EXIT_OK


def cmd_greedy(args) -> int:
    if args.nodes is not None and args.nodes < 1:
        raise CliError("--nodes must be >= 1")
    train_set = _load(sampling.load_dataset_csv, args.train, "training set")
    val_set = _load(sampling.load_dataset_csv, args.val, "validation set")
    dictionary = _load_dictionary(args.dict, train_set)
    path = greedy.oga_run(dictionary, train_set, val_set, args.max_iter)
    if not path.records:
        raise CliError("greedy selected nothing; increase --max-iter")
    greedy.save_path_csv(path, args.out)
    n = args.nodes if args.nodes is not None else greedy.select_model(path)
    n = min(n, len(path.records))
    chosen = path.atom_indices[:n]
    doc = {
        "input_dim": train_set.dim,
        "selected_nodes": n,
        "directions": [{"a": row[:-1], "b": row[-1]}
                       for row in dictionary.directions[chosen].tolist()],
        "atom_indices": chosen,
        "source_indices": dictionary.source_indices[chosen].tolist(),
    }
    with open(args.nodes_out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    val_set = _load(sampling.load_dataset_csv, args.val, "validation set") if args.val else None
    net0 = _load(load_network, args.network, "network")
    if net0.input_dim != train_set.dim:
        raise CliError(f"network {args.network} has input dimension {net0.input_dim}; "
                       f"the training set has {train_set.dim}")
    try:
        cfg = train.TrainConfig(
            epochs=args.epochs,
            batch_size=train_set.n_points if args.batch is None else args.batch,
            seed=sampling.substream_seed(args.seed or 0, "shuffle"))
    except ValueError as exc:
        raise CliError(f"invalid training option: {exc}") from exc
    net, curve = train.train(net0, train_set, val_set, cfg)
    save_network(net, args.out)
    if args.loss_out:
        train.save_loss_csv(curve, args.loss_out)
    print(f"trained {net.n_nodes}-node network for {args.epochs} epochs -> {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    manifest_path = args.run
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, "manifest.json")
    doc = bench.load_manifest(_require_file(manifest_path, "manifest"))
    results = doc.get("results", {})
    print(f"target: {doc.get('config', {}).get('target_id')}")
    print(f"dictionary: {results.get('dictionary_size_before_prune')} -> "
          f"{results.get('dictionary_size_after_prune')} atoms")
    if "errors" in results:
        print(f"selected nodes: {results.get('selected_nodes')}")
        for name, err in results["errors"].items():
            print(f"  {name:16s} rel_l2={err['rel_l2']:.4e} rmse={err['rmse']:.4e}")
    for row in results.get("sweep", []):
        if row.get("available"):
            print(f"  N={row['n_nodes']:4d} gsn_init={row['gsn_init']['rel_l2']:.4e} "
                  f"gsn_trained={row['gsn_trained']['rel_l2']:.4e} "
                  f"random={row['random_trained']['rel_l2']:.4e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsn",
        description="Greedy shallow ReLU network construction and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_out=True):
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: GSN_THREADS or CPU count)")
        if with_out:
            p.add_argument("--out", default="runs", help="output directory")

    p = sub.add_parser("bench", help="run a full benchmark (pipeline + baseline)")
    p.add_argument("example", nargs="?", default=None, help="example id ex1..ex6")
    p.add_argument("--no-prune", action="store_true", help="skip dictionary pruning")
    p.add_argument("--nodes", type=int, default=None, help="fix the node count")
    p.add_argument("--epochs", type=int, default=None, help="override training epochs")
    p.add_argument("--batch", type=int, default=None, help="override both batch sizes")
    p.add_argument("--restarts", type=int, default=None, help="random-init restarts")
    common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sample", help="write train/val/test datasets and directions")
    p.add_argument("example", nargs="?", default=None, help="example id ex1..ex6")
    p.add_argument("--no-prune", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--nodes", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--epochs", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--batch", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--restarts", type=int, default=None, help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("dict", help="build the atom dictionary from artifacts")
    p.add_argument("--train", required=True)
    p.add_argument("--directions", required=True)
    p.add_argument("--drop-tol", type=float, default=bench.ExperimentConfig.drop_tol)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_dict)

    p = sub.add_parser("ridgelet", help="collapsed transform over sampled directions")
    p.add_argument("--train", required=True)
    p.add_argument("--directions", required=True)
    p.add_argument("--r-max", type=float, default=bench.ExperimentConfig.quad_r_max)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ridgelet)

    p = sub.add_parser("prune", help="threshold the dictionary by field magnitude")
    p.add_argument("--train", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--threshold", type=float, default=bench.ExperimentConfig.prune_threshold)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("greedy", help="orthogonal greedy selection over a dictionary")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--nodes", type=int, default=None, help="fix the node count")
    p.add_argument("--out", required=True, help="path CSV")
    p.add_argument("--nodes-out", required=True, help="selected nodes JSON")
    p.set_defaults(fn=cmd_greedy)

    p = sub.add_parser("fit", help="least-squares outer weights for selected nodes")
    p.add_argument("--train", required=True)
    p.add_argument("--nodes", required=True, help="nodes JSON from the greedy stage")
    p.add_argument("--out", required=True, help="network JSON")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("train", help="fine-tune a network with Adam")
    p.add_argument("--network", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--val", default=None)
    p.add_argument("--epochs", type=int, default=10_000)
    p.add_argument("--batch", type=int, default=None, help="batch size (default full batch)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-out", default=None)
    p.set_defaults(fn=cmd_train)

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
