"""Benchmark targets, experiment orchestration, metrics, and manifests.

Six closed-form targets (ex1..ex6) with per-target default budgets; a full
pipeline run produces a JSON manifest plus CSV curves in a directory named
by the config hash, and re-running the same config reproduces every number
from the embedded seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import typing
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import greedy, ridgelet, sampling, solve, train
from .core import Dataset, GsnError, ShallowNetwork, batch_eval, save_network, write_csv_table
from .ridgelet import RadialQuadrature
from .train import TrainConfig


class PipelineError(GsnError):
    """Numerical failure inside a pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class TargetFunction:
    id: str
    dimension: int
    domain_bounds: tuple
    expression: str
    _fn: callable = field(repr=False, compare=False)

    def evaluate(self, inputs) -> np.ndarray:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        out = np.asarray(self._fn(inputs), dtype=np.float64).ravel()
        if not np.all(np.isfinite(out)):
            raise ValueError(f"target {self.id} produced non-finite values")
        return out


def _ex1(X):
    x = X[:, 0]
    return np.cos(2.0 * np.pi * x) * np.exp(x)


def _ex2(X):
    x = X[:, 0]
    return np.sin(2.0 * np.pi * x) * np.exp(-x * x) + np.cos(17.0 * x) * np.exp(x)


def _ex3(X):
    x, y = X[:, 0], X[:, 1]
    return np.sin(np.pi * x) * np.cos(np.pi * y) * np.exp(-(x * x + y * y))


def _ex4(X):
    x, y = X[:, 0], X[:, 1]
    return np.cos(5.0 * (x + y)) * np.sin(3.0 * (x - y)) * np.exp(-(x * x + y * y))


def _ex5(X):
    return np.sin(2.0 * np.pi * X.sum(axis=1))


def _ex6(X):
    return np.cos((X * X).sum(axis=1)) / np.exp(X.sum(axis=1))


def target_registry() -> list[TargetFunction]:
    box11 = (-1.0, 1.0)
    return [
        TargetFunction("ex1", 1, (box11,), "cos(2*pi*x) * exp(x)", _ex1),
        TargetFunction("ex2", 1, (box11,), "sin(2*pi*x)*exp(-x^2) + cos(17x)*exp(x)", _ex2),
        TargetFunction("ex3", 2, (box11, box11), "sin(pi*x)*cos(pi*y)*exp(-(x^2+y^2))", _ex3),
        TargetFunction("ex4", 2, (box11, box11), "cos(5(x+y))*sin(3(x-y))*exp(-(x^2+y^2))", _ex4),
        TargetFunction("ex5", 4, (box11,) * 4, "sin(2*pi*(x1+x2+x3+x4))", _ex5),
        TargetFunction("ex6", 5, ((0.0, 1.0),) * 5, "cos(sum(x_i^2)) / exp(sum(x_i))", _ex6),
    ]


def get_target(target_id: str) -> TargetFunction:
    for t in target_registry():
        if t.id == target_id:
            return t
    raise KeyError(f"unknown target id {target_id!r}")


@dataclass(frozen=True)
class ErrorSummary:
    abs_l2: float
    rmse: float
    rel_l2: float
    rel_l2_defined: bool = True

    def as_dict(self) -> dict:
        return {"abs_l2": self.abs_l2, "rmse": self.rmse,
                "rel_l2": self.rel_l2, "rel_l2_defined": self.rel_l2_defined}


def compute_errors(net: ShallowNetwork, test_set: Dataset) -> ErrorSummary:
    """Absolute l2, RMSE, and relative l2 error of a network on a test set."""
    diff = batch_eval(net, test_set.inputs) - test_set.targets
    abs_l2 = float(np.linalg.norm(diff))
    rmse = abs_l2 / math.sqrt(test_set.n_points)
    tnorm = float(np.linalg.norm(test_set.targets))
    if tnorm > 0.0:
        return ErrorSummary(abs_l2, rmse, abs_l2 / tnorm, True)
    return ErrorSummary(abs_l2, rmse, float("inf") if abs_l2 else 0.0, False)


def _usable_cpus() -> int:
    """The CPUs this process may run on, which taskset and cgroup cpusets limit, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # AttributeError: no sched_getaffinity off Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentConfig:
    target_id: str
    n_train: int
    n_val: int
    n_test: int
    dict_size: int
    prune: bool = True
    prune_threshold: float = 1e-3
    drop_tol: float = 1e-12
    max_iter: int = 50
    n_nodes: int | None = None      # overrides validation-based selection when set
    node_counts: tuple | None = None  # the sizes of a node-count sweep (ex6)
    gsn_train: TrainConfig = field(default_factory=TrainConfig)
    random_train: TrainConfig = field(default_factory=TrainConfig)
    n_restarts: int = 10
    seed: int = 0
    quad_r_max: float = 40.0
    threads: int = field(default_factory=_usable_cpus)  # worker threads: in meta, not in to_dict()
    notes: tuple = ()

    def __post_init__(self):
        if min(self.n_train, self.n_val, self.n_test, self.dict_size) < 1:
            raise ValueError("point counts and dictionary size must be positive")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.n_nodes is not None and self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.node_counts is not None:
            object.__setattr__(self, "node_counts", tuple(self.node_counts))
            if not (self.node_counts and all(type(n) is int and n > 0 for n in self.node_counts)):
                raise ValueError("node_counts must be a non-empty list of positive integers")
            if self.n_nodes is not None:
                raise ValueError("n_nodes fixes one node count; a sweep sets its sizes with node_counts")
        if not 0.0 <= self.prune_threshold < 1.0:
            raise ValueError("prune_threshold must lie in [0, 1)")
        if not 0.0 <= self.drop_tol < math.inf:
            raise ValueError("drop_tol must be finite and >= 0")
        if not 0.0 < self.quad_r_max < math.inf:
            raise ValueError("quad_r_max must be finite and positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def quadrature(self) -> RadialQuadrature:
        return RadialQuadrature(self.quad_r_max)

    def to_dict(self) -> dict:
        """The config document of a manifest or config.json, whose hash names the run
        directory: every field but ``threads``, a runtime setting that changes no value."""
        return {k: list(v) if type(v) is tuple else v
                for k, v in asdict(self).items() if k != "threads"}


# Per-target default budgets: (n_train, n_val, n_test, gsn_batch, random_batch,
# max_iter, n_restarts, prune). Dictionary size defaults to 10000 * d.
_DEFAULTS = {
    "ex1": (50, 15, 1_000, 50, 1, 50, 10, True),
    "ex2": (100, 20, 1_000, 100, 1, 60, 10, True),
    "ex3": (256, 50, 10_000, 256, 3, 80, 10, True),
    "ex4": (1_024, 200, 10_000, 1_024, 11, 120, 10, True),
    "ex5": (4_000, 400, 10_000, 4_000, 11, 150, 10, False),
    "ex6": (10_000, 1_000, 10_000, 100, 100, 160, 5, False),
}

EX6_SWEEP_DEFAULT = (10, 20, 40, 80, 160)

EXAMPLE_IDS = tuple(_DEFAULTS)


def default_config(target_id: str, seed: int = 0, **overrides) -> ExperimentConfig:
    """Canonical per-target configuration, overridable field by field."""
    if target_id not in _DEFAULTS:
        raise KeyError(f"unknown target id {target_id!r}")
    n_train, n_val, n_test, gsn_batch, rnd_batch, max_iter, n_restarts, prune = _DEFAULTS[target_id]
    shuffle_seed = sampling.substream_seed(seed, "shuffle")
    notes = ()
    if target_id == "ex5":
        notes = ("batch sizes are an unstated-default guess: full-batch for the "
                 "greedy-initialized branch, 11 for the random branch",)
    kwargs = dict(
        target_id=target_id,
        n_train=n_train,
        n_val=n_val,
        n_test=n_test,
        dict_size=10_000 * get_target(target_id).dimension,
        prune=prune,
        max_iter=max_iter,
        gsn_train=TrainConfig(epochs=10_000, batch_size=gsn_batch, seed=shuffle_seed),
        random_train=TrainConfig(epochs=10_000, batch_size=rnd_batch, seed=shuffle_seed),
        n_restarts=n_restarts,
        seed=seed,
        node_counts=EX6_SWEEP_DEFAULT if target_id == "ex6" else None,
        notes=notes,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _grid_compatible(n_points: int, dimension: int) -> bool:
    if dimension > 2:
        return False
    per_axis = round(n_points ** (1.0 / dimension))
    return per_axis**dimension == n_points


def make_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Train/validation/test splits on their dedicated seed sub-streams.

    Training points are gridded for d <= 2 (coverage gaps in small random
    samples wreck the least-squares fit between points); validation points
    are always random draws so model selection sees held-out locations.
    """
    target = get_target(cfg.target_id)
    train_layout = "grid" if _grid_compatible(cfg.n_train, target.dimension) else "random-uniform"
    train_set = sampling.generate_dataset(target, cfg.n_train, cfg.seed,
                                          train_layout, purpose="train")
    val_set = sampling.generate_dataset(target, cfg.n_val, cfg.seed,
                                        "random-uniform", purpose="validation")
    n_test = cfg.n_test
    test_layout = "random-uniform"
    if _grid_compatible(cfg.n_test, target.dimension) or target.dimension <= 2:
        per_axis = round(cfg.n_test ** (1.0 / target.dimension))
        n_test = per_axis**target.dimension
        test_layout = "grid"
    test_set = sampling.generate_dataset(target, n_test, cfg.seed, test_layout, purpose="test")
    return train_set, val_set, test_set


def make_directions(cfg: ExperimentConfig) -> np.ndarray:
    return sampling.sample_directions(get_target(cfg.target_id).dimension, cfg.dict_size, cfg.seed)


@dataclass
class Construction:
    """The greedy pipeline's output for one config, which every node count shares."""

    train_set: Dataset
    val_set: Dataset
    test_set: Dataset
    dictionary_size_before: int
    dictionary_size_after: int
    prune_degenerate: bool
    path: greedy.GreedyPath
    path_directions: np.ndarray     # (len(path), d+1): row per path record, selection order
    field: ridgelet.CollapsedField | None
    timings: dict                   # seconds per stage, summed over repeats


def _staged(stage: str, fn, timings: dict):
    t0 = time.perf_counter()
    try:
        out = fn()
    except (GsnError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        raise PipelineError(stage, exc) from exc
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0
    return out


def run_gsn_pipeline(cfg: ExperimentConfig) -> Construction:
    """Sampling -> dictionary -> optional pruning -> greedy."""
    timings: dict = {}
    train_set, val_set, test_set = _staged(
        "sample", lambda: make_datasets(cfg), timings)
    directions = _staged("directions", lambda: make_directions(cfg), timings)
    fld, degenerate = None, False
    if cfg.prune:
        # the field needs only the live rows, so the atoms it drops are never built
        rows = _staged("scan", lambda: sampling.live_rows(train_set, directions, cfg.drop_tol), timings)
        fld = _staged("ridgelet", lambda: ridgelet.collapsed_field(
            train_set, rows.directions, cfg.quadrature, threads=cfg.threads), timings)
        degenerate = bool(np.all(fld.values == 0.0))
        keep = _staged("prune", lambda: ridgelet.keep_rows(fld.values, cfg.prune_threshold), timings)
        directions = rows.directions[keep]
    dictionary = _staged(
        "dict", lambda: sampling.build_dictionary(train_set, directions, cfg.drop_tol), timings)
    size_before = len(rows.directions) if cfg.prune else dictionary.n_atoms
    size_after = dictionary.n_atoms

    path = _staged(
        "greedy", lambda: greedy.oga_run(dictionary, train_set, val_set, cfg.max_iter),
        timings)
    path_dirs = dictionary.directions[path.atom_indices]
    del dictionary  # the rest needs only the path directions: free the features
    if not path.records:
        raise PipelineError("greedy", greedy.EmptyPathError(path))
    return Construction(
        train_set=train_set, val_set=val_set, test_set=test_set,
        dictionary_size_before=size_before, dictionary_size_after=size_after,
        prune_degenerate=degenerate, path=path, path_directions=path_dirs,
        field=fld, timings=timings,
    )


@dataclass
class SizeRun:
    """Both branches at one node count: the greedy-initialised network, fitted and
    then trained, and the random-init restart of lowest validation RMSE, with
    the manifest row of each restart."""

    n_nodes: int
    init_net: ShallowNetwork
    trained_net: ShallowNetwork
    loss_curve: np.ndarray
    random_net: ShallowNetwork
    random_restarts: list
    random_loss_curve: np.ndarray
    gsn_init: ErrorSummary
    gsn_trained: ErrorSummary
    random_trained: ErrorSummary

    def errors(self) -> dict:
        return {"gsn_init": self.gsn_init.as_dict(), "gsn_trained": self.gsn_trained.as_dict(),
                "random_trained": self.random_trained.as_dict()}


def run_size(cfg: ExperimentConfig, base: Construction, n: int) -> SizeRun:
    """Fit the outer weights of the first ``n`` path directions, train them, and train
    the random-init baseline at ``n`` nodes; the stage times add to ``base.timings``."""
    t = base.timings
    init_net, _ = _staged(
        "fit", lambda: solve.refit_network(base.train_set, base.path_directions[:n]), t)
    trained_net, curve = _staged(
        "train", lambda: train.train(init_net, base.train_set, cfg.gsn_train), t)
    init_seed = sampling.substream_seed(cfg.seed, "init")
    nets, curves = _staged("baseline", lambda: train.multi_restart(
        n, base.train_set, cfg.random_train, init_seed, cfg.n_restarts), t)
    # the restart of lowest validation RMSE, as greedy selects its node count; test errors after
    val = [compute_errors(net, base.val_set).rmse for net in nets]
    best = int(np.argmin(val))
    test = [compute_errors(net, base.test_set) for net in nets]
    restarts = [{"restart": r, "init_seed": init_seed + r, "val_rmse": val[r], "test_rmse": test[r].rmse,
                 "final_train_loss": float(c[-1]) if c.size else float("nan")} for r, c in enumerate(curves)]
    return SizeRun(n, init_net, trained_net, curve, nets[best], restarts, curves[best],
                   *(compute_errors(net, base.test_set) for net in (init_net, trained_net)), test[best])


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    base: Construction
    run: SizeRun

    def manifest(self) -> dict:
        """Deterministic results document; volatile data stays under 'meta'."""
        return {
            "meta": _meta(self.config, self.base.timings),
            "config": self.config.to_dict(),
            "results": {
                "dictionary_size_before_prune": self.base.dictionary_size_before,
                "dictionary_size_after_prune": self.base.dictionary_size_after,
                "prune_degenerate": self.base.prune_degenerate,
                "selected_nodes": self.run.n_nodes,
                "greedy_termination": self.base.path.termination,
                "errors": self.run.errors(),
                "random_restarts": self.run.random_restarts,
            },
        }


def _meta(cfg: ExperimentConfig, timings: dict) -> dict:
    return {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "threads": cfg.threads,
        "timings_sec": {k: round(v, 6) for k, v in timings.items()},
    }


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    base = run_gsn_pipeline(cfg)
    return ExperimentReport(cfg, base, run_size(cfg, base, greedy.select_model(base.path, cfg.n_nodes)))


@dataclass
class SweepReport:
    config: ExperimentConfig
    runs: list              # SizeRun per node count, None past the path's length
    base: Construction

    def manifest(self) -> dict:
        rows = [{"n_nodes": n, "available": run is not None, **(run.errors() if run else {})}
                for n, run in zip(self.config.node_counts, self.runs)]
        return {
            "meta": _meta(self.config, self.base.timings),
            "config": self.config.to_dict(),
            "results": {
                "dictionary_size_before_prune": self.base.dictionary_size_before,
                "dictionary_size_after_prune": self.base.dictionary_size_after,
                "greedy_termination": self.base.path.termination,
                "sweep": rows,
            },
        }


def node_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Truncate one greedy path at each of ``cfg.node_counts`` and train both branches
    there. ``max_iter`` is raised to the largest count, in the config hashed and recorded too."""
    cfg = replace(cfg, max_iter=max(cfg.max_iter, max(cfg.node_counts)))
    base = run_gsn_pipeline(cfg)
    runs = [run_size(cfg, base, n) if n <= len(base.path) else None for n in cfg.node_counts]
    return SweepReport(cfg, runs, base)


# --- artifact writing ---------------------------------------------------

def write_json(doc: dict, path) -> None:
    """Strict JSON: a non-finite float (a NaN loss after 0 epochs, say), read back as None, is null."""
    doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def config_hash(doc: dict) -> str:
    """12 hex digits of the SHA-256 of a manifest's 'config' object, which names its run directory."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def write_run_artifacts(report: ExperimentReport, out_root) -> str:
    """Manifest, networks and curve CSVs, under <out>/<target>-<config hash>/. The datasets
    are not written: `gsn sample --config <run>/manifest.json` regenerates them."""
    manifest = report.manifest()
    run_dir = os.path.join(out_root, f"{report.config.target_id}-{config_hash(manifest['config'])}")
    os.makedirs(run_dir, exist_ok=True)
    base, run = report.base, report.run
    greedy.save_path_csv(base.path, os.path.join(run_dir, "path.csv"))
    if base.field is not None:
        ridgelet.save_field_csv(base.field, os.path.join(run_dir, "field.csv"))
    train.save_loss_csv(run.loss_curve, os.path.join(run_dir, "gsn_loss.csv"))
    train.save_loss_csv(run.random_loss_curve, os.path.join(run_dir, "random_loss_best.csv"))
    save_network(run.init_net, os.path.join(run_dir, "gsn_init_network.json"))
    save_network(run.trained_net, os.path.join(run_dir, "gsn_trained_network.json"))
    save_network(run.random_net, os.path.join(run_dir, "random_best_network.json"))
    write_json(manifest, os.path.join(run_dir, "manifest.json"))
    return run_dir


def write_sweep_artifacts(report: SweepReport, out_root) -> str:
    """Manifest, path and sweep CSV, under <out>/<target>-sweep-<config hash>/."""
    manifest = report.manifest()
    run_dir = os.path.join(out_root, f"{report.config.target_id}-sweep-{config_hash(manifest['config'])}")
    os.makedirs(run_dir, exist_ok=True)
    greedy.save_path_csv(report.base.path, os.path.join(run_dir, "path.csv"))
    branches = ("gsn_init", "gsn_trained", "random_trained")
    write_csv_table(os.path.join(run_dir, "sweep.csv"),
                    ["n_nodes"] + [f"{b}_rel_l2" for b in branches],
                    [list(report.config.node_counts),
                     *([getattr(run, b).rel_l2 if run else None for run in report.runs]
                       for b in branches)])
    write_json(manifest, os.path.join(run_dir, "manifest.json"))
    return run_dir


def strip_meta(doc: dict) -> dict:
    """Manifest without its volatile header, for determinism comparisons."""
    return {k: v for k, v in doc.items() if k != "meta"}


def config_from_dict(doc: dict, target_id: str | None = None,
                     seed: int | None = None) -> ExperimentConfig:
    """Config from a full or partial ``to_dict()`` document, such as a manifest's 'config'.

    The document is laid over ``default_config(target_id, seed)``; the
    arguments win over its own ``target_id`` and ``seed``, and an explicit
    ``seed`` re-derives both shuffle seeds too. Keys and JSON types are
    checked here, and that ex6, and only ex6, sweeps ``node_counts``; values
    are checked by the dataclasses. A ``threads`` key sets the worker count.
    Every fault raises ValueError.
    """
    target_id = target_id or doc.get("target_id")
    if target_id not in _DEFAULTS:
        raise ValueError(f"unknown example id {target_id!r}: give one of {', '.join(_DEFAULTS)} "
                         "as the config's target_id or on the command line")
    master_seed = _json_value("seed", int, doc.get("seed", 0)) if seed is None else seed
    base = default_config(target_id, seed=master_seed)
    cfg = _laid_over(base, {k: v for k, v in doc.items() if k != "target_id"})
    if (cfg.node_counts is None) == (target_id == "ex6"):
        raise ValueError("config field 'node_counts' sets the sizes of the ex6 sweep; "
                         f"{target_id} takes {'a list' if target_id == 'ex6' else 'none'}")
    if seed is not None:
        cfg = replace(cfg, seed=seed, gsn_train=replace(cfg.gsn_train, seed=base.gsn_train.seed),
                      random_train=replace(cfg.random_train, seed=base.random_train.seed))
    return cfg


def _laid_over(base, doc: dict, where: str = ""):
    """``base``, a config dataclass, with the document's fields replaced, nested ones too."""
    if type(doc) is not dict:
        raise ValueError(f"config field {where[:-1]!r} must be an object")
    hints = typing.get_type_hints(type(base))
    changes = {}
    for key, value in doc.items():
        if key not in hints:
            raise ValueError(f"unknown config field {where + key!r}")
        if hints[key] is TrainConfig:
            changes[key] = _laid_over(getattr(base, key), value, f"{where}{key}.")
        else:
            changes[key] = _json_value(where + key, hints[key], value)
    try:
        return replace(base, **changes)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from exc


def _json_value(name: str, want, value):
    """A JSON value checked against a field's type: ints pass as floats, lists as tuples."""
    allowed = tuple(list if t is tuple else t for t in typing.get_args(want) or (want,))
    if float in allowed and type(value) is int:
        return float(value)
    if type(value) not in allowed:
        raise ValueError(f"config field {name!r} must be "
                         f"{' or '.join(t.__name__ for t in allowed)}, not {value!r}")
    return value
