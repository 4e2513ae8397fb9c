"""Per-layer spans, recorded by wrapping the gsn module attributes that bench calls through.

`bench.run_experiment` reaches every layer through a module attribute
(`sampling.build_dictionary`, `ridgelet.collapsed_field`, `train.train_params`,
...), so replacing those attributes for the life of a `Tracer` records one
span per call without touching the program. Each span holds its wall time,
its parent span, work counts taken from the call's arguments and result
and, for the layers in MEMORY_LAYERS, the peak of the memory allocated
inside the call, from `tracemalloc` started at entry and stopped at exit
(numpy reports its buffers to tracemalloc). Counts marked computed are derived
from array sizes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

MB = 1e6


def _adam_steps(train_set, cfg, runs: int = 1) -> int:
    return runs * cfg.epochs * math.ceil(train_set.n_points / min(cfg.batch_size, train_set.n_points))


def _count_dictionary(a, out):
    m = len(a["directions"])
    return {"feature_bytes": a["dataset"].n_points * m * 8, "atoms_in": m, "atoms_out": out.n_atoms}


def _count_field(a, out):
    return {"kernel_evals": len(a["directions"]) * a["quad"].n_nodes * a["dataset"].n_points}


def _count_prune(a, out):
    return {"atoms_in": a["dictionary"].n_atoms, "atoms_out": out.n_atoms}


def _count_greedy(a, out):
    steps = len(out.records)
    return {"steps": steps,
            "bytes_read": steps * a["dataset_train"].n_points * a["dictionary"].n_atoms * 8}


def _count_train(a, out):
    if a["cfg"].epochs == 0 or a["net0"].n_nodes == 0:
        return {"adam_steps": 0}
    return {"adam_steps": _adam_steps(a["train_set"], a["cfg"])}


def _count_restarts(a, out):
    return {"adam_steps": _adam_steps(a["train_set"], a["cfg"], a["n_restarts"])}


def _count_artifacts(a, out):
    return {"bytes": sum(e.stat().st_size for e in os.scandir(out) if e.is_file())}


# (module, attribute, counter) for every wrapped call
LAYERS = (
    ("sampling", "generate_dataset", None),
    ("sampling", "sample_directions", None),
    ("sampling", "build_dictionary", _count_dictionary),
    ("ridgelet", "collapsed_field", _count_field),
    ("ridgelet", "prune_dictionary", _count_prune),
    ("greedy", "oga_run", _count_greedy),
    ("solve", "refit_network", lambda a, out: {"nodes": out[0].n_nodes}),
    ("train", "train", _count_train),
    ("train", "multi_restart", _count_restarts),
    ("train", "train_params", None),
    ("bench", "compute_errors", None),
    ("bench", "write_run_artifacts", _count_artifacts),
)

# Layers whose peak memory is reported. tracemalloc runs only inside them:
# tracing every allocation slowed the Python-step-bound Adam loop about 5x.
MEMORY_LAYERS = ("sampling.build_dictionary", "ridgelet.collapsed_field")


@dataclass
class Span:
    name: str
    parent: str | None
    start: float
    end: float = 0.0
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps every layer in LAYERS and collects spans."""

    def __init__(self):
        from gsn import bench, greedy, ridgelet, sampling, solve, train

        self.modules = {"bench": bench, "greedy": greedy, "ridgelet": ridgelet,
                        "sampling": sampling, "solve": solve, "train": train}
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for mod_name, attr, counter in LAYERS:
            module = self.modules[mod_name]
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
            self._stack.append(name)
            if name in MEMORY_LAYERS:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if name in MEMORY_LAYERS:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, out)
            self.spans.append(span)
            return out

        return wrapper


# per-layer metric name -> unit; "computed" units are derived from array sizes
LAYER_UNITS = {
    "sampling.generate_dataset.s": "s",
    "sampling.sample_directions.s": "s",
    "sampling.build_dictionary.s": "s",
    "sampling.build_dictionary.peak_mb": "MB",
    "sampling.build_dictionary.feature_mb": "MB.computed",
    "sampling.build_dictionary.kept_ratio": "ratio",
    "ridgelet.collapsed_field.calls": "count",
    "ridgelet.collapsed_field.s": "s",
    "ridgelet.collapsed_field.kernel_evals": "count.computed",
    "ridgelet.collapsed_field.peak_mb": "MB",
    "ridgelet.prune_dictionary.s": "s",
    "ridgelet.prune_dictionary.keep_ratio": "ratio",
    "greedy.oga_run.s": "s",
    "greedy.oga_run.steps": "count",
    "greedy.oga_run.ms_per_step": "ms",
    "greedy.oga_run.gbytes_read": "GB.computed",
    "solve.refit_network.s": "s",
    "solve.refit_network.nodes": "count",
    "train.train.s": "s",
    "train.train.adam_steps": "count.computed",
    "train.train.us_per_step": "us",
    "train.multi_restart.s": "s",
    "train.multi_restart.restart_s": "s",
    "train.multi_restart.adam_steps": "count.computed",
    "train.multi_restart.us_per_step": "us",
    "bench.compute_errors.s": "s",
    "bench.write_run_artifacts.s": "s",
    "bench.write_run_artifacts.bytes": "bytes",
}


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced experiment, keyed as in LAYER_UNITS.

    A layer the workload never calls reads 0 throughout, ratios included.
    """
    def of(name):
        return [s for s in spans if s.name == name]

    def total(name, key=None):
        return sum(s.counts[key] if key else s.seconds for s in of(name))

    def peak_mb(name):
        return max((s.peak_bytes for s in of(name)), default=0) / MB

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{mod}.{attr}.s": total(f"{mod}.{attr}") for mod, attr, _ in LAYERS if attr != "train_params"}
    m["sampling.build_dictionary.peak_mb"] = peak_mb("sampling.build_dictionary")
    m["sampling.build_dictionary.feature_mb"] = total("sampling.build_dictionary", "feature_bytes") / MB
    m["sampling.build_dictionary.kept_ratio"] = ratio(
        total("sampling.build_dictionary", "atoms_out"), total("sampling.build_dictionary", "atoms_in"))
    m["ridgelet.collapsed_field.calls"] = len(of("ridgelet.collapsed_field"))
    m["ridgelet.collapsed_field.kernel_evals"] = total("ridgelet.collapsed_field", "kernel_evals")
    m["ridgelet.collapsed_field.peak_mb"] = peak_mb("ridgelet.collapsed_field")
    m["ridgelet.prune_dictionary.keep_ratio"] = ratio(
        total("ridgelet.prune_dictionary", "atoms_out"), total("ridgelet.prune_dictionary", "atoms_in"))
    steps = total("greedy.oga_run", "steps")
    m["greedy.oga_run.steps"] = steps
    m["greedy.oga_run.ms_per_step"] = ratio(1e3 * m["greedy.oga_run.s"], steps)
    m["greedy.oga_run.gbytes_read"] = total("greedy.oga_run", "bytes_read") / 1e9
    m["solve.refit_network.nodes"] = total("solve.refit_network", "nodes")
    for name in ("train.train", "train.multi_restart"):
        m[f"{name}.adam_steps"] = total(name, "adam_steps")
        m[f"{name}.us_per_step"] = ratio(1e6 * m[f"{name}.s"], m[f"{name}.adam_steps"])
    restarts = [s.seconds for s in of("train.train_params") if s.parent == "train.multi_restart"]
    m["train.multi_restart.restart_s"] = statistics.median(restarts) if restarts else 0.0
    m["bench.write_run_artifacts.bytes"] = total("bench.write_run_artifacts", "bytes")
    return m
