"""One `gsn bench`-equivalent experiment in a fresh process.

run.py starts this script once per repeat:

    python3 perfbench/child.py '{"workload": "prune-ex3", "seed": 0, "traced": false,
                                 "spawned_at": <time.monotonic() in the parent>,
                                 "out": "<empty directory>"}'

It builds the workload's config, runs `bench.run_experiment` and
`bench.write_run_artifacts` into `out`, and writes `out/result.json`: the
timings, the manifest without `meta`, the environment and, when traced,
the per-layer metrics. A failing experiment exits non-zero.
"""

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from contextlib import ExitStack

from tracer import MB, Tracer, layer_metrics
from workloads import experiment_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _openblas_threads(lib_dir: str, pattern: str, symbol: str) -> int:
    """Live thread count of a bundled OpenBLAS, read (never set) through ctypes; -1 if absent."""
    for path in sorted(glob.glob(os.path.join(lib_dir, pattern))):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return fn()
    return -1


def speed_probe_ms() -> float:
    """A fixed pure-Python loop: a diagnostic of host speed, never used to rescale metrics."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return 1e3 * (time.perf_counter() - t0)


def environment(cfg) -> dict:
    import numpy as np
    import scipy

    site = os.path.dirname(os.path.dirname(np.__file__))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _openblas_threads(os.path.join(site, "numpy.libs"), "libscipy_openblas*",
                                          "scipy_openblas_get_num_threads64_"),
        "scipy_blas_threads": _openblas_threads(os.path.join(site, "scipy.libs"), "libscipy_openblas*",
                                                "scipy_openblas_get_num_threads"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": cfg.threads,
        "speed_probe_ms": speed_probe_ms(),
    }


def main(request: dict) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gsn import bench, solve

    cfg = experiment_config(request["workload"], request["seed"])
    out = request["out"]
    with ExitStack() as stack:
        tracer = stack.enter_context(Tracer()) if request["traced"] else None
        refit = solve.refit_network
        constructed = []

        def marked_refit(*args, **kwargs):
            result = refit(*args, **kwargs)
            constructed.append(time.monotonic())
            return result

        solve.refit_network = marked_refit
        stack.callback(setattr, solve, "refit_network", refit)

        start = time.monotonic()
        report = bench.run_experiment(cfg)
        run_dir = bench.write_run_artifacts(report, out)
        end = time.monotonic()

    manifest = bench.load_manifest(os.path.join(run_dir, "manifest.json"))
    result = {
        "setup_s": start - request["spawned_at"],
        "experiment_s": end - start,
        "construct_s": constructed[0] - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        "manifest": bench.strip_meta(manifest),
        "env": environment(cfg),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
