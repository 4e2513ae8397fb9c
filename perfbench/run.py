"""The gsn benchmark: repeated `gsn bench`-equivalent runs of one workload, one process at a time.

    python3 perfbench/run.py --workload prune-ex3 --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

Each repeat is a fresh `child.py` process, so set-up (interpreter, imports,
config) is paid and measured every time. The run keeps starting repeats
until `--seconds` have passed, cycling through the experiment seeds
5*seed .. 5*seed+4 (each at least once), and reports medians. With
`--trace 1` it interleaves traced and untraced repeats, then adds one
untraced repeat with OpenBLAS held to one thread, and reports the per-layer
metrics instead of the end-to-end ones.

A repeat fails if it exits non-zero, if an error in its manifest is not
finite, if its live BLAS thread count differs from the first repeat's, or if
its manifest (`meta` removed) differs from the first one of the same
experiment seed. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import LAYER_UNITS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 150       # no repeat starts that would end the run after this
# A run cycles its repeats through this many experiment seeds derived from
# --seed; an error metric is the median over them, which varies far less from
# one --seed to the next than a single seed's error does.
SEEDS_PER_RUN = 5

# end-to-end metric -> unit; the three errors are test relative l2 from the manifest
END_TO_END = {
    "experiment_s": "s",
    "construct_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "gsn_init_rel_l2": "ratio",
    "gsn_trained_rel_l2": "ratio",
    "random_rel_l2": "ratio",
}
ERROR_KEYS = {"gsn_init_rel_l2": "gsn_init", "gsn_trained_rel_l2": "gsn_trained",
              "random_rel_l2": "random_trained"}
TRACE_UNITS = {
    **LAYER_UNITS,
    "trace.experiment_s": "s",
    "trace.overhead_s": "s",
    "blas1.experiment_s": "s",
    "blas1.construct_s": "s",
    "host.speed_probe_ms": "ms",
}


def run_child(workload: str, seed: int, traced: bool, run_tmp: str, env: dict | None = None) -> dict:
    """One repeat in a fresh process; returns its result, or {"error": ...}."""
    out = tempfile.mkdtemp(dir=run_tmp)
    request = {"workload": workload, "seed": seed, "traced": traced, "out": out,
               "spawned_at": time.monotonic()}
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(request)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              env={**os.environ, **(env or {})})
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)
    shutil.rmtree(out)
    result.update(seed=seed, traced=traced)
    return result


def check(records: list[dict]) -> None:
    """Mark each record with a non-finite error, a BLAS thread count other than the
    first record's (accuracy is never compared across thread counts), or a manifest
    other than the first one of its experiment seed."""
    threads, reference = None, {}
    for rec in records:
        if "error" in rec:
            continue
        errors = rec["manifest"]["results"]["errors"]
        threads = rec["env"]["blas_threads"] if threads is None else threads
        if not all(math.isfinite(v) for e in errors.values() for k, v in e.items() if k != "rel_l2_defined"):
            rec["error"] = "non-finite error in manifest"
        elif rec["env"]["blas_threads"] != threads:
            rec["error"] = f"BLAS threads {rec['env']['blas_threads']} differ from the first run's {threads}"
        elif rec["manifest"] != reference.setdefault(rec["seed"], rec["manifest"]):
            rec["error"] = "manifest differs from the first run's of the same seed"


def measure(workload: str, seed: int, seconds: float, traced: bool, run_tmp: str):
    """Repeats until `seconds` have passed; returns (main records, single-thread BLAS reference or None).

    Untraced runs cover every experiment seed at least once. A traced round is
    an untraced and a traced repeat of the same seed.
    """
    seeds = [SEEDS_PER_RUN * seed + i for i in range(SEEDS_PER_RUN)]
    kinds = (False, True) if traced else (False,)
    records = []
    start = time.monotonic()
    rounds = 0
    while True:
        for kind in kinds:
            records.append(run_child(workload, seeds[rounds % len(seeds)], kind, run_tmp))
        rounds += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        enough = traced or rounds >= len(seeds)
        if (enough and elapsed + per_round / 2 >= seconds) or elapsed + 2 * per_round > RUN_LIMIT_S:
            break
    blas1 = run_child(workload, seeds[0], False, run_tmp, {"OPENBLAS_NUM_THREADS": "1"}) if traced else None
    return records, blas1


def summarize(records: list[dict], blas1: dict | None, traced: bool) -> dict:
    """Metric name -> (median, unit, samples, min, max) over the records that passed."""
    ok = [r for r in records if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    samples: dict[str, list[float]] = {}
    if traced:
        tr = [r for r in ok if r["traced"]]
        for name in LAYER_UNITS:
            samples[name] = [r["layers"][name] for r in tr]
        samples["trace.experiment_s"] = [r["experiment_s"] for r in tr]
        if tr and plain:
            samples["trace.overhead_s"] = [statistics.median(samples["trace.experiment_s"])
                                           - statistics.median([r["experiment_s"] for r in plain])]
        if blas1 is not None and "error" not in blas1:
            samples["blas1.experiment_s"] = [blas1["experiment_s"]]
            samples["blas1.construct_s"] = [blas1["construct_s"]]
        samples["host.speed_probe_ms"] = [r["env"]["speed_probe_ms"] for r in ok]
        units = TRACE_UNITS
    else:
        for name in ("experiment_s", "construct_s", "setup_s", "peak_rss_mb"):
            samples[name] = [r[name] for r in plain]
        per_seed = {r["seed"]: r["manifest"]["results"]["errors"] for r in plain}
        for name, key in ERROR_KEYS.items():
            samples[name] = [errors[key]["rel_l2"] for errors in per_seed.values()]
        units = END_TO_END
    return {name: (statistics.median(v), units[name], len(v), min(v), max(v))
            for name, v in samples.items() if v}


def run_workload(workload: str, seed: int, seconds: float, traced: bool):
    """Measures one workload and prints its table; returns (metrics, attempted, failed), or None if every run failed."""
    os.makedirs(WORK_DIR, exist_ok=True)
    run_tmp = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        records, blas1 = measure(workload, seed, seconds, traced, run_tmp)
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    check(records)
    if blas1 is not None:
        check([blas1])
    runs = records + ([blas1] if blas1 else [])
    for rec in runs:
        if "error" in rec:
            print(f"{workload}: failed run: {rec['error']}", file=sys.stderr)
    if all("error" in r for r in records):
        print(f"{workload}: every run failed", file=sys.stderr)
        return None
    metrics = summarize(records, blas1, traced)
    failed = sum("error" in r for r in runs)

    env = next(r["env"] for r in records if "error" not in r)
    print(f"workload {workload} seed {seed} trace {int(traced)}: {WORKLOADS[workload]}")
    print("env " + json.dumps({k: v for k, v in env.items() if k != "speed_probe_ms"}, sort_keys=True))
    probes = [r["env"]["speed_probe_ms"] for r in records if "error" not in r]
    print(f"speed probe (diagnostic only) median {statistics.median(probes):.2f} ms over {len(probes)} runs")
    if blas1 is not None and "error" not in blas1:
        errors = {k: e["rel_l2"] for k, e in blas1["manifest"]["results"]["errors"].items()}
        print(f"single-thread BLAS reference (seed {blas1['seed']}, not compared): "
              f"blas_threads {blas1['env']['blas_threads']}, rel_l2 {json.dumps(errors)}")
    for name, (value, unit, n, lo, hi) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:15s} n={n} min={lo:.6g} max={hi:.6g}")
    print(f"  {'failed_runs':42s} {failed:14d} {'count':15s} of {len(runs)} attempted")
    return metrics, len(runs), failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn the driver's SIGTERM into SystemExit, so that the running child is
    # killed and waited for and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "gsn", "bench.py")):
        print(f"run.py: no gsn sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v[0], "unit": v[1]} for k, v in result[0].items()})
        attempted += result[1]
        failed += result[2]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
