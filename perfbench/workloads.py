"""The benchmark's workloads: one `gsn bench` configuration each, built from a seed.

Sizes are cut from the example defaults so that one experiment takes a few
seconds and a run can take the median of several; README.md gives the
reasons and the measured full-size figures.
"""

from __future__ import annotations

import os
from dataclasses import replace

WORKLOADS = {
    "prune-ex3": "ex3 with ridgelet pruning on: the collapsed ridgelet transform dominates",
    "fullbatch-ex5": "ex5 at n_train 4000: dictionary memory, greedy bandwidth and BLAS-bound full-batch training",
}


def experiment_config(name: str, seed: int):
    """The ExperimentConfig of workload `name`, with `threads` = nproc as the CLI sets it."""
    from gsn import bench

    threads = os.cpu_count() or 1
    if name == "prune-ex3":
        cfg = bench.default_config("ex3", seed, dict_size=5_000, n_restarts=1, threads=threads)
        gsn_epochs, random_epochs = 200, 200
    elif name == "fullbatch-ex5":
        cfg = bench.default_config("ex5", seed, n_val=400, dict_size=8_000, prune=False,
                                   n_restarts=1, threads=threads)
        gsn_epochs, random_epochs = 150, 20
    else:
        raise KeyError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    return replace(cfg,
                   gsn_train=replace(cfg.gsn_train, epochs=gsn_epochs),
                   random_train=replace(cfg.random_train, epochs=random_epochs))
