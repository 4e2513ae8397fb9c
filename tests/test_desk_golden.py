"""Seed-0 desk runs checked against their recorded results in tests/golden/desk.json.

Each configs/desk/exN.json runs through `gsn bench` at seed 0 with 200
epochs and 2 baseline restarts, on the default worker thread count,
which changes no byte of a run. Its run-directory name (the config hash,
which involves no float arithmetic) must match in any environment.
Everything else depends on float bytes, which follow the BLAS kernel and
thread count and the SIMD code paths of numpy's ufuncs; a one-ulp
difference can already change which atoms greedy selects. So the
discrete results (atom counts before and after pruning, selected nodes,
greedy termination, the greedy path's atom indices), the error floats
and the SHA-256 of every artifact are compared only where numpy, its
SIMD extensions, the OpenBLAS build and the live BLAS thread count are
the ones the file records; elsewhere that comparison is skipped, and the
skip names the difference. A single run's directory holds no dataset;
the hashes of its train/val/test CSVs are those `gsn sample` restores
from its manifest.

A change that alters these numbers on purpose rewrites the file with

    python tests/test_desk_golden.py
"""

import csv
import ctypes
import glob
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gsn import bench, cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs" / "desk"
GOLDEN = ROOT / "tests" / "golden" / "desk.json"
FLAGS = ["--seed", "0", "--epochs", "200", "--restarts", "2"]


def _openblas(symbol: str, restype):
    """A query of numpy's bundled OpenBLAS, read through ctypes; None where there is none."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas*"))):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def _simd_found():
    """numpy's SIMD extensions found on this CPU; None before numpy 1.26, which has no dict mode."""
    try:
        return np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found")
    except TypeError:
        return None


def environment() -> dict:
    """What the float bytes of a run depend on besides the code."""
    config = _openblas("scipy_openblas_get_config64_", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "simd": _simd_found(),
        "openblas": config.decode() if config is not None else None,
        "blas_threads": _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int),
    }


def desk_record(example: str, out: Path) -> dict:
    """Run configs/desk/<example>.json into ``out``; the golden record of its run directory."""
    argv = ["bench", "--config", str(CONFIGS / f"{example}.json"), *FLAGS, "--out", str(out)]
    if cli.main(argv) != 0:
        raise RuntimeError(f"gsn {' '.join(argv)} failed")
    (run_dir,) = out.iterdir()
    manifest = bench.strip_meta(bench.load_manifest(run_dir / "manifest.json"))
    results = manifest["results"]
    discrete = {k: v for k, v in results.items() if type(v) in (int, bool, str)}
    with open(run_dir / "path.csv") as fh:
        discrete["path_atom_indices"] = [int(row["atom_index"]) for row in csv.DictReader(fh)]
    if "sweep" in results:
        discrete["sweep_available"] = [[r["n_nodes"], r["available"]] for r in results["sweep"]]
    digests = {}
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    if "sweep" not in results:  # a single run's datasets, regenerated from its manifest
        argv = ["sample", "--config", str(run_dir / "manifest.json"), "--out", str(out / "restored")]
        if cli.main(argv) != 0:
            raise RuntimeError(f"gsn {' '.join(argv)} failed")
        for name in ("train.csv", "val.csv", "test.csv"):
            digests[name] = hashlib.sha256((out / "restored" / name).read_bytes()).hexdigest()
    return {
        "run_dir": run_dir.name,
        "discrete": discrete,
        "floats": {k: v for k, v in results.items() if k not in discrete},
        "sha256": digests,
    }


@pytest.mark.parametrize("example", bench.EXAMPLE_IDS)
def test_desk_run_matches_golden(example, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    want = golden["runs"][example]
    got = desk_record(example, tmp_path)
    assert got["run_dir"] == want["run_dir"]
    env = environment()
    differs = {k: {"golden": golden["environment"].get(k), "here": v}
               for k, v in env.items() if golden["environment"].get(k) != v}
    if differs:
        pytest.skip(f"run directory matches; discrete, float and file-hash comparison skipped, "
                    f"the environment differs from the golden file's: {differs}")
    assert got["discrete"] == want["discrete"]
    assert got["floats"] == want["floats"]
    assert got["sha256"] == want["sha256"]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for example in bench.EXAMPLE_IDS:
            runs[example] = desk_record(example, Path(tmp) / example)
    bench.write_json({"environment": environment(), "runs": runs}, GOLDEN)
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
