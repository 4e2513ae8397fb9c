"""Orthogonal greedy selection over a dictionary of unit atoms.

Each step picks the atom that minimizes the exact least-squares residual of
the target over the enlarged span. With unit atoms and an orthonormal basis
Q of the current span, that residual drop equals

    <f_m, g>^2 / (1 - sum_j <g, q_j>^2)

so the argmin reduces to an argmax of cached quantities: per-atom residual
correlations and cumulative basis energies, both updated with one matrix-
vector product per iteration. New basis vectors are built with two passes of
classical Gram-Schmidt, both taking their coefficients from the basis, which
keeps it orthonormal to near machine precision over hundreds of iterations.

Validation scoring runs through the same basis, with no triangular solve
for outer weights. Step m builds q_m = (g_j - Q c) / nu from the Gram-Schmidt
coefficients c and norm nu. The same transform of the atom's validation
activations v_j gives the validation image of the basis,
vq_m = (v_j - VQ c) / nu, and the validation prediction of the least-squares
fit over the first m atoms grows by alpha_m vq_m, alpha_m = <q_m, f>: O(n_val m)
per step. Mathematically this is the prediction of the outer weights
R^-1 Q^T f, with G_sel = Q R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Dictionary, GsnError, write_csv_table

SPAN_TOL = 1e-10          # atom counts as inside the span below this deficit
RESIDUAL_REL_TOL = 1e-12  # stop once ||f_m|| <= this times ||f||
ORTHO_REL_TOL = 1e-10     # inline |<f_m, q_j>| bound, this times ||f||


class GreedyStop(GsnError):
    """Normal termination of the greedy iteration."""

    reason = "stopped"


class ResidualBelowTolerance(GreedyStop):
    reason = "residual_tol"


class DictionaryExhausted(GreedyStop):
    reason = "exhausted"


class EmptyPathError(GsnError, ValueError):
    """Greedy stopped before it selected an atom."""

    def __init__(self, path: GreedyPath):
        super().__init__(f"greedy selected no atom (termination: {path.termination})")


class GreedyInvariantError(GsnError):
    """An internal greedy invariant failed; results are not trustworthy."""


class GreedyState:
    """Mutable OGA state: selected atoms, orthonormal basis, caches.

    Sized once for at most min(max_iter, n_train, n_atoms) steps. Single-writer:
    oga_step mutates in place and returns the same object. ``last_step`` holds
    the latest step's (c, nu, alpha): its Gram-Schmidt coefficients, the norm
    that scaled its basis vector, and the target's coordinate along that vector.
    """

    def __init__(self, dictionary: Dictionary, target, max_iter: int):
        f = np.asarray(target, dtype=np.float64).ravel()
        if f.size != dictionary.n_train:
            raise ValueError("target length must match dictionary row count")
        self.target_norm = float(np.linalg.norm(f))
        self.residual = f.copy()
        self.residual_norm = self.target_norm
        self.selected: list[int] = []
        n = dictionary.n_train
        m_cap = min(max_iter, n, dictionary.n_atoms)
        self.ortho_basis = np.empty((n, m_cap))         # Q, columns q_1..q_m
        self.last_step: tuple[np.ndarray, float, float] | None = None
        self.atom_energy = np.zeros(dictionary.n_atoms)
        self.atom_score_cache = dictionary.features.T @ self.residual
        self._eligible = np.ones(dictionary.n_atoms, dtype=bool)

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    def check_invariants(self):
        """Inline guards after a step: residual orthogonal to the basis, energies in range."""
        m = self.n_selected
        bound = ORTHO_REL_TOL * max(self.target_norm, 1e-300)
        overlap = np.abs(self.ortho_basis[:, :m].T @ self.residual).max()
        if overlap > bound:
            raise GreedyInvariantError(
                f"residual/basis overlap {overlap:.3e} exceeds {bound:.3e}")
        if self.atom_energy.max(initial=0.0) > 1.0 + 1e-10:
            raise GreedyInvariantError("atom energy exceeded 1 beyond tolerance")


def oga_step(state: GreedyState, dictionary: Dictionary) -> tuple[GreedyState, int]:
    """One greedy iteration: select, orthogonalize, update caches.

    Raises ResidualBelowTolerance or DictionaryExhausted as normal
    termination signals, and ValueError for a step past the state's capacity.
    """
    if state.residual_norm <= RESIDUAL_REL_TOL * state.target_norm:
        raise ResidualBelowTolerance(
            f"residual {state.residual_norm:.3e} within tolerance of zero")
    deficit = 1.0 - state.atom_energy
    candidates = state._eligible & (deficit > SPAN_TOL)
    if not np.any(candidates):
        raise DictionaryExhausted("all remaining atoms lie inside the current span")
    m = state.n_selected
    if m == state.ortho_basis.shape[1]:
        raise ValueError(f"greedy state is sized for {m} steps")

    scores = np.where(candidates, state.atom_score_cache**2 / np.maximum(deficit, SPAN_TOL), -np.inf)
    j = int(np.argmax(scores))  # first (lowest-index) maximum on ties

    g = dictionary.features[:, j]

    # classical Gram-Schmidt twice, both passes projecting on the basis
    Qm = state.ortho_basis[:, :m]
    coeff = Qm.T @ g
    v = g - Qm @ coeff
    corr = Qm.T @ v
    v -= Qm @ corr
    coeff += corr
    vnorm = float(np.linalg.norm(v))
    if vnorm <= SPAN_TOL:
        # numerically inside the span despite the energy deficit; retire it
        state._eligible[j] = False
        state.atom_energy[j] = 1.0
        return oga_step(state, dictionary)
    q = v / vnorm

    alpha = float(np.dot(q, state.residual))
    state.residual = state.residual - alpha * q
    new_norm = float(np.linalg.norm(state.residual))
    if new_norm > state.residual_norm * (1.0 + 1e-12) + 1e-300:
        raise GreedyInvariantError(
            f"residual norm increased: {state.residual_norm:.17e} -> {new_norm:.17e}")
    state.residual_norm = min(new_norm, state.residual_norm)

    state.ortho_basis[:, m] = q
    state.last_step = (coeff, vnorm, alpha)

    c_new = dictionary.features.T @ q
    state.atom_energy += c_new**2
    state.atom_score_cache -= alpha * c_new
    state._eligible[j] = False
    state.selected.append(j)
    state.check_invariants()
    return state, j


@dataclass(frozen=True)
class PathRecord:
    iteration: int
    atom_index: int
    residual_norm: float
    validation_error: float


@dataclass(frozen=True)
class GreedyPath:
    """Per-iteration trace of a greedy run plus the termination reason."""

    records: tuple
    termination: str

    def __len__(self) -> int:
        return len(self.records)

    @property
    def residual_norms(self) -> np.ndarray:
        return np.array([r.residual_norm for r in self.records])

    @property
    def validation_errors(self) -> np.ndarray:
        return np.array([r.validation_error for r in self.records])

    @property
    def atom_indices(self) -> list[int]:
        return [r.atom_index for r in self.records]


def oga_run(dictionary: Dictionary, dataset_train: Dataset, dataset_val: Dataset,
            max_iter: int) -> GreedyPath:
    """Greedy selection with per-iteration validation scoring.

    After each step the least-squares fit over the selected atoms is scored
    on the validation set (root-mean-square error), through the validation
    image of the orthonormal basis (module docstring). Termination reasons
    land in the path rather than propagating.
    """
    if dictionary.n_atoms == 0:
        raise ValueError("dictionary is empty")
    f_tr = dataset_train.targets
    state = GreedyState(dictionary, f_tr, max_iter)
    val_basis = np.empty((dataset_val.n_points, state.ortho_basis.shape[1]))  # validation image VQ
    val_pred = np.zeros(dataset_val.n_points)
    records = []
    termination = "max_iter"
    sqrt_val = np.sqrt(dataset_val.n_points)
    for m in range(1, max_iter + 1):
        try:
            state, j = oga_step(state, dictionary)
        except GreedyStop as stop:
            termination = stop.reason
            break
        coeff, vnorm, alpha = state.last_step
        w = dictionary.directions[j]
        v = np.maximum(dataset_val.inputs @ w[:-1] + w[-1], 0.0) / dictionary.raw_norms[j]
        vq = (v - val_basis[:, :m - 1] @ coeff) / vnorm
        val_basis[:, m - 1] = vq
        val_pred += alpha * vq
        val_rmse = float(np.linalg.norm(val_pred - dataset_val.targets) / sqrt_val)
        records.append(PathRecord(
            iteration=m,
            atom_index=j,
            residual_norm=state.residual_norm,
            validation_error=val_rmse,
        ))
    return GreedyPath(tuple(records), termination)


def select_model(path: GreedyPath, n_nodes: int | None = None) -> int:
    """The node count: ``n_nodes`` if given, else the count minimizing validation
    error (ties go to the smaller model); never more than the path holds."""
    if not path.records:
        raise EmptyPathError(path)
    if n_nodes is None:
        n_nodes = path.records[int(np.argmin(path.validation_errors))].iteration
    return min(n_nodes, len(path.records))


def save_path_csv(path: GreedyPath, out_path) -> None:
    write_csv_table(out_path, ["m", "atom_index", "residual_norm", "validation_error"],
                    [[r.iteration for r in path.records], path.atom_indices, path.residual_norms,
                     path.validation_errors])
