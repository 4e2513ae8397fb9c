"""Ridgelet-transform machinery for dictionary pruning.

The dual kernel is proportional to the fourth derivative of a Gaussian,

    tau(z) = -(z^4 - 6 z^2 + 3) e^(-z^2/2) / (2 (2 pi)^(d-1/2)),

so it has four vanishing moments and pairs admissibly with the ReLU. Its
discretized transform, collapsed along rays through sphere directions,
concentrates where candidate nodes matter for a given target; thresholding
its magnitude shrinks the dictionary before greedy selection.

The ray integral is exact. With s = a.x + b, c = 2 (2 pi)^(d-1/2), X = R|s|,
a = (d+2)/2, x = X^2/2 and P the regularized lower incomplete gamma function,

    int_0^R r^(d+1) tau(r s) dr = -(R^(d+2) / c) g_d(X),
    g_d(X) = X^-(d+2) int_0^X u^(d+1) (u^4 - 6u^2 + 3) e^(-u^2/2) du
           = Gamma(a) (2a^2 - 4a + 3/2) x^-a P(a, x) + 2 (2 - a - x) e^-x,

with g_d(0) = 3/(d+2). For d = 1 the P term vanishes, g_1(X) = (1 - X^2)
e^(-X^2/2), and int_0^inf r^2 tau(r s) dr = 0 for every s != 0: the 1-d field
comes only from points near each hyperplane, where R|s| is small, and from
the cutoff R, so its peak is set by the points closest to a hyperplane.

P(a, x) / x^a is evaluated in numpy over three ranges of x:

- x < a + 1: the series e^-x sum_k x^k / Gamma(a+k+1), whose terms are all
  positive, so there is no cancellation down to x = 1e-18; every point takes
  the number of terms that the slowest case, x = a + 1, needs;
- a + 1 <= x < x_c: 1 - Q(a, x), with Q from Legendre's continued fraction
  by the modified Lentz method, each point stopping once its factor is
  within 4 ulp of 1; here Q <= Q(a, a + 1) < 1/2 (the median of the
  Gamma(a) law lies below a), so 1 - Q does not cancel;
- x >= x_c: exactly 1 / x^a. x_c is the first of a + 1, a + 2, ... where the
  bound Gamma(a, x) <= x^a e^-x / (x - a + 1) puts Q below 2^-53, so P rounds
  to 1 (x_c = 41 for d = 2, 50 for d = 8).

For d >= 2, with c = Gamma(a) (2a^2 - 4a + 3/2), g_d = c x^-a + E from x_c on,
E = 2 (2 - a - x) e^-x < 0. It is taken as c x^-a alone from x_far, the first
of x_c, x_c + 1, ... where |E| < 2^-56 c x^-a (x_far = 51 for d = 2, 58 for
d = 8); |E| x^a does not rise for x >= a + 1 >= 3, so the bound holds beyond.
Each computed term is within a few ulp of its value, so |E| < 2^-55 c x^-a:
under half the spacing below c x^-a even at a power of two. The sum rounds to
c x^-a, with no tie, and keeps its bits.

Against 40-digit values at 600 points per d over x in [1e-18, 1e3] the
result is within 1e-15 relative for d = 2 ... 8.
"""

from __future__ import annotations

import ctypes
import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (BLOCK_BUDGET, Dataset, Dictionary, check_directions, preactivations,
                   read_csv_table, write_csv_table)


@dataclass(frozen=True)
class RadialQuadrature:
    """Radial cutoff of the collapsed transform: rays run over r in (0, r_max]."""

    r_max: float = 40.0

    def __post_init__(self):
        if not self.r_max > 0.0:
            raise ValueError("r_max must be positive")

    @property
    def n_nodes(self) -> int:
        # one evaluation per (direction, point); the benchmark's kernel_evals reads it
        return 1


@dataclass(frozen=True)
class CollapsedField:
    """Collapsed transform values, one per row [a | b] of the (M, d+1) ``directions``."""

    directions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        directions = check_directions(self.directions)
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if values.size != len(directions):
            raise ValueError("one value per direction required")
        if not np.all(np.isfinite(values)):
            raise ValueError("collapsed values must be finite")
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "values", values)


@functools.cache
def _gamma_cutoff(a: float) -> float:
    """First of a + 1, a + 2, ... from which Q(a, x) < 2^-53, so P(a, x) rounds to 1.

    For a >= 1 and x > a - 1, (1 + s/x)^(a-1) <= e^((a-1) s/x) bounds the tail
    integral: Gamma(a, x) <= x^a e^-x / (x - a + 1), which falls with x for x > a.
    """
    x = a + 1.0
    while a * math.log(x) - x - math.lgamma(a) - math.log(x - a + 1.0) >= -53.0 * math.log(2.0):
        x += 1.0
    return x


@functools.cache
def _series_terms(a: float) -> int:
    """Terms of sum_k x^k / Gamma(a+k+1) to take for x <= a + 1: at x = a + 1, up to
    the first whose share of the sum is below 2^-56.

    The tail's share of the sum grows with x, so x = a + 1 is the slowest case.
    """
    k, term, total = 0, 1.0, 1.0
    while term > 2.0**-56 * total:
        k += 1
        term *= (a + 1.0) / (a + k)
        total += term
    return k + 1


@functools.cache
def _far_cutoff(a: float, c: float) -> float:
    """x_far of the module docstring: from it on, g_d rounds to c x^-a."""
    x = _gamma_cutoff(a)
    while 2.0 * (x + a - 2.0) * math.exp(-x) >= 2.0**-56 * c * x**-a:
        x += 1.0
    return x


def _gamma_p_over_power(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) / x^a elementwise over x > 0, for a >= 1, by the module docstring's three ranges."""
    out = np.empty_like(x)
    low = x < a + 1.0
    high = x >= _gamma_cutoff(a)
    mid = ~(low | high)

    xs = x[low]
    term = np.full_like(xs, 1.0 / math.gamma(a + 1.0))
    total = term.copy()
    for k in range(1, _series_terms(a)):
        term *= xs / (a + k)
        total += term
    out[low] = np.exp(-xs) * total

    xs = x[mid]
    b = xs + (1.0 - a)
    d = 1.0 / b
    frac = d.copy()
    pending = np.arange(xs.size)
    c = np.full_like(xs, np.inf)    # Lentz's 1/tiny start: the first update sets c = b
    i = 0
    while pending.size:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        frac[pending] *= delta
        go = np.abs(delta - 1.0) > 2.0**-50    # 4 ulp of 1
        pending, b, c, d = pending[go], b[go], c[go], d[go]
    q = np.exp(a * np.log(xs) - xs - math.lgamma(a)) * frac
    out[mid] = (1.0 - q) / xs**a

    out[high] = 1.0 / x[high] ** a
    return out


def _radial_profile(X: np.ndarray, dimension: int) -> np.ndarray:
    """g_d(X) of the module docstring, elementwise; only X^2 is read, so X = R s serves for R|s|."""
    a = 0.5 * (dimension + 2)
    x = np.maximum(0.5 * X * X, 1e-18)    # g_d = g_d(0) + O(x): costs << 1 ulp, x^-a stays finite
    c = math.gamma(a) * (2.0 * a * a - 4.0 * a + 1.5)    # zero for d = 1
    if not c:
        return 2.0 * (2.0 - a - x) * np.exp(-x)
    g = x**a    # c * (1 / x^a), the far range's value, in _gamma_p_over_power's operations
    np.divide(1.0, g, out=g)
    g *= c
    near = x < _far_cutoff(a, c)
    xs = x[near]
    g[near] = 2.0 * (2.0 - a - xs) * np.exp(-xs) + c * _gamma_p_over_power(a, xs)
    return g


def _release_free_heap() -> None:
    """Return freed heap pages to the OS, where the C library has ``malloc_trim``.

    Each worker thread mallocs its chunk temporaries from its own glibc arena,
    and after the pool joins those arenas keep the freed pages resident (ex3
    field, 2 threads: ~6 MiB), under the dictionary build and greedy that
    follow. glibc's malloc_trim(0) releases them from every arena; it frees
    nothing live, so no value changes.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):     # TypeError: no CDLL(None) on Windows
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def collapsed_field(dataset: Dataset, directions, quad: RadialQuadrature | None = None,
                    threads: int = 1) -> CollapsedField:
    """Collapsed transform over a direction set, exact in r, chunked over directions.

    Results are written per-direction, so thread scheduling cannot change
    them; ``threads`` only splits the direction axis. After a threaded run the
    workers' freed heap goes back to the OS.
    """
    W = check_directions(directions, dataset.dim)
    A, b = W[:, :-1], W[:, -1]
    quad = quad or RadialQuadrature()
    d = dataset.dim
    R = quad.r_max
    scale = -R ** (d + 2) / (2.0 * (2.0 * math.pi) ** (d - 0.5))
    f = dataset.targets * (dataset.volume / dataset.n_points)
    values = np.empty(len(W))

    chunk = max(1, BLOCK_BUDGET // dataset.n_points)

    def run(lo: int, hi: int) -> None:
        S = preactivations(dataset.inputs, A[lo:hi], b[lo:hi])     # (n_train, m)
        values[lo:hi] = scale * (f @ _radial_profile(R * S, d))

    spans = [(lo, min(lo + chunk, len(W))) for lo in range(0, len(W), chunk)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda s: run(*s), spans))
        _release_free_heap()
    else:
        for lo, hi in spans:
            run(lo, hi)
    return CollapsedField(W, values)


def keep_rows(values, rel_threshold: float = 1e-3) -> np.ndarray:
    """Indices of the field values whose magnitude exceeds rel_threshold * max; if
    every value is zero the threshold is degenerate: all are kept, with a warning."""
    if not 0.0 <= rel_threshold < 1.0:
        raise ValueError("rel_threshold must lie in [0, 1)")
    mags = np.abs(values)
    peak = mags.max()
    if peak == 0.0:
        warnings.warn("all collapsed values are zero; pruning skipped", RuntimeWarning)
        return np.arange(mags.size)
    return np.flatnonzero(mags > rel_threshold * peak)


def prune_dictionary(dictionary: Dictionary, fld: CollapsedField,
                     rel_threshold: float = 1e-3) -> Dictionary:
    """Copies of the atoms that ``keep_rows`` keeps, given one field value per atom."""
    if fld.values.size != dictionary.n_atoms:
        raise ValueError("field must hold one value per dictionary atom")
    keep = keep_rows(fld.values, rel_threshold)
    return Dictionary(
        features=dictionary.features[:, keep],
        raw_norms=dictionary.raw_norms[keep],
        directions=dictionary.directions[keep],
    )


def save_field_csv(fld: CollapsedField, path) -> None:
    """Direction coordinates then value, one row per direction."""
    d = fld.directions.shape[1] - 1
    write_csv_table(path, [f"a{i+1}" for i in range(d)] + ["b", "value"],
                    [*fld.directions.T, fld.values])


def load_field_csv(path) -> CollapsedField:
    _, data = read_csv_table(path)
    return CollapsedField(data[:, :-1], data[:, -1])
