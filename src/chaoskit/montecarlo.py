"""Sampling from the invariant measures and empirical characteristic functions.

Streams are counter-based (Philox): each (chunk, coordinate) pair owns a
disjoint counter range derived from the master seed, so batches are
bit-reproducible for a fixed seed no matter how chunks are scheduled, and the
reduction into the sample matrix is by position.  Coordinates follow their
basis measure: N(0,1) for Hermite, Gamma(alpha+1, 1) for Laguerre, and the
[-1,1]-mapped Beta(b, a) for Jacobi(a, b).  The matrix is column-major, so
each coordinate's column is contiguous to write and to read.

Cost model of the characteristic-function check: `cf_gaps` evaluates each
component once per batch (recurrence tables from `Basis.eval_all`, then one
pass over the support), then spends, per frequency t, one weighted sum of the
component values and one complex `exp` over the batch.  That per-t phase step
is the floor and the largest share of a bound check.  It has no bit-identical
shortcut: the means of `cos` and `sin` sum in another order than the complex
mean of `exp(1j*s)`, and can differ from it in the last bit.

Parallelism: the per-t phase steps, the sample columns and the per-coordinate
evaluation tables are independent numpy work that releases the interpreter
lock, so `_map` runs them on one module-level thread pool, built on first use
with one worker per usable core (the process's CPU affinity), at most
MAX_WORKERS.  With one usable core it is a plain map.  Each task sums in the
same order as a serial loop and results are placed by position, so every
value, and every report byte, is the same whatever the worker count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .moments import GaussianTarget
from .spectral import ProductSpace, SpectralFn

CHUNK = 8192
# Each worker holds a few batch-sized buffers at once; the cap bounds peak
# memory on many-core hosts.
MAX_WORKERS = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_WORKERS = min(MAX_WORKERS, _usable_cores())
_pool = None
_pool_lock = threading.Lock()


def _map(fn, items) -> list:
    """[fn(x) for x in items] in input order, on the module's thread pool when
    more than one core is usable and there is more than one item.  Tasks must
    be GIL-releasing numpy work and must not call `_map` themselves."""
    global _pool
    items = list(items)
    if _WORKERS < 2 or len(items) < 2:
        return list(map(fn, items))
    with _pool_lock:
        if _pool is None:
            # deferred: `import chaoskit` does not load concurrent.futures
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="chaoskit")
    return list(_pool.map(fn, items))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """n_samples x dim matrix of i.i.d. draws from mu, tied to its space."""

    space: ProductSpace
    n_samples: int
    seed: int
    points: np.ndarray


def _stream(seed: int, chunk_index: int, coord: int) -> np.random.Generator:
    counter = (coord << 192) + (chunk_index << 128)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _draw(kind, gen: np.random.Generator, size: int) -> np.ndarray:
    if kind.family == "hermite":
        return gen.standard_normal(size)
    if kind.family == "laguerre":
        return gen.gamma(kind.params[0] + 1.0, size=size)
    a, b = kind.params
    return 2.0 * gen.beta(b, a, size=size) - 1.0


def sample(space: ProductSpace, n: int, seed: int) -> SampleBatch:
    """Deterministic i.i.d. batch: row k, column j ~ mu_j, fixed by (seed, n)."""
    if n < 1:
        raise ValueError("need at least one sample")
    points = np.empty((n, space.dim), order="F")

    def fill(j: int) -> None:
        kind, column = space.coords[j].kind, points[:, j]
        for c, start in enumerate(range(0, n, CHUNK)):
            stop = min(start + CHUNK, n)
            column[start:stop] = _draw(kind, _stream(seed, c, j), stop - start)

    _map(fill, range(space.dim))
    points.setflags(write=False)
    return SampleBatch(space, n, seed, points)


def evaluate(f: SpectralFn, batch: SampleBatch) -> np.ndarray:
    """Pointwise values of F at the batch rows, via recurrence evaluation."""
    if f.space != batch.space:
        raise ValueError("function and batch live on different spaces")
    rows: list[set[int]] = [set() for _ in range(f.space.dim)]
    for alpha in f.support():
        for j, deg in enumerate(alpha):
            if deg:
                rows[j].add(deg)

    def table(j: int) -> dict[int, np.ndarray]:
        # only the rows the support uses outlive the recurrence block
        full = f.space.coords[j].eval_all(batch.points[:, j], deg=max(rows[j]))
        return {deg: full[deg].copy() for deg in rows[j]}

    used = [j for j in range(f.space.dim) if rows[j]]
    tables = dict(zip(used, _map(table, used)))
    out = np.zeros(batch.n_samples)
    for alpha, v in f.items_sorted():
        term = np.full(batch.n_samples, v)
        for j, deg in enumerate(alpha):
            if deg:
                term = term * tables[j][deg]
        out += term
    return out


def ks_pvalues(batch: SampleBatch) -> list[float]:
    """Kolmogorov-Smirnov p-value of each coordinate against its basis measure."""
    from scipy import stats  # deferred: it would dominate `import chaoskit`

    out = []
    for j, basis in enumerate(batch.space.coords):
        kind = basis.kind
        if kind.family == "hermite":
            dist = stats.norm()
        elif kind.family == "laguerre":
            dist = stats.gamma(kind.params[0] + 1.0)
        else:
            a, b = kind.params
            dist = stats.beta(b, a, loc=-1.0, scale=2.0)
        out.append(float(stats.kstest(batch.points[:, j], dist.cdf).pvalue))
    return out


def cf_gap(fs, c: GaussianTarget | np.ndarray, t, batch: SampleBatch,
           ) -> tuple[float, float]:
    """|empirical CF of (F_1..F_d) at t - Gaussian CF exp(-t'Ct/2)| and its
    standard error (at most 1/sqrt(n))."""
    return cf_gaps(fs, c, [t], batch)[0]


def cf_gaps(fs, c: GaussianTarget | np.ndarray, ts, batch: SampleBatch,
            ) -> list[tuple[float, float]]:
    """`cf_gap` at every t of ts on one batch.  Each component with a nonzero
    entry in some t is evaluated once; the gap at t is bit for bit the one
    `cf_gap` gives alone."""
    fs = tuple(fs)
    c = c if isinstance(c, GaussianTarget) else GaussianTarget(np.asarray(c))
    ts = [np.asarray(t, dtype=float) for t in ts]
    for t in ts:
        if t.shape != (len(fs),):
            raise ValueError(f"t has shape {t.shape}, expected ({len(fs)},)")
    if c.dim != len(fs):
        raise ValueError("covariance dimension does not match component count")
    values = [evaluate(f, batch) if any(t[i] != 0.0 for t in ts) else None
              for i, f in enumerate(fs)]

    def phase(t: np.ndarray) -> tuple[float, float]:
        s = np.zeros(batch.n_samples)
        for ti, v in zip(t, values):
            if ti != 0.0:
                s += ti * v
        z = np.exp(1j * s)
        emp = z.mean()
        exact = np.exp(-0.5 * float(t @ c.cov @ t))
        gap = abs(emp - exact)
        stderr = float(np.sqrt((z.real.var() + z.imag.var()) / batch.n_samples))
        return float(gap), stderr

    return _map(phase, ts)
