"""Sampling from the invariant measures and empirical characteristic functions.

Streams are counter-based (Philox): each (chunk, coordinate) pair owns a
disjoint counter range derived from the master seed, so batches are
bit-reproducible for a fixed seed no matter how chunks are scheduled, and the
reduction into the sample matrix is by position.  Coordinates follow their
basis measure: N(0,1) for Hermite, Gamma(alpha+1, 1) for Laguerre, and the
[-1,1]-mapped Beta(b, a) for Jacobi(a, b).  The matrix is column-major, so
each coordinate's column is contiguous to write and to read.

Cost model of the characteristic-function check.  A column's draws depend
only on (seed, chunk, column, kind), and `eval_all` is a forward recurrence
whose rows do not depend on the degree it stops at (nor on the basis's
max_degree: the recurrence tables agree on their common prefix), so a batch
over the widest space of a kind serves every function on that kind.  The
bound-check runner samples one such batch per kind and `tabulate`s it for
all of its vectors: each distinct column is drawn once and gets one
recurrence table, each (column, degree) row is kept once, and the points are
dropped once the rows exist.  On `configs/bound_check.json` that is 16 drawn
columns and 16 tables, where a batch per vector drew 37 and built 42.
`cf_gaps` evaluates each component once per batch, one pass over its support
on those rows.  The phase step uses e^{i<t,F>} = prod_k e^{i t_k F_k}.
Per component and distinct nonzero frequency w among the t_k it builds one
factor e^{iwF_k}: the square of the factor for w/2 when w/2 is also among
them, else one `cos`/`sin` pair written into the real and imaginary parts of
a complex buffer (with numpy 2.4 on x86-64, bit for bit `exp(1j * w * F_k)`).
Per t it takes one product of factors and one sum.  On the default axis
(0.25, 0.5, 1, 2) every frequency but the smallest is a square, so
`configs/bound_check.json` needs 10 cos/sin pairs and 30 complex squares for
its 72 t, where one complex `exp` per t over the batch cost 72.  Nothing
batch-sized is complex: each chunk task holds CHUNK-row factors.

Since |z| = 1, var(Re z) + var(Im z) = 1 - |mean z|^2, so the standard error
needs no second pass over z.  Against one complex `exp` of sum_k t_k F_k and
two variances over the whole batch, the squares, the factor products, the
chunked sums and this identity move gaps and standard errors by a few units
in the last place.

Parallelism: the sample columns and the phase step's chunk tasks (CHUNK
sample rows each, all frequencies) are independent numpy work that releases
the interpreter lock, so `_map` runs them on one module-level thread pool,
built on first use with one worker per usable core (the process's CPU
affinity), at most MAX_WORKERS.  With one usable core it is a plain map.
Each task sums in a fixed order, results are placed by position and the
chunk sums are added in chunk order, so every value, and every report byte,
is the same whatever the worker count.  Evaluation tables are built one
column at a time in the calling thread: each holds a (degree + 1) x batch
recurrence block, and building two at once on pool threads raised the
benchmark's mc-bound peak RSS by about 8 MB to save about 5 % of a request.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .moments import GaussianTarget
from .spectral import ProductSpace, SpectralFn

CHUNK = 8192
# Sample tasks write into the shared matrix and phase tasks hold only
# chunk-sized factors; the cap bounds peak memory on many-core hosts.
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
    """n_samples x dim matrix of i.i.d. draws from mu, tied to its space.

    A batch from `tabulate` holds evaluation rows Q_deg(column), keyed by
    (column, degree), in place of its points (None).
    """

    space: ProductSpace
    n_samples: int
    seed: int
    points: np.ndarray | None
    _rows: dict = field(default_factory=dict, repr=False)


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


def _covers(batch: SampleBatch, space: ProductSpace) -> bool:
    """Whether the batch's leading columns are draws for the space's
    coordinates, with bases that reach their degrees."""
    return space.dim <= batch.space.dim and all(
        b.kind == c.kind and b.max_degree >= c.max_degree
        for b, c in zip(batch.space.coords, space.coords))


def _rows_for(batch: SampleBatch, fs) -> dict[tuple[int, int], np.ndarray]:
    """(column, degree) -> Q_degree at that column, for every row the
    functions use: the batch's own rows where it holds them, the others from
    one `eval_all` per column, to that column's highest missing degree."""
    need = set()
    for f in fs:
        if not _covers(batch, f.space):
            raise ValueError("the batch does not cover the function's space")
        need.update((j, deg) for alpha in f.support() for j, deg in enumerate(alpha) if deg)
    rows = {key: batch._rows[key] for key in need if key in batch._rows}
    missing: dict[int, set[int]] = {}
    for j, deg in need - rows.keys():
        missing.setdefault(j, set()).add(deg)
    if missing and batch.points is None:
        raise ValueError("the batch holds neither points nor the rows the function uses")

    def table(j: int) -> dict[tuple[int, int], np.ndarray]:
        # only the missing rows outlive the recurrence block
        full = batch.space.coords[j].eval_all(batch.points[:, j], deg=max(missing[j]))
        return {(j, deg): full[deg].copy() for deg in missing[j]}

    for j in missing:
        rows.update(table(j))
    return rows


def tabulate(batch: SampleBatch, fs) -> SampleBatch:
    """The batch with its points replaced by the evaluation rows the functions
    use, computed once each: every function of fs, and every function whose
    rows are among them, evaluates on the result bit for bit as on the batch.
    Once the caller drops the batch, only the rows stay in memory."""
    rows = _rows_for(batch, fs)
    for row in rows.values():
        row.setflags(write=False)
    return SampleBatch(batch.space, batch.n_samples, batch.seed, None, _rows=rows)


def evaluate(f: SpectralFn, batch: SampleBatch) -> np.ndarray:
    """Pointwise values of F at the batch rows, via recurrence evaluation.

    The batch may be wider than F's space: its leading columns must have F's
    basis kinds and degree range."""
    rows = _rows_for(batch, [f])
    out = np.zeros(batch.n_samples)
    for alpha, v in f.items_sorted():
        term = np.full(batch.n_samples, v)
        for j, deg in enumerate(alpha):
            if deg:
                term = term * rows[j, deg]
        out += term
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
    freqs = [{float(t[k]) for t in ts if t[k] != 0.0} for k in range(len(fs))]
    values = [evaluate(f, batch) if freqs[k] else None for k, f in enumerate(fs)]
    n = batch.n_samples

    def chunk_sums(start: int) -> np.ndarray:
        rows = slice(start, min(start + CHUNK, n))
        factor = {}
        for k, ws in enumerate(freqs):
            for w in sorted(ws, key=abs):
                half = factor.get((k, w / 2))
                if half is not None:  # e^{2iwF} = (e^{iwF})^2 costs no cos/sin
                    factor[k, w] = half * half
                    continue
                phase = w * values[k][rows]
                e = np.empty(phase.size, dtype=complex)
                np.cos(phase, out=e.real)
                np.sin(phase, out=e.imag)
                factor[k, w] = e
        sums = np.empty(len(ts), dtype=complex)
        for i, t in enumerate(ts):
            z = None
            for k, w in enumerate(t):
                if w != 0.0:
                    z = factor[k, w] if z is None else z * factor[k, w]
            sums[i] = rows.stop - start if z is None else z.sum()
        return sums

    # chunk sums added in chunk order, whatever the worker count
    means = sum(_map(chunk_sums, range(0, n, CHUNK))) / n
    out = []
    for t, emp in zip(ts, means):
        exact = np.exp(-0.5 * float(t @ c.cov @ t))
        # |z| = 1, so var(Re z) + var(Im z) = 1 - |mean z|^2; one sample has
        # variance 0, where the identity would leave a rounding residue
        var = max(0.0, 1.0 - abs(emp) ** 2) if n > 1 else 0.0
        out.append((float(abs(emp - exact)), float(np.sqrt(var / n))))
    return out
