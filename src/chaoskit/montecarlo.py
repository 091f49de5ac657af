"""Sampling from the invariant measures and empirical characteristic functions.

Streams are counter-based (Philox): each (chunk, coordinate) pair owns a
disjoint counter range derived from the master seed, so a column's draws
depend only on (seed, chunk, column, kind), however chunks are scheduled.
`_stream` places a stream by re-keying a generator the caller holds, one per
task, so no stream builds a generator of its own.
Coordinates follow their basis measure: N(0,1) for Hermite, Gamma(alpha+1, 1)
for Laguerre, and the [-1,1]-mapped Beta(b, a) for Jacobi(a, b).  `sample`
writes them into a column-major batch, one column after another.  With
`evaluate`, `cf_gap` and `cf_gaps` it is the plain reference that the
streaming check is tested against; these take only functions on the space
the batch was drawn on.

Cost model of the characteristic-function check.  It streams CHUNK rows at a
time.  Per chunk it draws each column some component uses, with the call
`sample` makes, and runs one `eval_all` recurrence per column, keeping the
rows of the used degrees.  Those rows depend neither on where the recurrence
stops nor on the basis's max_degree (the tables agree on their common
prefix), so functions on different spaces share them.  Each distinct
component (same terms on columns of the same kinds: pair_mixed vectors at
equal n share F_1 whatever rho) is evaluated once, and the phases reduce to
one sum per t.  Memory grows with CHUNK times the rows used, not with the
sample count.  The phase step uses e^{i<t,F>} = prod_k e^{i t_k F_k}: per
component and distinct nonzero frequency w it builds one factor e^{iwF_k},
the square of the factor for w/2 when w/2 is also there, else from one `tan`
into a complex buffer: with tau = tan(wF_k/2), cos(wF_k) = s - 1 and
sin(wF_k) = tau * s, where s = 2/(1 + tau^2).  numpy 2.4 has SIMD loops for
float64 `tan` but none for `sin` and `cos`, so this costs about half a
`cos`/`sin` pair, and the factor is within 1e-15 of `exp(1j * w * F_k)`
(4e-16 seen over 6e6 values with |wF_k| up to 5e3).  No double lies close
enough to an odd multiple of pi for tau^2 to overflow, and a NaN or infinite
F_k gives a NaN factor.  Per t, one factor is summed; with more, the product
of all but the last is dotted with the last, one pass (BLAS zdotu) for the
last product and the sum.  Which factors, and which factor each t takes, is
planned once per request.  Since |z| = 1, var(Re z) + var(Im z) =
1 - |mean z|^2, so the standard error needs no second pass.  Against one
complex `exp` and two variances over the whole batch, this moves gaps and
standard errors by a few units in the last place.

Parallelism and workspace.  `_map` runs GIL-releasing numpy tasks on one
module-level thread pool, built on first use with one worker per usable core
(the process's CPU affinity), at most MAX_WORKERS; with one usable core it
is a plain map.  The check gives each worker the chunks w, w + W, ... and one
workspace for the request: a recurrence block, the used rows, the component
values, two float scratch rows, the complex factors and one product buffer,
all written in place with `out=`.  A complex chunk buffer is 8192 x 16 B =
128 KiB, glibc's default mmap threshold, and a recurrence block is larger,
so buffers allocated per chunk would each be mapped and page-faulted
afresh.  Nothing outlives the request.  Chunk sums are added in chunk order,
so every value, and every report byte, is the same whatever the worker
count.  They do depend on the host's numpy: it picks its `tan` loop by CPU
(on x86-64 the AVX-512 loop and the fallback differ in the last bit on about
0.5 % of inputs), and `np.dot` calls the BLAS `zdotu` it was built with.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .moments import GaussianTarget
from .spectral import ProductSpace, SpectralFn

CHUNK = 8192
# Each worker holds one chunk-sized workspace; the cap bounds peak memory on
# many-core hosts.
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


def _stream(gen: np.random.Generator, seed: int, chunk_index: int,
            coord: int) -> np.random.Generator:
    """gen, re-keyed to draw what a fresh Generator(Philox(key=seed,
    counter=(coord << 192) + (chunk_index << 128))) draws.  Setting the whole
    state drops what earlier draws left buffered; building a Philox with a
    key would read OS entropy that the key then discards."""
    key = int(seed)
    if not 0 <= key < 1 << 128:
        raise ValueError("key must be positive and less than 2**128.")
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, chunk_index, coord], "key": [key % 2**64, key >> 64]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


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
    gen = np.random.Generator(np.random.Philox(0))  # placed by _stream
    for j, basis in enumerate(space.coords):
        for c, start in enumerate(range(0, n, CHUNK)):
            stop = min(start + CHUNK, n)
            points[start:stop, j] = _draw(basis.kind, _stream(gen, seed, c, j), stop - start)
    points.setflags(write=False)
    return SampleBatch(space, n, seed, points)


def _check_space(batch: SampleBatch, fs) -> None:
    """Refuse functions that do not live on the space the batch was drawn on."""
    if any(f.space != batch.space for f in fs):
        raise ValueError("the batch was not drawn on the function's space")


def _layout(fns):
    """(columns, comps, index) for evaluating the functions on shared rows.

    columns has (column, basis, used degrees, first row) per (kind, column)
    some function uses, with the widest basis seen there; the used degrees
    take consecutive rows.  comps has each distinct component once, as its
    terms (coefficient, row numbers) in ascending key order, and fns[i] is
    comps[index[i]]: functions with the same terms on columns of the same
    kinds are one component, whatever their spaces."""
    used: dict[tuple, list] = {}  # (kind, column) -> [basis, used degrees]
    keys = []
    for f in fns:
        keys.append(tuple((v, tuple((f.space.coords[j].kind, j, deg)
                                    for j, deg in enumerate(alpha) if deg))
                          for alpha, v in f.items_sorted()))
        for _, cols in keys[-1]:
            for kind, j, deg in cols:
                entry = used.setdefault((kind, j), [f.space.coords[j], set()])
                entry[0] = max(entry[0], f.space.coords[j], key=lambda b: b.max_degree)
                entry[1].add(deg)
    columns, row = [], {}
    for (kind, j), (basis, degs) in used.items():
        columns.append((j, basis, sorted(degs), len(row)))
        row.update({(kind, j, deg): len(row) + r for r, deg in enumerate(sorted(degs))})
    position = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    comps = [[(v, tuple(row[col] for col in cols)) for v, cols in key] for key in position]
    return columns, comps, [position[key] for key in keys]


def _component(terms, rows: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = sum of v * prod rows[r] over the terms, in term order, written
    in place (tmp is scratch of out's length)."""
    out.fill(0.0)
    for v, term_rows in terms:
        if term_rows:
            np.multiply(rows[term_rows[0]], v, out=tmp)
        else:
            tmp.fill(v)
        for r in term_rows[1:]:
            np.multiply(tmp, rows[r], out=tmp)
        out += tmp


def evaluate(f: SpectralFn, batch: SampleBatch) -> np.ndarray:
    """Pointwise values of F at the rows of a batch drawn on F's space, via
    recurrence evaluation."""
    _check_space(batch, [f])
    columns, (terms,), _ = _layout([f])
    rows = np.empty((sum(len(degs) for _, _, degs, _ in columns), batch.n_samples))
    for j, basis, degs, first in columns:
        rows[first:first + len(degs)] = basis.eval_all(batch.points[:, j], degs[-1])[degs]
    out = np.empty(batch.n_samples)
    _component(terms, rows, out, np.empty(batch.n_samples))
    return out


def cf_gap(fs, c: GaussianTarget | np.ndarray, t, batch: SampleBatch,
           ) -> tuple[float, float]:
    """|empirical CF of (F_1..F_d) at t - Gaussian CF exp(-t'Ct/2)| and its
    standard error (at most 1/sqrt(n))."""
    return cf_gaps(fs, c, [t], batch)[0]


def cf_gaps(fs, c: GaussianTarget | np.ndarray, ts, batch: SampleBatch,
            ) -> list[tuple[float, float]]:
    """`cf_gap` at every t of ts on one batch.  Each component with a nonzero
    entry in some t is evaluated once per chunk.  The gap and stderr at t are
    bit for bit those `cf_gap` gives alone unless the entries of some
    component over ts include both w and w/2: its factor for w is then the
    square of the one for w/2, which moves them by a few units in the last
    place."""
    _check_space(batch, fs)
    return _gaps([(fs, c, ts)], batch.n_samples,
                 lambda gen, chunk, kind, j, start, stop: batch.points[start:stop, j])[0]


def sampled_cf_gaps(vectors, n: int, seed: int) -> list[list[tuple[float, float]]]:
    """`cf_gaps(fs, c, ts, sample(fs[0].space, n, seed))` for every (fs, c, ts)
    of vectors, bit for bit, without a batch: each chunk of each column some
    component uses is drawn as `sample` draws it, once for all the vectors,
    and is dropped with its chunk."""
    if n < 1:
        raise ValueError("need at least one sample")
    return _gaps(vectors, n, lambda gen, chunk, kind, j, start, stop:
                 _draw(kind, _stream(gen, seed, chunk, j), stop - start))


def _gaps(vectors, n: int, column) -> list[list[tuple[float, float]]]:
    """The CF gaps of every (fs, c, ts) of vectors over n samples, where
    column(gen, chunk, kind, j, start, stop) gives rows start:stop of column
    j, and gen is the calling task's generator for `_stream` to place."""
    plans, fns = [], []
    for fs, c, ts in vectors:
        fs = tuple(fs)
        c = GaussianTarget.of(c, len(fs))
        ts = [np.asarray(t, dtype=float) for t in ts]
        for t in ts:
            if t.shape != (len(fs),):
                raise ValueError(f"t has shape {t.shape}, expected ({len(fs)},)")
        freqs = [sorted({float(t[k]) for t in ts if t[k] != 0.0}, key=abs)
                 for k in range(len(fs))]
        ks = [k for k in range(len(fs)) if freqs[k]]
        plans.append((c, ts, [(k, len(fns) + i, freqs[k]) for i, k in enumerate(ks)]))
        fns += [fs[k] for k in ks]
    columns, comps, index = _layout(fns)
    phases = [_phase_plan(ts, [(k, index[i], ws) for k, i, ws in parts])
              for _, ts, parts in plans]
    n_rows = sum(len(degs) for _, _, degs, _ in columns)
    top = max((degs[-1] for _, _, degs, _ in columns), default=0)
    n_factors = max((len(steps) for steps, _ in phases), default=0)
    n_chunks = -(-n // CHUNK)
    stride = min(_WORKERS, n_chunks)
    sizes = [top + 1, n_rows, len(comps), 2, 2 * n_factors, 2]  # in CHUNK-row units

    def stripe(first: int) -> list[list[np.ndarray]]:
        # One workspace per task, in one allocation, reused by each of its
        # chunks: every buffer is written in place, so no chunk allocates a
        # CHUNK-sized array.  glibc maps a block past its mmap threshold, and
        # raises the threshold once it frees one, so later requests reuse
        # heap pages instead of faulting a fresh mapping in.
        table, rows, values, scratch, factors, product = np.split(
            np.empty((sum(sizes), CHUNK)), np.cumsum(sizes)[:-1])
        scratch, scale = scratch
        factors = factors.reshape(n_factors, 2 * CHUNK).view(complex)
        product = product.reshape(2 * CHUNK).view(complex)
        gen = np.random.Generator(np.random.Philox(0))  # placed by _stream
        out = []
        for chunk in range(first, n_chunks, stride):
            start = chunk * CHUNK
            m = min(CHUNK, n - start)
            for j, basis, degs, row in columns:
                x = column(gen, chunk, basis.kind, j, start, start + m)
                block = basis.eval_all(x, degs[-1], out=table[:degs[-1] + 1, :m])
                for r, deg in enumerate(degs, row):
                    rows[r, :m] = block[deg]
            for i, terms in enumerate(comps):
                _component(terms, rows[:, :m], values[i, :m], scratch[:m])
            out.append([_phase_sums(steps, uses, values[:, :m], factors[:, :m],
                                    product[:m], scratch[:m], scale[:m])
                        for steps, uses in phases])
        return out

    done = _map(stripe, range(stride))
    # chunk sums added in chunk order, whatever the worker count
    by_chunk = [done[chunk % stride][chunk // stride] for chunk in range(n_chunks)]
    results = []
    for i, (c, ts, _) in enumerate(plans):
        means = sum(sums[i] for sums in by_chunk) / n
        out = []
        for t, emp in zip(ts, means):
            exact = np.exp(-0.5 * float(t @ c.cov @ t))
            # |z| = 1, so var(Re z) + var(Im z) = 1 - |mean z|^2; one sample has
            # variance 0, where the identity would leave a rounding residue
            var = max(0.0, 1.0 - abs(emp) ** 2) if n > 1 else 0.0
            out.append((float(abs(emp - exact)), float(np.sqrt(var / n))))
        results.append(out)
    return results


def _phase_plan(ts, parts) -> tuple[list[tuple], list[tuple]]:
    """(steps, uses) of one vector, from parts = (k, component, sorted
    frequencies of F_k): steps[slot] = (component, w, slot of the factor for
    w/2 or None) builds factor e^{iwF_k}, and uses holds per t the slots of
    the factors whose product is e^{i<t,F>}."""
    slot, steps = {}, []
    for k, i, ws in parts:
        for w in ws:
            steps.append((i, w, slot.get((k, w / 2))))
            slot[k, w] = len(steps) - 1
    return steps, [tuple(slot[k, w] for k, w in enumerate(t) if w != 0.0) for t in ts]


def _phase_sums(steps, uses, values: np.ndarray, factors: np.ndarray,
                product: np.ndarray, phase: np.ndarray, scale: np.ndarray,
                ) -> np.ndarray:
    """Per t, the chunk's sum of e^{i<t,F>} = prod_k e^{i t_k F_k} by the
    plan (steps, uses) of `_phase_plan`; the arrays are the chunk's rows of
    the workspace."""
    for e, (i, w, half) in zip(factors, steps):
        if half is not None:  # e^{2iwF} = (e^{iwF})^2 costs no tan
            np.multiply(factors[half], factors[half], out=e)
        else:  # with tau = tan(wF/2): e^{iwF} = (2/(1 + tau^2)) * (1 + i tau) - 1
            np.multiply(values[i], 0.5 * w, out=phase)
            np.tan(phase, out=phase)
            np.multiply(phase, phase, out=scale)
            np.add(scale, 1.0, out=scale)
            np.divide(2.0, scale, out=scale)
            np.multiply(phase, scale, out=e.imag)
            np.subtract(scale, 1.0, out=e.real)
    sums = np.empty(len(uses), dtype=complex)
    for i, slots in enumerate(uses):
        if not slots:
            sums[i] = phase.size
        elif len(slots) == 1:
            sums[i] = factors[slots[0]].sum()
        else:  # the last product and the sum fused in one dot
            z = factors[slots[0]]
            for s in slots[1:-1]:
                z = np.multiply(z, factors[s], out=product)
            sums[i] = np.dot(z, factors[slots[-1]])
    return sums
