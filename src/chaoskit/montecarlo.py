"""Sampling from the invariant measures and empirical characteristic functions.

Streams are counter-based (Philox): each (chunk, coordinate) pair owns a
disjoint counter range derived from the master seed, so batches are
bit-reproducible for a fixed seed no matter how chunks are scheduled, and the
reduction into the sample matrix is by position.  Coordinates follow their
basis measure: N(0,1) for Hermite, Gamma(alpha+1, 1) for Laguerre, and the
[-1,1]-mapped Beta(b, a) for Jacobi(a, b).

Cost model of the characteristic-function check: `cf_gaps` evaluates each
component once per batch (recurrence tables from `Basis.eval_all`, then one
pass over the support), then spends, per frequency t, one weighted sum of the
component values and one complex `exp` over the batch.  That per-t phase step
is the floor and the largest share of a bound check.  It has no bit-identical
shortcut: the means of `cos` and `sin` sum in another order than the complex
mean of `exp(1j*s)`, and can differ from it in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import GaussianTarget
from .spectral import ProductSpace, SpectralFn

CHUNK = 8192


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
    points = np.empty((n, space.dim))
    for j, basis in enumerate(space.coords):
        for c, start in enumerate(range(0, n, CHUNK)):
            stop = min(start + CHUNK, n)
            gen = _stream(seed, c, j)
            points[start:stop, j] = _draw(basis.kind, gen, stop - start)
    points.setflags(write=False)
    return SampleBatch(space, n, seed, points)


def evaluate(f: SpectralFn, batch: SampleBatch) -> np.ndarray:
    """Pointwise values of F at the batch rows, via recurrence evaluation."""
    if f.space != batch.space:
        raise ValueError("function and batch live on different spaces")
    d = f.space.dim
    need = [0] * d
    for alpha in f.support():
        for j, deg in enumerate(alpha):
            need[j] = max(need[j], deg)
    tables = [
        f.space.coords[j].eval_all(batch.points[:, j], deg=need[j])
        if need[j] > 0 else None
        for j in range(d)
    ]
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
    out = []
    for t in ts:
        s = np.zeros(batch.n_samples)
        for ti, v in zip(t, values):
            if ti != 0.0:
                s += ti * v
        z = np.exp(1j * s)
        emp = z.mean()
        exact = np.exp(-0.5 * float(t @ c.cov @ t))
        gap = abs(emp - exact)
        stderr = float(np.sqrt((z.real.var() + z.imag.var()) / batch.n_samples))
        out.append((float(gap), stderr))
    return out
