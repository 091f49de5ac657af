"""Sampling determinism, distributional diagnostics, pointwise evaluation,
empirical characteristic functions."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chaoskit import (
    ProductSpace,
    SpectralFn,
    cf_gap,
    cf_gaps,
    evaluate,
    experiments,
    hermite,
    inner,
    jacobi,
    laguerre,
    make_basis,
    mixed22,
    moment4,
    montecarlo,
    pair_mixed,
    product_space,
    sample,
    sampled_cf_gaps,
    spread,
)
from chaoskit.basis import Basis
from chaoskit.montecarlo import CHUNK

BOUND_CHECK = Path(__file__).parent.parent / "configs" / "bound_check.json"
# Three Hermite basis functions on a 3-coordinate space: t with three nonzero
# entries multiplies three phase factors.
HERMITE_TRIPLE = tuple(SpectralFn(product_space(hermite(), 3, 3), {alpha: 1.0})
                       for alpha in ((2, 0, 0), (1, 1, 0), (0, 1, 2)))


def test_fixed_seed_reproduces_batches():
    space = product_space(hermite(), 4, 3)
    b1 = sample(space, 2 * CHUNK + 17, seed=123)
    b2 = sample(space, 2 * CHUNK + 17, seed=123)
    assert np.array_equal(b1.points, b2.points)
    b3 = sample(space, 2 * CHUNK + 17, seed=124)
    assert not np.array_equal(b1.points, b3.points)


def test_sample_columns_match_serial_reference():
    """The column-major batch holds, bit for bit, the draws of each
    (chunk, coordinate) stream placed by position."""
    space = ProductSpace(tuple(make_basis(kind, 4) for kind in (
        hermite(), laguerre(0.5), jacobi(2.0, 3.0), hermite(), laguerre(0.0))))
    n = 2 * CHUNK + 17
    ref = np.empty((n, space.dim))
    for j, basis in enumerate(space.coords):
        for c, start in enumerate(range(0, n, CHUNK)):
            stop = min(start + CHUNK, n)
            gen = np.random.Generator(np.random.Philox(key=5, counter=(j << 192) + (c << 128)))
            ref[start:stop, j] = montecarlo._draw(basis.kind, gen, stop - start)
    points = sample(space, n, seed=5).points
    assert points.flags.f_contiguous and points.shape == (n, space.dim)
    assert np.array_equal(points, ref)
    assert points.tobytes(order="C") == ref.tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_stream_placement_matches_a_fresh_philox(seed):
    """A re-keyed generator draws exactly what a fresh Philox at the stream's
    (key, counter) draws, also right after a draw of another family has left
    buffered state (the gamma and beta rejection samplers, an odd uint32)."""
    kinds = (hermite(), laguerre(0.5), jacobi(2.0, 3.0))
    gen = np.random.Generator(np.random.Philox(0))
    for chunk in (0, 1, 2):
        for coord in (0, 5):
            for kind, before in zip(kinds, kinds[1:] + kinds[:1]):
                montecarlo._draw(before, gen, 7)
                gen.integers(2**31, dtype=np.uint32)
                fresh = np.random.Generator(np.random.Philox(
                    key=seed, counter=(coord << 192) + (chunk << 128)))
                placed = montecarlo._stream(gen, seed, chunk, coord)
                assert placed is gen
                assert (montecarlo._draw(kind, placed, 1000).tobytes()
                        == montecarlo._draw(kind, fresh, 1000).tobytes())


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_stream_placement_refuses_what_philox_refuses(seed):
    with pytest.raises(ValueError) as fresh:
        np.random.Philox(key=seed)
    with pytest.raises(ValueError) as placed:
        montecarlo._stream(np.random.Generator(np.random.Philox(0)), seed, 0, 0)
    assert str(placed.value) == str(fresh.value)


def test_sample_mean_envelopes():
    n = 100_000
    space = product_space(hermite(), 4, 1)
    batch = sample(space, n, seed=1)
    assert abs(batch.points.mean()) <= 3.0 / math.sqrt(n)

    space = product_space(laguerre(0.0), 4, 1)
    batch = sample(space, n, seed=2)
    assert abs(batch.points.mean() - 1.0) <= 3.0 / math.sqrt(n)


def ks_pvalues(batch) -> list[float]:
    """Kolmogorov-Smirnov p-value of each coordinate against its basis measure."""
    from scipy import stats

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


def test_ks_diagnostics_gate():
    n = 10_000
    for kind in (hermite(), laguerre(0.0), laguerre(1.5), jacobi(2.0, 2.0),
                 jacobi(1.0, 3.0)):
        space = product_space(kind, 4, 1)
        batch = sample(space, n, seed=11)
        assert ks_pvalues(batch)[0] > 0.001, kind.label()


def test_evaluate_examples():
    space = product_space(hermite(), 4, 2)
    n = 100_000
    batch = sample(space, n, seed=3)
    assert np.array_equal(evaluate(space.unit(), batch), np.ones(n))

    q1 = space.basis_fn((1, 0))
    vals = evaluate(q1, batch)
    assert abs(vals.var() - 1.0) <= 3.0 * math.sqrt(2.0 / n)

    space8 = product_space(hermite(), 8, 2)
    f = space8.basis_fn((2, 0), coeff=2 ** -0.5)
    batch8 = sample(space8, n, seed=3)
    m4_emp = (evaluate(f, batch8) ** 4).mean()
    from chaoskit import multiply

    f2 = multiply(f, f)
    var_f4 = mixed22(f2, f2) - (15.0 / 4.0) ** 2  # E[F^8] - (E[F^4])^2
    assert abs(m4_emp - 15.0 / 4.0) <= 4.0 * math.sqrt(var_f4 / n)


def test_empirical_moments_match_exact_within_4_stderr():
    n = 100_000
    space = product_space(hermite(), 8, 2)
    f = space.basis_fn((2, 0), coeff=0.6) + space.basis_fn((1, 1), coeff=0.8)
    batch = sample(space, n, seed=5)
    vals = evaluate(f, batch)

    m2 = inner(f, f)
    m4 = moment4(f)
    se_m2 = math.sqrt((m4 - m2 * m2) / n)
    assert abs((vals**2).mean() - m2) <= 4.0 * se_m2

    sq = f.space  # E[F^4] needs Var(F^4) = m8 - m4^2
    from chaoskit import multiply

    f2 = multiply(f, f)
    m8 = mixed22(f2, f2)
    se_m4 = math.sqrt((m8 - m4 * m4) / n)
    assert abs((vals**4).mean() - m4) <= 4.0 * se_m4


def _evaluate_full_tables(f, batch):
    """evaluate before row pruning: full (deg+1, n) tables, serial."""
    need = [max(alpha[j] for alpha in f.support()) for j in range(f.space.dim)]
    tables = [b.eval_all(batch.points[:, j], deg=need[j]) for j, b in enumerate(f.space.coords)]
    out = np.zeros(batch.n_samples)
    for alpha, v in f.items_sorted():
        term = np.full(batch.n_samples, v)
        for j, deg in enumerate(alpha):
            if deg:
                term = term * tables[j][deg]
        out += term
    return out


@pytest.mark.parametrize("f", [
    spread(hermite(), 3, 4),
    spread(laguerre(0.5), 2, 3),
    spread(jacobi(2.0, 3.0), 2, 3),
    experiments.random_span_function(
        ProductSpace((make_basis(hermite(), 5), make_basis(laguerre(0.5), 3),
                      make_basis(jacobi(2.0, 3.0), 4))),
        random.Random(2), max_terms=8),
], ids=["hermite", "laguerre", "jacobi", "mixed-span"])
def test_evaluate_matches_full_table_reference(f, monkeypatch):
    batch = sample(f.space, 3000, seed=6)
    ref = _evaluate_full_tables(f, batch)
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        assert evaluate(f, batch).tobytes() == ref.tobytes()


def test_evaluate_space_mismatch():
    s1 = product_space(hermite(), 4, 1)
    s2 = product_space(hermite(), 4, 2)
    batch = sample(s1, 10, seed=0)
    with pytest.raises(ValueError):
        evaluate(s2.unit(), batch)


def test_evaluate_on_a_wider_batch():
    """A batch evaluates only functions on the space it was drawn on: a batch
    wider than a function's space is refused, like one of another kind, width
    or degree range, by evaluate and by cf_gap."""
    space = product_space(hermite(), 6, 3)
    batch = sample(space, 1000, seed=13)
    assert evaluate(spread(hermite(), 3, 3), batch).shape == (1000,)  # on its space
    narrow = spread(hermite(), 3, 2)
    assert narrow.space.dim == 2 and narrow.space.coords[0].max_degree == 6
    for other in (narrow, spread(laguerre(0.5), 1, 1), spread(hermite(), 1, 4),
                  spread(hermite(), 4, 1)):  # width, kind, width, degree range
        with pytest.raises(ValueError, match="not drawn on the function's space"):
            evaluate(other, batch)
        with pytest.raises(ValueError, match="not drawn on the function's space"):
            cf_gap([other], np.eye(1), [1.0], batch)


def test_cf_gap_zero_frequency_is_exact():
    space = product_space(hermite(), 4, 1)
    batch = sample(space, 1000, seed=7)
    gap, stderr = cf_gap([space.basis_fn((1,))], np.eye(1), [0.0], batch)
    assert gap == 0.0 and stderr == 0.0


def test_cf_gap_exact_gaussian_within_noise():
    space = product_space(hermite(), 4, 1)
    batch = sample(space, 100_000, seed=8)
    f = space.basis_fn((1,))
    for t in (0.25, 0.5, 1.0, 2.0):
        gap, stderr = cf_gap([f], np.eye(1), [t], batch)
        assert gap <= 3.0 * stderr, t


def test_cf_gap_validation():
    space = product_space(hermite(), 4, 1)
    batch = sample(space, 100, seed=9)
    f = space.basis_fn((1,))
    with pytest.raises(ValueError):
        cf_gap([f], np.eye(1), [1.0, 2.0], batch)
    with pytest.raises(ValueError):
        cf_gap([f], np.eye(2), [1.0], batch)
    fs = pair_mixed(2, 2, 0.5, 2)
    batch = sample(fs[0].space, 100, seed=9)
    for ts in ([[1.0, 0.0], [1.0]], [[1.0, 0.0, 0.0], [1.0, 2.0]]):
        with pytest.raises(ValueError, match="t has shape"):
            cf_gaps(fs, np.eye(2), ts, batch)
    with pytest.raises(ValueError, match="covariance dimension"):
        cf_gaps(fs, np.eye(1), [[1.0, 0.0], [0.0, 1.0]], batch)
    # Against a variance of inf, Q_2/sqrt(2) got the plausible-looking gap
    # 0.8328 (0.104 against its variance 0.5), and against NaN a NaN gap.
    g = spread(hermite(), 2, 1).scale(2 ** -0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            sampled_cf_gaps([([g], [[bad]], [[1.0]])], 1000, 1)
        with pytest.raises(ValueError, match="must be finite"):
            cf_gap([g], np.array([[bad]]), [1.0], sample(g.space, 1000, 1))


@pytest.mark.parametrize("fs, ts, n, seed", [
    ((spread(hermite(), 2, 1),), [[0.0], [0.5], [1.0], [2.5]], 5000, 4),
    ((spread(laguerre(0.5), 2, 1),), [[0.25], [0.0], [2.0]], 5000, 4),
    ((spread(jacobi(2.0, 3.0), 2, 1),), [[1.0], [-0.5], [0.0]], 5000, 4),
    (pair_mixed(2, 2, 0.5, 4), [[0.0, 1.0], [0.5, 0.0], [1.0, 2.0], [0.0, 0.0],
                                [-0.25, 0.75]], 5000, 4),
    ((spread(laguerre(0.5), 1, 1),), [[0.25], [0.5]], 20_000, 7),
    (HERMITE_TRIPLE, [[1.0, 0.75, -0.5], [0.0, 1.25, 0.3], [0.6, 0.0, 0.0], [0.0, 0.0, 0.0],
                      [-0.4, 0.75, 0.3]], 5000, 4),
], ids=["hermite", "laguerre", "jacobi", "pair", "laguerre-half-frequency", "hermite-d3"])
def test_cf_gaps_equals_cf_gap_at_each_t(fs, ts, n, seed):
    """cf_gaps at each t is cf_gap alone bit for bit where no component's
    frequencies hold both w and w/2.  Where they do, the factor for w is the
    square of the one for w/2, and gap and stderr stay within 1e-14: for
    Laguerre(1/2)-Q1 at t = 0.5 next to 0.25 (20,000 samples, seed 7) the
    gap moved from 0.0301179159982228 to 0.030117915998222805 on x86-64."""
    c = np.array([[inner(f, g) for g in fs] for f in fs])
    batch = sample(fs[0].space, n, seed=seed)
    together = cf_gaps(fs, c, ts, batch)
    alone = [cf_gap(fs, c, t, batch) for t in ts]
    freqs = [{t[k] for t in ts if t[k] != 0.0} for k in range(len(fs))]
    if not any(w / 2 in ws for ws in freqs for w in ws):
        assert together == alone
    for (gap, stderr), (ref_gap, ref_stderr) in zip(together, alone):
        assert abs(gap - ref_gap) <= 1e-14 and abs(stderr - ref_stderr) <= 1e-14


def _cf_gaps_full_arrays(fs, c, ts, batch):
    """cf_gaps as one complex exp and two variances over the whole batch per t."""
    values = [evaluate(f, batch) for f in fs]
    out = []
    for t in ts:
        s = sum(ti * v for ti, v in zip(t, values))
        z = np.exp(1j * s)
        exact = np.exp(-0.5 * float(np.asarray(t) @ c @ np.asarray(t)))
        out.append((abs(z.mean() - exact),
                    math.sqrt((z.real.var() + z.imag.var()) / batch.n_samples)))
    return out


@pytest.mark.parametrize("n", [1, 17, CHUNK, 2 * CHUNK + 17])
@pytest.mark.parametrize("fs, ts", [
    ((spread(hermite(), 2, 3),), [[0.0], [0.25], [0.5], [-0.5], [1.0], [2.0], [0.5],
                                  [-1.25]]),
    ((spread(laguerre(0.5), 2, 2),), [[0.25], [0.0], [-2.0], [0.25], [1.0], [-1.0]]),
    ((spread(jacobi(2.0, 3.0), 2, 2),), [[1.0], [-0.5], [0.0], [-0.5], [2.0]]),
    (pair_mixed(2, 2, 0.5, 4), [[0.0, 1.0], [0.5, 0.0], [1.0, 1.0], [-0.5, 0.5],
                                [0.0, 0.0], [2.0, -2.0], [1.0, 1.0], [-0.25, 0.5],
                                [0.5, 1.0], [1.0, 2.0], [-1.0, 0.25]]),
    (HERMITE_TRIPLE, [[1.0, 0.5, -0.25], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0], [2.0, -0.5, 1.0],
                      [0.0, 0.25, 0.0], [0.25, 0.25, 0.25]]),
], ids=["hermite", "laguerre", "jacobi", "pair", "hermite-d3"])
def test_cf_gaps_matches_full_array_reference(fs, ts, n, monkeypatch):
    """The chunked product of per-component factors (squared where a frequency
    is twice another), with the |z| = 1 stderr identity, agrees with the
    full-array exp(1j*s) to 1e-14 for any worker count."""
    c = np.array([[inner(f, g) for g in fs] for f in fs])
    batch = sample(fs[0].space, n, seed=12)
    ref = _cf_gaps_full_arrays(fs, c, ts, batch)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        results.append(cf_gaps(fs, c, ts, batch))
    assert results[0] == results[1]
    for t, (gap, stderr), (ref_gap, ref_stderr) in zip(ts, results[0], ref):
        assert abs(gap - ref_gap) <= 1e-14, (t, gap, ref_gap)
        assert abs(stderr - ref_stderr) <= 1e-14, (t, stderr, ref_stderr)


def _phase_factor(theta) -> np.ndarray:
    """e^{i theta} as the bound check builds a phase factor: one step of
    frequency 1 on a component whose values are theta."""
    theta = np.asarray(theta, dtype=float)
    m = theta.size
    factors = np.empty((1, m), dtype=complex)
    montecarlo._phase_sums([(0, 1.0, None)], [], theta[None, :], factors,
                           np.empty(m, dtype=complex), np.empty(m), np.empty(m))
    return factors[0]


def test_phase_factor_matches_complex_exp():
    """The factor from tau = tan(theta/2) is within 1e-15 of exp(1j*theta):
    next to odd multiples of pi, where tau is near its largest, from |theta|
    = 1e-300 to 1e3, and over random theta up to 5e3.  theta = 0 gives 1
    exactly."""
    assert _phase_factor([0.0]).tolist() == [1 + 0j]
    odd_pi = np.arange(1, 1600, 2) * np.pi
    near_pi = np.concatenate([odd_pi + k * np.spacing(odd_pi) for k in range(-4, 5)])
    tiny_to_large = np.logspace(-300, 3, 3031)
    wide = np.random.default_rng(5).uniform(-5e3, 5e3, 100_000)
    for theta in (near_pi, -near_pi, tiny_to_large, -tiny_to_large, wide):
        err = np.abs(_phase_factor(theta) - np.exp(1j * theta))
        assert err.max() <= 1e-15, theta[err.argmax()]


def test_non_finite_values_give_a_nan_gap():
    """A value that is NaN or infinite leaves its factor NaN, and the square
    of that factor, so the gap reads NaN instead of a plausible number, and
    so does its standard error, also for a batch of one sample."""
    space = product_space(hermite(), 4, 1)
    f = space.basis_fn((1,))  # F = x
    for bad in (math.nan, math.inf, -math.inf):
        for finite in (np.linspace(-1.0, 1.0, 99), np.empty(0)):
            points = np.asfortranarray(np.r_[finite, bad][:, None])
            batch = montecarlo.SampleBatch(space, len(points), 0, points)
            with np.errstate(invalid="ignore"):
                gaps = cf_gaps([f], np.eye(1), [[0.5], [1.0], [-3.0]], batch)
            assert all(math.isnan(gap) and math.isnan(err) for gap, err in gaps), (bad, gaps)


_DISPATCH_GAPS = """
import json
from chaoskit import hermite, inner, pair_mixed, sampled_cf_gaps, spread
vectors = []
for fs in (pair_mixed(2, 2, 0.5, 4), (spread(hermite(), 2, 3),)):
    c = [[inner(f, g) for g in fs] for f in fs]
    ts = [[0.25 * k] + [0.5 * k - 1.0] * (len(fs) - 1) for k in range(-4, 9)]
    vectors.append((fs, c, ts))
print(json.dumps(sampled_cf_gaps(vectors, 2 * 8192 + 17, 21)))
"""


def test_gaps_do_not_depend_on_simd_dispatch_beyond_1e15():
    """With numpy's AVX-512 loops disabled, tan falls back to a loop that
    differs in the last bit on about 0.5 % of inputs (x86-64), so gaps and
    standard errors may move, but by at most 1e-15."""
    runs = []
    for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR"):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run([sys.executable, "-c", _DISPATCH_GAPS], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    pairs = [(a, b) for va, vb in zip(*runs) for ga, gb in zip(va, vb) for a, b in zip(ga, gb)]
    assert len(pairs) == 2 * 2 * 13
    assert all(abs(a - b) <= 1e-15 for a, b in pairs)


def _count_components(monkeypatch) -> list:
    """Record the terms of every component the Monte Carlo layer evaluates."""
    calls = []
    plain = montecarlo._component

    def counting(terms, rows, out, tmp):
        calls.append(tuple(terms))
        return plain(terms, rows, out, tmp)

    monkeypatch.setattr(montecarlo, "_component", counting)
    return calls


def test_bound_check_evaluates_each_component_once(tmp_path, monkeypatch):
    """configs/bound_check.json has 10 components over six vectors; the pair
    vectors at rho = 0 and 0.5 share their first component, so one chunk
    evaluates 8 distinct components, each once."""
    obj = {**json.loads(BOUND_CHECK.read_text()), "n_samples": 500}
    cfg = experiments.parse_config(obj, out_override=str(tmp_path))
    calls = _count_components(monkeypatch)
    experiments.run(cfg)
    components = sum(len(experiments.build_test_vector(v)[0]) for v in obj["vectors"])
    assert components == 10
    assert len(calls) == len(set(calls)) == 8


@pytest.mark.parametrize("kind", [hermite(), laguerre(0.0), laguerre(0.5),
                                  jacobi(2.0, 3.0), jacobi(0.05, 5.0)],
                         ids=lambda k: k.label())
def test_recurrence_prefix_does_not_depend_on_max_degree(kind):
    """A shared batch evaluates each column with the basis of the widest space;
    its rows equal those of a narrower basis because the recurrence tables
    agree bit for bit on their common prefix."""
    a64, b64 = kind.recurrence(64)
    for d in (1, 2, 4, 8, 63):
        a, b = kind.recurrence(d)
        assert a.tobytes() == a64[:d + 1].tobytes() and b.tobytes() == b64[:d + 1].tobytes()


# Laguerre(1/2) and Jacobi(2,3) eigenfunctions, placed between the Hermite
# vectors so that the runner's per-kind batches interleave.
_EXTRA_VECTORS = [
    {"name": f"{label}-Q{p}", "type": "eigenfunction", "kind": kind, "degree": p}
    for label, kind in (("laguerre", {"kind": "laguerre", "params": [0.5]}),
                        ("jacobi", {"kind": "jacobi", "params": [2.0, 3.0]}))
    for p in (1, 2)
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 17, 3 * CHUNK + 5])
def test_bound_check_matches_a_batch_per_vector(n, workers, tmp_path, monkeypatch):
    """The runner's shared batches give every vector, bit for bit, the gap and
    stderr of a batch sampled on its own space with the run's seed."""
    obj = json.loads(BOUND_CHECK.read_text())
    hermite_vectors = obj["vectors"]
    obj.update(n_samples=n, vectors=[
        _EXTRA_VECTORS[0], *hermite_vectors[:3], *_EXTRA_VECTORS[1:3],
        *hermite_vectors[3:], _EXTRA_VECTORS[3]])
    cfg = experiments.parse_config(obj, out_override=str(tmp_path))
    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    columns, rows, _, _ = experiments._run_bound_check(cfg)
    expected = []
    for v in obj["vectors"]:
        fs, target, name = experiments.build_test_vector(v)
        ts = experiments.t_grid(cfg.t_axis, len(fs), cfg.t_max)
        gaps = cf_gaps(fs, target, ts, sample(fs[0].space, n, cfg.seed))
        expected += [(name, gap, stderr) for gap, stderr in gaps]
    at = [columns.index(c) for c in ("vector", "gap", "stderr")]
    assert [tuple(row[i] for i in at) for row in rows] == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_bound_check_draws_and_evaluates_each_column_once_per_chunk(
        workers, tmp_path, monkeypatch):
    """On configs/bound_check.json (37 columns over six Hermite vectors, 16
    distinct) each (column, chunk) is drawn once and gets one recurrence
    block of its chunk's rows."""
    n = 2 * CHUNK + 17
    obj = {**json.loads(BOUND_CHECK.read_text()), "n_samples": n}
    cfg = experiments.parse_config(obj, out_override=str(tmp_path))
    streams, draws, tables = [], [], []
    plain_stream, plain_draw, plain_eval_all = (
        montecarlo._stream, montecarlo._draw, Basis.eval_all)

    def stream(gen, seed, chunk_index, coord):
        streams.append((chunk_index, coord))
        return plain_stream(gen, seed, chunk_index, coord)

    def draw(kind, gen, size):
        draws.append((kind, size))
        return plain_draw(kind, gen, size)

    def eval_all(self, x, deg=None, out=None):
        tables.append((self.kind, x.size))
        return plain_eval_all(self, x, deg, out)

    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    monkeypatch.setattr(montecarlo, "_stream", stream)
    monkeypatch.setattr(montecarlo, "_draw", draw)
    monkeypatch.setattr(Basis, "eval_all", eval_all)
    experiments.run(cfg)
    keys = {(kind, coord, chunk) for (kind, _), (chunk, coord) in zip(draws, streams)}
    assert len(draws) == len(streams) == len(keys) == 3 * 16
    assert {chunk for chunk, _ in streams} == {0, 1, 2}
    assert sorted(tables) == sorted(draws)
    assert sorted(size for _, size in draws) == [17] * 16 + [CHUNK] * 32


def test_bound_check_evaluates_a_shared_component_once_per_chunk(tmp_path, monkeypatch):
    """pair_mixed vectors at equal n share their first component whatever rho,
    on spaces of different width: over four chunks it is evaluated four
    times, and each vector still gets the gaps of a batch of its own space."""
    n = 3 * CHUNK + 5
    obj = {**json.loads(BOUND_CHECK.read_text()), "n_samples": n,
           "vectors": [{"type": "pair_mixed", "p1": 2, "p2": 2, "rho": rho, "n": 2}
                       for rho in (0.0, 0.5)]}
    cfg = experiments.parse_config(obj, out_override=str(tmp_path))
    f1 = experiments.build_test_vector(obj["vectors"][0])[0][0]
    f2 = experiments.build_test_vector(obj["vectors"][1])[0][0]
    assert (f1.space.dim, f2.space.dim) == (4, 3)
    assert f1.coeffs == {alpha + (0,): v for alpha, v in f2.coeffs.items()}
    calls = _count_components(monkeypatch)
    columns, rows, _, _ = experiments._run_bound_check(cfg)
    assert len(calls) == 4 * 3 and len(set(calls)) == 3
    monkeypatch.undo()
    expected = []
    for v in obj["vectors"]:
        fs, target, name = experiments.build_test_vector(v)
        ts = experiments.t_grid(cfg.t_axis, len(fs), cfg.t_max)
        expected += cf_gaps(fs, target, ts, sample(fs[0].space, n, cfg.seed))
    at = [columns.index(c) for c in ("gap", "stderr")]
    assert [tuple(row[i] for i in at) for row in rows] == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_bound_check_memory_does_not_grow_with_n_samples(workers, tmp_path, monkeypatch):
    """No array of the bound check has n_samples rows: numpy reports its
    buffers to tracemalloc, and the traced peak at 40 chunks is within 1 MB
    of the peak at 4.  With two workers the peak at 4 chunks stays at most
    7 MB (6.72 MB measured on x86-64), so a workspace that grows with the
    number of vectors fails."""
    obj = json.loads(BOUND_CHECK.read_text())
    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    peaks = []
    for n in (4 * CHUNK, 40 * CHUNK):
        cfg = experiments.parse_config({**obj, "n_samples": n}, out_override=str(tmp_path))
        experiments._run_bound_check(cfg)  # warm caches outside the trace
        tracemalloc.start()
        try:
            experiments._run_bound_check(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] > 1e6 and abs(peaks[1] - peaks[0]) < 1e6, peaks
    assert workers == 1 or peaks[0] <= 7e6, peaks


def _import_leaves_unloaded(module: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, chaoskit; assert {module!r} not in sys.modules"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_stats_unloaded():
    _import_leaves_unloaded("scipy.stats")


def test_import_leaves_concurrent_futures_unloaded():
    _import_leaves_unloaded("concurrent.futures")
