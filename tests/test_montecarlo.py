"""Sampling determinism, distributional diagnostics, pointwise evaluation,
empirical characteristic functions."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from chaoskit import (
    cf_gap,
    evaluate,
    hermite,
    inner,
    jacobi,
    ks_pvalues,
    laguerre,
    mixed22,
    moment4,
    product_space,
    sample,
)
from chaoskit.montecarlo import CHUNK


def test_fixed_seed_reproduces_batches():
    space = product_space(hermite(), 4, 3)
    b1 = sample(space, 2 * CHUNK + 17, seed=123)
    b2 = sample(space, 2 * CHUNK + 17, seed=123)
    assert np.array_equal(b1.points, b2.points)
    b3 = sample(space, 2 * CHUNK + 17, seed=124)
    assert not np.array_equal(b1.points, b3.points)


def test_sample_mean_envelopes():
    n = 100_000
    space = product_space(hermite(), 4, 1)
    batch = sample(space, n, seed=1)
    assert abs(batch.points.mean()) <= 3.0 / math.sqrt(n)

    space = product_space(laguerre(0.0), 4, 1)
    batch = sample(space, n, seed=2)
    assert abs(batch.points.mean() - 1.0) <= 3.0 / math.sqrt(n)


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


def test_evaluate_space_mismatch():
    s1 = product_space(hermite(), 4, 1)
    s2 = product_space(hermite(), 4, 2)
    batch = sample(s1, 10, seed=0)
    with pytest.raises(ValueError):
        evaluate(s2.unit(), batch)


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


def test_import_leaves_scipy_stats_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chaoskit; assert 'scipy.stats' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
