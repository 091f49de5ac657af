"""Spread and block-shared pair constructions and their closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chaoskit import (
    SequenceSpec,
    eigenfunction_eigenvalue,
    gaussian_mixed,
    GaussianTarget,
    hermite,
    inner,
    is_chaotic,
    is_chaotic_vector,
    jacobi,
    laguerre,
    mixed22,
    moment4,
    pair_mixed,
    product_space,
    spread,
    var_gamma,
)
from chaoskit import sequences

FAMILIES = [hermite(), laguerre(0.0), jacobi(2.0, 2.0)]


def _single(kind, p):
    space = product_space(kind, 2 * p, 1)
    return space.basis_fn((p,))


@pytest.mark.parametrize("kind", FAMILIES, ids=lambda k: k.label())
@pytest.mark.parametrize("p", [1, 2, 3])
def test_spread_moment_closed_forms(kind, p):
    g = _single(kind, p)
    g_m4 = moment4(g)
    g_vg = var_gamma(g, g)
    for n in range(1, 13):
        f = spread(kind, p, n)
        assert abs(inner(f, f) - 1.0) <= 1e-12
        assert abs(moment4(f) - (3.0 + (g_m4 - 3.0) / n)) <= 1e-9
        assert abs(var_gamma(f, f) - g_vg / n) <= 1e-9
        lam = eigenfunction_eigenvalue(f)
        assert abs(lam - kind.eigenvalue(p)) <= 1e-12


def test_spread_hermite2_exact_forms():
    for n in (1, 4, 9, 12):
        f = spread(hermite(), 2, n)
        assert abs(moment4(f) - (3.0 + 12.0 / n)) <= 1e-9
        assert abs(var_gamma(f, f) - 8.0 / n) <= 1e-9


@pytest.mark.parametrize("kind", [hermite(), laguerre(0.0)], ids=lambda k: k.label())
def test_spread_chaotic_for_linear_spectrum_families(kind):
    for p in (1, 2, 3):
        assert is_chaotic(spread(kind, p, 4)).ok


def test_jacobi_spread_not_chaotic_under_pinned_convention():
    """Quadratic eigenvalue growth puts Q_p^2 mass above 2 lambda_p."""
    chk = is_chaotic(spread(jacobi(2.0, 2.0), 1, 3))
    assert not chk.ok
    assert chk.offenders


def test_pair_mixed_covariance_block_sharing():
    for n in (2, 5, 8):
        for rho in (0.0, 0.25, 0.5, 1.0, -0.5):
            f1, f2 = pair_mixed(2, 2, rho, n)
            s = min(n, math.ceil(abs(rho) * n))
            expect = math.copysign(s / n, rho) if s else 0.0
            assert abs(inner(f1, f2) - expect) <= 1e-12
            assert abs(inner(f1, f1) - 1.0) <= 1e-12
            assert abs(inner(f2, f2) - 1.0) <= 1e-12


def test_pair_mixed_extremes():
    f1, f2 = pair_mixed(2, 2, 0.0, 4)
    assert f1.space.dim == 8  # disjoint blocks
    assert inner(f1, f2) == 0.0
    f1, f2 = pair_mixed(2, 2, 1.0, 4)
    assert f1.coeffs == f2.coeffs  # identical components
    assert abs(inner(f1, f2) - 1.0) <= 1e-12


def test_pair_mixed_distinct_degrees_forces_zero_covariance():
    f1, f2 = pair_mixed(1, 2, 0.5, 6)
    assert inner(f1, f2) == 0.0  # eigenspace orthogonality, despite rho = 0.5
    assert is_chaotic_vector((f1, f2)).ok


def test_pair_mixed_vector_chaotic_and_mixed22_limit():
    g_m4 = moment4(_single(hermite(), 2))
    for n in (2, 4, 8, 16):
        f1, f2 = pair_mixed(2, 2, 0.5, n)
        assert is_chaotic_vector((f1, f2)).ok
        rho_n = inner(f1, f2)
        c = GaussianTarget(np.array([[1.0, rho_n], [rho_n, 1.0]]))
        gap = mixed22(f1, f2) - gaussian_mixed(c, 0, 1)
        assert abs(gap - rho_n * (g_m4 - 3.0) / n) <= 1e-9
        assert gap > 0


def test_pair_mixed_gap_decreases_monotonically():
    gaps = []
    for n in (2, 4, 8, 16, 32):
        f1, f2 = pair_mixed(2, 2, 0.5, n)
        rho_n = inner(f1, f2)
        c = GaussianTarget(np.array([[1.0, rho_n], [rho_n, 1.0]]))
        gaps.append(abs(mixed22(f1, f2) - gaussian_mixed(c, 0, 1)))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_validation_errors():
    with pytest.raises(ValueError):
        spread(hermite(), 0, 3)
    with pytest.raises(ValueError):
        spread(hermite(), 2, 0)
    with pytest.raises(ValueError):
        pair_mixed(2, 2, 1.5, 3)
    with pytest.raises(ValueError):
        pair_mixed(0, 2, 0.5, 3)


# One member of every family in the sequence table (a new family without one fails
# the round trip), with its component count and its default name at n = 4.
MEMBERS = {
    "spread": ({"p": 2}, 1, "spread(2,4)"),
    "pair_mixed": ({"p1": 2, "p2": 2, "rho": 0.5}, 2, "pair(2,2,0.5,4)"),
}


@pytest.mark.parametrize("family", sorted(sequences.FAMILIES))
def test_sequence_spec_round_trip(family):
    params, dim, name = MEMBERS[family]
    kind = laguerre(0.5)
    spec = SequenceSpec(family, kind, params)
    again = SequenceSpec.from_json(spec.to_json())
    assert again == spec
    fs = again.build(4)
    assert isinstance(fs, tuple) and len(fs) == dim
    for f in fs:
        assert abs(inner(f, f) - 1.0) <= 1e-12
    assert again.name(4) == name
    # Integral floats are integers; a missing, unknown or non-number parameter,
    # or a fraction where an integer is due, is refused.
    assert SequenceSpec(family, kind, {k: float(v) for k, v in params.items()}) == spec
    first = next(iter(params))
    with pytest.raises(KeyError):
        SequenceSpec(family, kind, {k: v for k, v in params.items() if k != first})
    for bad in (2.5, True, "2", None):
        with pytest.raises((TypeError, ValueError)):
            SequenceSpec(family, kind, dict(params, **{first: bad}))
    with pytest.raises(ValueError, match="'q'"):
        SequenceSpec(family, kind, dict(params, q=1))


def test_sequence_spec_checks_values():
    assert SequenceSpec("pair_mixed", hermite(), {"p1": 2, "p2": 1}).params["rho"] == 0.0
    f1, f2 = SequenceSpec("pair_mixed", hermite(), {"p1": 2, "p2": 2, "rho": 0.5}).build(4)
    assert abs(inner(f1, f2) - 0.5) <= 1e-12
    with pytest.raises(ValueError):
        SequenceSpec("spread", hermite(), {"p": 0})
    with pytest.raises(ValueError):
        SequenceSpec("pair_mixed", hermite(), {"p1": 2, "p2": 2, "rho": 2.0})
    with pytest.raises(ValueError):
        SequenceSpec("other", hermite(), {"p": 1})
