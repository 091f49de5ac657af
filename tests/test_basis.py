"""Basis construction, quadrature, eigenrelations and product linearization."""

from __future__ import annotations

import numpy as np
import pytest
import sympy as sp

from chaoskit import (
    ProductSpace,
    SpectralFn,
    gamma,
    gauss_quadrature,
    hermite,
    jacobi,
    laguerre,
    make_basis,
    multiply,
    product_space,
)
from chaoskit import basis as basis_mod
from chaoskit.basis import BASIS_CACHE_SIZE, HARD_DEGREE_CAP, LIN_CACHE_SIZE, Basis

import oracles
from oracles import X

ALL_KINDS = [hermite(), laguerre(0.0), laguerre(0.5), jacobi(2.0, 2.0), jacobi(1.0, 1.0)]


def _eval_basis(basis, p, xs):
    return basis.eval_all(np.asarray(xs, dtype=float), deg=p)[p]


# -- construction and parameter validation -----------------------------------


def test_hermite_low_degree_polynomials_match_gram_schmidt():
    basis = make_basis(hermite(), 3)
    xs = np.array([-1.7, -0.3, 0.0, 0.4, 2.2])
    expected = {
        1: xs,
        2: (xs**2 - 1) / np.sqrt(2),
        3: (xs**3 - 3 * xs) / np.sqrt(6),
    }
    for p, vals in expected.items():
        assert np.allclose(_eval_basis(basis, p, xs), vals, atol=1e-12)
    # and against the symbolic Gram-Schmidt oracle
    polys = oracles.gram_schmidt(hermite(), 3)
    for p in range(4):
        sym = np.array([float(polys[p].subs(X, v)) for v in xs])
        assert np.allclose(_eval_basis(basis, p, xs), sym, atol=1e-12)


def test_laguerre0_q1_is_one_minus_x():
    basis = make_basis(laguerre(0.0), 2)
    xs = np.array([0.0, 1.0, 2.5])
    assert np.allclose(_eval_basis(basis, 1, xs), 1 - xs, atol=1e-12)
    assert basis.eigenvalue(1) == 1.0


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_gram_schmidt_oracle_matches_recurrence(kind):
    deg = 5
    basis = make_basis(kind, deg)
    polys = oracles.gram_schmidt(kind, deg)
    xs = np.array([-0.9, -0.2, 0.1, 0.7]) if kind.family == "jacobi" else np.array(
        [0.1, 0.8, 1.9, 3.2]
    )
    for p in range(deg + 1):
        sym = np.array([float(polys[p].subs(X, sp.nsimplify(v))) for v in xs])
        assert np.allclose(_eval_basis(basis, p, xs), sym, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_pinned_eigenvalues_verified_symbolically(kind):
    """L Q_p = -lambda_p Q_p holds exactly for the Gram-Schmidt polynomials."""
    deg = 5
    polys = oracles.gram_schmidt(kind, deg)
    for p in range(deg + 1):
        lam = kind.eigenvalue(p)
        defect = oracles.eigen_defect(kind, polys[p], lam)
        assert sp.simplify(defect) == 0, f"{kind.label()} degree {p}"


def test_eigenrelation_at_quadrature_nodes():
    for kind in ALL_KINDS:
        basis = make_basis(kind, 8)
        x, _ = gauss_quadrature(basis, 9)
        q, d1, d2 = basis.eval_with_derivatives(x)
        sigma, tau = kind.generator_coefficients(x)
        for p in range(9):
            lam = basis.eigenvalue(p)
            resid = sigma * d2[p] + tau * d1[p] + lam * q[p]
            assert np.abs(resid).max() <= 1e-9 * (1.0 + lam)


def test_construction_refuses_wrong_eigenvalue_table():
    """The eigenrelation check names the lowest degree whose eigenvalue is wrong."""
    from chaoskit.basis import Basis, _check_basis

    good = make_basis(hermite(), 6)
    lams = good.eigenvalues.copy()
    lams[3] += 0.25
    lams[5] += 0.5
    bad = Basis(good.kind, good.max_degree, good.rec_a, good.rec_b, lams)
    with pytest.raises(RuntimeError, match=r"eigenrelation fails at degree 3 \(residual"):
        _check_basis(bad)


def test_parameter_validation():
    with pytest.raises(ValueError):
        laguerre(-1.0)
    with pytest.raises(ValueError):
        jacobi(0.0, 1.0)
    with pytest.raises(ValueError):
        jacobi(1.0, -0.5)
    with pytest.raises(ValueError):
        make_basis(hermite(), -1)
    with pytest.raises(ValueError):
        make_basis(hermite(), 513)


@pytest.mark.parametrize("bad", [np.True_, np.False_], ids=["True", "False"])
def test_numpy_bools_are_not_numbers(bad):
    """`as_real` and `as_int` refuse a numpy bool as they refuse a Python
    one, so no reader of numbers converts it to 1 or 0; numpy floats and
    integers are still numbers."""
    for read in (basis_mod.as_real, basis_mod.as_int):
        with pytest.raises(TypeError, match="expected a"):
            read(bad)
    with pytest.raises(TypeError, match="expected an integer"):
        basis_mod.as_ints((1, bad))
    with pytest.raises(TypeError, match="expected a number"):
        basis_mod.as_reals((1.0, bad))
    space = product_space(hermite(), 4, 1)
    with pytest.raises(TypeError, match="expected a number"):
        SpectralFn(space, {(1,): bad})
    with pytest.raises(TypeError, match="expected an integer"):
        SpectralFn(space, {(bad,): 1.0})
    assert basis_mod.as_real(np.float32(0.5)) == 0.5 and basis_mod.as_int(np.int64(3)) == 3


# -- one verified basis per (kind, max_degree) ---------------------------------


def test_make_basis_returns_one_shared_basis_per_key():
    assert make_basis(jacobi(2.0, 3.0), 7) is make_basis(jacobi(2.0, 3.0), 7)
    assert make_basis(hermite(), 7) is not make_basis(hermite(), 8)
    first, second = product_space(laguerre(0.5), 6, 2), product_space(laguerre(0.5), 6, 3)
    assert first.coords[0] is second.coords[0]
    assert make_basis.cache_info().maxsize == BASIS_CACHE_SIZE
    with pytest.raises(TypeError):  # not served from the int-keyed entry
        make_basis(hermite(), 7.0)


def test_shared_basis_arrays_are_read_only():
    basis = make_basis(laguerre(0.5), 5)
    for arr in (basis.rec_a, basis.rec_b, basis.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            arr[1] = 0.0


@pytest.mark.parametrize("kind, degree, error", [
    (hermite(), HARD_DEGREE_CAP + 1, ValueError),
    (laguerre(0.0), 400, RuntimeError),  # values overflow the construction check
], ids=["degree-cap", "laguerre-overflow"])
def test_refused_construction_raises_on_every_call(kind, degree, error):
    for _ in range(2):
        with pytest.raises(error):
            make_basis(kind, degree)


def test_signed_zero_parameter_shares_one_label():
    """laguerre(-0.0) == laguerre(0.0), so both must label (and report) alike."""
    assert laguerre(-0.0) == laguerre(0.0)
    assert laguerre(-0.0).label() == "laguerre(0)"
    assert make_basis(laguerre(-0.0), 3).kind.label() == "laguerre(0)"
    assert make_basis(laguerre(0.0), 3) is make_basis(laguerre(-0.0), 3)


# -- quadrature ---------------------------------------------------------------


def test_hermite_quadrature_examples():
    basis = make_basis(hermite(), 4)
    x, w = gauss_quadrature(basis, 1)
    assert np.allclose(x, [0.0]) and np.allclose(w, [1.0])
    x, w = gauss_quadrature(basis, 2)
    assert np.allclose(np.sort(x), [-1.0, 1.0]) and np.allclose(w, [0.5, 0.5])
    x, w = gauss_quadrature(basis, 3)
    assert abs((w * x**4).sum() - 3.0) < 1e-12  # E[X^4] oracle


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_quadrature_integrates_polynomials_exactly(kind):
    basis = make_basis(kind, 8)
    rng = np.random.default_rng(3)
    for nodes in (2, 4, 8):
        x, w = gauss_quadrature(basis, nodes)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-12
        deg = 2 * nodes - 1
        coeffs = rng.uniform(-1, 1, deg + 1)
        vals = sum(c * x**k for k, c in enumerate(coeffs))
        exact = sum(
            c * float(oracles.measure_moment(kind, k)) for k, c in enumerate(coeffs)
        )
        assert abs((w * vals).sum() - exact) <= 1e-10 * (1 + abs(exact))


def test_quadrature_depth_errors():
    basis = make_basis(hermite(), 3)
    with pytest.raises(ValueError):
        gauss_quadrature(basis, 5)
    with pytest.raises(ValueError):
        gauss_quadrature(basis, 0)


# -- linearization ------------------------------------------------------------


def test_hermite_linearization_examples():
    basis = make_basis(hermite(), 4)
    c = basis.linearize(1, 1)
    assert np.allclose(c, [1.0, 0.0, np.sqrt(2)], atol=1e-12)
    c = basis.linearize(1, 2)
    assert np.allclose(c, [0.0, np.sqrt(2), 0.0, np.sqrt(3)], atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_linearization_trivial_and_symmetric(kind):
    basis = make_basis(kind, 6)
    for n in range(4):
        c = basis.linearize(0, n)
        expect = np.zeros(n + 1)
        expect[n] = 1.0
        assert np.allclose(c, expect, atol=1e-12)
    assert np.allclose(basis.linearize(2, 3), basis.linearize(3, 2), atol=0)


@pytest.mark.parametrize("kind", [hermite(), laguerre(0.0), jacobi(2.0, 2.0)],
                         ids=lambda k: k.label())
def test_linearization_matches_symbolic_triple_products(kind):
    deg = 4
    basis = make_basis(kind, deg)
    polys = oracles.gram_schmidt(kind, deg)
    for m in range(3):
        for n in range(m, 3):
            if m + n > deg:
                continue
            c = basis.linearize(m, n)
            for k in range(m + n + 1):
                exact = float(oracles.triple_product(kind, polys, m, n, k))
                assert abs(c[k] - exact) < 1e-11, (kind.label(), m, n, k)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_linearization_parseval_and_pointwise(kind):
    basis = make_basis(kind, 8)
    for m, n in [(1, 1), (2, 2), (1, 3), (3, 4)]:
        c = basis.linearize(m, n)
        # sum_k c_k^2 = int (Q_m Q_n)^2 dmu, by quadrature
        x, w = gauss_quadrature(basis, m + n + 1)
        q = basis.eval_all(x, deg=m + n)
        prod = q[m] * q[n]
        sq = (w * prod**2).sum()
        assert abs((c**2).sum() - sq) <= 1e-9 * (1.0 + sq)
        # pointwise: Q_m Q_n = sum_k c_k Q_k at every node
        recon = c @ q
        assert np.abs(prod - recon).max() <= 1e-9 * (1.0 + np.abs(prod).max())


def test_linearization_overflow_error():
    basis = make_basis(hermite(), 3)
    with pytest.raises(ValueError):
        basis.linearize(2, 2)


def test_linearization_cache_returns_consistent_values():
    basis = make_basis(hermite(), 6)
    first = basis.linearize(2, 3)
    second = basis.linearize(3, 2)
    assert first is second or np.array_equal(first, second)


def _square_of_sum(basis, top):
    space = ProductSpace((basis,))
    f = SpectralFn(space, {(k,): 1.0 for k in range(1, top + 1)})
    return multiply(f, f)


def test_linearization_cache_is_bounded():
    """Squaring sum_{k<=128} Q_k at max_degree 256 linearizes 8256 pairs, and
    the shared basis keeps at most LIN_CACHE_SIZE of them."""
    basis = make_basis(hermite(), 256)
    _square_of_sum(basis, 128)
    assert 0 < len(basis._lin_cache) <= LIN_CACHE_SIZE < 128 * 129 // 2


@pytest.mark.parametrize("kind", [hermite(), laguerre(0.5), jacobi(2.0, 3.0)],
                         ids=lambda k: k.label())
def test_linearization_cache_eviction_keeps_values(kind, monkeypatch):
    """With a cap far below the pairs a square needs, the product and every
    evicted pair come out bit for bit as with an unbounded cache."""
    def fresh():
        b = make_basis(kind, 24)
        return Basis(kind, 24, b.rec_a, b.rec_b, b.eigenvalues)

    unbounded = fresh()
    expected = _square_of_sum(unbounded, 12)
    monkeypatch.setattr(basis_mod, "LIN_CACHE_SIZE", 8)
    capped = fresh()
    for _ in range(2):
        assert _square_of_sum(capped, 12).coeffs == expected.coeffs
        assert len(capped._lin_cache) == 8
    for m, n in ((1, 1), (2, 7), (12, 12)):
        assert capped.linearize(m, n).tobytes() == unbounded.linearize(m, n).tobytes()


def _fresh(kind, max_degree):
    """An unmemoized Basis, with its own empty linearization cache."""
    b = make_basis(kind, max_degree)
    return Basis(kind, max_degree, b.rec_a, b.rec_b, b.eigenvalues)


def _pair_products(basis):
    """multiply and gamma of two functions on two coordinates of `basis`, as
    (multi-index, float.hex) lists in insertion order."""
    space = ProductSpace((basis, basis))
    f = SpectralFn(space, {(3, 0): 0.7, (2, 5): -1.3, (1, 1): 0.4, (40, 2): 0.25})
    g = SpectralFn(space, {(3, 4): 1.1, (0, 6): -0.6, (5, 5): 0.9, (9, 1): 2.0})
    return [[(a, v.hex()) for a, v in h.coeffs.items()] for h in (multiply(f, g), gamma(f, g))]


@pytest.mark.parametrize("kind", [hermite(), laguerre(0.5), jacobi(2.0, 3.0)],
                         ids=lambda k: k.label())
def test_products_after_cache_cycles_match_cold(kind):
    """Once squaring sum_{k<=50} Q_k has pushed 1,275 distinct products through
    a cache of LIN_CACHE_SIZE entries, multiply and gamma give what they give
    on a cold cache, bit for bit and in the same key order."""
    cold = _pair_products(_fresh(kind, 100))
    warm = _fresh(kind, 100)
    _square_of_sum(warm, 50)
    assert len(warm._lin_cache) == LIN_CACHE_SIZE < 50 * 51 // 2
    for _ in range(2):
        assert _pair_products(warm) == cold
        assert len(warm._lin_cache) <= LIN_CACHE_SIZE


def test_linearize_reads_the_terms_entry():
    """linearize(m, n) is the array of the terms(n, m) entry, one miss through
    either name adds exactly one cache entry, and a refused pair adds none."""
    basis = _fresh(jacobi(2.0, 3.0), 12)
    assert basis.linearize(2, 5) is basis.terms(5, 2)[0]
    assert list(basis._lin_cache) == [(2, 5)]
    _, lin, gam = basis.terms(4, 3)
    assert basis.linearize(3, 4) is basis.terms(3, 4)[0]
    assert list(basis._lin_cache) == [(2, 5), (3, 4)]
    assert [k for k, _ in lin] == sorted(k for k, _ in lin) and gam
    with pytest.raises(ValueError, match="degrees must be nonnegative"):
        basis.terms(-1, 2)
    with pytest.raises(ValueError, match="product degree 13 exceeds max_degree 12"):
        basis.terms(7, 6)
    assert len(basis._lin_cache) == 2


def test_warm_cache_still_refuses_products_past_max_degree():
    """A product degree past max_degree is refused with the cold cache's
    ValueError even when every smaller product of those degrees is cached."""
    basis = _fresh(hermite(), 12)
    space = ProductSpace((basis, basis))
    f = SpectralFn(space, {(6, 1): 1.0, (7, 0): 0.5})
    with pytest.raises(ValueError) as cold:
        multiply(f, f)
    message = str(cold.value)
    assert message == "product degree 13 exceeds max_degree 12"
    for m in range(7):
        for n in range(7):
            basis.linearize(m, n)
    for op in (multiply, gamma):
        with pytest.raises(ValueError) as warm:
            op(f, f)
        assert str(warm.value) == message


# -- linearization accuracy contract over the whole degree range --------------
#
# Normwise relative error <= 1e-12 for every product degree make_basis accepts:
# 512 for Hermite and Jacobi, about 360 for Laguerre (beyond that the
# construction check overflows and refuses the basis).

LIN_RTOL = 1e-12
MP_KINDS = [laguerre(0.0), laguerre(0.5), jacobi(2.0, 3.0), jacobi(0.5, 0.5)]


def _relerr(c, ref):
    """||c - ref|| / ||ref||, scaled first (Laguerre coefficients reach 1e169)."""
    s = np.abs(ref).max()
    return np.linalg.norm((c - ref) / s) / np.linalg.norm(ref / s)


def _largest_accepted_degree(kind):
    if _accepts(kind, HARD_DEGREE_CAP):
        return HARD_DEGREE_CAP
    good, bad = 64, HARD_DEGREE_CAP
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if _accepts(kind, mid) else (good, mid)
    return good


def _accepts(kind, degree):
    try:
        make_basis(kind, degree)
    except RuntimeError:
        return False
    return True


def test_hermite_linearization_closed_form_to_degree_512():
    basis = make_basis(hermite(), HARD_DEGREE_CAP)
    for m, n in [(0, 512), (1, 511), (2, 300), (7, 505), (17, 33), (30, 482), (60, 60),
                 (64, 448), (120, 120), (128, 384), (200, 312), (256, 256)]:
        ref = oracles.hermite_linearization(m, n)
        assert _relerr(basis.linearize(m, n), ref) <= LIN_RTOL, (m, n)


@pytest.mark.parametrize("kind", MP_KINDS, ids=lambda k: k.label())
def test_linearization_matches_mpmath_to_degree_limit(kind):
    top = _largest_accepted_degree(kind)
    assert top >= (512 if kind.family == "jacobi" else 300)
    basis = make_basis(kind, top)
    # anchor the 50-digit oracle itself on the exact triple products
    polys = oracles.gram_schmidt(kind, 5)
    exact = [float(oracles.triple_product(kind, polys, 2, 3, k)) for k in range(6)]
    assert np.allclose(oracles.linearize_mp(kind, 2, 3), exact, rtol=0, atol=1e-13)
    for m, n in [(3, top - 3), (40, top - 40), (top // 2, top - top // 2)]:
        ref = oracles.linearize_mp(kind, m, n)
        assert _relerr(basis.linearize(m, n), ref) <= LIN_RTOL, (m, n)


@pytest.mark.parametrize("kind", [hermite(), jacobi(2.0, 2.0), jacobi(0.5, 0.5)],
                         ids=lambda k: k.label())
def test_linearization_parity_zeros_are_exact(kind):
    """Symmetric measures: Q_m Q_n has no component of the opposite parity."""
    basis = make_basis(kind, HARD_DEGREE_CAP)
    for m, n in [(1, 2), (3, 3), (7, 505), (100, 101), (256, 256)]:
        c = basis.linearize(m, n)
        odd = np.arange(m + n + 1) % 2 != (m + n) % 2
        assert np.all(c[odd] == 0.0), (m, n)
        assert c[m + n] != 0.0


@pytest.mark.parametrize("kind", ALL_KINDS + [jacobi(2.0, 3.0)], ids=lambda k: k.label())
def test_linearization_parseval_at_high_degree(kind):
    """sum_k c(m,n)_k^2 = int Q_m^2 Q_n^2 dmu = sum_k c(m,m)_k c(n,n)_k."""
    top = _largest_accepted_degree(kind)
    basis = make_basis(kind, top)
    for m, n in [(top // 2, top // 4), (top // 2, top // 2 - 1), (top // 3, top // 3)]:
        c, cm, cn = basis.linearize(m, n), basis.linearize(m, m), basis.linearize(n, n)
        s = np.abs(c).max()
        k = min(cm.size, cn.size)
        lhs = float(np.sum((c / s) ** 2))
        rhs = float(np.sum((cm[:k] / s) * (cn[:k] / s)))
        assert abs(lhs - rhs) <= LIN_RTOL * lhs, (m, n, lhs, rhs)


# -- construction-time invariant checking -------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_orthonormality_via_quadrature(kind):
    deg = 8
    basis = make_basis(kind, deg)
    x, w = gauss_quadrature(basis, deg + 1)
    q = basis.eval_all(x)
    gram = (q * w) @ q.T
    assert np.abs(gram - np.eye(deg + 1)).max() <= 1e-9


def test_moderately_high_degree_construction():
    for kind in (hermite(), jacobi(2.0, 2.0)):
        basis = make_basis(kind, 64)
        assert basis.max_degree == 64


def _eval_all_reference(basis, x, deg):
    """The three-term recurrence, one fresh row per degree."""
    a, b = basis.rec_a, basis.rec_b
    rows = [np.ones_like(x), (x - a[0]) / b[1]]
    for k in range(1, deg):
        rows.append(((x - a[k]) * rows[k] - b[k] * rows[k - 1]) / b[k + 1])
    return np.array(rows[:deg + 1])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_eval_all_into_out_block(kind):
    """eval_all writes into a given block (here a strided view of a wider
    workspace) and returns it, bit for bit the values it allocates itself."""
    basis = make_basis(kind, 12)
    x = np.random.default_rng(3).uniform(-1.0, 3.0, 101)
    ref = _eval_all_reference(basis, x, 9)
    workspace = np.full((12, 128), np.nan)
    block = workspace[:10, :101]
    assert basis.eval_all(x, 9, out=block) is block
    assert block.tobytes() == ref.tobytes() == basis.eval_all(x, 9).tobytes()
    assert np.isnan(workspace[10:]).all() and np.isnan(workspace[:, 101:]).all()
    for bad in (np.empty((9, 101)), np.empty((10, 100)), np.empty(1010),
                np.empty((10, 101), dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be"):
            basis.eval_all(x, 9, out=bad)
