"""Function algebra: inner products, products, L, L^-1, Gamma, projections,
chaos membership, serialization."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from chaoskit import (
    GaussianTarget,
    ProductSpace,
    SampleBatch,
    SpectralFn,
    apply_L,
    apply_Linv,
    eigenfunction_eigenvalue,
    gamma,
    gauss_quadrature,
    hermite,
    inner,
    is_chaotic,
    is_chaotic_vector,
    is_jointly_chaotic,
    jacobi,
    joint_report,
    laguerre,
    make_basis,
    moment4,
    montecarlo,
    multiply,
    pair_mixed,
    product_space,
    project,
    spectrum,
)
from chaoskit.experiments import random_span_function

import oracles

H1 = product_space(hermite(), 10, 1)
H2 = product_space(hermite(), 6, 2)


def q(space, *degrees, coeff=1.0):
    return space.basis_fn(tuple(degrees), coeff=coeff)


def assert_fn_close(f, g, tol=1e-12):
    diff = f - g
    assert diff.norm() <= tol * (1.0 + f.norm() + g.norm()), (
        f.items_sorted(), g.items_sorted()
    )


def random_fn(space, rng, max_terms=6, centered=False):
    coeffs = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        alpha = tuple(int(rng.integers(0, b.max_degree + 1)) for b in space.coords)
        if centered and all(a == 0 for a in alpha):
            continue
        coeffs[alpha] = float(rng.uniform(-1, 1))
    if not coeffs:
        coeffs[(1,) + (0,) * (space.dim - 1)] = 1.0
    return SpectralFn(space, coeffs)


# -- inner --------------------------------------------------------------------


def test_inner_examples():
    assert inner(q(H1, 1), q(H1, 2)) == 0.0
    f = q(H1, 1, coeff=2.0) + q(H1, 2, coeff=3.0)
    assert inner(f, f) == 13.0
    assert inner(q(H2, 2, 0), q(H2, 2, 0)) == 1.0


def test_inner_space_mismatch():
    with pytest.raises(ValueError):
        inner(q(H1, 1), q(H2, 1, 0))


# -- multiply -----------------------------------------------------------------


def test_multiply_examples():
    sq = multiply(q(H1, 1), q(H1, 1))
    assert_fn_close(sq, H1.unit() + q(H1, 2, coeff=math.sqrt(2)), 1e-14)

    rng = np.random.default_rng(0)
    f = random_fn(H1, rng)
    assert_fn_close(multiply(f, H1.unit()), f, 0.0)

    prod = multiply(q(H2, 1, 0), q(H2, 0, 1))
    assert_fn_close(prod, q(H2, 1, 1), 1e-14)


def test_multiply_commutative_and_overflow():
    rng = np.random.default_rng(1)
    f = random_fn(H1, rng, max_terms=4)
    g = random_fn(H1, rng, max_terms=4)
    try:
        assert_fn_close(multiply(f, g), multiply(g, f), 1e-13)
    except ValueError:
        pass  # overflow allowed for random degrees; exercised below
    space = product_space(hermite(), 3, 1)
    with pytest.raises(ValueError):
        multiply(q(space, 2), q(space, 2))


# -- L and L^-1 ---------------------------------------------------------------


def test_apply_L_examples():
    assert_fn_close(apply_L(q(H1, 2)), q(H1, 2, coeff=-2.0), 0.0)
    assert apply_L(H1.unit()).is_zero()
    assert_fn_close(apply_L(q(H2, 1, 1)), q(H2, 1, 1, coeff=-2.0), 0.0)


def test_apply_Linv_examples():
    assert_fn_close(apply_Linv(q(H1, 2)), q(H1, 2, coeff=-0.5), 0.0)
    assert apply_Linv(H1.unit()).is_zero()
    f = H1.unit().scale(3.0) + q(H1, 1)
    assert_fn_close(apply_L(apply_Linv(f)), q(H1, 1), 0.0)


def test_L_Linv_removes_mean_exactly():
    """L L^-1 F = F - int F dmu: identical support, coefficients to <= 1 ulp.

    Division by a non-dyadic eigenvalue followed by multiplication is two
    correctly rounded operations, so coefficients can move by one ulp; for
    dyadic eigenvalues the round trip is exact and asserted bitwise below.
    """
    rng = np.random.default_rng(42)
    for space in (H1, H2, product_space(jacobi(2.0, 2.0), 6, 2)):
        for _ in range(50):
            f = random_fn(space, rng)
            back = apply_L(apply_Linv(f))
            expect = {a: v for a, v in f.items_sorted() if space.eigenvalue(a) != 0.0}
            assert set(back.coeffs) == set(expect)
            for a, v in expect.items():
                got = back.coeffs[a]
                assert abs(got - v) <= math.ulp(v), (a, v, got)


def test_L_Linv_bitwise_exact_for_dyadic_eigenvalues():
    space = product_space(hermite(), 8, 2)
    rng = np.random.default_rng(3)
    dyadic = [(1, 0), (0, 2), (2, 2), (4, 4), (8, 0), (1, 1)]
    for _ in range(200):
        coeffs = {a: float(rng.uniform(-1, 1)) for a in dyadic}
        f = SpectralFn(space, coeffs)
        back = apply_L(apply_Linv(f))
        assert back.coeffs == f.coeffs


# -- gamma --------------------------------------------------------------------


def test_gamma_examples():
    assert_fn_close(gamma(q(H1, 1), q(H1, 1)), H1.unit(), 1e-14)
    expect = H1.unit().scale(2.0) + q(H1, 2, coeff=2.0 * math.sqrt(2))
    assert_fn_close(gamma(q(H1, 2), q(H1, 2)), expect, 1e-14)
    rng = np.random.default_rng(5)
    f = random_fn(H1, rng, max_terms=3)
    assert gamma(H1.unit(), f).norm() <= 1e-14 * (1 + f.norm())


@pytest.mark.parametrize("kind", [hermite(), laguerre(0.5), jacobi(0.7, 1.9)],
                         ids=lambda k: k.label())
def test_gamma_matches_three_product_reference(kind):
    """Tensorized Gamma equals (L(FG) - F LG - G LF) / 2; jacobi(0.7, 1.9) has
    non-integer eigenvalues p (p + 1.6)."""
    rng = np.random.default_rng(11)
    small, space = product_space(kind, 5, 3), product_space(kind, 10, 3)
    for _ in range(30):
        f, g = (SpectralFn(space, random_span_function(small, rng).coeffs) for _ in range(2))
        ref = oracles.gamma_by_products(f, g)
        assert (gamma(f, g) - ref).norm() <= 1e-12 * ref.norm()


def test_gamma_disjoint_coordinates_is_exactly_zero():
    space = product_space(jacobi(0.7, 1.9), 8, 3)
    f = SpectralFn(space, {(0, 0, 0): 0.3, (1, 0, 0): 1.0, (4, 0, 0): -0.7})
    g = SpectralFn(space, {(0, 0, 0): 2.0, (0, 3, 0): 0.5, (0, 2, 5): 1.1})
    assert gamma(f, g).coeffs == {}
    assert gamma(space.unit(), f).coeffs == {}


@pytest.mark.parametrize("p", [20, 60, 120, 256])
def test_hermite_gamma_of_eigenfunction_is_derivative_squared(p):
    """Gamma(Q_p, Q_p) = Q_p'^2 = p Q_{p-1}^2 (regression: the quadrature-based
    product lost all accuracy by p = 60)."""
    space = product_space(hermite(), 2 * p, 1)
    got = gamma(space.basis_fn((p,)), space.basis_fn((p,)))
    c = np.zeros(2 * p + 1)
    for (k,), v in got.items_sorted():
        c[k] = v
    ref = p * oracles.hermite_linearization(p - 1, p - 1)
    assert np.linalg.norm(c[: ref.size] - ref) <= 1e-12 * np.linalg.norm(ref)
    assert not c[ref.size:].any()


def _low_degree_fn(space, rng, cap=3):
    coeffs = {}
    for _ in range(4):
        alpha = tuple(int(rng.integers(0, cap + 1)) for _ in space.coords)
        if sum(alpha) <= cap:
            coeffs[alpha] = float(rng.uniform(-1, 1))
    coeffs.setdefault((1,) + (0,) * (space.dim - 1), 0.5)
    return SpectralFn(space, coeffs)


def test_gamma_symmetric_bilinear():
    rng = np.random.default_rng(6)
    space = product_space(hermite(), 8, 2)
    f = _low_degree_fn(space, rng)
    g = _low_degree_fn(space, rng)
    h = _low_degree_fn(space, rng)
    assert_fn_close(gamma(f, g), gamma(g, f), 1e-13)
    assert_fn_close(gamma(f + h, g), gamma(f, g) + gamma(h, g), 1e-12)


def test_integration_by_parts_randomized():
    """int Gamma(F,G) dmu = -int F LG dmu on random pairs."""
    rng = np.random.default_rng(7)
    spaces = [
        product_space(hermite(), 8, 2),
        product_space(laguerre(0.0), 8, 1),
        product_space(jacobi(2.0, 2.0), 8, 1),
    ]
    for trial in range(150):
        space = spaces[trial % len(spaces)]
        f = SpectralFn(space, {
            a: v for a, v in random_fn(space, rng, 4).items_sorted() if sum(a) <= 4
        })
        g = SpectralFn(space, {
            a: v for a, v in random_fn(space, rng, 4).items_sorted() if sum(a) <= 4
        })
        lhs = gamma(f, g).integral()
        rhs = -inner(f, apply_L(g))
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + f.norm() * g.norm())


def test_derivation_property_randomized():
    """Gamma(phi(F), G) = phi'(F) Gamma(F, G) for polynomial phi, deg <= 4."""
    rng = np.random.default_rng(8)
    space = product_space(hermite(), 24, 2)
    for _ in range(25):
        f = SpectralFn(space, {
            a: v for a, v in random_fn(space, rng, 3).items_sorted() if sum(a) <= 2
        })
        g = SpectralFn(space, {
            a: v for a, v in random_fn(space, rng, 3).items_sorted() if sum(a) <= 2
        })
        if f.is_zero() or g.is_zero():
            continue
        c = rng.uniform(-1, 1, 5)
        # phi(F) and phi'(F) by explicit powers
        powers = [space.unit(), f]
        for k in range(2, 5):
            powers.append(multiply(powers[-1], f))
        phi_f = sum((powers[k].scale(float(c[k])) for k in range(5)), space.unit().scale(0.0))
        dphi_f = sum(
            (powers[k - 1].scale(float(k * c[k])) for k in range(1, 5)),
            space.unit().scale(0.0),
        )
        lhs = gamma(phi_f, g)
        rhs = multiply(dphi_f, gamma(f, g))
        scale = 1.0 + lhs.norm() + rhs.norm()
        assert (lhs - rhs).norm() <= 1e-9 * scale


def test_gamma_diagonal_nonnegative_on_quadrature_grid():
    rng = np.random.default_rng(9)
    for kind in (hermite(), laguerre(0.0), jacobi(2.0, 2.0)):
        space = product_space(kind, 8, 2)
        for _ in range(20):
            f = SpectralFn(space, {
                a: v for a, v in random_fn(space, rng, 4).items_sorted()
                if sum(a) <= 4
            })
            if f.is_zero():
                continue
            g = gamma(f, f)
            deg = max(sum(a) for a in g.support()) if not g.is_zero() else 0
            nodes, _ = gauss_quadrature(space.coords[0], max(deg, 1) + 1)
            xx, yy = np.meshgrid(nodes, nodes)
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            batch = SampleBatch(space, pts.shape[0], 0, pts)
            vals = montecarlo.evaluate(g, batch)
            assert vals.min() >= -1e-7 * f.norm() ** 2


# -- projections and spectrum -------------------------------------------------


def test_project_examples():
    f = H1.unit() + q(H1, 2, coeff=math.sqrt(2))
    assert_fn_close(project(f, 2.0), q(H1, 2, coeff=math.sqrt(2)), 0.0)
    assert project(f, 5.0).is_zero()
    rng = np.random.default_rng(10)
    g = random_fn(H2, rng)
    total = sum(
        (project(g, lvl) for lvl, _ in spectrum(g)),
        SpectralFn(H2, {}),
    )
    assert total.coeffs == g.coeffs  # exact reassembly


def test_spectrum_examples():
    assert spectrum(q(H1, 1) + q(H1, 2)) == [(1.0, [(1,)]), (2.0, [(2,)])]
    assert spectrum(H1.unit()) == [(0.0, [(0,)])]
    assert spectrum(q(H2, 1, 1)) == [(2.0, [(1, 1)])]


def test_norm_is_integral_of_square_by_quadrature():
    """Parseval: sum of squared coefficients equals int F^2 dmu."""
    rng = np.random.default_rng(14)
    for kind in (hermite(), laguerre(0.0), jacobi(2.0, 2.0)):
        space = product_space(kind, 6, 2)
        f = random_fn(space, rng, 5)
        deg = max((max(a) for a in f.support()), default=0)
        nodes, w = gauss_quadrature(space.coords[0], deg + 1)
        xx, yy = np.meshgrid(nodes, nodes)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        weights = np.outer(w, w).ravel()
        batch = SampleBatch(space, pts.shape[0], 0, pts)
        vals = montecarlo.evaluate(f, batch)
        quad = float((weights * vals**2).sum())
        assert abs(quad - f.norm2()) <= 1e-9 * (1.0 + f.norm2())


def test_spectrum_parseval_across_groups():
    rng = np.random.default_rng(11)
    space = product_space(jacobi(2.0, 2.0), 5, 2)
    f = random_fn(space, rng, 8)
    total = sum(project(f, lvl).norm2() for lvl, _ in spectrum(f))
    assert abs(total - f.norm2()) <= 1e-12 * (1 + f.norm2())


# -- chaos checks -------------------------------------------------------------


def test_hermite_eigenfunctions_are_chaotic():
    for p in range(1, 5):
        chk = is_chaotic(q(H1, p))
        assert chk.ok and chk.eigenvalue == float(p)


def test_jacobi11_q1_not_chaotic_under_pinned_convention():
    """Q_1^2 for jacobi(1,1) has mass on eigenvalue 6 > 2*lambda_1 = 4.

    Derivation: under the uniform measure on [-1,1], Q_1 = sqrt(3) x and
    Q_1^2 = 1 + (2/sqrt(5)) Q_2 with lambda_2 = 6, so the relative mass above
    the limit is 2/3.
    """
    space = product_space(jacobi(1.0, 1.0), 4, 1)
    f = q(space, 1)
    sq = multiply(f, f)
    lam2 = space.coords[0].eigenvalue(2)
    assert lam2 == 6.0
    mass = abs(sq.coeffs[(2,)]) / sq.norm()
    assert abs(mass - 2.0 / 3.0) < 1e-12
    chk = is_chaotic(f)
    assert not chk.ok
    assert chk.offenders and abs(chk.offenders[0][0] - 6.0) < 1e-9


def test_is_chaotic_rejects_non_eigenfunctions():
    with pytest.raises(ValueError):
        is_chaotic(q(H1, 1) + q(H1, 2))
    with pytest.raises(ValueError):
        eigenfunction_eigenvalue(SpectralFn(H1, {}))


def test_jointly_chaotic_examples():
    chk = is_jointly_chaotic(q(H1, 1), q(H1, 2))
    assert chk.ok and chk.limit == 3.0
    rng = np.random.default_rng(12)
    f = q(H1, 3, coeff=0.7)
    assert is_jointly_chaotic(f, H1.unit()).ok
    assert is_jointly_chaotic(q(H1, 2), q(H1, 2)).ok == is_chaotic(q(H1, 2)).ok


def test_membership_vacuous_on_vanishing_product():
    """A vanishing product is jointly chaotic by convention."""
    from chaoskit.spectral import _membership

    chk = _membership(SpectralFn(H2, {}), limit=2.0, eigenvalue=2.0)
    assert chk.ok and chk.offenders == ()


def test_overflowing_product_raises_instead_of_passing():
    """int F^4 of Q_180 on Laguerre(0) is about 2e339, past the float range;
    and a product whose norm itself overflows would give every offender mass
    0 and pass."""
    from chaoskit.spectral import _membership

    space = product_space(laguerre(0.0), 361, 1)
    with pytest.raises(ValueError, match="not finite"):
        moment4(q(space, 180))
    huge = SpectralFn(H1, {(0,): 1.5e308, (4,): 1.5e308})
    assert huge.norm() == math.inf
    with pytest.raises(ValueError, match="not finite"):
        _membership(huge, limit=2.0, eigenvalue=1.0)


def test_algebra_results_refuse_overflow():
    """Results built without re-validating their keys still refuse a
    non-finite coefficient.  L multiplies by eigenvalues of at most 2 * 3
    here, so its input sits nearer the float limit than the products'."""
    space = product_space(hermite(), 3, 2)
    f = SpectralFn(space, {(1, 1): 1e200, (0, 1): 1e200})
    for op in (multiply, gamma):
        with pytest.raises(ValueError, match=r"non-finite coefficient at \("):
            op(f, f)
    with pytest.raises(ValueError, match=r"non-finite coefficient at \("):
        apply_L(SpectralFn(space, {(1, 1): 1.5e308}))


def test_space_eigenvalue_bit_for_bit_from_coordinates():
    """ProductSpace.eigenvalue sums each coordinate's eigenvalue in order, to
    the bit, on every family up to its top degree (Laguerre refuses past 361)
    and on mixed spaces; each coordinate's eigenvalue is its numpy one."""
    bases = [make_basis(hermite(), 512), make_basis(laguerre(0.0), 361),
             make_basis(jacobi(2.0, 3.0), 512)]
    for b in bases:
        assert ([b.eigenvalue(p).hex() for p in range(b.max_degree + 1)]
                == [float(lam).hex() for lam in b.eigenvalues])
    spaces = [ProductSpace((b,) * d) for b in bases for d in (1, 3)]
    spaces += [ProductSpace(tuple(bases)), ProductSpace(tuple(reversed(bases)))]
    rng = np.random.default_rng(16)
    for space in spaces:
        tops = [b.max_degree for b in space.coords]
        alphas = [tuple(min(k, top) for top in tops) for k in range(513)]
        alphas += [tuple(int(rng.integers(0, top + 1)) for top in tops) for _ in range(500)]
        for alpha in alphas:
            ref = float(sum(b.eigenvalue(d) for d, b in zip(alpha, space.coords)))
            assert space.eigenvalue(alpha).hex() == ref.hex(), (space, alpha)


def test_norm_finite_where_sum_of_squares_overflows():
    """Q_180^2 on Laguerre(0) has coefficients up to 1.15e169: the sum of
    squares overflows, the norm does not, and Q_180 is chaotic."""
    import mpmath as mp

    space = product_space(laguerre(0.0), 361, 1)
    f = q(space, 180)
    sq = multiply(f, f)
    assert sq.norm2() == math.inf
    with mp.workdps(50):
        exact = mp.sqrt(mp.fsum(mp.mpf(v) ** 2 for v in sq.coeffs.values()))
        assert abs(sq.norm() / exact - 1) <= 1e-15
    chk = is_chaotic(f)
    assert chk.ok and chk.offenders == ()
    small = q(H1, 3, coeff=0.7) + q(H1, 1, coeff=-0.2)
    assert small.norm() == float(np.sqrt(0.7 * 0.7 + 0.2 * 0.2))


def test_level_masses_finite_where_squares_overflow():
    """A level whose squared coefficients leave the float range still gets
    its mass: 1e160 on Q_4 against a norm of 1e200 is mass 1e-40."""
    from chaoskit.spectral import _membership

    f = SpectralFn(product_space(hermite(), 4, 1), {(0,): 1e200, (4,): 1e160})
    chk = _membership(f, limit=2.0, eigenvalue=1.0)
    assert chk.ok
    [(lam, mass)] = chk.offenders
    assert lam == 4.0 and abs(mass / 1e-40 - 1) <= 1e-15
    assert eigenfunction_eigenvalue(f) == 0.0


def test_mass_of_the_only_level_is_one():
    """Level masses and SpectralFn.norm square by v*v in one helper.  With
    the level's squares by v ** 2 (libm pow), a function whose three terms
    share one level got that level the mass 1.0000000000000002."""
    from chaoskit.spectral import _membership

    vs = [float.fromhex(h) for h in
          ("-0x1.df4c807ebb238p+28", "-0x1.5a8f48586d3b2p+9", "0x1.d2c71432f7780p-60")]
    keys = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    f = SpectralFn(product_space(hermite(), 4, 3), dict(zip(keys, vs)))
    assert f.norm() == math.sqrt(sum(v * v for v in reversed(vs)))  # ascending keys
    assert _membership(f, limit=0.0, eigenvalue=0.0).offenders == ((2.0, 1.0),)


def test_chaotic_vector_examples():
    """The vector's i = j entries are is_chaotic(F_i) (limit 2 lambda_i, eigenvalue
    lambda_i), its i < j entries is_jointly_chaotic(F_i, F_j), field for field,
    and joint_report's vector verdict reads the same checks."""
    assert is_chaotic_vector((q(H1, 1), q(H1, 2))).ok
    single = is_chaotic_vector((q(H1, 2),))
    assert single.ok == is_chaotic(q(H1, 2)).ok
    assert is_chaotic_vector((q(H2, 1, 0), q(H2, 0, 1))).ok
    for kind, chaotic in ((hermite(), True), (jacobi(2.0, 3.0), False)):
        fs = pair_mixed(2, 2, 0.5, 3, kind=kind)
        verdict = is_chaotic_vector(fs)
        assert [(i, j) for i, j, _ in verdict.pairs] == [(0, 0), (0, 1), (1, 1)]
        for i, j, chk in verdict.pairs:
            assert chk == (is_chaotic(fs[i]) if i == j else is_jointly_chaotic(fs[i], fs[j]))
            assert bool(chk.offenders) is not chaotic  # Jacobi: lambda_4 > 2 lambda_2
        assert verdict.ok is chaotic
        rep = joint_report(fs, GaussianTarget([[inner(f, g) for g in fs] for f in fs]))
        assert rep.chaotic_vector is verdict.ok


# -- serialization ------------------------------------------------------------


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(13)
    space = ProductSpace((
        make_basis(hermite(), 4),
        make_basis(laguerre(0.5), 4),
        make_basis(jacobi(2.0, 2.0), 4),
    ))
    for _ in range(20):
        f = random_fn(space, rng)
        back = SpectralFn.from_json(f.to_json())
        assert back.space == f.space
        assert back.coeffs == f.coeffs  # bit-exact round trip


def test_json_schema_shape():
    f = q(H2, 1, 0, coeff=0.1) + q(H2, 0, 2, coeff=-2.5)
    obj = json.loads(f.to_json())
    assert set(obj) == {"space", "coeffs"}
    assert obj["space"][0] == {"kind": "hermite", "params": [], "max_degree": 6}
    assert obj["coeffs"] == [[[0, 2], -2.5], [[1, 0], 0.1]]
