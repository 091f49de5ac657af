"""Moment functionals, the spectral inequality, the CF bound and remainders."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from chaoskit import (
    GaussianTarget,
    SpectralFn,
    a_coeff,
    apply_Linv,
    fmt_report,
    gamma,
    gaussian_mixed,
    hermite,
    inner,
    is_chaotic_vector,
    jacobi,
    joint_report,
    laguerre,
    mixed22,
    moment4,
    pair_mixed,
    product_space,
    prop31_bound,
    remainder_r,
    thm33_sides,
    var_gamma,
)

import oracles

H1 = product_space(hermite(), 8, 1)
H2 = product_space(hermite(), 8, 2)


def q(space, *degrees, coeff=1.0):
    return space.basis_fn(tuple(degrees), coeff=coeff)


# -- moment4 / mixed22 / var_gamma against the Gaussian moment oracle ---------


def test_moment4_examples():
    assert abs(moment4(q(H1, 1)) - 3.0) < 1e-12  # E[X^4]
    # E[(x^2-1)^4] / 4 via the moment oracle: (m8 - 4 m6 + 6 m4 - 4 m2 + 1)/4
    m = oracles.gaussian_moment
    expect = (m(8) - 4 * m(6) + 6 * m(4) - 4 * m(2) + 1) / 4
    assert expect == 15.0
    assert abs(moment4(q(H1, 2)) - expect) < 1e-12
    assert moment4(H1.unit()) == 1.0


def test_mixed22_examples():
    assert abs(mixed22(q(H2, 1, 0), q(H2, 0, 1)) - 1.0) < 1e-12
    assert abs(mixed22(q(H1, 1), q(H1, 1)) - moment4(q(H1, 1))) < 1e-12
    # E[x^2 (x^2-1)^2]/2 = (m6 - 2 m4 + m2)/2 = 5
    m = oracles.gaussian_moment
    expect = (m(6) - 2 * m(4) + m(2)) / 2
    assert expect == 5.0
    assert abs(mixed22(q(H1, 1), q(H1, 2)) - expect) < 1e-12


def test_var_gamma_examples():
    assert abs(var_gamma(q(H1, 1), q(H1, 1))) < 1e-12
    assert abs(var_gamma(q(H1, 2), q(H1, 2)) - 8.0) < 1e-12
    assert abs(var_gamma(H1.unit(), q(H1, 3))) < 1e-12


# -- Gaussian targets ----------------------------------------------------------


def test_gaussian_mixed_examples():
    eye = GaussianTarget(np.eye(2))
    assert gaussian_mixed(eye, 0, 1) == 1.0
    assert gaussian_mixed(eye, 0, 0) == 3.0
    c = GaussianTarget(np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert gaussian_mixed(c, 0, 1) == 8.0
    with pytest.raises(ValueError):
        gaussian_mixed(eye, 0, 2)


def test_gaussian_target_validation():
    with pytest.raises(ValueError):
        GaussianTarget(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianTarget(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gaussian_target_refuses_non_finite_entries(bad):
    """NaN and inf pass the symmetry and eigenvalue checks (every comparison
    with NaN is false), so they are refused on their own, also where a
    function takes the covariance as an array."""
    for cov in ([[bad]], [[1.0, bad], [bad, 1.0]], [[bad, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="must be finite"):
            GaussianTarget(cov)
    f = q(H1, 2, coeff=2 ** -0.5)
    with pytest.raises(ValueError, match="must be finite"):
        prop31_bound([f], [[bad]])


@pytest.mark.parametrize("bad", ["1", True, None, "nan"])
def test_gaussian_target_refuses_bools_and_strings(bad):
    """Covariance entries must be numbers, checked on the array's dtype: a
    string, bool or other non-number is refused, not converted."""
    for cov in ([[bad]], [[bad, bad], [bad, bad]], np.array([[bad]])):
        with pytest.raises(TypeError, match="must be real numbers"):
            GaussianTarget(cov)
    with pytest.raises(TypeError, match="must be real numbers"):
        prop31_bound([q(H1, 2, coeff=2 ** -0.5)], [[bad]])
    assert GaussianTarget([[1]]).cov.dtype == np.float64  # integers are numbers


def test_gaussian_target_refuses_a_bool_among_numbers():
    """numpy would promote a nested list holding True (a Python or a numpy
    bool) and floats to a float array, so entries of a list are refused one
    by one, by the rule of `as_real`; an array keeps its dtype check."""
    for cov in ([[True, 0.0], [0.0, 1.0]], [[1.0, "0"], ["0", 1.0]], ([1.0, 0.0], (0.0, False)),
                [[np.True_, 0.0], [0.0, 1.0]]):
        with pytest.raises(TypeError, match="must be real numbers"):
            GaussianTarget(cov)
    assert GaussianTarget([[1, 0.5], (0.5, 2.0)]).cov.tolist() == [[1.0, 0.5], [0.5, 2.0]]


def test_a_coeff_examples():
    assert a_coeff(2.0, 2.0) == 1.0
    assert abs(a_coeff(2.0, 4.0) - 4.0 / 3.0) < 1e-15
    assert abs(a_coeff(4.0, 2.0) - 2.0 / 3.0) < 1e-15
    with pytest.raises(ValueError):
        a_coeff(0.0, 0.0)


# -- spectral inequality --------------------------------------------------------


def test_thm33_examples():
    lhs, rhs = thm33_sides(q(H1, 2), 2.0)
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs = thm33_sides(q(H1, 1) + q(H1, 2), 2.0)
    assert abs(lhs - 1.0) < 1e-15 and abs(rhs - 2.0) < 1e-15
    lhs, rhs = thm33_sides(H1.unit(), 1.0)
    assert lhs == 1.0 and rhs == 1.0


def test_thm33_warns_below_top_eigenvalue():
    with pytest.warns(UserWarning):
        lhs, rhs = thm33_sides(q(H1, 3), 1.0)
    assert lhs > rhs  # values still returned for diagnostics


def test_thm33_randomized_property():
    """lhs <= rhs + 1e-8 * scale over randomized functions, three families."""
    rng = np.random.default_rng(100)
    spaces = [
        product_space(hermite(), 6, 2),
        product_space(laguerre(0.0), 6, 2),
        product_space(jacobi(2.0, 2.0), 6, 2),
    ]
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no precondition violations expected
        for i in range(1000):
            space = spaces[i % 3]
            coeffs = {}
            for _ in range(int(rng.integers(1, 7))):
                alpha = tuple(int(rng.integers(0, 7)) for _ in range(2))
                coeffs[alpha] = float(rng.uniform(-1, 1))
            f = SpectralFn(space, coeffs)
            if f.is_zero():
                continue
            lam_max = max(space.eigenvalue(a) for a in f.support())
            eta = lam_max * (1.0 + float(rng.uniform(0, 1))) if i % 4 else lam_max
            lhs, rhs = thm33_sides(f, eta)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert lhs <= rhs + 1e-8 * scale
            checked += 1
    assert checked >= 990


# -- fourth-moment lower bound ---------------------------------------------------


def test_fourth_moment_lower_bound_for_chaotic_eigenfunctions():
    """moment4(F) >= 3 inner(F,F)^2 - 1e-8 for random level eigenfunctions."""
    rng = np.random.default_rng(101)
    for kind in (hermite(), laguerre(0.0)):
        for level in (1, 2, 3):
            space = product_space(kind, 2 * level, 2)
            for _ in range(40):
                coeffs = {}
                for d1 in range(level + 1):
                    # total coordinate degree = level so Lambda = level exactly
                    coeffs[(d1, level - d1)] = float(rng.uniform(-1, 1))
                f = SpectralFn(space, coeffs)
                m2 = inner(f, f)
                assert moment4(f) >= 3.0 * m2 * m2 - 1e-8


# -- prop 3.1 bound ---------------------------------------------------------------


def test_prop31_examples():
    assert prop31_bound([q(H1, 1)], np.eye(1)) <= 1e-12

    f = q(H1, 2, coeff=2 ** -0.5)
    # with the matched covariance C = int F^2 = 1/2 the bound is
    # sqrt(Var Gamma(F, -L^-1 F)) = sqrt(8/16) = 1/sqrt(2)
    got = prop31_bound([f], np.array([[0.5]]))
    assert abs(got - 1 / math.sqrt(2)) < 1e-12

    got = prop31_bound([q(H2, 1, 0), q(H2, 0, 1)], np.eye(2))
    assert got <= 1e-12


def test_prop31_general_covariance():
    """The bound is defined for any target C, matched or not."""
    f = q(H1, 2, coeff=2 ** -0.5)
    got = prop31_bound([f], np.array([[1.0]]))
    # mean mismatch (1 - 1/2)^2 adds to Var Gamma = 1/2
    assert abs(got - math.sqrt(0.25 + 0.5)) < 1e-12


def test_prop31_requires_centered_components():
    with pytest.raises(ValueError):
        prop31_bound([H1.unit() + q(H1, 1)], np.eye(1))


def test_prop31_consistency_invariant():
    """prop31^2 = Var(Gamma(F,F)) / lambda^2 when C is the exact variance."""
    rng = np.random.default_rng(102)
    for kind in (hermite(), laguerre(0.0), jacobi(2.0, 2.0)):
        for level in (1, 2):
            space = product_space(kind, 4 * level, 1)
            lam = space.coords[0].eigenvalue(level)
            for _ in range(10):
                f = q(space, level, coeff=float(rng.uniform(0.2, 2.0)))
                m2 = inner(f, f)
                bound = prop31_bound([f], np.array([[m2]]))
                expect = var_gamma(f, f) / lam**2
                assert abs(bound**2 - expect) <= 1e-10 * (1 + expect)


# -- remainder ---------------------------------------------------------------------


def test_remainder_examples():
    assert abs(remainder_r(q(H1, 1), q(H1, 1))) < 1e-12
    assert abs(remainder_r(q(H2, 1, 0), q(H2, 0, 1))) < 1e-12
    # distinct eigenvalues, empirical covariances: lambda_j = 2, a = 4/3,
    # mixed22 = 5/2, C_ii = 1, C_jj = 1/2, C_ij = 0 -> R = 2 (5/4 - 1/4) = 2
    f_i = q(H1, 1)
    f_j = q(H1, 2, coeff=2 ** -0.5)
    got = remainder_r(f_i, f_j)
    assert abs(got - 2.0) < 1e-12


def test_remainder_rejects_bad_inputs():
    # F_i is still an eigenfunction (lambda = 1, the level-2 mass is 1e-20),
    # but its own covariance with the level-2 F_j is 1e-10, not zero.
    f_i, f_j = q(H1, 1) + q(H1, 2, coeff=1e-10), q(H1, 2)
    with pytest.raises(ValueError, match="must vanish across distinct eigenvalues"):
        remainder_r(f_i, f_j)
    with pytest.raises(ValueError, match="must vanish across distinct eigenvalues"):
        joint_report((f_i, f_j))
    with pytest.raises(ValueError):
        remainder_r(H1.unit(), q(H1, 1))  # zero eigenvalue
    with pytest.raises(ValueError):
        remainder_r(q(H1, 1) + q(H1, 2), q(H1, 1))  # not eigenfunction


def test_remainder_vanishes_when_mixed_moment_is_gaussian():
    """R = 0 exactly when mixed22 equals the Isserlis value of the empirical
    covariances; degree-1 spreads realize this identically."""
    for n in (1, 2, 5):
        for rho in (0.0, 0.5, 1.0):
            f1, f2 = pair_mixed(1, 1, rho, n)
            c12 = inner(f1, f2)
            c = GaussianTarget(np.array([[inner(f1, f1), c12], [c12, inner(f2, f2)]]))
            m = mixed22(f1, f2)
            assert abs(m - gaussian_mixed(c, 0, 1)) < 1e-12
            assert abs(remainder_r(f1, f2)) < 1e-12


# -- reports ------------------------------------------------------------------------


def test_fmt_report_examples():
    rep = fmt_report(q(H1, 1))
    assert rep.m2 == 1.0 and abs(rep.m4 - 3.0) < 1e-12
    assert abs(rep.var_gamma) < 1e-12 and rep.chaotic and rep.centered

    rep = fmt_report(H1.unit())
    assert rep.m2 == 1.0 and rep.m4 == 1.0 and rep.var_gamma == 0.0
    assert not rep.centered  # degenerate constant flagged


def test_joint_report_independent_pair():
    fs = (q(H2, 1, 0), q(H2, 0, 1))
    rep = joint_report(fs)
    assert rep.prop31 <= 1e-12
    assert np.abs(rep.r_matrix).max() <= 1e-12
    assert abs(rep.mixed22[0, 1] - 1.0) < 1e-12
    assert rep.eigenvalues == (1.0, 1.0)


@pytest.mark.parametrize("kind", [hermite(), laguerre(0.5), jacobi(2.0, 3.0)],
                         ids=lambda k: k.label())
@pytest.mark.parametrize("p1, p2, rho", [(2, 2, 0.5), (2, 2, -0.5), (1, 2, 0.5)])
def test_joint_report_matches_pair_api_bitwise(kind, p1, p2, rho):
    """joint_report shares squares and Gammas; every entry, and the vector's
    chaos verdict, still equals the per-pair function of the same inputs exactly."""
    fs = pair_mixed(p1, p2, rho, 3, kind=kind)
    c = GaussianTarget(np.array([[inner(f, g) for g in fs] for f in fs]))
    rep = joint_report(fs)
    for i, fi in enumerate(fs):
        rep_i = fmt_report(fi)
        assert (rep.cov[i, i], rep.mixed22[i, i]) == (rep_i.m2, rep_i.m4)
        for j, fj in enumerate(fs):
            assert rep.cov[i, j] == inner(fi, fj)
            assert rep.mixed22[i, j] == mixed22(fi, fj)
            assert rep.r_matrix[i, j] == remainder_r(fi, fj)
            assert rep.var_gamma_m[i, j] == var_gamma(fi, -apply_Linv(fj))
    assert rep.prop31 == prop31_bound(fs, c)
    assert rep.chaotic_vector == is_chaotic_vector(fs).ok


def _random_level_pair(space, li, lj, rng):
    def level_fn(level):
        coeffs = {}
        for d1 in range(level + 1):
            coeffs[(d1, level - d1)] = float(rng.uniform(-1, 1))
        return SpectralFn(space, coeffs)

    return level_fn(li), level_fn(lj)


def test_gamma_eigenvalue_shift_identity():
    """Gamma(F_i,F_j) - lambda_j C_ij = (L + (lambda_i+lambda_j)Id)(F_iF_j - a_ij C_ij)/2
    exactly, for eigenfunction pairs with their empirical covariance."""
    from chaoskit import apply_L, multiply

    rng = np.random.default_rng(104)
    for _ in range(60):
        li = int(rng.integers(1, 4))
        lj = int(rng.integers(1, 4))
        space = product_space(hermite(), 2 * max(li, lj) + li + lj, 2)
        fi, fj = _random_level_pair(space, li, lj, rng)
        c_ij = inner(fi, fj)
        a_ij = a_coeff(float(li), float(lj))
        lhs = gamma(fi, fj).shift_mean(-lj * c_ij)
        h = multiply(fi, fj).shift_mean(-a_ij * c_ij)
        rhs = (apply_L(h) + h.scale(float(li + lj))).scale(0.5)
        assert (lhs - rhs).norm() <= 1e-12 * (1.0 + lhs.norm())


def test_quartic_functional_identity():
    """int F_iF_j Gamma(F_i,F_j) dmu = -1/4 int F_i^2 L(F_j^2) dmu."""
    from chaoskit import apply_L, multiply

    rng = np.random.default_rng(105)
    for _ in range(60):
        li = int(rng.integers(1, 4))
        lj = int(rng.integers(1, 4))
        space = product_space(hermite(), 2 * max(li, lj) + li + lj, 2)
        fi, fj = _random_level_pair(space, li, lj, rng)
        q1 = inner(multiply(fi, fj), gamma(fi, fj))
        q2 = -0.25 * inner(multiply(fi, fi), apply_L(multiply(fj, fj)))
        assert abs(q1 - q2) <= 1e-11 * (1.0 + abs(q1))


def test_remainder_bound_chain():
    """For jointly chaotic eigenfunction pairs with empirical covariances,

        int (Gamma(F_i, -L^-1 F_j) - C_ij)^2 dmu
            <= (sqrt(m4(F_i)) sqrt(Var Gamma(F_j,F_j)) / 2 + R_ij) / (a_ij lambda_j).
    """
    rng = np.random.default_rng(106)
    for _ in range(120):
        li = int(rng.integers(1, 4))
        lj = int(rng.integers(1, 4))
        space = product_space(hermite(), 2 * max(li, lj) + li + lj, 2)
        fi, fj = _random_level_pair(space, li, lj, rng)
        c_ij = inner(fi, fj)
        dev = gamma(fi, -apply_Linv(fj)).shift_mean(-c_ij)
        lhs = inner(dev, dev)
        r = remainder_r(fi, fj)
        a_ij = a_coeff(float(li), float(lj))
        rhs = (
            0.5 * math.sqrt(moment4(fi)) * math.sqrt(var_gamma(fj, fj)) + r
        ) / (a_ij * lj)
        assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


def test_gamma_linv_mean_is_covariance():
    """int Gamma(F_i, -L^-1 F_j) dmu = int F_i F_j dmu for centered inputs."""
    rng = np.random.default_rng(103)
    space = product_space(hermite(), 8, 2)
    for _ in range(20):
        fi = q(space, int(rng.integers(1, 3)), 0, coeff=float(rng.uniform(0.5, 2)))
        fj = q(space, int(rng.integers(1, 3)), 0, coeff=float(rng.uniform(0.5, 2)))
        h = gamma(fi, -apply_Linv(fj))
        assert abs(h.integral() - inner(fi, fj)) <= 1e-12 * (1 + abs(inner(fi, fj)))
