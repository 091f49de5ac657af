"""Property tests of the coefficient algebra over all three families.

Random spaces (Hermite, Laguerre(alpha), Jacobi(a, b); one or two coordinates
of max_degree 16) carry random sparse functions of degree at most 5 per
coordinate, so every triple product stays representable.  A second strategy
draws elements of the p-th Hermite chaos, where the fourth-moment bound on
Var Gamma is checked.  Mixed spaces draw each coordinate's family on its own.
`multiply` and `gamma` are also compared bit for bit with the recursive pair
expansion kept in `oracles`, and expansions and kernels built from reordered
dicts are checked to hold their terms with keys ascending.  The chaos
checks and `eigenfunction_eigenvalue` are held to the spectrum-grouping
references in `oracles`, also where a norm underflows or overflows.  On
second-chaos vectors F_j = X^T A_j X - tr A_j, `joint_report` is held to the
trace formulas of `oracles.quadratic_report`.  The runs are derandomized
and keep no example database, so they repeat exactly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit import ProductSpace, SpectralFn, SymTensor, apply_L, apply_Linv, gamma, hermite
from chaoskit import inner, jacobi, laguerre, make_basis, moment4, multiple_integral, multiply
from chaoskit import eigenfunction_eigenvalue, joint_report, product_space, project, var_gamma
from chaoskit.spectral import EPS_GROUP, _membership

import oracles

MAX_DEGREE = 16
TERM_DEGREE = 5  # 3 * 5 <= 16: (FG)H and Gamma(FG, H) fit in the space
RTOL = 1e-12

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

kinds = st.one_of(
    st.just(hermite()),
    st.builds(laguerre, st.floats(0.0, 2.0)),
    st.builds(jacobi, st.floats(0.5, 4.0), st.floats(0.5, 4.0)),
)


@st.composite
def functions(draw, count, mixed=False):
    """`count` random functions on one random space; with `mixed`, on two or
    three coordinates whose families are drawn one by one."""
    if mixed:
        coords = draw(st.lists(kinds, min_size=2, max_size=3))
        space = ProductSpace(tuple(make_basis(kind, MAX_DEGREE) for kind in coords))
    else:
        space = product_space(draw(kinds), MAX_DEGREE, draw(st.integers(1, 2)))
    index = st.tuples(*[st.integers(0, TERM_DEGREE)] * space.dim)
    coeffs = st.dictionaries(index, st.floats(-1.0, 1.0).filter(bool), min_size=1, max_size=4)
    return [SpectralFn(space, draw(coeffs)) for _ in range(count)]


def _abs(f: SpectralFn) -> SpectralFn:
    return SpectralFn(f.space, {a: abs(v) for a, v in f.coeffs.items()})


def _assert_close(lhs: SpectralFn, rhs: SpectralFn, scale: float) -> None:
    assert (lhs - rhs).norm() <= RTOL * scale, (lhs.items_sorted(), rhs.items_sorted())


@PROPERTY_SETTINGS
@given(functions(2))
def test_integration_by_parts(fg):
    """int Gamma(F, G) dmu = -int F LG dmu."""
    f, g = fg
    terms = inner(_abs(f), _abs(apply_L(g)))
    assert abs(gamma(f, g).integral() + inner(f, apply_L(g))) <= RTOL * (1.0 + terms)


@PROPERTY_SETTINGS
@given(functions(3))
def test_derivation_property(fgh):
    """Gamma(FG, H) = F Gamma(G, H) + G Gamma(F, H)."""
    f, g, h = fgh
    lhs = gamma(multiply(f, g), h)
    rhs = multiply(f, gamma(g, h)) + multiply(g, gamma(f, h))
    _assert_close(lhs, rhs, 1.0 + lhs.norm() + rhs.norm())


@PROPERTY_SETTINGS
@given(functions(3))
def test_multiply_commutative_and_associative(fgh):
    f, g, h = fgh
    fg = multiply(f, g)
    _assert_close(fg, multiply(g, f), 1.0 + fg.norm())
    left = multiply(fg, h)
    right = multiply(f, multiply(g, h))
    _assert_close(left, right, 1.0 + left.norm())


@settings(PROPERTY_SETTINGS, max_examples=120)
@given(functions(2))
def test_carre_du_champ_nonnegative(fh):
    """Gamma(F, F) >= 0 pointwise, tested against random densities h^2:
    int Gamma(F, F) h^2 dmu >= 0 up to rounding."""
    f, h = fh
    g, h2 = gamma(f, f), multiply(h, h)
    assert inner(g, h2) >= -1e-12 * g.norm() * h2.norm()


@PROPERTY_SETTINGS
@given(st.one_of(functions(2), functions(2, mixed=True)))
def test_algebra_results_valid_as_built(fg):
    """The algebra builds its results without validating their keys again;
    the validating constructor gives each back as the same dict, of int-tuple
    keys and float values."""
    f, g = fg
    fg = multiply(f, g)
    level = fg.space.eigenvalue(next(iter(fg.coeffs))) if fg.coeffs else 0.0
    for h in (fg, gamma(f, g), project(fg, level), apply_L(f), apply_Linv(f)):
        assert list(SpectralFn(h.space, h.coeffs).coeffs.items()) == list(h.coeffs.items())
        assert all(type(d) is int for alpha in h.coeffs for d in alpha)
        assert all(type(v) is float for v in h.coeffs.values())


def _bits(f: SpectralFn) -> list[tuple[tuple[int, ...], str]]:
    return [(alpha, v.hex()) for alpha, v in f.coeffs.items()]


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.one_of(functions(2), functions(2, mixed=True)))
def test_pair_expansion_bit_identical_to_reference(fg):
    """multiply and gamma give the recursive reference expansion's keys with
    the same bits; the reference skips the same zero
    linearization coefficients and zero Gamma weights (the top degree of a
    Hermite or Laguerre pair)."""
    f, g = fg
    for a, b in ((f, g), (g, f), (f, f)):
        assert _bits(multiply(a, b)) == _bits(oracles.pair_expand(a, b, carre=False))
        assert _bits(gamma(a, b)) == _bits(oracles.pair_expand(a, b, carre=True))


def _reordered(data, f: SpectralFn) -> SpectralFn:
    """f rebuilt from a dict of its terms in a drawn order."""
    return SpectralFn(f.space, dict(data.draw(st.permutations(list(f.coeffs.items())))))


def _results(f: SpectralFn, g: SpectralFn) -> list[SpectralFn]:
    """f, g and what the algebra builds from them."""
    prod = multiply(f, g)
    top = max(map(f.space.eigenvalue, prod.coeffs), default=0.0)
    return [f, g, prod, gamma(f, g), f.scale(-0.75), f + g, apply_Linv(f), project(prod, top)]


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(st.one_of(functions(2), functions(2, mixed=True)), st.data())
def test_terms_ascend_by_key_whatever_the_insertion_order(fg, data):
    """However its dict was ordered, a SpectralFn holds its terms with keys
    ascending, and `items_sorted` and `support` return them in that order; so
    do multiply, gamma, scale, +, apply_Linv and project, bit for bit the same
    for any insertion order of their operands' dicts."""
    first = _results(*fg)
    again = _results(*(_reordered(data, f) for f in fg))
    for h, h2 in zip(first, again):
        keys = list(h.coeffs)
        assert keys == sorted(keys)
        assert h.support() == keys and h.items_sorted() == list(h.coeffs.items())
        assert _bits(h2) == _bits(h)


@PROPERTY_SETTINGS
@given(functions(1), st.data())
def test_fractional_bool_and_string_degrees_are_refused(fs, data):
    """A degree is read by `as_int`: a fraction, a bool or a string is refused,
    also in a JSON file, where int() would move its coefficient onto another
    basis function; an integral float is its integer."""
    (f,) = fs
    alpha = next(iter(f.coeffs))
    i = data.draw(st.integers(0, len(alpha) - 1))
    for bad in (alpha[i] + 0.5, alpha[i] > 0, str(alpha[i])):
        twin = alpha[:i] + (bad,) + alpha[i + 1:]
        with pytest.raises(TypeError, match="expected an integer"):
            SpectralFn(f.space, {twin: 1.0})
        obj = f.to_dict()
        obj["coeffs"][0][0] = list(twin)
        with pytest.raises(TypeError, match="expected an integer"):
            SpectralFn.from_dict(obj)
    obj = f.to_dict()
    obj["space"][i]["max_degree"] += 0.5
    with pytest.raises(TypeError, match="expected an integer"):
        SpectralFn.from_dict(obj)
    floats = SpectralFn(f.space, {tuple(map(float, a)): v for a, v in f.coeffs.items()})
    assert _bits(floats) == _bits(f) and all(type(d) is int for a in floats.coeffs for d in a)


@st.composite
def leveled(draw):
    """(F, F^2 or None) on a random space of one to three coordinates, one
    family or mixed.  F holds a drawn multi-index and its coordinate
    permutations (one level where the coordinates share a basis) or random
    multi-indices (several levels), perhaps plus a term of relative size
    1e-4..1e-12 anywhere, all scaled by a power of ten from underflow of the
    norm (1e-170) to its overflow (1.7e308).  F^2 is built only unscaled,
    where a Jacobi square has mass above twice the level."""
    if draw(st.booleans()):
        space = product_space(draw(kinds), MAX_DEGREE, draw(st.integers(1, 3)))
    else:
        coords = draw(st.lists(kinds, min_size=2, max_size=3))
        space = ProductSpace(tuple(make_basis(kind, MAX_DEGREE) for kind in coords))
    index = st.tuples(*[st.integers(0, TERM_DEGREE)] * space.dim)
    if draw(st.booleans()):
        keys = sorted(set(itertools.permutations(draw(index))))
    else:
        keys = sorted(draw(st.sets(index, min_size=1, max_size=4)))
    coeffs = {alpha: draw(st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3)) for alpha in keys}
    if draw(st.booleans()):
        coeffs[draw(index)] = draw(st.sampled_from([1e-4, -1e-8, 1e-9, 1e-12]))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-170, 1e150, 1.7e308]))
    f = SpectralFn(space, {alpha: scale * v for alpha, v in coeffs.items()})
    return f, multiply(f, f) if scale == 1.0 else None


def _outcome(fn, *args):
    """fn(*args), or the type and text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(leveled(), st.data())
def test_chaos_checks_match_spectrum_reference(fsq, data):
    """eigenfunction_eigenvalue and _membership give the ChaosCheck,
    eigenvalue or error of the references in `oracles`, which group the whole
    spectrum: at twice F's smallest eigenvalue on F^2 (chaos-check's limit),
    and on F at, and within a few slacks of, each of its own eigenvalues."""
    f, sq = fsq
    assert _outcome(eigenfunction_eigenvalue, f) == _outcome(oracles.eigenfunction_eigenvalue, f)
    lams = sorted({f.space.eigenvalue(alpha) for alpha in f.coeffs})
    lam = lams[0]
    level = data.draw(st.sampled_from(lams))
    # a level lies above the limit when more than EPS_GROUP (1 + |limit|) above it
    limit = level - data.draw(st.sampled_from([-1.0, 0.0, 0.5, 1.5, 1e3])) * EPS_GROUP * (1 + level)
    cases = [(f, limit)] + ([(sq, 2.0 * lam)] if sq is not None else [])
    for prod, limit in cases:
        assert (_outcome(_membership, prod, limit, lam)
                == _outcome(oracles.membership, prod, limit, lam))


@st.composite
def kernels(draw):
    """(dim, order, entries) of a random symmetric kernel, its entries' dict
    in drawn order."""
    dim, order = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    key = st.lists(st.integers(0, dim - 1), min_size=order, max_size=order).map(
        lambda k: tuple(sorted(k)))
    entries = st.dictionaries(key, st.floats(-1.0, 1.0).filter(bool), min_size=1, max_size=6)
    return dim, order, draw(entries)


@PROPERTY_SETTINGS
@given(kernels(), st.data())
def test_kernel_entries_ascend_whatever_the_insertion_order(kernel, data):
    """A SymTensor holds its entries with keys ascending, whatever the order of
    its dict, so its multiple integral comes out bit for bit the same; an index
    that is a fraction, a bool or a string is refused."""
    dim, order, entries = kernel
    f = SymTensor(dim, order, entries)
    g = SymTensor(dim, order, dict(data.draw(st.permutations(list(entries.items())))))
    assert list(f.entries) == sorted(f.entries)
    assert f.items_sorted() == list(f.entries.items()) == list(g.entries.items())
    assert _bits(multiple_integral(g)) == _bits(multiple_integral(f))
    key = next(iter(entries))
    for bad in (key[-1] + 0.5, key[-1] > 0, str(key[-1])):
        with pytest.raises(TypeError, match="expected an integer"):
            SymTensor(dim, order, {key[:-1] + (bad,): 2.0})


@st.composite
def hermite_chaos(draw):
    """(p, F) with F in the p-th Hermite chaos on 1-3 coordinates."""
    p = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3))
    level = [a for a in itertools.product(range(p + 1), repeat=d) if sum(a) == p]
    coeffs = st.dictionaries(st.sampled_from(level), st.floats(-1.0, 1.0).filter(bool),
                             min_size=1, max_size=len(level))
    return p, SpectralFn(product_space(hermite(), 2 * p, d), draw(coeffs))


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(hermite_chaos())
def test_hermite_var_gamma_below_fourth_cumulant(pf):
    """Var Gamma(F, -L^-1 F) <= (p-1)/(3p) kappa_4(F) on the p-th Hermite chaos,
    kappa_4 = int F^4 - 3 (int F^2)^2.  Equality holds at Q_2, where the
    computed ratio sits one ulp above 1/6, hence the relative slack."""
    p, f = pf
    kappa4 = moment4(f) - 3.0 * inner(f, f) ** 2
    assert var_gamma(f, -apply_Linv(f)) <= (p - 1) / (3 * p) * kappa4 * (1 + 1e-12)


@st.composite
def quadratic_forms(draw):
    """Sparse, nonzero, symmetric A_j: d <= 3 of them on n <= 6 coordinates.
    Entries stay above 1e-3 in size, as in `leveled`: a norm that underflows
    makes F no eigenfunction to the library (see there)."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(lambda kl: tuple(sorted(kl)))
    value = st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3)
    entries = st.dictionaries(pair, value, min_size=1, max_size=4)
    As = []
    for _ in range(d):
        a = np.zeros((n, n))
        for (k, l), v in draw(entries).items():
            a[k, l] = a[l, k] = v
        As.append(a)
    return As


def _quadratic_fn(space: ProductSpace, a: np.ndarray) -> SpectralFn:
    """X^T A X - tr A in orthonormal Hermite terms: x_k^2 - 1 = sqrt(2) Q_2(x_k)
    and x_k x_l = Q_1(x_k) Q_1(x_l)."""
    coeffs = {}
    for k, l in zip(*np.nonzero(np.triu(a))):
        alpha = [0] * space.dim
        alpha[k] += 1
        alpha[l] += 1
        coeffs[tuple(alpha)] = math.sqrt(2.0) * a[k, l] if k == l else 2.0 * a[k, l]
    return SpectralFn(space, coeffs)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(quadratic_forms())
def test_second_chaos_joint_report_matches_traces(As):
    """On second-chaos vectors F_j = X^T A_j X - tr A_j, every entry of
    `joint_report` agrees with the trace formulas of `oracles.quadratic_report`,
    and the vector is chaotic."""
    space = product_space(hermite(), 4, len(As[0]))
    rep = joint_report([_quadratic_fn(space, a) for a in As])
    assert rep.chaotic_vector
    for field, want in oracles.quadratic_report(As).items():
        got = np.asarray(getattr(rep, field))
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), (field, got, want)
