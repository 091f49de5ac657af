"""Symmetric tensors, contractions, multiple integrals, product identity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chaoskit import (
    SymTensor,
    contract,
    hermite,
    inner,
    multiple_integral,
    multiply,
    product_formula_check,
    product_space,
    project,
    spectrum,
    symmetrize,
)
from chaoskit import wiener
from chaoskit.experiments import random_sym_tensor

import oracles


def e(i, m=2):
    return SymTensor(m, 1, {(i,): 1.0})


# -- symmetrize ----------------------------------------------------------------


def test_symmetrize_examples():
    raw = np.zeros((2, 2))
    raw[0, 1] = 1.0
    t = symmetrize(raw)
    assert t.entries == {(0, 1): 0.5}

    t2 = symmetrize(t)
    assert t2 is t  # idempotent

    raw = np.zeros((2, 2))
    raw[0, 1] = 1.0
    raw[1, 0] = 3.0
    assert symmetrize(raw).entries == {(0, 1): 2.0}


@pytest.mark.parametrize("bad", ["3", True])
def test_symmetrize_dict_refuses_bools_and_strings(bad):
    """A dict value is read by `as_real` before it enters the dense array,
    which would convert "3" to 3.0 and True to 1.0."""
    with pytest.raises(TypeError, match="expected a number"):
        symmetrize({(0,): bad}, dim=1, order=1)
    with pytest.raises(TypeError, match="expected a number"):
        symmetrize({(0, 1): 0.5, (1, 0): bad}, dim=2, order=2)
    assert symmetrize({(0,): 3}, dim=1, order=1).entries == {(0,): 3.0}


def test_symmetrize_matches_brute_force():
    rng = np.random.default_rng(20)
    for p in (2, 3, 4):
        raw = rng.uniform(-1, 1, (3,) * p)
        sym = symmetrize(raw)
        brute = oracles.brute_symmetrize(raw)
        assert np.abs(sym.to_dense() - brute).max() < 1e-13


def test_arrangements_are_the_sorted_distinct_permutations():
    import itertools

    for key in [(0,), (0, 0, 0), (0, 1, 2, 3), (0, 0, 1, 2), (0, 1, 1, 1, 3), (1, 1, 2, 2)]:
        arrangements = list(wiener._arrangements(key))
        assert arrangements == sorted(set(itertools.permutations(key)))
        assert len(arrangements) == wiener._multiplicity(len(key), key)


def test_to_dense_and_symmetrize_at_high_order():
    """Dense round trips cost one visit per distinct arrangement, not p!: at
    m = 1 and p = 17 there is one, where the permutations number 3.6e14."""
    t = SymTensor(1, 17, {(0,) * 17: 2.5})
    dense = t.to_dense()
    assert dense.shape == (1,) * 17 and float(dense.sum()) == 2.5
    assert symmetrize(dense).entries == t.entries
    u = random_sym_tensor(2, 12, np.random.default_rng(4))
    assert symmetrize(u.to_dense()).entries == pytest.approx(u.entries, rel=1e-15)


def test_symmetrize_validation():
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(1, 0): 1.0})  # unsorted tuple


@pytest.mark.parametrize("bad", ["3", True, None])
def test_sym_tensor_refuses_bool_and_string_entries(bad):
    """An entry is read by `as_real`: a bool or a string is refused instead of
    being converted by float(); an int is a number."""
    with pytest.raises(TypeError):
        SymTensor(2, 1, {(0,): bad})
    with pytest.raises(TypeError):
        SymTensor(2, 1, {(0,): 1.0, (1,): bad})
    t = SymTensor(2, 1, {(0,): 3, (1,): 0.5})
    assert t.entries == {(0,): 3.0, (1,): 0.5} and type(t.entries[(0,)]) is float


def test_norm_accounts_for_multiplicities():
    t = symmetrize({(0, 1): 1.0}, dim=2, order=2)  # (e0 x e1 + e1 x e0)/2
    assert abs(t.norm2() - 0.5) < 1e-15
    full = t.to_dense()
    assert abs((full * full).sum() - t.norm2()) < 1e-15


# -- contract -----------------------------------------------------------------


def test_contract_examples():
    f = SymTensor(2, 2, {(0, 0): 1.0})
    out = contract(f, f, 1)
    assert np.abs(out - f.to_dense()).max() < 1e-15

    assert contract(e(0), e(1), 1) == 0.0

    g = symmetrize({(0, 1): 1.0}, dim=2, order=2)  # e0 (x)~ e1
    out = contract(g, g, 1)
    brute = oracles.brute_contract(g.to_dense(), g.to_dense(), 1)
    assert np.abs(out - brute).max() < 1e-15
    assert np.abs(out - 0.25 * np.eye(2)).max() < 1e-15


def test_contract_matches_brute_force_randomized():
    rng = np.random.default_rng(21)
    for _ in range(15):
        p = int(rng.integers(1, 4))
        q_ = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        f = random_sym_tensor(m, p, rng)
        g = random_sym_tensor(m, q_, rng)
        for r in range(min(p, q_) + 1):
            got = contract(f, g, r)
            brute = oracles.brute_contract(f.to_dense(), g.to_dense(), r)
            assert np.abs(np.asarray(got) - np.asarray(brute)).max() < 1e-12


def test_contract_edge_cases():
    f = random_sym_tensor(3, 2, np.random.default_rng(22))
    g = random_sym_tensor(3, 2, np.random.default_rng(23))
    # r = 0 is the tensor product
    out = contract(f, g, 0)
    assert out.shape == (3, 3, 3, 3)
    assert np.abs(out - np.tensordot(f.to_dense(), g.to_dense(), 0)).max() < 1e-14
    # full contraction is the scalar inner product
    assert abs(contract(f, g, 2) - f.inner(g)) < 1e-13
    with pytest.raises(ValueError):
        contract(f, g, 3)


# -- multiple integrals ---------------------------------------------------------


def test_multiple_integral_elementary():
    space = product_space(hermite(), 4, 2)
    i1 = multiple_integral(e(0), space)
    assert i1.coeffs == {(1, 0): 1.0}

    i2 = multiple_integral(SymTensor(2, 2, {(0, 0): 1.0}), space)
    assert i2.coeffs == {(2, 0): math.sqrt(2)}  # X^2 - 1 = sqrt(2) Q_2


def test_multiple_integral_isometry():
    rng = np.random.default_rng(24)
    for p in (1, 2, 3, 4):
        for m in (1, 2, 4):
            f = random_sym_tensor(m, p, rng)
            g = random_sym_tensor(m, p, rng)
            got = inner(multiple_integral(f), multiple_integral(g))
            expect = math.factorial(p) * f.inner(g)
            assert abs(got - expect) <= 1e-9 * (1 + abs(expect))


def test_orders_are_orthogonal():
    space = product_space(hermite(), 8, 2)
    rng = np.random.default_rng(25)
    f = random_sym_tensor(2, 2, rng)
    g = random_sym_tensor(2, 3, rng)
    assert abs(inner(multiple_integral(f, space), multiple_integral(g, space))) < 1e-12


def test_square_of_integral_is_chaotic():
    """Eigenvalues above 2p carry no mass in I_p(f)^2."""
    rng = np.random.default_rng(26)
    for p in (1, 2, 3):
        f = random_sym_tensor(3, p, rng)
        sq = multiply(multiple_integral(f), multiple_integral(f))
        top = project(sq, 2.0 * p)
        assert not top.is_zero()
        for lvl, _ in spectrum(sq):
            if lvl > 2 * p + 1e-9:
                mass = project(sq, lvl).norm()
                assert mass <= 1e-12 * sq.norm()


def test_multiple_integral_validation():
    space = product_space(hermite(), 4, 2)
    with pytest.raises(ValueError):
        multiple_integral(SymTensor(3, 2, {(0, 0): 1.0}), space)  # dim mismatch
    lag = product_space(__import__("chaoskit").laguerre(0.0), 4, 2)
    with pytest.raises(ValueError):
        multiple_integral(SymTensor(2, 2, {(0, 0): 1.0}), lag)


# -- product formula -------------------------------------------------------------


def test_product_formula_trivial_cases():
    lhs, rhs = product_formula_check(e(0), e(1))
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs = product_formula_check(e(0), e(0))
    assert abs(lhs - 2.0) < 1e-12 and abs(rhs - 2.0) < 1e-12


def test_product_formula_order2_m1_by_hand():
    f = SymTensor(1, 2, {(0, 0): 1.0})
    lhs, rhs = product_formula_check(f, f)
    assert abs(lhs - 24.0) < 1e-10  # E[He_4^2] = 4!
    assert abs(rhs - 24.0) < 1e-10


def test_product_formula_distinguishes_mixed_contractions():
    """f = e0 x e0, g = e0 (x)~ e1: both sides vanish; the same-kernel
    contraction variant <f x_r f, g x_r g> would give 4 here."""
    f = SymTensor(2, 2, {(0, 0): 1.0})
    g = symmetrize({(0, 1): 1.0}, dim=2, order=2)
    lhs, rhs = product_formula_check(f, g)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12
    ff = contract(f, f, 1)
    gg = contract(g, g, 1)
    same_kernel_term = (
        math.factorial(2) ** 2 * math.comb(2, 1) ** 2 * float(np.sum(ff * gg))
    )
    assert abs(same_kernel_term - 4.0) < 1e-12  # nonzero, so the variants differ


def test_product_formula_randomized():
    rng = np.random.default_rng(27)
    for _ in range(40):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        f = random_sym_tensor(m, p, rng)
        g = random_sym_tensor(m, p, rng)
        lhs, rhs = product_formula_check(f, g)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_product_formula_validation():
    with pytest.raises(ValueError):
        product_formula_check(e(0), SymTensor(2, 2, {(0, 0): 1.0}))
    with pytest.raises(ValueError):
        product_formula_check(e(0, m=2), e(0, m=3))


@pytest.mark.parametrize("p, m, ok", [
    (17, 1, True), (18, 1, False), (11, 2, True), (12, 2, False),
    (4, 6, True), (5, 6, False), (2, 1024, False), (2, 1025, False), (1, 10**6, False),
    (1, 101, True), (1, 102, False), (2, 20, True), (2, 21, False), (3, 4, True),
    (4, 8, True), (4, 9, False),
])
def test_product_formula_size_limit(p, m, ok):
    """f (x)_1 g has m^(2p-2) entries on 2p-2 axes: at most 2^20 and 32.  The
    square of I_p(f), C(m+p-1, p) terms on m coordinates, takes at most 2^20
    steps C(m+p-1, p)^2 * m; that side alone refuses p = 1 past m = 101 and
    the (2, 1024) whose contraction fits."""
    if ok:
        wiener.check_product_formula_size(p, m)
    else:
        with pytest.raises(ValueError, match="the limits are 1048576 entries and 32 axes"):
            wiener.check_product_formula_size(p, m)


def test_product_formula_at_the_order_limit():
    rng = np.random.default_rng(5)
    f, g = random_sym_tensor(1, 17, rng), random_sym_tensor(1, 17, rng)
    lhs, rhs = product_formula_check(f, g)
    assert math.isfinite(lhs) and abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
    f, g = random_sym_tensor(1, 18, rng), random_sym_tensor(1, 18, rng)
    with pytest.raises(ValueError, match="34 axes"):
        product_formula_check(f, g)
