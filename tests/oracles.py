"""Independent cross-checks for the test suite.

Everything here is deliberately implemented without the library's recurrence /
quadrature machinery: exact measure moments, Gram-Schmidt orthonormalization
over those moments, symbolic application of the pinned generators, closed and
50-digit forms of product linearization, and brute-force tensor algebra.
Results are exact (sympy), high precision (mpmath) or plain loops, so they can
serve as oracles for the fast implementations.  Some kept references are
built on the library: `gamma_by_products`, the carre du champ from three full
products; `pair_expand`, the recursive pair expansion that `multiply` and
`gamma` must reproduce bit for bit; and `membership` and
`eigenfunction_eigenvalue`, which decide chaos membership and eigenvalues by
grouping the whole spectrum, without the library's one-level shortcuts.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np
import sympy as sp

from chaoskit import ChaosCheck, SpectralFn, apply_L, multiply, spectrum
from chaoskit.spectral import CHAOS_TOL, EPS_GROUP, _l2_norm

X = sp.Symbol("x")


def measure_moment(kind, k: int):
    """Exact k-th moment of the basis measure, as a sympy expression."""
    if kind.family == "hermite":
        if k % 2:
            return sp.Integer(0)
        return sp.Integer(int(np.prod(range(1, k, 2)))) if k else sp.Integer(1)
    if kind.family == "laguerre":
        alpha = sp.nsimplify(kind.params[0])
        out = sp.Integer(1)
        for i in range(1, k + 1):
            out *= alpha + i
        return sp.simplify(out)
    a = sp.nsimplify(kind.params[0])
    b = sp.nsimplify(kind.params[1])
    # x = 2u - 1 with u ~ Beta(b, a); E[u^j] = prod_i (b+i)/(a+b+i)
    total = sp.Integer(0)
    for j in range(k + 1):
        uj = sp.Integer(1)
        for i in range(j):
            uj *= (b + i) / (a + b + i)
        total += sp.binomial(k, j) * 2**j * (-1) ** (k - j) * uj
    return sp.simplify(total)


def integrate_poly(kind, poly) -> sp.Expr:
    """Exact integral of a polynomial in X against the basis measure."""
    poly = sp.Poly(sp.expand(poly), X)
    total = sp.Integer(0)
    for (k,), c in poly.terms():
        total += c * measure_moment(kind, k)
    return sp.simplify(total)


def gram_schmidt(kind, max_degree: int) -> list[sp.Expr]:
    """Orthonormal polynomials by Gram-Schmidt on monomials (exact arithmetic).

    Matches the library's sign conventions: positive leading coefficient,
    except Laguerre which carries the classical (-1)^p.
    """
    polys: list[sp.Expr] = []
    for p in range(max_degree + 1):
        q = X**p
        for prev in polys:
            q = q - integrate_poly(kind, X**p * prev) * prev
        nrm = sp.sqrt(integrate_poly(kind, q * q))
        q = sp.expand(q / nrm)
        if kind.family == "laguerre" and p % 2:
            q = sp.expand(-q)
        polys.append(q)
    return polys


def apply_generator(kind, poly) -> sp.Expr:
    """Symbolic action of the pinned operator L on a polynomial."""
    d1 = sp.diff(poly, X)
    d2 = sp.diff(poly, X, 2)
    if kind.family == "hermite":
        return sp.expand(d2 - X * d1)
    if kind.family == "laguerre":
        alpha = sp.nsimplify(kind.params[0])
        return sp.expand(X * d2 + (alpha + 1 - X) * d1)
    a = sp.nsimplify(kind.params[0])
    b = sp.nsimplify(kind.params[1])
    return sp.expand((1 - X**2) * d2 - ((a + b) * X + (a - b)) * d1)


def eigen_defect(kind, poly, lam) -> sp.Expr:
    """L poly + lam poly, expanded; identically zero iff poly is an eigenfunction."""
    return sp.expand(apply_generator(kind, poly) + sp.nsimplify(lam) * poly)


def triple_product(kind, polys, m: int, n: int, k: int) -> sp.Expr:
    """Exact int Q_m Q_n Q_k dmu from Gram-Schmidt polynomials."""
    return integrate_poly(kind, polys[m] * polys[n] * polys[k])


def hermite_linearization(m: int, n: int) -> np.ndarray:
    """Closed form of Q_m Q_n for orthonormal Hermite, rounded from 50 digits:

    Q_m Q_n = sum_r sqrt(m! n! (m+n-2r)!) / (r! (m-r)! (n-r)!) Q_{m+n-2r}.
    """
    out = np.zeros(m + n + 1)
    with mp.workdps(50):
        for r in range(min(m, n) + 1):
            top = math.factorial(m) * math.factorial(n) * math.factorial(m + n - 2 * r)
            bottom = math.factorial(r) * math.factorial(m - r) * math.factorial(n - r)
            out[m + n - 2 * r] = float(mp.sqrt(top) / bottom)
    return out


def _recurrence_mp(kind, n: int) -> tuple[list, list]:
    """Unsigned orthonormal recurrence coefficients a_0..a_n, b_0..b_n (b_0 = 0)."""
    a = [mp.mpf(0)] * (n + 1)
    b = [mp.mpf(0)] * (n + 1)
    if kind.family == "hermite":
        b[1:] = [mp.sqrt(k) for k in range(1, n + 1)]
    elif kind.family == "laguerre":
        alpha = mp.mpf(kind.params[0])
        a = [2 * k + alpha + 1 for k in range(n + 1)]
        b[1:] = [mp.sqrt(k * (k + alpha)) for k in range(1, n + 1)]
    else:
        # weight (1-x)^A (1+x)^B with A = a - 1, B = b - 1
        A, B = mp.mpf(kind.params[0]) - 1, mp.mpf(kind.params[1]) - 1
        s = A + B
        a[0] = (B - A) / (s + 2)
        a[1:] = [(B * B - A * A) / ((2 * k + s) * (2 * k + s + 2)) for k in range(1, n + 1)]
        b[1] = mp.sqrt(4 * (1 + A) * (1 + B) / ((s + 2) ** 2 * (s + 3)))
        b[2:] = [
            mp.sqrt(4 * k * (k + A) * (k + B) * (k + s)
                    / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1)))
            for k in range(2, n + 1)
        ]
    return a, b


def linearize_mp(kind, m: int, n: int, dps: int = 50) -> np.ndarray:
    """Q_m Q_n = sum_k c_k Q_k computed at `dps` digits, rounded to float.

    Runs P_{j+1} = ((x - a_j) P_j - b_j P_{j-1}) / b_{j+1} on the coefficient
    vectors of P_hi P_j for the unsigned polynomials P_k, with the recurrence
    coefficients taken from their closed forms, then applies the classical
    Laguerre signs Q_k = (-1)^k P_k at the end.
    """
    lo, hi = sorted((m, n))
    size = m + n + 1
    with mp.workdps(dps):
        a, b = _recurrence_mp(kind, size)
        prev = [mp.mpf(0)] * size
        cur = [mp.mpf(0)] * size
        cur[hi] = mp.mpf(1)
        for j in range(lo):
            nxt = [
                (a[k] - a[j]) * cur[k] - b[j] * prev[k]
                + (b[k] * cur[k - 1] if k else 0)
                + (b[k + 1] * cur[k + 1] if k + 1 < size else 0)
                for k in range(size)
            ]
            prev, cur = cur, [v / b[j + 1] for v in nxt]
        out = np.array([float(v) for v in cur])
    if kind.family == "laguerre":
        out *= (-1.0) ** (m + n + np.arange(size))
    return out


def gamma_by_products(f, g):
    """Reference carre du champ from three full products: (L(FG) - F LG - G LF) / 2."""
    t = apply_L(multiply(f, g)) - multiply(f, apply_L(g)) - multiply(g, apply_L(f))
    return t.scale(0.5)


def pair_expand(f, g, carre: bool):
    """Reference `multiply` (carre False) or `gamma` (carre True): each pair
    Q_alpha Q_beta expanded over every coordinate, recursing over the numpy
    linearization arrays and skipping their zero entries.  The library's
    expansion must give the same keys (both stored ascending) and, adding into
    each key in the same order, the same bits."""
    space = f.space
    acc = {}
    for alpha, fa in f.items_sorted():
        for beta, gb in g.items_sorted():
            base = fa * gb
            fixed = tuple(da + db for da, db in zip(alpha, beta))
            expand = []
            for i, (da, db) in enumerate(zip(alpha, beta)):
                if da and db:
                    expand.append((i, space.coords[i].linearize(da, db)))
            if not carre:
                _accumulate(acc, fixed, base, expand, 0)
                continue
            for j, (i, c) in enumerate(expand):
                lam = space.coords[i].eigenvalues
                gam = 0.5 * (lam[alpha[i]] + lam[beta[i]] - lam[: c.size]) * c
                _accumulate(acc, fixed, base, [*expand[:j], (i, gam), *expand[j + 1:]], 0)
    return SpectralFn(space, acc)


def _accumulate(acc: dict, idx: tuple, value, expand: list, depth: int) -> None:
    if depth == len(expand):
        acc[idx] = acc.get(idx, 0.0) + value
        return
    coord, c = expand[depth]
    lst = list(idx)
    for k, ck in enumerate(c):
        if ck == 0.0:
            continue
        lst[coord] = k
        _accumulate(acc, tuple(lst), value * ck, expand, depth + 1)


def membership(prod, limit: float, eigenvalue: float):
    """Reference `spectral._membership`: the relative mass of every level of
    `spectrum(prod)` whose eigenvalue lies more than EPS_GROUP (1 + |limit|)
    above limit; a norm of 0 passes, a norm that overflows raises."""
    nrm = prod.norm()
    if not math.isfinite(nrm):
        raise ValueError(f"product norm is not finite ({nrm}); chaos masses are undefined")
    if nrm == 0.0:
        return ChaosCheck(True, eigenvalue, limit, ())
    offenders = tuple(
        (lam, _l2_norm(prod.coeffs[a] for a in members) / nrm)
        for lam, members in spectrum(prod) if lam - limit > EPS_GROUP * (1.0 + abs(limit)))
    return ChaosCheck(all(mass <= CHAOS_TOL for _, mass in offenders), eigenvalue, limit,
                      offenders)


def eigenfunction_eigenvalue(f) -> float:
    """Reference `spectral.eigenfunction_eigenvalue`: the one level of
    `spectrum(f)` holding relative mass above CHAOS_TOL."""
    if f.is_zero():
        raise ValueError("the zero function is not an eigenfunction")
    nrm = f.norm()
    significant = [lam for lam, members in spectrum(f)
                   if _l2_norm(f.coeffs[a] for a in members) > CHAOS_TOL * nrm]
    if len(significant) != 1:
        raise ValueError(f"not an eigenfunction: spectral mass on eigenvalues {significant}")
    return significant[0]


def gaussian_moment(k: int) -> int:
    """E[X^k] for X ~ N(0,1): double factorial for even k, zero otherwise."""
    if k % 2:
        return 0
    out = 1
    for i in range(1, k, 2):
        out *= i
    return out


# -- brute-force tensor algebra ----------------------------------------------


def brute_symmetrize(arr: np.ndarray) -> np.ndarray:
    """Average over all axis permutations, by explicit loops."""
    p = arr.ndim
    out = np.zeros_like(arr, dtype=float)
    perms = list(itertools.permutations(range(p)))
    for perm in perms:
        out += np.transpose(arr, perm)
    return out / len(perms)


def brute_contract(a: np.ndarray, b: np.ndarray, r: int):
    """r-fold contraction over the last r indices of each tensor, by loops."""
    m = a.shape[0]
    p = a.ndim
    q = b.ndim
    out_shape = (m,) * (p + q - 2 * r)
    out = np.zeros(out_shape) if out_shape else 0.0
    free_a = list(itertools.product(range(m), repeat=p - r))
    free_b = list(itertools.product(range(m), repeat=q - r))
    shared = list(itertools.product(range(m), repeat=r))
    for ia in free_a:
        for ib in free_b:
            tot = 0.0
            for s in shared:
                tot += a[ia + s] * b[ib + s]
            if out_shape:
                out[ia + ib] = tot
            else:
                out = tot
    return out


def brute_tensor_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))
