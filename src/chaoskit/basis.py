"""Orthonormal polynomial eigenbases of the classical 1-D diffusion generators.

Three families are supported, each pinned to a fixed operator convention:

* Hermite / Ornstein-Uhlenbeck:  L = d2/dx2 - x d/dx,  mu = N(0,1),
  eigenvalues lambda_p = p.
* Laguerre(alpha), alpha > -1:   L = x d2/dx2 + (alpha+1-x) d/dx,
  mu = Gamma(alpha+1, 1), eigenvalues lambda_p = p.
* Jacobi(a, b), a, b > 0:        L = (1-x^2) d2/dx2 - ((a+b)x + (a-b)) d/dx,
  mu ~ (1-x)^(a-1) (1+x)^(b-1) on [-1,1], eigenvalues lambda_p = p(p+a+b-1).

All polynomials are stored orthonormal with respect to mu, so inner products
reduce to coefficient dot products.  Laguerre polynomials carry the classical
(-1)^p sign (Q_1 = 1 - x); Hermite and Jacobi use a positive leading
coefficient.  Products Q_m Q_n are linearized by the three-term recurrence in
coefficient space; Gauss quadrature serves only the construction check of
orthonormality and of L Q_p = -lambda_p Q_p, which refuses bases that fail.

`make_basis` builds and checks each (kind, max_degree) once per process and
hands every later caller the same Basis, so its recurrence and eigenvalue
arrays are read-only and its linearization cache is shared.  The memo keeps
at most BASIS_CACHE_SIZE bases, dropping the least recently used; refused
constructions are not remembered and raise again on every call.  Each
basis keeps at most LIN_CACHE_SIZE linearizations, dropping the oldest; an
entry holds the coefficient array and the Python term lists of `Basis.terms`,
so a full cache at degree 512 holds up to about 100 MB (README).
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

HARD_DEGREE_CAP = 512
EPS_ORTH = 1e-9
EPS_EIG = 1e-9
BASIS_CACHE_SIZE = 256
LIN_CACHE_SIZE = 1024

_FAMILIES = ("hermite", "laguerre", "jacobi")


# What converts to a number but is not read as one: Python and numpy bools,
# and strings.
NOT_NUMBERS = (bool, np.bool_, str)


def as_real(value) -> float:
    """float(value), refusing a bool or a string: the rule of real config numbers."""
    if isinstance(value, NOT_NUMBERS):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def as_int(value) -> int:
    """int(value), refusing a bool, a string or a fraction (1e5 is 100000)."""
    if isinstance(value, NOT_NUMBERS) or int(value) != value:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def as_ints(values) -> tuple[int, ...]:
    """tuple(map(as_int, values)), without a call per value when all are ints."""
    if set(map(type, values)) <= {int}:
        return tuple(values)
    return tuple(map(as_int, values))


def as_reals(values) -> tuple[float, ...]:
    """tuple(map(as_real, values)), without a call per value when all are floats."""
    values = tuple(values)
    if set(map(type, values)) <= {float}:
        return values
    return tuple(map(as_real, values))


@dataclass(frozen=True)
class BasisKind:
    """Tag plus parameters selecting one of the pinned 1-D generators."""

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}")
        p = tuple(as_real(v) + 0.0 for v in self.params)  # -0.0 becomes 0.0
        object.__setattr__(self, "params", p)
        if self.family == "hermite":
            if p:
                raise ValueError("hermite takes no parameters")
        elif self.family == "laguerre":
            if len(p) != 1:
                raise ValueError("laguerre takes one parameter alpha")
            if not p[0] > -1:
                raise ValueError(f"laguerre requires alpha > -1, got {p[0]}")
        else:
            if len(p) != 2:
                raise ValueError("jacobi takes two parameters (a, b)")
            if not (p[0] > 0 and p[1] > 0):
                raise ValueError(f"jacobi requires a > 0 and b > 0, got {p}")

    def eigenvalue(self, p: int) -> float:
        if self.family == "jacobi":
            a, b = self.params
            return float(p) * (p + a + b - 1.0)
        return float(p)

    def generator_coefficients(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient functions (sigma, tau) of L = sigma d2/dx2 + tau d/dx."""
        x = np.asarray(x, dtype=float)
        if self.family == "hermite":
            return np.ones_like(x), -x
        if self.family == "laguerre":
            return x, (self.params[0] + 1.0) - x
        a, b = self.params
        return 1.0 - x * x, -((a + b) * x + (a - b))

    def recurrence(self, max_degree: int) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal three-term recurrence x Q_k = b_{k+1} Q_{k+1} + a_k Q_k + b_k Q_{k-1}.

        The classical Laguerre sign (-1)^k of Q_k makes every Laguerre b_k negative.
        """
        n = max_degree
        a = np.zeros(n + 1)
        b = np.zeros(n + 1)
        if self.family == "hermite":
            b[1:] = np.sqrt(np.arange(1, n + 1, dtype=float))
        elif self.family == "laguerre":
            alpha = self.params[0]
            k = np.arange(n + 1, dtype=float)
            a[:] = 2 * k + alpha + 1
            kk = np.arange(1, n + 1, dtype=float)
            b[1:] = -np.sqrt(kk * (kk + alpha))
        else:
            pa, pb = self.params
            A, B = pa - 1.0, pb - 1.0
            apb = A + B
            a[0] = (B - A) / (apb + 2)
            for k in range(1, n + 1):
                a[k] = (B * B - A * A) / ((2 * k + apb) * (2 * k + apb + 2))
                if k == 1:
                    bk = 4 * (1 + A) * (1 + B) / ((apb + 2) ** 2 * (apb + 3))
                else:
                    bk = (
                        4 * k * (k + A) * (k + B) * (k + apb)
                        / ((2 * k + apb) ** 2 * (2 * k + apb + 1) * (2 * k + apb - 1))
                    )
                b[k] = math.sqrt(bk)
        return a, b

    def label(self) -> str:
        if self.family == "hermite":
            return "hermite"
        if self.family == "laguerre":
            return f"laguerre({self.params[0]:g})"
        return f"jacobi({self.params[0]:g},{self.params[1]:g})"

    def to_json(self) -> dict:
        return {"kind": self.family, "params": list(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "BasisKind":
        return cls(obj["kind"], tuple(obj.get("params", ())))


def hermite() -> BasisKind:
    return BasisKind("hermite")


def laguerre(alpha: float) -> BasisKind:
    return BasisKind("laguerre", (alpha,))


def jacobi(a: float, b: float) -> BasisKind:
    return BasisKind("jacobi", (a, b))


@dataclass(frozen=True, eq=False)
class Basis:
    """One coordinate's orthonormal eigensystem Q_0..Q_max_degree with eigenvalues."""

    kind: BasisKind
    max_degree: int
    rec_a: np.ndarray
    rec_b: np.ndarray
    eigenvalues: np.ndarray
    _lin_cache: OrderedDict = field(default_factory=OrderedDict, repr=False)
    # the eigenvalues as Python floats, which index and sum faster than numpy scalars
    eigenvalue_list: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalue_list", self.eigenvalues.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return self.kind == other.kind and self.max_degree == other.max_degree

    def __hash__(self) -> int:
        return hash((self.kind, self.max_degree))

    def eigenvalue(self, p: int) -> float:
        return self.eigenvalue_list[p]

    def eval_all(self, x: np.ndarray, deg: int | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Values of Q_0..Q_deg at the points x, shape (deg+1, len(x)),
        written into `out` (a float array of that shape) when given."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        deg = self.max_degree if deg is None else deg
        if deg > self.max_degree:
            raise ValueError(f"degree {deg} exceeds max_degree {self.max_degree}")
        a, b = self.rec_a, self.rec_b
        if out is None:
            out = np.empty((deg + 1, x.size))
        elif out.shape != (deg + 1, x.size) or out.dtype != np.float64:
            raise ValueError(f"out must be a float array of shape {(deg + 1, x.size)}")
        out[0] = 1.0
        if deg >= 1:
            np.divide(x - a[0], b[1], out=out[1])
        for k in range(1, deg):
            np.divide((x - a[k]) * out[k] - b[k] * out[k - 1], b[k + 1], out=out[k + 1])
        return out

    def eval_with_derivatives(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Q, Q', Q'') rows 0..max_degree at x: Q from `eval_all`, its
        derivatives by the differentiated recurrence."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        q = self.eval_all(x)
        a, b = self.rec_a, self.rec_b
        d1 = np.zeros_like(q)
        d2 = np.zeros_like(q)
        if len(q) > 1:
            d1[1] = 1.0 / b[1]
        for k in range(1, len(q) - 1):
            d1[k + 1] = (q[k] + (x - a[k]) * d1[k] - b[k] * d1[k - 1]) / b[k + 1]
            d2[k + 1] = (2 * d1[k] + (x - a[k]) * d2[k] - b[k] * d2[k - 1]) / b[k + 1]
        return q, d1, d2

    def linearize(self, m: int, n: int) -> np.ndarray:
        """Coefficients c_0..c_{m+n} of Q_m Q_n = sum_k c_k Q_k: the array of
        the `terms` entry."""
        return self.terms(m, n)[0]

    def terms(self, m: int, n: int) -> tuple[np.ndarray, list, list]:
        """The cache entry of Q_m Q_n: its read-only coefficient array c_0..c_{m+n},
        its nonzero (k, c_k) and its nonzero carre du champ weights
        (k, (lambda_m + lambda_n - lambda_k) c_k / 2), k ascending.

        On a miss, from Q_hi Q_0 = Q_hi the recurrence runs lo = min(m, n) steps
        on coefficient vectors, where x acts as the Jacobi operator, and the new
        entry replaces the oldest once LIN_CACHE_SIZE are kept.
        """
        key = (m, n) if m <= n else (n, m)
        hit = self._lin_cache.get(key)
        if hit is not None:
            return hit
        lo, hi = key
        if lo < 0:
            raise ValueError("degrees must be nonnegative")
        if lo + hi > self.max_degree:
            raise ValueError(f"product degree {m + n} exceeds max_degree {self.max_degree}")
        a = self.rec_a[: lo + hi + 1]
        b = self.rec_b[: lo + hi + 1]
        prev, cur = np.zeros(lo + hi + 1), np.zeros(lo + hi + 1)
        cur[hi] = 1.0
        for j in range(lo):
            nxt = (a - a[j]) * cur - b[j] * prev
            nxt[1:] += b[1:] * cur[:-1]
            nxt[:-1] += b[1:] * cur[1:]
            prev, cur = cur, nxt / b[j + 1]
        cur.setflags(write=False)
        if len(self._lin_cache) >= LIN_CACHE_SIZE:
            self._lin_cache.popitem(last=False)
        lam, c = self.eigenvalue_list, cur.tolist()
        top = lam[lo] + lam[hi]
        hit = self._lin_cache[key] = (
            cur, [(k, ck) for k, ck in enumerate(c) if ck],
            [(k, w) for k, ck in enumerate(c) if (w := 0.5 * (top - lam[k]) * ck)])
        return hit


# typed: a max_degree of another type (4.0, np.int64(4)) gets its own entry, so it
# fails or succeeds as it would uncached instead of receiving an int-keyed basis.
@functools.lru_cache(maxsize=BASIS_CACHE_SIZE, typed=True)
def make_basis(kind: BasisKind, max_degree: int) -> Basis:
    """The verified Basis of (kind, max_degree), built once per process.

    Raises on any construction-check discrepancy; the shared arrays are
    read-only.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if max_degree > HARD_DEGREE_CAP:
        raise ValueError(
            f"max_degree {max_degree} exceeds the stable-recurrence cap {HARD_DEGREE_CAP}"
        )
    a, b = kind.recurrence(max_degree)
    lams = np.array([kind.eigenvalue(p) for p in range(max_degree + 1)])
    for arr in (a, b, lams):
        arr.setflags(write=False)
    basis = Basis(kind, max_degree, a, b, lams)
    _check_basis(basis)
    return basis


def gauss_quadrature(basis: Basis, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for mu: `nodes` points integrate degree <= 2*nodes-1 exactly.

    Weights are positive and sum to one (mu is a probability measure); at
    extreme rule sizes (hundreds of nodes) the outermost weights can underflow
    to zero in double precision.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    if nodes > basis.max_degree + 1:
        raise ValueError(
            f"{nodes}-point rule needs recurrence depth {nodes - 1}, "
            f"basis has max_degree {basis.max_degree}"
        )
    a, b = basis.rec_a, basis.rec_b
    jac = np.diag(a[:nodes]) + np.diag(b[1:nodes], 1) + np.diag(b[1:nodes], -1)
    x, vec = np.linalg.eigh(jac)
    w = vec[0, :] ** 2
    return x, w


def _check_basis(basis: Basis) -> None:
    deg = basis.max_degree
    lams = basis.eigenvalues
    if lams[0] != 0.0:
        raise RuntimeError(f"{basis.kind.label()}: lambda_0 = {lams[0]}, expected 0")
    if deg >= 1 and not np.all(np.diff(lams) > 0):
        raise RuntimeError(f"{basis.kind.label()}: eigenvalues not strictly increasing")
    if np.any(lams < 0):
        raise RuntimeError(f"{basis.kind.label()}: negative eigenvalue")
    if deg == 0:
        return

    x, w = gauss_quadrature(basis, deg + 1)
    # Extreme-node weights can underflow to exact zero around degree ~400;
    # they are squares, so anything negative would be a real defect.
    if np.any(w < 0):
        raise RuntimeError(f"{basis.kind.label()}: negative quadrature weight")
    if abs(w.sum() - 1.0) > 1e-12:
        raise RuntimeError(f"{basis.kind.label()}: quadrature weights sum to {w.sum()}")

    # Orthonormality via the Christoffel identity: at the Gauss nodes the
    # columns Q_0..Q_deg(x_i), normalized to unit length, form an orthonormal
    # matrix.  (Eigenvector-derived weights lose all relative accuracy once
    # they fall below ~1e-30, so they cannot be used to scale this check.)
    with np.errstate(over="ignore", invalid="ignore"):
        q, d1, d2 = basis.eval_with_derivatives(x)
    if not np.all(np.isfinite(q)):
        raise RuntimeError(
            f"{basis.kind.label()}: values overflow at degree {deg}; "
            "invariants cannot be verified"
        )
    colmax = np.abs(q).max(axis=0)
    qn = q / colmax
    qn /= np.sqrt((qn * qn).sum(axis=0))
    err = np.abs(qn @ qn.T - np.eye(deg + 1)).max()
    if not err <= EPS_ORTH:
        raise RuntimeError(
            f"{basis.kind.label()}: orthonormality defect {err:.3e} at degree {deg}"
        )

    # Eigenrelation L Q_p = -lambda_p Q_p at the Gauss nodes, measured on the
    # same per-node normalized scale so the check stays meaningful when
    # polynomial values grow large.
    sigma, tau = basis.kind.generator_coefficients(x)
    node_scale = qn[0] / q[0]
    resid = np.abs((sigma * d2 + tau * d1 + lams[:, None] * q) * node_scale).max(axis=1)
    bad = np.flatnonzero(~(resid <= EPS_EIG * (1.0 + lams)))
    if bad.size:
        p = bad[0]
        raise RuntimeError(
            f"{basis.kind.label()}: eigenrelation fails at degree {p} "
            f"(residual {resid[p]:.3e}, lambda = {lams[p]})"
        )
