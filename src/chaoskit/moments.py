"""Exact moment functionals and quantitative normal-approximation bounds.

Everything here is quadrature-free coefficient algebra on `SpectralFn`
expansions: fourth and mixed moments, Var Gamma, the spectral inequality
int F (L+eta)^2 F <= eta int F (L+eta) F, the characteristic-function bound

    |E e^{i<t,F>} - E e^{i<t,Z>}|  <=  ||t||^2 sqrt(sum_ij int (C_ij - Gamma(F_i, -L^-1 F_j))^2 dmu),

and the remainder

    R_ij = lambda_j (1/2 int F_i^2 F_j^2 - 1/2 C_ii C_jj - a_ij C_ij^2)
           - C_ij^2 (1 - a_ij) / lambda_j,      a_ij = 2 lambda_j / (lambda_i + lambda_j),

which measures how far the mixed moment int F_i^2 F_j^2 is from its Gaussian
value.  Covariances entering R_ij are the exact ones of the supplied pair.
Tolerances only absorb double-precision rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import EPS_ORTH
from .spectral import (
    EPS_GROUP,
    SpectralFn,
    _check_same_space,
    _vector_chaos,
    apply_Linv,
    eigenfunction_eigenvalue,
    gamma,
    inner,
    multiply,
)

CSV_COLUMNS = (
    "i", "j", "lambda_i", "lambda_j", "cov", "mixed22", "isserlis", "r_ij",
    "var_gamma_ij",
)


@dataclass(frozen=True, eq=False)
class GaussianTarget:
    """Covariance matrix of the centered Gaussian comparison vector."""

    cov: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.cov, dtype=float)  # a copy, frozen below
        if c.ndim == 0:
            c = c.reshape(1, 1)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.isfinite(c).all():  # NaN and inf pass every comparison below
            raise ValueError("covariance entries must be finite")
        if np.abs(c - c.T).max() > 1e-12:
            raise ValueError("covariance matrix is not symmetric")
        if np.linalg.eigvalsh(c).min() < -1e-10:
            raise ValueError("covariance matrix is not positive semidefinite")
        c.setflags(write=False)
        object.__setattr__(self, "cov", c)

    @classmethod
    def of(cls, c: "GaussianTarget | np.ndarray", dim: int) -> "GaussianTarget":
        """c, a target or a covariance matrix, as a target; refused unless it has
        dim components.  Every function that takes a target converts it here."""
        c = c if isinstance(c, cls) else cls(c)
        if c.dim != dim:
            raise ValueError("covariance dimension does not match component count")
        return c

    @property
    def dim(self) -> int:
        return self.cov.shape[0]

    def entry(self, i: int, j: int) -> float:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError(f"index ({i},{j}) out of range for dim {self.dim}")
        return float(self.cov[i, j])


def moment4(f: SpectralFn) -> float:
    """int F^4 dmu = <F^2, F^2>."""
    sq = multiply(f, f)
    return inner(sq, sq)


def mixed22(f: SpectralFn, g: SpectralFn) -> float:
    """int F^2 G^2 dmu = <F^2, G^2>; mixed22(F, F) is moment4(F)."""
    _check_same_space(f, g)
    return inner(multiply(f, f), multiply(g, g))


def _variance(h: SpectralFn) -> float:
    return inner(h, h) - h.integral() ** 2


def var_gamma(f: SpectralFn, g: SpectralFn) -> float:
    """Var Gamma(F,G) = int Gamma(F,G)^2 dmu - (int Gamma(F,G) dmu)^2."""
    return _variance(gamma(f, g))


def gaussian_mixed(c: GaussianTarget, i: int, j: int) -> float:
    """E[Z_i^2 Z_j^2] = C_ii C_jj + 2 C_ij^2 for centered Gaussian Z."""
    return c.entry(i, i) * c.entry(j, j) + 2.0 * c.entry(i, j) ** 2


def a_coeff(lambda_i: float, lambda_j: float) -> float:
    """a_ij = 2 lambda_j / (lambda_i + lambda_j); equals 1 when the two agree."""
    if lambda_i + lambda_j <= 0:
        raise ValueError("a_coeff needs lambda_i + lambda_j > 0")
    return 2.0 * lambda_j / (lambda_i + lambda_j)


def thm33_sides(f: SpectralFn, eta: float) -> tuple[float, float]:
    """(int F (L+eta)^2 F dmu, eta int F (L+eta) F dmu).

    For eta at or above the top eigenvalue in the spectrum of F the left side
    never exceeds the right (up to rounding).  A violated precondition is
    reported with a warning; the values are still returned for diagnostics.
    """
    terms = [(v, f.space.eigenvalue(alpha)) for alpha, v in f.items_sorted()]
    top = max((lam for _, lam in terms), default=0.0)
    if eta < top - EPS_GROUP * (1.0 + abs(top)):
        warnings.warn(
            f"eta = {eta} below the top eigenvalue {top}; inequality not guaranteed",
            stacklevel=2,
        )
    lhs = 0.0
    rhs = 0.0
    for v, lam in terms:
        gap = eta - lam
        lhs += v * v * gap * gap
        rhs += v * v * gap
    return lhs, eta * rhs


def _gammas(fs: tuple[SpectralFn, ...]) -> list[list[SpectralFn]]:
    inverses = [-apply_Linv(f) for f in fs]  # each -L^-1 F_j built once
    return [[gamma(fi, g) for g in inverses] for fi in fs]


def _target(fs: tuple[SpectralFn, ...], c: GaussianTarget | np.ndarray) -> GaussianTarget:
    """c as a GaussianTarget for the components fs, which must be centered."""
    c = GaussianTarget.of(c, len(fs))
    for k, f in enumerate(fs):
        if abs(f.integral()) > EPS_ORTH:
            raise ValueError(f"component {k} is not centered (mean {f.integral()})")
    return c


def _covariance(fs: list[SpectralFn] | tuple[SpectralFn, ...]) -> np.ndarray:
    """Exact covariance matrix [[int F_i F_j dmu]] of the components."""
    return np.array([[inner(f, g) for g in fs] for f in fs])


def exact_target(fs: list[SpectralFn] | tuple[SpectralFn, ...]) -> GaussianTarget:
    """N(0, C) for C the exact covariance of the components."""
    return GaussianTarget(_covariance(fs))


def _prop31(gammas: list[list[SpectralFn]], c: GaussianTarget) -> float:
    """sqrt(sum_ij int (C_ij - G_ij)^2 dmu) for G_ij = Gamma(F_i, -L^-1 F_j)."""
    total = 0.0
    for i, row in enumerate(gammas):
        for j, g in enumerate(row):
            dev = g.shift_mean(-c.entry(i, j))
            total += inner(dev, dev)
    return float(np.sqrt(max(total, 0.0)))


def prop31_bound(fs: list[SpectralFn] | tuple[SpectralFn, ...],
                 c: GaussianTarget | np.ndarray) -> float:
    """sqrt(sum_ij int (C_ij - Gamma(F_i, -L^-1 F_j))^2 dmu).

    The characteristic-function gap against N(0, C) is at most ||t||^2 times
    this value.  Components must be centered.
    """
    fs = tuple(fs)
    c = _target(fs, c)
    return _prop31(_gammas(fs), c)


def _remainder(c: GaussianTarget, i: int, j: int, lam_i: float, lam_j: float,
               c_ii: float, c_jj: float, c_ij: float, m22: float) -> float:
    """R_ij from the eigenvalues, exact covariances and mixed moment of a pair."""
    if lam_i <= 0.0 or lam_j <= 0.0:
        raise ValueError("constant components are not admissible (zero eigenvalue)")
    distinct = abs(lam_i - lam_j) > EPS_GROUP * (1.0 + max(lam_i, lam_j))
    if distinct and abs(c.entry(i, j)) > 1e-12:
        raise ValueError(
            f"C[{i},{j}] must vanish across distinct eigenvalues "
            f"({lam_i} vs {lam_j})"
        )
    a_ij = a_coeff(lam_i, lam_j)
    return (
        lam_j * (0.5 * m22 - 0.5 * c_ii * c_jj - a_ij * c_ij * c_ij)
        - c_ij * c_ij * (1.0 - a_ij) / lam_j
    )


def remainder_r(f_i: SpectralFn, f_j: SpectralFn, c: GaussianTarget,
                i: int, j: int) -> float:
    """Mixed-moment remainder R_ij of the supplied eigenfunction pair.

    Uses the pair's exact covariances; vanishes exactly when
    int F_i^2 F_j^2 dmu equals the Gaussian value C_ii C_jj + 2 C_ij^2.
    For distinct eigenvalues the target covariance C_ij must be zero
    (eigenfunctions of different levels are orthogonal).
    """
    _check_same_space(f_i, f_j)
    lam_i, lam_j = eigenfunction_eigenvalue(f_i), eigenfunction_eigenvalue(f_j)
    return _remainder(c, i, j, lam_i, lam_j, inner(f_i, f_i), inner(f_j, f_j),
                      inner(f_i, f_j), mixed22(f_i, f_j))


@dataclass(frozen=True)
class FmtReport:
    """Single-function fourth-moment diagnostics: int F^2, int F^4,
    Var Gamma(F,F), is_chaotic(F).ok and whether F is centered."""

    m2: float
    m4: float
    var_gamma: float
    chaotic: bool
    centered: bool


@dataclass(frozen=True, eq=False)
class JointReport:
    """Pairwise fourth-moment diagnostics for a vector of eigenfunctions, one
    (d, d) matrix per quantity; component i's int F_i^2 and int F_i^4 are the
    diagonal entries of cov and mixed22."""

    eigenvalues: tuple[float, ...]
    cov: np.ndarray
    mixed22: np.ndarray
    isserlis: np.ndarray
    r_matrix: np.ndarray
    var_gamma_m: np.ndarray
    prop31: float
    chaotic_vector: bool  # is_chaotic_vector(fs).ok; not serialized

    def csv_rows(self) -> list[list]:
        """One row per ordered pair (i, j), columns as in CSV_COLUMNS."""
        d = len(self.eigenvalues)
        rows = []
        for i in range(d):
            for j in range(d):
                rows.append([
                    i, j, self.eigenvalues[i], self.eigenvalues[j],
                    float(self.cov[i, j]), float(self.mixed22[i, j]),
                    float(self.isserlis[i, j]), float(self.r_matrix[i, j]),
                    float(self.var_gamma_m[i, j]),
                ])
        return rows


def fmt_report(f: SpectralFn) -> FmtReport:
    """FmtReport of F, with F^2 built once for int F^4 and the chaos check."""
    sq = multiply(f, f)
    lam = eigenfunction_eigenvalue(f)
    return FmtReport(
        m2=inner(f, f),
        m4=inner(sq, sq),
        var_gamma=var_gamma(f, f),
        chaotic=_vector_chaos((f,), [lam], [sq]).ok,
        centered=abs(f.integral()) <= EPS_ORTH,
    )


def joint_report(fs: list[SpectralFn] | tuple[SpectralFn, ...],
                 c: GaussianTarget | np.ndarray) -> JointReport:
    """Pairwise diagnostics of a centered eigenfunction vector.  Each F_i^2 and
    each Gamma(F_i, -L^-1 F_j) is built once; chaotic_vector is
    is_chaotic_vector(fs).ok, decided from the same squares and the
    d(d-1)/2 cross products F_i F_j (7 pair expansions in all at d = 2).
    Every entry equals inner, mixed22, remainder_r, var_gamma(F_i, -L^-1 F_j)
    or prop31_bound of the same inputs bit for bit."""
    fs = tuple(fs)
    c = _target(fs, c)
    d = len(fs)
    squares = [multiply(f, f) for f in fs]
    lams = tuple(eigenfunction_eigenvalue(f) for f in fs)
    chaotic = _vector_chaos(fs, lams, squares).ok
    gammas = _gammas(fs)
    cov = _covariance(fs)
    m22 = np.zeros((d, d))
    iss = np.zeros((d, d))
    rmat = np.zeros((d, d))
    vg = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            m22[i, j] = inner(squares[i], squares[j])
            iss[i, j] = gaussian_mixed(c, i, j)
            rmat[i, j] = _remainder(c, i, j, lams[i], lams[j],
                                    cov[i, i], cov[j, j], cov[i, j], m22[i, j])
            vg[i, j] = _variance(gammas[i][j])
    return JointReport(
        eigenvalues=lams,
        cov=cov,
        mixed22=m22,
        isserlis=iss,
        r_matrix=rmat,
        var_gamma_m=vg,
        prop31=_prop31(gammas, c),
        chaotic_vector=chaotic,
    )
