"""Multi-coordinate spectral function algebra.

Functions on a product space E = E_1 x ... x E_d carrying mu = mu_1 x ... x mu_d
are stored as finite sparse expansions over the tensor-product eigenbasis
Q_alpha = Q_{alpha_1} x ... x Q_{alpha_d}.  The generator L = sum_i L_i acts
diagonally with eigenvalue -Lambda(alpha), Lambda(alpha) = sum_i lambda_{alpha_i},
which makes L, its pseudo-inverse, products, the carre du champ
Gamma(F,G) = (L(FG) - F LG - G LF)/2, spectral projections and chaos-membership
checks exact coefficient algebra.  An expansion keeps its terms in ascending
multi-index order from construction on, so every sum over them, and so every
report byte, visits them in one order.  Products and Gamma = sum_i Gamma_i
(tensorization) share one expansion of each pair of basis functions.  A pair
(alpha, beta) costs one step per nonzero coordinate of beta, each a cached
term-list lookup where alpha is nonzero too, plus one d-tuple per output term.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter

from .basis import Basis, BasisKind, as_int, as_ints, make_basis

EPS_GROUP = 1e-9
CHAOS_TOL = 1e-8

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class ProductSpace:
    """Ordered list of coordinate bases; the generator is the sum of coordinates."""

    coords: tuple[Basis, ...]

    def __post_init__(self) -> None:
        if not self.coords:
            raise ValueError("a product space needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def validate_index(self, alpha: MultiIndex) -> None:
        if len(alpha) != self.dim:
            raise ValueError(f"multi-index {alpha} has wrong length for dim {self.dim}")
        for i, (d, basis) in enumerate(zip(alpha, self.coords)):
            if d < 0 or d > basis.max_degree:
                raise ValueError(
                    f"degree {d} out of range 0..{basis.max_degree} in coordinate {i}"
                )

    def eigenvalue(self, alpha: MultiIndex) -> float:
        # lambda_0 = 0.0 adds nothing, so zero degrees are skipped
        return sum([b.eigenvalue_list[d] for d, b in zip(alpha, self.coords) if d], 0.0)

    def zero_index(self) -> MultiIndex:
        return (0,) * self.dim

    def unit(self) -> "SpectralFn":
        return SpectralFn(self, {self.zero_index(): 1.0})

    def basis_fn(self, alpha: MultiIndex, coeff: float = 1.0) -> "SpectralFn":
        return SpectralFn(self, {tuple(alpha): coeff})


def product_space(kind: BasisKind, max_degree: int, dim: int) -> ProductSpace:
    """Product of `dim` identical coordinates (the basis object is shared)."""
    basis = make_basis(kind, max_degree)
    return ProductSpace((basis,) * dim)


@dataclass(frozen=True)
class SpectralFn:
    """A function in L2(E, mu) as a finite sparse map multi-index -> coefficient."""

    space: ProductSpace
    coeffs: dict

    def __post_init__(self) -> None:
        keys = [as_ints(alpha) for alpha in self.coeffs]
        for alpha in keys:
            self.space.validate_index(alpha)
        object.__setattr__(self, "coeffs", _clean_values(zip(keys, self.coeffs.values())))

    def items_sorted(self) -> list[tuple[MultiIndex, float]]:
        return list(self.coeffs.items())

    def support(self) -> list[MultiIndex]:
        return list(self.coeffs)

    def norm2(self) -> float:
        return float(sum(v * v for _, v in self.items_sorted()))

    def norm(self) -> float:
        """L2 norm, finite whenever it is representable (see `_l2_norm`)."""
        return _l2_norm(self.coeffs.values())

    def integral(self) -> float:
        """Mean of F under mu (the coefficient of the constant Q_0 x ... x Q_0)."""
        return self.coeffs.get(self.space.zero_index(), 0.0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, c: float) -> "SpectralFn":
        return _result(self.space, {a: c * v for a, v in self.items_sorted()})

    def __neg__(self) -> "SpectralFn":
        return self.scale(-1.0)

    def __mul__(self, c: float) -> "SpectralFn":
        return self.scale(float(c))

    __rmul__ = __mul__

    def __add__(self, other: "SpectralFn") -> "SpectralFn":
        _check_same_space(self, other)
        acc = dict(self.items_sorted())
        for alpha, v in other.items_sorted():
            acc[alpha] = acc.get(alpha, 0.0) + v
        return _result(self.space, acc)

    def __sub__(self, other: "SpectralFn") -> "SpectralFn":
        return self + (-other)

    def shift_mean(self, c: float) -> "SpectralFn":
        """F + c (adds c to the constant coefficient)."""
        acc = dict(self.items_sorted())
        zero = self.space.zero_index()
        acc[zero] = acc.get(zero, 0.0) + float(c)
        return _result(self.space, acc)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        space = [
            {**b.kind.to_json(), "max_degree": b.max_degree} for b in self.space.coords
        ]
        coeffs = [[list(alpha), v] for alpha, v in self.items_sorted()]
        return {"space": space, "coeffs": coeffs}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "SpectralFn":
        coords = []
        for ent in obj["space"]:
            kind = BasisKind.from_json(ent)
            coords.append(make_basis(kind, as_int(ent["max_degree"])))
        space = ProductSpace(tuple(coords))
        coeffs = {tuple(alpha): v for alpha, v in obj["coeffs"]}
        return cls(space, coeffs)

    @classmethod
    def from_json(cls, text: str) -> "SpectralFn":
        return cls.from_dict(json.loads(text))


def _clean_values(items) -> dict[MultiIndex, float]:
    """The coefficient dict of (multi-index, value) pairs with distinct keys,
    keys ascending: each value as a float, a non-finite one refused, zeros dropped."""
    clean: dict[MultiIndex, float] = {}
    for alpha, value in sorted(items, key=itemgetter(0)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite coefficient at {alpha}")
        if value != 0.0:
            clean[alpha] = value
    return clean


def _result(space: ProductSpace, coeffs: dict) -> SpectralFn:
    """SpectralFn(space, coeffs) for keys the algebra built from validated
    operands: the values are cleaned as there, but the keys, already int
    tuples in range, are not validated again."""
    out = object.__new__(SpectralFn)
    object.__setattr__(out, "space", space)
    object.__setattr__(out, "coeffs", _clean_values(coeffs.items()))
    return out


def _check_same_space(f: SpectralFn, g: SpectralFn) -> None:
    if f.space != g.space:
        raise ValueError("spectral functions live on different product spaces")


def inner(f: SpectralFn, g: SpectralFn) -> float:
    """L2 inner product int F G dmu = sum_alpha F_alpha G_alpha; raises when
    it overflows."""
    _check_same_space(f, g)
    small, large = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    out = float(
        sum(v * large.coeffs[a] for a, v in small.items_sorted() if a in large.coeffs)
    )
    if not math.isfinite(out):
        raise ValueError(f"inner product is not finite ({out})")
    return out


def multiply(f: SpectralFn, g: SpectralFn) -> SpectralFn:
    """Exact pointwise product, via per-coordinate linearization of Q_m Q_n."""
    return _pair_expand(f, g, carre=False)


def gamma(f: SpectralFn, g: SpectralFn) -> SpectralFn:
    """Carre du champ (L(FG) - F LG - G LF) / 2, by tensorization Gamma = sum_i Gamma_i.

    Gamma_i weights the linearization c_k of Q_m Q_n on a coordinate both factors
    carry by (lambda_m + lambda_n - lambda_k) / 2; disjoint pairs add nothing.
    """
    return _pair_expand(f, g, carre=True)


def _pair_expand(f: SpectralFn, g: SpectralFn, carre: bool) -> SpectralFn:
    """Expand each pair Q_alpha Q_beta over beta's nonzero coordinates, from the
    cached term lists of `Basis.terms`; into Gamma if carre."""
    _check_same_space(f, g)
    space = f.space
    acc: dict[MultiIndex, float] = {}
    gs = [(gb, [(i, db) for i, db in enumerate(beta) if db]) for beta, gb in g.items_sorted()]
    for alpha, fa in f.items_sorted():
        for gb, nonzero in gs:
            key, lins, gams = list(alpha), [], []
            for i, db in nonzero:
                da = alpha[i]
                key[i] = da + db
                if da:  # a cache miss goes through linearize, which refuses da + db > max_degree
                    _, lin, gam = space.coords[i].terms(da, db)
                    lins.append((i, lin))
                    gams.append((i, gam))
            if not carre:
                _accumulate(acc, key, fa * gb, lins)
                continue
            for j, pick in enumerate(gams):
                _accumulate(acc, key, fa * gb, [*lins[:j], pick, *lins[j + 1:]])
    return _result(space, acc)


def _accumulate(acc: dict, key: list, value: float, lists: list[tuple[int, list]]) -> None:
    """Add value * c_1 * ... * c_r into acc at `key` with coordinate i_j set to
    k_j, for each choice of one (k_j, c_j) from every (i_j, terms_j) of
    `lists`, depth-first in list order."""
    if not lists:
        t = tuple(key)
        acc[t] = acc.get(t, 0.0) + value
        return
    (i, terms), rest = lists[0], lists[1:]
    for k, c in terms:
        key[i] = k
        if rest:
            _accumulate(acc, key, value * c, rest)
        else:
            t = tuple(key)
            acc[t] = acc.get(t, 0.0) + value * c


def apply_L(f: SpectralFn) -> SpectralFn:
    """Generator action: coefficient at alpha becomes -Lambda(alpha) F_alpha."""
    space = f.space
    return _result(space, {a: -space.eigenvalue(a) * v for a, v in f.items_sorted()})


def apply_Linv(f: SpectralFn) -> SpectralFn:
    """Pseudo-inverse of L: -F_alpha / Lambda(alpha), constants to zero."""
    space = f.space
    out: dict[MultiIndex, float] = {}
    for alpha, v in f.items_sorted():
        lam = space.eigenvalue(alpha)
        if lam != 0.0:
            out[alpha] = -v / lam
    return _result(space, out)


def spectrum(f: SpectralFn) -> list[tuple[float, list[MultiIndex]]]:
    """The support of F grouped by eigenvalue, ascending, as (eigenvalue,
    members) pairs: a level holds each multi-index whose eigenvalue is within
    relative tolerance EPS_GROUP of its first (smallest), which names it."""
    levels: list[tuple[float, list[MultiIndex]]] = []
    # a stable sort by eigenvalue of the ascending support: members ascend too
    for lam, alpha in sorted(((f.space.eigenvalue(a), a) for a in f.support()),
                             key=itemgetter(0)):
        if levels and lam - anchor <= EPS_GROUP * (1.0 + abs(anchor)):
            members.append(alpha)
        else:
            anchor, members = lam, [alpha]
            levels.append((anchor, members))
    return levels


def project(f: SpectralFn, eigenvalue: float) -> SpectralFn:
    """Orthogonal projection onto the eigenvalue's group (zero if absent)."""
    tol = EPS_GROUP * (1.0 + abs(eigenvalue))
    kept = {
        a: v
        for a, v in f.items_sorted()
        if abs(f.space.eigenvalue(a) - eigenvalue) <= tol
    }
    return _result(f.space, kept)


def _l2_norm(values) -> float:
    """L2 norm of coefficients (a function's, or one level's): the square root
    of the sum of v*v, recomputed by math.hypot, which rescales by the largest
    |v|, only where that sum leaves the float range."""
    values = list(values)
    out = math.sqrt(sum(v * v for v in values))
    return out if math.isfinite(out) else math.hypot(*values)


def eigenfunction_eigenvalue(f: SpectralFn) -> float:
    """Eigenvalue of F, requiring a single spectral level up to relative mass CHAOS_TOL."""
    if f.is_zero():
        raise ValueError("the zero function is not an eigenfunction")
    nrm = f.norm()
    significant = [lam for lam, members in spectrum(f)
                   if _l2_norm(f.coeffs[a] for a in members) > CHAOS_TOL * nrm]
    if len(significant) != 1:
        raise ValueError(f"not an eigenfunction: spectral mass on eigenvalues {significant}")
    return significant[0]


@dataclass(frozen=True)
class ChaosCheck:
    """Outcome of a chaos-membership check with per-eigenvalue diagnostics.

    `offenders` lists (eigenvalue, relative mass) for every spectral level of
    the product lying above `limit`; the check passes when all those masses
    stay at or below CHAOS_TOL.
    """

    ok: bool
    eigenvalue: float
    limit: float
    offenders: tuple[tuple[float, float], ...]

    def __bool__(self) -> bool:
        return self.ok


def _membership(prod: SpectralFn, limit: float, eigenvalue: float) -> ChaosCheck:
    nrm = prod.norm()
    if not math.isfinite(nrm):
        raise ValueError(f"product norm is not finite ({nrm}); chaos masses are undefined")
    if nrm == 0.0:
        return ChaosCheck(True, eigenvalue, limit, ())
    offenders = []
    ok = True
    slack = EPS_GROUP * (1.0 + abs(limit))
    for lam, members in spectrum(prod):
        if lam - limit <= slack:
            continue
        mass = _l2_norm(prod.coeffs[a] for a in members) / nrm
        offenders.append((lam, mass))
        if mass > CHAOS_TOL:
            ok = False
    return ChaosCheck(ok, eigenvalue, limit, tuple(offenders))


def is_chaotic(f: SpectralFn) -> ChaosCheck:
    """Does F^2 expand only over eigenvalues <= 2 Lambda_F?  (chaos eigenfunction)"""
    lam = eigenfunction_eigenvalue(f)
    return _membership(multiply(f, f), 2.0 * lam, lam)


def is_jointly_chaotic(f: SpectralFn, g: SpectralFn) -> ChaosCheck:
    """Does FG expand only over eigenvalues <= Lambda_F + Lambda_G?

    A vanishing product is jointly chaotic by convention (vacuous membership).
    """
    lam = eigenfunction_eigenvalue(f) + eigenfunction_eigenvalue(g)
    return _membership(multiply(f, g), lam, lam)


@dataclass(frozen=True)
class VectorChaosCheck:
    ok: bool
    pairs: tuple[tuple[int, int, ChaosCheck], ...]

    def __bool__(self) -> bool:
        return self.ok


def is_chaotic_vector(fs: list[SpectralFn] | tuple[SpectralFn, ...]) -> VectorChaosCheck:
    """Joint chaos of every unordered pair of components, including i = j.

    Entry (i, i) is is_chaotic(F_i) and entry (i, j), i < j, is
    is_jointly_chaotic(F_i, F_j), field for field.
    """
    fs = tuple(fs)
    if not fs:
        raise ValueError("empty vector")
    for f in fs[1:]:
        _check_same_space(fs[0], f)
    lams = [eigenfunction_eigenvalue(f) for f in fs]
    return _vector_chaos(fs, lams, [multiply(f, f) for f in fs])


def _vector_chaos(fs: tuple[SpectralFn, ...], eigenvalues, squares) -> VectorChaosCheck:
    """is_chaotic_vector from the components' eigenvalues and squares F_i^2;
    builds each cross product F_i F_j (i < j) once."""
    pairs = []
    for i, (f, lam, sq) in enumerate(zip(fs, eigenvalues, squares)):
        pairs.append((i, i, _membership(sq, 2.0 * lam, lam)))
        for j in range(i + 1, len(fs)):
            lam_ij = lam + eigenvalues[j]
            pairs.append((i, j, _membership(multiply(f, fs[j]), lam_ij, lam_ij)))
    return VectorChaosCheck(all(chk.ok for _, _, chk in pairs), tuple(pairs))
