"""Constructors of concrete eigenfunction sequences with known limits.

`spread(kind, p, n)` builds F_n = n^{-1/2} sum_{k<n} Q_p(X_k): a unit-variance
eigenfunction with eigenvalue lambda_p whose fourth moment is exactly
3 + (m4(Q_p) - 3)/n and whose Var Gamma is exactly Var Gamma(Q_p, Q_p)/n,
so central-limit behaviour can be checked against closed forms.

`pair_mixed(p1, p2, rho, n)` builds two unit-variance spreads whose covariance
is realized by block-sharing ceil(|rho| n) coordinates (negative rho flips the
sign of the shared block).  The realized covariance is s/n, reported exactly;
when p1 != p2 the covariance is zero no matter what rho was requested, since
eigenfunctions of different levels are orthogonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .basis import BasisKind, hermite
from .spectral import SpectralFn, product_space


@dataclass(frozen=True)
class SequenceSpec:
    """CLI-facing description of a sequence family member."""

    family: str  # "spread" | "pair_mixed"
    kind: BasisKind
    p: int = 0
    p1: int = 0
    p2: int = 0
    rho: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("spread", "pair_mixed"):
            raise ValueError(f"unknown sequence family {self.family!r}")
        if self.family == "spread":
            _check_spread(self.p)
        else:
            _check_pair_mixed(self.p1, self.p2, self.rho)

    def build(self, n: int):
        if self.family == "spread":
            return spread(self.kind, self.p, n)
        return pair_mixed(self.p1, self.p2, self.rho, n, kind=self.kind)

    def to_json(self) -> dict:
        out = {"family": self.family, "kind": self.kind.to_json()}
        if self.family == "spread":
            out["p"] = self.p
        else:
            out.update({"p1": self.p1, "p2": self.p2, "rho": self.rho})
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SequenceSpec":
        kind = BasisKind.from_json(obj.get("kind", {"kind": "hermite"}))
        family = obj["family"]
        if family == "spread":
            return cls(family, kind, p=int(obj["p"]))
        if family == "pair_mixed":
            return cls(
                family, kind,
                p1=int(obj["p1"]), p2=int(obj["p2"]), rho=float(obj.get("rho", 0.0)),
            )
        return cls(family, kind)  # refused by name, before any family key is read


def _check_spread(p: int) -> None:
    if p < 1:
        raise ValueError("spread needs p >= 1")


def _check_pair_mixed(p1: int, p2: int, rho: float) -> None:
    if p1 < 1 or p2 < 1:
        raise ValueError("pair_mixed needs p1, p2 >= 1")
    if not abs(rho) <= 1.0:  # also refuses NaN
        raise ValueError(f"requested covariance {rho} is infeasible (|rho| <= 1)")


def _unit_terms(d: int, coords: range, p: int, w: float) -> dict:
    """{w Q_p(X_k) : k in coords} as multi-index coefficients on d coordinates."""
    coeffs = {}
    for k in coords:
        alpha = [0] * d
        alpha[k] = p
        coeffs[tuple(alpha)] = w
    return coeffs


def spread(kind: BasisKind, p: int, n: int) -> SpectralFn:
    """n^{-1/2} sum of the degree-p eigenfunction over n fresh coordinates."""
    _check_spread(p)
    if n < 1:
        raise ValueError("spread needs n >= 1")
    space = product_space(kind, 2 * p, n)
    w = 1.0 / math.sqrt(n)
    return SpectralFn(space, _unit_terms(n, range(n), p, w))


def shared_coordinates(rho: float, n: int) -> int:
    """Block size s = ceil(|rho| n) used to realize covariance s/n."""
    return min(n, math.ceil(abs(rho) * n))


def pair_mixed(p1: int, p2: int, rho: float, n: int,
               kind: BasisKind | None = None) -> tuple[SpectralFn, SpectralFn]:
    """Two unit-variance spreads with block-shared coordinates.

    Component 1 lives on coordinates 0..n-1; component 2 reuses the first
    s = ceil(|rho| n) of them (sign-flipped if rho < 0) and takes its
    remaining n - s coordinates fresh.  The space has n + (n - s) coordinates
    with degree headroom 2 max(p1, p2).
    """
    _check_pair_mixed(p1, p2, rho)
    if n < 1:
        raise ValueError("pair_mixed needs n >= 1")
    kind = hermite() if kind is None else kind
    s = shared_coordinates(rho, n)
    d = 2 * n - s
    space = product_space(kind, 2 * max(p1, p2), d)
    w = 1.0 / math.sqrt(n)
    sign = -1.0 if rho < 0 else 1.0
    first = _unit_terms(d, range(n), p1, w)
    second = _unit_terms(d, range(s), p2, sign * w) | _unit_terms(d, range(n, d), p2, w)
    return SpectralFn(space, first), SpectralFn(space, second)
