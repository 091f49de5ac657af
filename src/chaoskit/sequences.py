"""Eigenfunction sequence families with known limits, and the table naming them.

`spread(kind, p, n)` builds F_n = n^{-1/2} sum_{k<n} Q_p(X_k): a unit-variance
eigenfunction with eigenvalue lambda_p whose fourth moment is exactly
3 + (m4(Q_p) - 3)/n and whose Var Gamma is exactly Var Gamma(Q_p, Q_p)/n,
so central-limit behaviour can be checked against closed forms.

`pair_mixed(p1, p2, rho, n)` builds two unit-variance spreads whose covariance
is realized by block-sharing ceil(|rho| n) coordinates (negative rho flips the
sign of the shared block).  The realized covariance is s/n, reported exactly;
when p1 != p2 the covariance is zero no matter what rho was requested, since
eigenfunctions of different levels are orthogonal.

Every experiment, bound-check included, builds its vectors through a
`SequenceSpec`, which reads the families from the one table `FAMILIES`: to
add a family, add its entry there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .basis import BasisKind, as_int, as_real, hermite
from .spectral import SpectralFn, _result, product_space


def _check_spread(p: int, n: int = 1) -> None:
    if p < 1 or n < 1:
        raise ValueError(f"spread needs p, n >= 1, got p = {p}, n = {n}")


def _check_pair_mixed(p1: int, p2: int, rho: float, n: int = 1) -> None:
    if min(p1, p2, n) < 1:
        raise ValueError(f"pair_mixed needs p1, p2, n >= 1, got {p1}, {p2}, {n}")
    if not abs(rho) <= 1.0:  # also refuses NaN
        raise ValueError(f"requested covariance {rho} is infeasible (|rho| <= 1)")


# family -> ({parameter: as_int or as_real}, {optional parameter: default}, the
# check of the values, the constructor of member n's components, the default
# name of member n)
FAMILIES = {
    "spread": ({"p": as_int}, {}, _check_spread,
               lambda kind, n, p: (spread(kind, p, n),), "spread({p},{n})"),
    "pair_mixed": ({"p1": as_int, "p2": as_int, "rho": as_real}, {"rho": 0.0},
                   _check_pair_mixed,
                   lambda kind, n, p1, p2, rho: pair_mixed(p1, p2, rho, n, kind),
                   "pair({p1},{p2},{rho},{n})"),
}


@dataclass(frozen=True)
class SequenceSpec:
    """A family of `FAMILIES` and its parameters, read by the strict number rule
    and checked when the spec is made; `build(n)` is the tuple of member n's
    components (a spread's is a 1-tuple)."""

    family: str
    kind: BasisKind
    params: dict  # parameter name -> value; one with a default may be left out

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown sequence family {self.family!r}")
        numbers, defaults, check = FAMILIES[self.family][:3]
        given = {**defaults, **self.params}
        params = {name: number(given.pop(name)) for name, number in numbers.items()}
        if given:
            raise ValueError(f"{self.family} has no parameter(s) {list(given)}")
        check(**params)
        object.__setattr__(self, "params", params)

    def build(self, n: int) -> tuple[SpectralFn, ...]:
        return FAMILIES[self.family][3](self.kind, n, **self.params)

    def name(self, n: int) -> str:
        """The default name of member n."""
        return FAMILIES[self.family][4].format(n=n, **self.params)

    def to_json(self) -> dict:
        return {"family": self.family, "kind": self.kind.to_json(), **self.params}

    @classmethod
    def from_json(cls, obj: dict) -> "SequenceSpec":
        """The spec of obj's `family`, `kind` (Hermite if left out) and family
        parameters; no other key of obj is read."""
        numbers = FAMILIES[obj["family"]][0] if obj["family"] in FAMILIES else {}
        return cls(obj["family"], BasisKind.from_json(obj.get("kind", {"kind": "hermite"})),
                   {name: obj[name] for name in numbers if name in obj})


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
    _check_spread(p, n)
    space = product_space(kind, 2 * p, n)
    w = 1.0 / math.sqrt(n)
    return _result(space, _unit_terms(n, range(n), p, w))  # keys made in range


def pair_mixed(p1: int, p2: int, rho: float, n: int,
               kind: BasisKind | None = None) -> tuple[SpectralFn, SpectralFn]:
    """Two unit-variance spreads with block-shared coordinates.

    Component 1 lives on coordinates 0..n-1; component 2 reuses the first
    s = ceil(|rho| n) of them (sign-flipped if rho < 0) and takes its
    remaining n - s coordinates fresh.  The space has n + (n - s) coordinates
    with degree headroom 2 max(p1, p2).
    """
    _check_pair_mixed(p1, p2, rho, n)
    kind = hermite() if kind is None else kind
    s = min(n, math.ceil(abs(rho) * n))
    d = 2 * n - s
    space = product_space(kind, 2 * max(p1, p2), d)
    w = 1.0 / math.sqrt(n)
    sign = -1.0 if rho < 0 else 1.0
    first = _unit_terms(d, range(n), p1, w)
    second = _unit_terms(d, range(s), p2, sign * w) | _unit_terms(d, range(n, d), p2, w)
    return _result(space, first), _result(space, second)  # keys made in range
