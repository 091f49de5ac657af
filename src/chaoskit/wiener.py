"""Finite-dimensional Wiener-chaos layer over m Gaussian coordinates.

Symmetric order-p tensors over R^m play the role of integral kernels: the
multiple integral I_p(f) of an elementary kernel e_{i_1} (x) ... (x) e_{i_p}
is the product of (non-normalized) Hermite polynomials of the index
multiplicities, realized here as a `SpectralFn` on an m-coordinate Hermite
product space.  The map satisfies the isometry E[I_p(f) I_q(g)] =
delta_{pq} p! <f, g>.

`product_formula_check` compares, for kernels f and g of equal order p,

    <pi_{2p}(I_p(f)^2), pi_{2p}(I_p(g)^2)>                     (spectral side)

against

    2 (p! <f,g>)^2 + sum_{r=1}^{p-1} p!^2 C(p,r)^2 <f (x)_r g, g (x)_r f>

computed from tensor contractions; the two sides agree identically.  The
middle terms need the mixed contractions f (x)_r g: the variant with
<f (x)_r f, g (x)_r g> fails already for f = e0 (x) e0, g = e0 (x)~ e1
(it gives 4 where both other sides give 0); the two variants coincide for
f = g, which is why only two-kernel checks can tell them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import as_ints, as_real, as_reals, hermite
from .spectral import ProductSpace, SpectralFn, inner, multiply, product_space, project

IndexTuple = tuple[int, ...]

# `product_formula_check` contracts dense tensors, and f (x)_1 g over R^m has
# m^(2p-2) entries on 2p-2 axes.  numpy before 2.0 allows 32 axes, and 2^20
# entries keep one contraction at 8 MiB.  Inside both limits p <= 17, so the
# factorials and every term of the identity stay far from overflow.
MAX_CONTRACTION_AXES = 32
MAX_CONTRACTION_SIZE = 2**20


def _multiplicity(order: int, key: IndexTuple) -> int:
    """Number of distinct arrangements of a sorted index tuple."""
    count = math.factorial(order)
    i = 0
    while i < len(key):
        j = i
        while j < len(key) and key[j] == key[i]:
            j += 1
        count //= math.factorial(j - i)
        i = j
    return count


def _orbits(m: int, p: int) -> np.ndarray:
    """For every entry of a dense order-p tensor over R^m, the flat index of
    its sorted index tuple: the entries that permute into each other share
    it.  Transient memory is about (2p+1)*8 bytes per entry (the index grid,
    its sorted copy and the map); under `check_product_formula_size` no
    product-formula kernel has more than 4,096 entries."""
    shape = (m,) * p
    return np.ravel_multi_index(np.sort(np.indices(shape), axis=0), shape)


@dataclass(frozen=True)
class SymTensor:
    """Symmetric order-p tensor over R^m, stored on sorted index tuples kept in ascending order."""

    dim: int
    order: int
    entries: dict

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        clean: dict[IndexTuple, float] = {}
        for key, value in zip(self.entries, as_reals(self.entries.values())):
            key = as_ints(key)
            if len(key) != self.order:
                raise ValueError(f"index tuple {key} has wrong length")
            if any(i < 0 or i >= self.dim for i in key):
                raise ValueError(f"index tuple {key} out of range for dim {self.dim}")
            if tuple(sorted(key)) != key:
                raise ValueError(f"index tuple {key} is not sorted")
            if value != 0.0:
                clean[key] = value
        object.__setattr__(self, "entries", dict(sorted(clean.items())))  # by key: keys are unique

    def items_sorted(self) -> list[tuple[IndexTuple, float]]:
        return list(self.entries.items())

    def multiplicity(self, key: IndexTuple) -> int:
        return _multiplicity(self.order, key)

    def inner(self, other: "SymTensor") -> float:
        """Full-tensor inner product <f, g> = sum over all index tuples."""
        if (self.dim, self.order) != (other.dim, other.order):
            raise ValueError("tensors have different shape")
        tot = 0.0
        for key, v in self.items_sorted():
            w = other.entries.get(key)
            if w is not None:
                tot += self.multiplicity(key) * v * w
        return tot

    def norm2(self) -> float:
        return self.inner(self)

    def to_dense(self) -> np.ndarray:
        """The full tensor: each entry at every arrangement of its index
        tuple, by one gather through `_orbits`."""
        shape = (self.dim,) * self.order
        flat = np.zeros(self.dim**self.order)
        keys = np.array(list(self.entries), dtype=np.intp).reshape(-1, self.order)
        flat[np.ravel_multi_index(keys.T, shape)] = list(self.entries.values())
        return flat[_orbits(self.dim, self.order)]


def symmetrize(raw, dim: int | None = None, order: int | None = None) -> SymTensor:
    """Symmetrized tensor: entry at a sorted tuple is the average over all
    permutations of the raw entries, one mean per orbit of `_orbits`, whose
    entries are added in lexicographic order.  Idempotent on SymTensor input.

    `raw` is a dense ndarray, a dict {index tuple: value}, or a SymTensor.
    """
    if isinstance(raw, SymTensor):
        return raw
    if isinstance(raw, dict):
        if dim is None or order is None:
            raise ValueError("dict input needs explicit dim and order")
        dense = np.zeros((dim,) * order)
        for key, v in raw.items():
            dense[tuple(key)] = as_real(v)  # the array would convert "3" and True
        raw = dense
    arr = np.asarray(raw, dtype=float)
    if arr.ndim < 1:
        raise ValueError("tensor must have order >= 1")
    shape = set(arr.shape)
    if len(shape) != 1:
        raise ValueError(f"tensor axes differ in length: {arr.shape}")
    orbit = _orbits(arr.shape[0], arr.ndim).ravel()
    size = np.bincount(orbit, minlength=arr.size)
    sums = np.bincount(orbit, weights=arr.ravel(), minlength=arr.size)
    keys = np.flatnonzero(size)  # the sorted tuples, ascending
    means = (sums[keys] / size[keys]).tolist()
    index = zip(*(axis.tolist() for axis in np.unravel_index(keys, arr.shape)))
    return SymTensor(arr.shape[0], arr.ndim, dict(zip(index, means)))


def contract(f: SymTensor, g: SymTensor, r: int):
    """r-fold contraction f (x)_r g over the last r slots of each tensor.

    Returns the raw (generally non-symmetric) tensor of order p+q-2r as a
    dense ndarray, or a float when the orders contract away completely.
    """
    if f.dim != g.dim:
        raise ValueError("tensors have different dimension")
    if r < 0 or r > min(f.order, g.order):
        raise ValueError(f"contraction order r={r} out of range")
    out = _contract(f.to_dense(), g.to_dense(), r)
    return float(out) if out.ndim == 0 else out


def _contract(a: np.ndarray, b: np.ndarray, r: int) -> np.ndarray:
    """`contract` of dense arrays; at r = 0 the empty axis lists make
    `tensordot` the outer product."""
    return np.tensordot(a, b, axes=(list(range(a.ndim - r, a.ndim)),
                                    list(range(b.ndim - r, b.ndim))))


def multiple_integral(f: SymTensor, space: ProductSpace | None = None) -> SpectralFn:
    """I_p(f) as a spectral function over the m-coordinate Hermite space.

    An elementary kernel with index multiplicities (c_1, ..., c_m) maps to
    prod_k He_{c_k}(x_k); orthonormal coefficients pick up sqrt(c_k!).  The
    default space has degree headroom 2p so squares stay representable.
    """
    if space is None:
        space = product_space(hermite(), 2 * f.order, f.dim)
    if space.dim != f.dim:
        raise ValueError(
            f"kernel dimension {f.dim} does not match space dimension {space.dim}"
        )
    for basis in space.coords:
        if basis.kind.family != "hermite":
            raise ValueError("multiple integrals need Hermite coordinates")
        if basis.max_degree < f.order:
            raise ValueError(
                f"order {f.order} exceeds coordinate degree {basis.max_degree}"
            )
    coeffs: dict[tuple[int, ...], float] = {}
    for key, v in f.items_sorted():
        alpha = [0] * f.dim
        for i in key:
            alpha[i] += 1
        norm = math.sqrt(math.prod(math.factorial(c) for c in alpha))
        coeffs[tuple(alpha)] = v * f.multiplicity(key) * norm
    return SpectralFn(space, coeffs)


def check_product_formula_size(p: int, m: int) -> None:
    """Raise ValueError when `product_formula_check` at order p over R^m
    would build a contraction past MAX_CONTRACTION_AXES or _SIZE, or square
    I_p(f), C(m+p-1, p) terms on m coordinates, in more than _SIZE steps."""
    axes = 2 * p - 2
    if axes > MAX_CONTRACTION_AXES or max(
            m**axes, math.comb(m + p - 1, p) ** 2 * m) > MAX_CONTRACTION_SIZE:
        raise ValueError(
            f"order {p} over R^{m} needs a contraction of {m}^{axes} entries on "
            f"{axes} axes and a square of C({m + p - 1}, {p})^2 * {m} steps; the "
            f"limits are {MAX_CONTRACTION_SIZE} entries and {MAX_CONTRACTION_AXES} axes, "
            f"and {MAX_CONTRACTION_SIZE} steps")


def product_formula_check(f: SymTensor, g: SymTensor) -> tuple[float, float]:
    """(spectral side, contraction side) of the top-projection product identity."""
    if f.order != g.order:
        raise ValueError("kernels must have equal order")
    if f.dim != g.dim:
        raise ValueError("kernels must have equal dimension")
    p = f.order
    check_product_formula_size(p, f.dim)
    space = product_space(hermite(), 2 * p, f.dim)
    int_f = multiple_integral(f, space)
    int_g = multiple_integral(g, space)
    top_f = project(multiply(int_f, int_f), 2.0 * p)
    top_g = project(multiply(int_g, int_g), 2.0 * p)
    lhs = inner(top_f, top_g)

    fact = math.factorial(p)
    rhs = 2.0 * (fact * f.inner(g)) ** 2
    a, b = f.to_dense(), g.to_dense()
    for r in range(1, p):
        fg = _contract(a, b, r)
        gf = _contract(b, a, r)
        rhs += fact**2 * math.comb(p, r) ** 2 * float(np.sum(fg * gf))
    return lhs, rhs
