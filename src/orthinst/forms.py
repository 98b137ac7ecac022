"""Skew tensor forms: block data, flattening, contractions, and the
base-change action.

A form is described by a charge ``c``, a projective dimension ``n`` and a
list of term pairs (B_t, C_t) of integer skew-symmetric matrices of sizes
c x c and (n+1) x (n+1).  Flattening produces the symmetric bilinear form
on the c(n+1)-dimensional product space

    M[(i,j), (k,l)] = sum_t B_t[i,k] * C_t[j,l]

with the row-major index convention idx(i, j) = i*(n+1) + j (the second
factor runs fastest).  A symmetric matrix arises this way from skew blocks
exactly when it also changes sign under swapping its two first-factor
indices; ``wedge_membership`` tests both conditions.

A flat form is its matrix M and nothing else.  Only this module maps flat
indices to (charge, point) pairs; other modules use the blocks M(i,k)
(``FlatForm.block``, the pencil's coefficients), the contractions
``along_point(v)``: h -> M(h (x) v), ``along_charge(h)``: v -> M(h (x) v)
and ``pencil(P, Q)``, and ``point_indices``, the flat indices of one point
coordinate, from which the monad maps take their coefficient matrices.  M is
the integer view: every contraction and ``act`` read the integer rows
``M.num`` over ``M.den`` and return integer rows over a denominator, with no
Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import NotSkew, ShapeMismatch, Singular
from .linalg import RatMatrix, check_cells, det, exact_vector

IntRows = tuple[tuple[int, ...], ...]


def _check_int_skew(mat, size: int, pointer: str) -> IntRows:
    # the messages reach spec-file error reports verbatim
    if not isinstance(mat, (list, tuple)) or len(mat) != size:
        raise ShapeMismatch(f"expected {size} rows", pointer)
    for i, row in enumerate(mat):
        if not isinstance(row, (list, tuple)) or len(row) != size:
            raise ShapeMismatch(f"row {i} must have {size} integer entries", pointer)
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ShapeMismatch(f"entry [{i}][{j}] must be an integer", pointer)
    rows = tuple(tuple(row) for row in mat)
    for i in range(size):
        if rows[i][i] != 0:
            raise NotSkew(f"diagonal entry [{i}][{i}] must be 0", pointer)
        for j in range(i + 1, size):
            if rows[i][j] != -rows[j][i]:
                raise NotSkew(f"entry [{i}][{j}] != -entry [{j}][{i}]", pointer)
    return rows


@dataclass(frozen=True)
class TensorSpec:
    """A sum of pure tensors given by integer skew block pairs."""

    c: int
    n: int
    terms: tuple[tuple[IntRows, IntRows], ...]

    def __post_init__(self):
        if self.c < 1 or self.n < 1:
            raise ShapeMismatch(f"need c >= 1 and n >= 1, got c={self.c}, n={self.n}")
        check_cells(self.size, self.size, f"the flat matrix of c={self.c}, n={self.n}")
        coerced = []
        for t, (B, C) in enumerate(self.terms):
            coerced.append(
                (
                    _check_int_skew(B, self.c, f"/terms/{t}/B"),
                    _check_int_skew(C, self.n + 1, f"/terms/{t}/C"),
                )
            )
        object.__setattr__(self, "terms", tuple(coerced))

    @property
    def size(self) -> int:
        return self.c * (self.n + 1)


@dataclass(frozen=True)
class FlatForm:
    """The flattened symmetric bilinear form of a tensor spec.  M is the
    integer view (``M.num`` over ``M.den``); its slices are computed on first
    use and are not part of the value."""

    c: int
    n: int
    M: RatMatrix

    def __post_init__(self):
        size = self.c * (self.n + 1)
        if self.M.rows != size or self.M.cols != size:
            raise ShapeMismatch(
                f"flat form for c={self.c}, n={self.n} must be {size}x{size}, got {self.M.rows}x{self.M.cols}"
            )

    @property
    def size(self) -> int:
        return self.c * (self.n + 1)

    def block(self, i: int, k: int) -> RatMatrix:
        """The (n+1)x(n+1) block at block-row i, block-column k."""
        w = self.n + 1
        return self.M.submatrix(range(i * w, (i + 1) * w), range(k * w, (k + 1) * w))

    @cached_property
    def _slices(self) -> list[tuple[int, int, list[int]]]:
        """The nonzero c x c slices S_jl[i][k] = M[(i,j),(k,l)] of ``M.num``,
        each as (j, l, its entries row-major)."""
        c, w = self.c, self.n + 1
        R = self.M.num
        out = []
        for j in range(w):
            for l in range(w):
                s = [R[i * w + j][k * w + l] for i in range(c) for k in range(c)]
                if any(s):
                    out.append((j, l, s))
        return out

    def along_point(self, v: Sequence) -> RatMatrix:
        """Matrix of h -> M(h (x) v), of shape c(n+1) x c."""
        w = self.n + 1
        e, v = exact_vector(v, w)
        terms = [[(k * w + l, x) for l, x in enumerate(v) if x] for k in range(self.c)]
        return RatMatrix.from_ints(_combine(self.M.num, terms), self.M.den * e)

    def along_charge(self, h: Sequence) -> RatMatrix:
        """Matrix of v -> M(h (x) v), of shape c(n+1) x (n+1)."""
        w = self.n + 1
        e, h = exact_vector(h, self.c)
        terms = [[(k * w + l, x) for k, x in enumerate(h) if x] for l in range(w)]
        return RatMatrix.from_ints(_combine(self.M.num, terms), self.M.den * e)

    def pencil(self, P: Sequence, Q: Sequence) -> RatMatrix:
        """The c x c pencil value G[i][k] = sum_{j,l} M[(i,j),(k,l)] Q_j P_l,
        summed over the nonzero slices."""
        c, w = self.c, self.n + 1
        dp, p = exact_vector(P, w)
        dq, q = exact_vector(Q, w)
        acc = [0] * (c * c)
        for j, l, s in self._slices:
            x = q[j] * p[l]
            if x:
                acc = [a + x * y for a, y in zip(acc, s)]
        return RatMatrix.from_ints([acc[i * c : (i + 1) * c] for i in range(c)], self.M.den * dp * dq)


def _combine(rows, terms: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Row r becomes [sum of r[a] * y over (a, y) in t, for t in terms]."""
    return [[sum(r[a] * y for a, y in t) for t in terms] for r in rows]


def point_indices(c: int, n: int, l: int) -> range:
    """The flat indices (i, l) = i*(n+1) + l, i = 0..c-1, of point coordinate l."""
    return range(l, c * (n + 1), n + 1)


def flatten(spec: TensorSpec) -> FlatForm:
    """Flatten a sum of skew block pairs to its symmetric matrix."""
    c, n = spec.c, spec.n
    w = n + 1
    size = c * w
    rows = [[0] * size for _ in range(size)]
    for B, C in spec.terms:
        for i in range(c):
            for k in range(c):
                b = B[i][k]
                if b == 0:
                    continue
                base_r = i * w
                base_c = k * w
                for j in range(w):
                    crow = C[j]
                    for l in range(w):
                        if crow[l]:
                            rows[base_r + j][base_c + l] += b * crow[l]
    return FlatForm(c, n, RatMatrix.from_ints(rows, cols=size))


def is_wedge_matrix(M: RatMatrix, c: int, n: int) -> bool:
    """True iff M is symmetric and antisymmetric under swapping the
    first-factor indices: M[(i,j),(k,l)] = -M[(k,j),(i,l)]."""
    w = n + 1
    if M.rows != c * w or M.cols != c * w:
        return False
    if not M.is_symmetric():
        return False
    A = M.num
    for i in range(c):
        for k in range(i, c):
            for j in range(w):
                for l in range(w):
                    if A[i * w + j][k * w + l] != -A[k * w + j][i * w + l]:
                        return False
    return True


def wedge_membership(F: FlatForm) -> bool:
    """Both flat-form invariants on the raw matrix; usable for rejecting
    symmetric-square contaminations."""
    return is_wedge_matrix(F.M, F.c, F.n)


def act(h: RatMatrix, F: FlatForm) -> FlatForm:
    """Base change on the charge factor: M -> (h (x) Id) M (h^T (x) Id), i.e.
    M'(i,k) = sum_{a,b} h[i,a] h[k,b] M(a,b) on the blocks, contracted
    first over block rows, then over block columns.

    Runs on integers: with h = H/e and M = R/d the result is
    (H (x) Id) R (H^T (x) Id) / (d e^2).  Requires invertible h.  Preserves
    symmetry, wedge membership and rank (congruence).
    """
    c, n = F.c, F.n
    if h.rows != c or h.cols != c:
        raise ShapeMismatch(f"action matrix must be {c}x{c}, got {h.rows}x{h.cols}")
    if det(h) == 0:
        raise Singular("action matrix must be invertible")
    w = n + 1
    R, H = F.M.num, h.num
    # column (k,l) of X (H^T (x) Id) is sum_b H[k,b] X[:, (b,l)]
    terms = [[(b * w + l, x) for b, x in enumerate(H[k]) if x] for k in range(c) for l in range(w)]
    left = _combine(zip(*R), terms)  # ((H (x) Id) R)^T
    return FlatForm(c, n, RatMatrix.from_ints(_combine(zip(*left), terms), F.M.den * h.den**2))
