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

Only this module maps flat indices to (charge, point) pairs; other modules
use the blocks M(i,k) (``FlatForm.block``, the pencil's coefficients) and
the slice contractions ``along_point(v)``: h -> M(h (x) v) and
``along_charge(h)``: v -> M(h (x) v).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import NotSkew, ShapeMismatch, Singular
from .linalg import RatMatrix, det

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
    """The flattened symmetric bilinear form of a tensor spec.

    ``source`` keeps the originating block data when known (it is ignored by
    equality); pure-tensor certificates and fast line evaluation use it.
    """

    c: int
    n: int
    M: RatMatrix
    source: TensorSpec | None = field(default=None, compare=False, repr=False)

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

    def along_point(self, v: Sequence) -> RatMatrix:
        """Matrix of h -> M(h (x) v), of shape c(n+1) x c."""
        w = self.n + 1
        vs = _support(v, w)
        rows = map(self.M.row, range(self.size))
        return RatMatrix(
            [[sum(r[k * w + l] * x for l, x in vs) for k in range(self.c)] for r in rows], cols=self.c
        )

    def along_charge(self, h: Sequence) -> RatMatrix:
        """Matrix of v -> M(h (x) v), of shape c(n+1) x (n+1)."""
        w = self.n + 1
        hs = _support(h, self.c)
        rows = map(self.M.row, range(self.size))
        return RatMatrix([[sum(r[k * w + l] * x for k, x in hs) for l in range(w)] for r in rows], cols=w)


def _support(vec: Sequence, length: int) -> list[tuple[int, Fraction]]:
    """The nonzero coordinates of a contraction vector as (index, value)."""
    if len(vec) != length:
        raise ShapeMismatch(f"contraction vector must have {length} entries, got {len(vec)}")
    return [(t, x) for t, x in enumerate(map(Fraction, vec)) if x]


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
    return FlatForm(c, n, RatMatrix(rows, cols=size), source=spec)


def is_wedge_matrix(M: RatMatrix, c: int, n: int) -> bool:
    """True iff M is symmetric and antisymmetric under swapping the
    first-factor indices: M[(i,j),(k,l)] = -M[(k,j),(i,l)]."""
    w = n + 1
    if M.rows != c * w or M.cols != c * w:
        return False
    if not M.is_symmetric():
        return False
    for i in range(c):
        for k in range(i, c):
            for j in range(w):
                for l in range(w):
                    if M[i * w + j, k * w + l] != -M[k * w + j, i * w + l]:
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

    Requires invertible h.  Preserves symmetry, wedge membership and rank
    (congruence).  When the source block data is known it transforms along:
    each B_t becomes h B_t h^T.
    """
    c, n = F.c, F.n
    if h.rows != c or h.cols != c:
        raise ShapeMismatch(f"action matrix must be {c}x{c}, got {h.rows}x{h.cols}")
    if det(h) == 0:
        raise Singular("action matrix must be invertible")
    w = n + 1
    support = [_support(h.row(i), c) for i in range(c)]
    rows = [F.M.row(s) for s in range(F.size)]
    # block rows: (h (x) Id) M
    left = [
        [sum(x * rows[a * w + j][col] for a, x in support[i]) for col in range(F.size)]
        for i in range(c)
        for j in range(w)
    ]
    # block columns: the above times (h^T (x) Id)
    M2 = RatMatrix(
        [[sum(row[b * w + l] * x for b, x in support[k]) for k in range(c) for l in range(w)] for row in left],
        cols=F.size,
    )
    source2 = None
    if F.source is not None:
        ht = h.transpose()
        new_terms = []
        all_integral = True
        for B, C in F.source.terms:
            Bm = h @ RatMatrix(B) @ ht
            if any(x.denominator != 1 for row in Bm._data for x in row):
                all_integral = False
                break
            new_terms.append((tuple(tuple(int(x) for x in row) for row in Bm._data), C))
        if all_integral:
            source2 = TensorSpec(c, n, tuple(new_terms))
    return FlatForm(c, n, M2, source=source2)
