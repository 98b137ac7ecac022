"""Exact linear algebra over the rationals.

Dense matrices of ``fractions.Fraction`` entries with deterministic,
tolerance-free algorithms: fraction-free Bareiss elimination for rank,
determinant and kernels, skew pair-elimination for Pfaffians, and a greedy
principal-submatrix rank realization for symmetric matrices.

All functions are pure: inputs are never mutated and every value is safe
to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import NonSquare, NotSkew, NotSymmetric, OddOrder, ShapeMismatch


def _as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"matrix entries must be exact (int/Fraction/str), got {type(x).__name__}")


class RatMatrix:
    """Immutable dense matrix over Q.

    Entries are stored row-major as nested tuples of ``Fraction``.  A matrix
    with zero rows needs an explicit ``cols`` so empty shapes stay
    well-defined.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Iterable[Sequence], cols: int | None = None):
        d = tuple(tuple(_as_frac(x) for x in row) for row in data)
        if d:
            width = len(d[0])
            if any(len(r) != width for r in d):
                raise ShapeMismatch("ragged rows in matrix data")
            if cols is not None and cols != width:
                raise ShapeMismatch(f"declared cols {cols} != row width {width}")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "_data", d)
        object.__setattr__(self, "rows", len(d))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # --- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def diagonal(cls, diag: Sequence) -> "RatMatrix":
        d = [_as_frac(x) for x in diag]
        n = len(d)
        return cls([[d[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    # --- basic access -------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> tuple:
        return self._data[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self._data)

    def to_rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self._data]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self._data[i][j] == self._data[j][i] for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def is_skew(self) -> bool:
        if not self.is_square():
            return False
        n = self.rows
        return all(self._data[i][i] == 0 for i in range(n)) and all(
            self._data[i][j] == -self._data[j][i] for i in range(n) for j in range(i + 1, n)
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        return RatMatrix(
            [[self._data[i][j] for j in col_idx] for i in row_idx], cols=len(col_idx)
        )

    # --- arithmetic ---------------------------------------------------

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix addition shape mismatch")
        return RatMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
            cols=self.cols,
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return self.scale(Fraction(-1))

    def scale(self, s) -> "RatMatrix":
        s = _as_frac(s)
        return RatMatrix([[s * x for x in r] for r in self._data], cols=self.cols)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.transpose()._data
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self._data],
            cols=other.cols,
        )

    def mul_vector(self, v: Sequence) -> tuple:
        vv = [_as_frac(x) for x in v]
        if len(vv) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vv)) for row in self._data)

    # --- misc ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.cols, self._data))

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


# ----------------------------------------------------------------------
# elimination core
# ----------------------------------------------------------------------


def _integer_rows(M: RatMatrix) -> tuple[list[list[int]], Fraction]:
    """Clear denominators per row.  Returns integer rows and the product of
    the row scale factors, so det(int rows) = scale * det(M)."""
    out = []
    scale = Fraction(1)
    for row in M._data:
        m = 1
        for x in row:
            m = lcm(m, x.denominator)
        scale *= m
        out.append([int(x * m) for x in row])
    return out, scale


def _bareiss(rows: list[list[int]], ncols: int):
    """Fraction-free Bareiss elimination with first-nonzero row pivoting.

    Mutates ``rows`` into an integer echelon form.  Returns
    (rank, pivot_columns, swap_sign, last_pivot).  All divisions are exact
    by the Sylvester determinant identity; no floating point, no tolerance.
    """
    m = len(rows)
    prev = 1
    sign = 1
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        p = None
        for i in range(r, m):
            if rows[i][col] != 0:
                p = i
                break
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        piv = rows[r][col]
        for i in range(r + 1, m):
            factor = rows[i][col]
            for j in range(col + 1, ncols):
                rows[i][j] = (piv * rows[i][j] - factor * rows[r][j]) // prev
            rows[i][col] = 0
        prev = piv
        pivots.append(col)
        r += 1
    last = prev if pivots else 1
    return len(pivots), pivots, sign, last


def rank(M: RatMatrix) -> int:
    """Exact rank via fraction-free Bareiss elimination."""
    if M.rows == 0 or M.cols == 0:
        return 0
    rows, _ = _integer_rows(M)
    r, _, _, _ = _bareiss(rows, M.cols)
    return r


def det(M: RatMatrix) -> Fraction:
    """Exact determinant (Bareiss; the last pivot is the determinant)."""
    if not M.is_square():
        raise NonSquare(f"det needs a square matrix, got {M.rows}x{M.cols}")
    n = M.rows
    if n == 0:
        return Fraction(1)
    rows, scale = _integer_rows(M)
    r, _, sign, last = _bareiss(rows, n)
    if r < n:
        return Fraction(0)
    return Fraction(sign * last) / scale


def kernel_basis(M: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {v : Mv = 0}.

    Vectors are primitive integer vectors (denominators cleared, content
    divided out), one per free column in ascending column order, so the
    result is deterministic and its length is cols - rank(M).
    """
    ncols = M.cols
    if ncols == 0:
        return []
    rows, _ = _integer_rows(M)
    _, pivots, _, _ = _bareiss(rows, ncols)
    pivot_set = set(pivots)
    # keep only pivot rows of the echelon form, in order
    ech = [rows[i] for i in range(len(pivots))]
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for rrow in range(len(pivots) - 1, -1, -1):
            pc = pivots[rrow]
            if pc > free:
                continue
            s = sum(ech[rrow][j] * v[j] for j in range(pc + 1, ncols) if v[j])
            v[pc] = -Fraction(s, ech[rrow][pc])
        basis.append(_primitive(v))
    return basis


def _primitive(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a rational vector to a primitive integer vector (gcd 1), keeping
    the orientation of its first nonzero entry."""
    den = 1
    for x in v:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = gcd(*ints) if ints else 0
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints)


def pfaffian(M: RatMatrix) -> Fraction:
    """Pfaffian of an even-order skew-symmetric matrix.

    Uses skew Gaussian pair-elimination (simultaneous row and column
    operations that preserve the Pfaffian up to the tracked pivot factors),
    not the 2^n recursive expansion.  Pf(M)^2 = det(M).
    """
    if not M.is_square():
        raise NonSquare(f"pfaffian needs a square matrix, got {M.rows}x{M.cols}")
    if not M.is_skew():
        raise NotSkew("pfaffian needs a skew-symmetric matrix (M = -M^T)")
    n = M.rows
    if n % 2 != 0:
        raise OddOrder(f"pfaffian needs even order, got {n}")
    if n == 0:
        return Fraction(1)
    A = M.to_rows()
    pf = Fraction(1)
    for k in range(0, n, 2):
        p = None
        for j in range(k + 1, n):
            if A[k][j] != 0:
                p = j
                break
        if p is None:
            return Fraction(0)
        if p != k + 1:
            A[k + 1], A[p] = A[p], A[k + 1]
            for row in A:
                row[k + 1], row[p] = row[p], row[k + 1]
            pf = -pf
        a = A[k][k + 1]
        pf *= a
        for i in range(k + 2, n):
            for j in range(i + 1, n):
                delta = (A[k][j] * A[k + 1][i] - A[k][i] * A[k + 1][j]) / a
                if delta:
                    A[i][j] += delta
                    A[j][i] = -A[i][j]
    return pf


def principal_rank_subset(M: RatMatrix) -> tuple[int, ...]:
    """Index set S with |S| = rank(M) and rank(M[S,S]) = rank(M).

    Greedy pivot selection on a symmetric matrix: repeatedly extend S by the
    smallest single index keeping M[S,S] nonsingular, else by the
    lexicographically first pair doing so (needed when every diagonal entry
    of the remaining block vanishes).  Deterministic; the returned tuple is
    sorted.
    """
    if not M.is_symmetric():
        raise NotSymmetric("principal_rank_subset needs a symmetric matrix")
    target = rank(M)
    n = M.rows
    S: list[int] = []

    def sub_rank(idx: list[int]) -> int:
        return rank(M.submatrix(idx, idx))

    while len(S) < target:
        ext = None
        for i in range(n):
            if i in S:
                continue
            if sub_rank(S + [i]) == len(S) + 1:
                ext = [i]
                break
        if ext is None:
            found = False
            for i in range(n):
                if i in S or found:
                    continue
                for j in range(i + 1, n):
                    if j in S:
                        continue
                    if sub_rank(S + [i, j]) == len(S) + 2:
                        ext = [i, j]
                        found = True
                        break
        if ext is None:
            raise AssertionError("symmetric rank not realizable on a principal submatrix")
        S.extend(ext)
    S = sorted(S)
    if rank(M.submatrix(S, S)) != target:
        raise AssertionError("principal subset failed re-verification")
    return tuple(S)
