"""Exact linear algebra over the rationals.

A dense matrix over Q is stored as integer rows over one positive
denominator (``RatMatrix``); a sparse integer matrix as one ``{col: nonzero
int}`` dict per row (``SparseIntMatrix``).  Every algorithm is deterministic
and tolerance-free: primitive-row elimination for rank, fraction-free
Bareiss elimination for determinants and kernels, a fraction-free skew pair
elimination for Pfaffians, and a greedy principal-submatrix rank
realization for symmetric matrices.

Every elimination runs on the stored integer rows, with no conversion and no
Fraction arithmetic; a Fraction appears only in a result, as an integer over
a power of the denominator.  ``nonzeros`` reads the integer nonzeros and
their denominator, as the second monad map is read off a flat form's rows.
``rank`` is memoised on the matrix, so the callers that all ask for the
rank of one form share one elimination.  It runs one rule on either
representation: a pivot row clears its pivot column from every row with a
nonzero there, each updated row is divided by its content, and a row with
a zero there is left untouched, which Bareiss cannot do: there a row whose
multiplier is 0 is still scaled by pivot / previous pivot, though with no
product by the pivot row.  A ``RatMatrix``
is eliminated on its dense integer rows, column by column; a
``SparseIntMatrix``, such as a cohomology section map, touching only its
nonzero entries.  Bareiss is kept where its last pivot (``det``) or its
echelon form (``kernel_basis``) is read.  ``gram_kernel`` takes the same
kernel basis of a Gram matrix A^T A from its integer upper triangle, by a
symmetric fraction-free elimination with no pivot search; both kernels end
in one back-substitution.  ``pfaffian`` eliminates on the strict upper
triangle of a skew matrix and rebuilds the lower one only before a pivot
swap, which reads it.
``principal_rank_subset`` returns the whole index set at full rank and
otherwise runs its greedy in one fraction-free pass over the Schur
complement of the chosen block, instead of a rank call per candidate.

All functions are pure: inputs are never mutated (the rank memo is a cache
of a value fixed by the entries) and every value is safe to share between
threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import NonSquare, NotSkew, NotSymmetric, OddOrder, RankMismatch, ShapeMismatch, UsageError

# the budget of every matrix built from a form: the cells of its dense flat
# matrix and the nonzeros of a cohomology section map, which is built sparse
MAX_CELLS = 10**6


def _as_exact(x) -> int | Fraction:
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"matrix entries must be exact (int/Fraction/str), got {type(x).__name__}")


def check_cells(rows: int, cols: int, what: str) -> None:
    """``UsageError`` if ``what``, a rows x cols matrix, is over the budget."""
    if rows * cols > MAX_CELLS:
        raise UsageError(f"{what} would have {rows} x {cols} = {rows * cols} cells, over the limit of {MAX_CELLS}")


def exact_vector(vec: Sequence, length: int) -> tuple[int, tuple[int, ...]]:
    """A point, direction or contraction vector of ``length`` ints, Fractions
    or "p/q" strings as (d, d*v) over its least common denominator d: the one
    reader of exact vectors.  A float or a bool raises ``TypeError``."""
    if len(vec) != length:
        raise ShapeMismatch(f"vector must have {length} entries, got {len(vec)}")
    if all(type(x) is int for x in vec):
        return 1, tuple(vec)
    xs = [_as_exact(x) for x in vec]
    d = lcm(*[x.denominator for x in xs])
    return d, tuple(x.numerator * (d // x.denominator) for x in xs)


class RatMatrix:
    """Immutable dense matrix over Q.

    ``num`` holds the rows of den * M as tuples of ints, and ``den`` is the
    least positive common denominator of the entries, so the pair is
    canonical: equality and hashing compare (cols, den, num).  Entries,
    ``row`` and ``to_rows`` read back as ``Fraction``.  A matrix with zero
    rows needs an explicit ``cols`` so empty shapes stay well-defined.
    ``_rank`` memoises ``rank(self)``; it is not part of the value, so
    equality and hashing ignore it.
    """

    __slots__ = ("num", "den", "cols", "_rank")

    def __init__(self, data: Iterable[Sequence], cols: int | None = None):
        rows = [exact_vector(row, len(row)) for row in data]
        den = lcm(*[d for d, _ in rows])
        # over the least common denominator the numerators share no factor
        self._fill([tuple(x * (den // d) for x in row) for d, row in rows], den, cols)

    def _fill(self, num: list[tuple[int, ...]], den: int, cols: int | None) -> None:
        if num:
            width = len(num[0])
            if any(map(width.__ne__, map(len, num))):
                raise ShapeMismatch("ragged rows in matrix data")
            if cols is not None and cols != width:
                raise ShapeMismatch(f"declared cols {cols} != row width {width}")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_rank", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # --- constructors -------------------------------------------------

    @classmethod
    def from_ints(cls, num: Iterable[Sequence[int]], den: int = 1, cols: int | None = None) -> "RatMatrix":
        """The matrix num / den, for integer rows and a nonzero integer den,
        brought to lowest terms over a positive denominator."""
        if den == 0:
            raise ZeroDivisionError("matrix denominator must be nonzero")
        rows = [tuple(r) for r in num]
        g = den
        for r in rows:
            if g in (1, -1):
                break
            g = gcd(g, *r)
        g = abs(g) if den > 0 else -abs(g)
        if g != 1:
            rows = [tuple(x // g for x in r) for r in rows]
        M = cls.__new__(cls)
        M._fill(rows, den // g, cols)
        return M

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.from_ints([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls.from_ints([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def diagonal(cls, diag: Sequence) -> "RatMatrix":
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    # --- basic access -------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.num)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def row(self, i: int) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.num[i])

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def nonzeros(self) -> tuple[int, list[tuple[int, int, int]]]:
        """(den, [(i, j, den * M[i, j]), ...]): the integer view's nonzero
        entries only, row-major, and the denominator they are over."""
        return self.den, [(i, j, x) for i, r in enumerate(self.num) for j, x in enumerate(r) if x]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        """Square and equal to its transpose: the integer rows compared with
        the columns that ``zip`` reads, a C-level scan with no per-cell
        Python step (the denominator is shared, so it plays no part)."""
        A = self.num
        return self.is_square() and A == tuple(zip(*A))

    def is_skew(self) -> bool:
        A = self.num  # j = i asks for a zero diagonal
        return self.is_square() and all(A[i][j] == -A[j][i] for i in range(self.rows) for j in range(i, self.cols))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        A = self.num
        return RatMatrix.from_ints([[A[i][j] for j in col_idx] for i in row_idx], self.den, cols=len(col_idx))

    # --- arithmetic ---------------------------------------------------

    def transpose(self) -> "RatMatrix":
        A = self.num
        return RatMatrix.from_ints([[r[j] for r in A] for j in range(self.cols)], self.den, cols=self.rows)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix addition shape mismatch")
        d = lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        return RatMatrix.from_ints(
            [[s * a + t * b for a, b in zip(r1, r2)] for r1, r2 in zip(self.num, other.num)], d, cols=self.cols
        )

    def __neg__(self) -> "RatMatrix":
        return self.scale(-1)

    def scale(self, s) -> "RatMatrix":
        s = _as_exact(s)
        p = s.numerator
        return RatMatrix.from_ints([[p * x for x in r] for r in self.num], self.den * s.denominator, cols=self.cols)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = [[r[j] for r in other.num] for j in range(other.cols)]
        return RatMatrix.from_ints(
            [[sum(map(mul, row, col)) for col in ot] for row in self.num],
            self.den * other.den,
            cols=other.cols,
        )

    def mul_vector(self, v: Sequence) -> tuple:
        d, x = exact_vector(v, self.cols)
        return tuple(Fraction(sum(map(mul, row, x)), self.den * d) for row in self.num)

    # --- misc ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.num))

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


class SparseIntMatrix:
    """Immutable sparse integer matrix.

    ``entries`` holds one ``{col: nonzero int}`` dict per row, copied from
    the constructor's input with its zeros dropped.  ``rows`` and ``cols``
    are the shape, so empty shapes stay well-defined.  A cohomology section
    map is built straight into one and is only ranked.  ``_rank`` memoises
    ``rank(self)``.
    """

    __slots__ = ("entries", "rows", "cols", "_rank")

    def __init__(self, entries: Iterable[dict[int, int]], cols: int):
        data = tuple({j: x for j, x in row.items() if x} for row in entries)
        for row in data:
            for j, x in row.items():
                if type(x) is not int:
                    raise TypeError(f"sparse entries must be ints, got {type(x).__name__}")
                if not 0 <= j < cols:
                    raise ShapeMismatch(f"column {j} outside 0..{cols - 1}")
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_rank", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparseIntMatrix is immutable")


# ----------------------------------------------------------------------
# elimination core
# ----------------------------------------------------------------------


def _bareiss(rows: list[list[int]], ncols: int):
    """Fraction-free Bareiss elimination with first-nonzero row pivoting.

    Mutates ``rows`` into an integer echelon form.  Returns
    (rank, pivot_columns, swap_sign, last_pivot).  All divisions are exact
    by the Sylvester determinant identity; no floating point, no tolerance.
    Each row below the pivot becomes (piv * row - factor * pivot_row) / prev.
    For a row whose factor is 0 that is piv * row / prev, which keeps the
    Sylvester invariant for it with no product by the pivot row.
    """
    m = len(rows)
    prev = 1
    sign = 1
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        for p in range(r, m):
            if rows[p][col]:
                break
        else:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        Rr = rows[r]
        piv = Rr[col]
        right = range(col + 1, ncols)
        for Ri in rows[r + 1:]:
            factor = Ri[col]
            if factor:
                Ri[col] = 0
                for j in right:
                    Ri[j] = (piv * Ri[j] - factor * Rr[j]) // prev
            else:
                for j in right:
                    Ri[j] = piv * Ri[j] // prev
        prev = piv
        pivots.append(col)
        r += 1
    last = prev if pivots else 1
    return len(pivots), pivots, sign, last


def _sparse_rank(entries: Sequence[dict[int, int]]) -> int:
    """Rank of integer rows given as ``{col: nonzero int}`` dicts, by
    primitive-row elimination on copies of them.

    Each step pivots on a shortest remaining row P, at the column j of P
    that the fewest other rows share, and replaces each row R with an entry
    at j by (a*R - b*P) / content, where a = P[j]/g, b = R[j]/g and
    g = gcd(P[j], R[j]).  These are invertible row operations over Q that
    clear column j outside P, so P adds one to the rank and leaves the
    elimination.  Dividing out the content bounds entry growth as in
    Bareiss: each updated row is primitive and proportional to an integer
    row of minors of the input (a row of the Schur complement times the
    determinant of the pivot block), so no entry exceeds those minors.
    """
    rows = {i: dict(r) for i, r in enumerate(entries) if r}
    at: dict[int, set[int]] = {}  # column -> the remaining rows with an entry there
    by_len: dict[int, set[int]] = {}  # length -> the remaining rows of that length
    for i, r in rows.items():
        by_len.setdefault(len(r), set()).add(i)
        for j in r:
            at.setdefault(j, set()).add(i)

    def leave(i: int, size: int) -> None:
        same = by_len[size]
        same.discard(i)
        if not same:
            del by_len[size]

    rk = 0
    while by_len:
        size = min(by_len)
        p = next(iter(by_len[size]))
        leave(p, size)
        P = rows.pop(p)
        rk += 1
        for k in P:
            at[k].discard(p)
        j = min(P, key=lambda k: len(at[k]))
        pj = P.pop(j)
        for i in at.pop(j):
            R = rows[i]
            leave(i, len(R))
            rj = R.pop(j)
            g = gcd(pj, rj)
            a, b = pj // g, rj // g
            if a != 1:
                for k in R:
                    R[k] *= a
            for k, y in P.items():
                x = R.get(k, 0) - b * y
                if x:
                    if k not in R:
                        at[k].add(i)
                    R[k] = x
                else:
                    del R[k]
                    at[k].discard(i)
            if not R:
                del rows[i]
                continue
            content = gcd(*R.values())
            if content != 1:
                for k in R:
                    R[k] //= content
            by_len.setdefault(len(R), set()).add(i)
    return rk


def _dense_rank(rows: list[list[int]], ncols: int) -> int:
    """Rank of integer rows of width ``ncols`` by primitive-row elimination,
    the rule of ``_sparse_rank`` on dense rows; mutates ``rows``.

    Column by column, the first remaining row P with a nonzero at j is the
    pivot and leaves, and each later row R with a nonzero at j becomes
    (a*R - b*P) / content, where a = P[j]/g, b = R[j]/g and
    g = gcd(P[j], R[j]).  Unlike Bareiss, a row with a zero at j is left as
    it is.  A row that becomes zero leaves too, so the elimination stops
    once every row is a pivot row: the last row left is one iff it is not
    a multiple of the pivot before it.
    """
    rk = 0
    for j in range(ncols):
        if len(rows) < 2:
            break
        for p, P in enumerate(rows):
            if P[j]:
                break
        else:
            continue
        del rows[p]
        rk += 1
        pj = P[j]
        if len(rows) == 1:
            R = rows[0]
            return rk + any(pj * x - R[j] * y for x, y in zip(R, P))
        # the rows before the pivot have a zero at j
        for i in range(len(rows) - 1, p - 1, -1):
            rj = rows[i][j]
            if rj:
                g = gcd(pj, rj)
                a, b = pj // g, rj // g
                R = [a * x - b * y for x, y in zip(rows[i], P)]
                content = gcd(*R)
                if content == 1:
                    rows[i] = R
                elif content:
                    rows[i] = [x // content for x in R]
                else:
                    del rows[i]
    return rk + (len(rows) == 1 and any(rows[0]))


def rank(M: RatMatrix | SparseIntMatrix) -> int:
    """Exact rank, memoised on ``M``: primitive-row elimination, on the
    dense integer rows of a ``RatMatrix`` or the nonzero entries of a
    ``SparseIntMatrix``."""
    if M._rank is None:
        if isinstance(M, SparseIntMatrix):
            r = _sparse_rank(M.entries)
        else:
            r = _dense_rank([list(row) for row in M.num], M.cols)
        object.__setattr__(M, "_rank", r)
    return M._rank


def det(M: RatMatrix) -> Fraction:
    """Exact determinant (Bareiss; the last pivot is det(den * M))."""
    if not M.is_square():
        raise NonSquare(f"det needs a square matrix, got {M.rows}x{M.cols}")
    n = M.rows
    r, _, sign, last = _bareiss([list(row) for row in M.num], n)
    if r < n:
        return Fraction(0)
    return Fraction(sign * last, M.den**n)


def kernel_basis(M: RatMatrix) -> list[tuple[int, ...]]:
    """Basis of the right kernel {v : Mv = 0}.

    Vectors are primitive integer vectors, one per free column in ascending
    column order, each positive at its free column; its length is cols -
    rank(M).  The basis is canonical: it depends only on the kernel, so two
    matrices with one kernel, such as A and A^T A over Q, get equal bases.
    A column is free when it lies in the span of the columns before it, and
    the vector of a free column is the unique kernel vector with 1 there and
    0 at the other free columns, made primitive.
    """
    rows = [list(row) for row in M.num]
    _, pivots, _, _ = _bareiss(rows, M.cols)
    return _back_substitute(rows, pivots, M.cols)


def gram_kernel(rows: Sequence[Sequence[int]], k: int) -> list[tuple[int, ...]]:
    """``kernel_basis(G)`` of a k x k integer Gram matrix G = A^T A, given
    by its upper triangle: row p of ``rows`` holds the entries (p, p..k-1).

    Fraction-free symmetric elimination with no pivot search, exact because
    G is positive semidefinite.  For any set S of columns, rank G[:,S] =
    rank A[:,S] = rank G[S,S].  So with P the pivot columns found before
    column j, column j lies in the span of the columns before it exactly
    when det G[P+j, P+j] = 0.  After the pivots P, entry (i, j) holds
    det G[P+i, P+j] (Sylvester's identity), so each division by the
    previous pivot is exact.  That entry is det G[P,P] > 0 times the Schur
    complement G/G[P,P], which is positive semidefinite too, so a zero
    diagonal entry has a zero row: nothing is eliminated and the column is
    free.  These are the free columns of ``kernel_basis``, and the pivot
    rows are in echelon form, so the back-substitution gives its primitive
    vectors, each positive at its free column.
    """
    # full-width rows, the lower triangle zero and never read
    U = [[0] * p + list(row) for p, row in enumerate(rows)]
    pivots: list[int] = []
    prev = 1
    for i in range(k):
        Ui = U[i]
        piv = Ui[i]
        if not piv:
            continue
        for a in range(i + 1, k):
            Ua, f = U[a], Ui[a]
            for b in range(a, k):
                Ua[b] = (piv * Ua[b] - f * Ui[b]) // prev
        prev = piv
        pivots.append(i)
    return _back_substitute([U[p] for p in pivots], pivots, k)


def _back_substitute(rows: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int) -> list[tuple[int, ...]]:
    """The kernel basis of integer rows in echelon form: ``rows[r]`` has its
    pivot at column ``pivots[r]`` and zeros before it.  One primitive vector
    per free column, in ascending order, 1 scaled up at its free column and
    0 at the others."""
    if len(pivots) == ncols:
        return []
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for rrow in range(len(pivots) - 1, -1, -1):
            pc = pivots[rrow]
            if pc > free:
                continue
            p = rows[rrow][pc]
            s = sum(rows[rrow][j] * v[j] for j in range(pc + 1, ncols) if v[j])
            # with g = gcd(s, p), v[pc] = -s/p is integral once v is scaled by
            # |p|/g > 0, and v stays primitive since gcd(|p|/g, s/g) = 1
            f = abs(p) // gcd(s, p)
            v = [x * f for x in v]
            v[pc] = -s * f // p
        basis.append(tuple(v))
    return basis


def pfaffian(M: RatMatrix) -> Fraction:
    """Pfaffian of an even-order skew-symmetric matrix.

    Fraction-free skew pair elimination on den * M, the Pfaffian analogue of
    Bareiss: after the step on pair (k, k+1) each remaining entry (i, j) is
    the Pfaffian of the principal submatrix on 0..k+1, i, j, so by the
    overlapping-Pfaffian identity each division by the previous pivot is
    exact.  The last pivot is Pf(den * M) = den^(n/2) Pf(M), up to the sign
    of the pair swaps.

    Only the strict upper triangle is updated, since (j, i) = -(i, j).  The
    lower triangle is read only by a pair swap, which moves lower entries of
    the trailing block above the diagonal, so it is rebuilt from the upper
    one just before a swap.
    """
    if not M.is_square():
        raise NonSquare(f"pfaffian needs a square matrix, got {M.rows}x{M.cols}")
    if not M.is_skew():
        raise NotSkew("pfaffian needs a skew-symmetric matrix (M = -M^T)")
    n = M.rows
    if n % 2 != 0:
        raise OddOrder(f"pfaffian needs even order, got {n}")
    A = [list(row) for row in M.num]
    prev, sign = 1, 1
    for k in range(0, n, 2):
        Ak = A[k]
        for p in range(k + 1, n):
            if Ak[p]:
                break
        else:
            return Fraction(0)
        if p != k + 1:
            for i in range(k, n):
                Ai = A[i]
                for j in range(i + 1, n):
                    A[j][i] = -Ai[j]
            A[k + 1], A[p] = A[p], A[k + 1]
            for row in A:
                row[k + 1], row[p] = row[p], row[k + 1]
            sign = -sign
        Ak1 = A[k + 1]
        a = Ak[k + 1]
        for i in range(k + 2, n):
            Ai, ui, vi = A[i], Ak1[i], Ak[i]
            for j in range(i + 1, n):
                Ai[j] = (a * Ai[j] + Ak[j] * ui - vi * Ak1[j]) // prev
        prev = a
    return Fraction(sign * prev, M.den ** (n // 2))


def principal_rank_subset(M: RatMatrix) -> tuple[int, ...]:
    """Index set S with |S| = rank(M) and rank(M[S,S]) = rank(M).

    Greedy pivot selection on a symmetric matrix: repeatedly extend S by the
    smallest single index keeping M[S,S] nonsingular, else by the
    lexicographically first pair doing so (needed when every diagonal entry
    of the remaining block vanishes).  Deterministic; the returned tuple is
    sorted.

    At full rank the greedy takes every index, so S = range(size) at once.
    Below full rank it runs in one pass over the Schur complement
    C = M/M[S,S] of the indices outside S: since det M[S+T, S+T] =
    det M[S,S] * det C[T,T], the single index i keeps the block nonsingular
    exactly when C[i,i] != 0, and, once that diagonal is zero, the pair
    (i, j) exactly when C[i,j] != 0.  The chosen 1x1 or 2x2 pivot then
    updates C.  The pass keeps det(M[S,S]) * C, whose entries are minors of
    the integer-scaled M, so every division in it is exact.  The result is
    re-verified by one rank computation.
    """
    if not M.is_symmetric():
        raise NotSymmetric("principal_rank_subset needs a symmetric matrix")
    target = rank(M)
    n = M.rows
    if target == n:
        S, sub = list(range(n)), M
    else:
        S = _schur_greedy(M, target)
        sub = M.submatrix(S, S)
    if rank(sub) != target:
        raise RankMismatch("principal subset failed re-verification")
    return tuple(S)


def _schur_greedy(M: RatMatrix, target: int) -> list[int]:
    """The greedy of ``principal_rank_subset`` on a symmetric M of rank
    ``target``, sorted."""
    D = [list(row) for row in M.num]
    d = 1  # det of the chosen block; D holds d times its Schur complement
    rest = list(range(M.rows))
    S: list[int] = []
    while len(S) < target:
        i = next((a for a in rest if D[a][a]), None)
        if i is not None:
            p = D[i][i]
            Di = D[i]
            rest.remove(i)
            for a in rest:
                Da, f = D[a], Di[a]
                for b in rest:
                    Da[b] = (p * Da[b] - f * Di[b]) // d
            d = p
            S.append(i)
            continue
        pair = next(((a, b) for a in rest for b in rest if a < b and D[a][b]), None)
        if pair is None:
            raise RankMismatch("symmetric rank not realizable on a principal submatrix")
        i, j = pair
        q, Di, Dj = D[i][j], D[i], D[j]
        rest.remove(i)
        rest.remove(j)
        dd = d * d
        for a in rest:
            Da, fi, fj = D[a], Di[a], Dj[a]
            for b in rest:
                Da[b] = q * (fi * Dj[b] + fj * Di[b] - q * Da[b]) // dd
        d = -(q * q) // d
        S += pair
    return sorted(S)
