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
indices; ``wedge_membership`` tests both conditions on a flat form, whose
shape ``FlatForm`` has already checked.

A flat form is its matrix M and nothing else.  Only this module maps flat
indices to (charge, point) pairs; other modules use the blocks M(i,k)
(``FlatForm.block``, the pencil's coefficients), the kernels of the
contractions A: h -> M(h (x) v) along a point v and A: v -> M(h (x) v)
along a charge vector h (``kernel_along_point(v)``, vectors of length c,
and ``kernel_along_charge(h)``, of length n+1), ``pencil(P, Q)``, and
``point_indices``, the flat indices of one point coordinate, from which the
monad maps take their coefficients.  M is the integer view: the kernels,
the pencil and ``act`` read the integer rows ``M.num`` and return integers
or integer rows over a denominator, with no Fraction arithmetic.

Over Q the Gram matrix A^T A has the kernel of A (x^T A^T A x = |Ax|^2),
so a kernel is read off its upper triangle by ``linalg.gram_kernel``,
without building A or a matrix.  Neither the denominator of M nor the scale
of the direction changes a kernel, so both are dropped.  The Gram
coefficients are cached on the form at first use, per side, from the
column groups P_a of ``M.num`` (point group l: the columns (k, l) for k =
0..c-1; charge group k: the columns (k, l) for l = 0..n) as G_aa = P_a^T P_a
and G_ab = P_a^T P_b + P_b^T P_a (a < b), row by row: for each row p and
each entry (p, q) with q >= p, its coefficient in every G_ab.  A direction
d sums each upper entry's coefficients by the weights d_a d_b.

``pencil`` mixes the nonzero c x c slices S_jl[i][k] = M[(i,j),(k,l)] of
``M.num``.  On a wedge member S_lj = S_jl^T = -S_jl (by symmetry, then by
first-factor antisymmetry), so each pair j < l is kept once and mixed by
the line's Pluecker coordinate Q_j P_l - Q_l P_j.  On any other symmetric
form the same code keeps a pair that does not fold, and a nonzero diagonal
slice, as they are, each mixed by Q_j P_l.  ``act`` mixes the charge
groups and then row groups by the rows of h.

``pure_factors``, cached beside the slices and the Gram coefficients, is
(B, C) with M = B (x) C when every block M(i,k) is a multiple B[i,k] C of
one primitive integer matrix C, checked entry by entry on ``M.num``, and
None otherwise.  The pencil of such a form is (Q^T C P) B on every line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul
from typing import Optional, Sequence

from .errors import NotSkew, ShapeMismatch, Singular
from .linalg import RatMatrix, check_cells, det, exact_vector, gram_kernel

IntRows = tuple[tuple[int, ...], ...]
# the pairs a <= b, and for each row p and each upper entry (p, q), q >= p,
# its coefficient in every G_ab, in pair order
GramCoefficients = tuple[list[tuple[int, int]], list[list[tuple[int, ...]]]]


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
    integer view (``M.num`` over ``M.den``); its slices, charge groups,
    Gram coefficients and pure factors are computed on first use and are
    not part of the value."""

    c: int
    n: int
    M: RatMatrix

    def __post_init__(self):
        if self.c < 1 or self.n < 1:
            raise ShapeMismatch(f"need c >= 1 and n >= 1, got c={self.c}, n={self.n}")
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
    def _slices(self) -> tuple[list[tuple[int, int, bool]], list[list[int]]]:
        """The nonzero c x c slices S_jl[i][k] = M[(i,j),(k,l)] of ``M.num``
        as (j, l, folded) and each slice's entries row-major.  Each pair
        j < l is checked once, exactly: if S_lj = -S_jl, S_jl is kept once,
        folded, and (l, j) is dropped; any other nonzero slice, a diagonal
        S_jj included, is kept as it is.  For a wedge member every pair
        folds: symmetry gives S_lj = S_jl^T and first-factor antisymmetry
        S_jl^T = -S_jl, so S_lj = -S_jl (and S_jj = 0), and
        ``wedge_membership`` reads that off the folds.  Row i of S_jl is
        the strided slice ``R[i*w + j][l::w]`` of the integer rows R, and
        ``R[j::w]`` are those rows for i < c, so a slice is read by c
        C-level slices, not c^2 indexed cells."""
        w = self.n + 1
        R = self.M.num

        def entries(j: int, l: int) -> list[int]:
            return [x for row in R[j::w] for x in row[l::w]]

        pairs, mats = [], []

        def keep(j: int, l: int, folded: bool, s: list[int]) -> None:
            if any(s):
                pairs.append((j, l, folded))
                mats.append(s)

        for j in range(w):
            keep(j, j, False, entries(j, j))
            for l in range(j + 1, w):
                s, t = entries(j, l), entries(l, j)
                if t == [-x for x in s]:
                    keep(j, l, True, s)
                else:
                    keep(j, l, False, s)
                    keep(l, j, False, t)
        return pairs, mats

    @cached_property
    def pure_factors(self) -> Optional[tuple[RatMatrix, RatMatrix]]:
        """(B, C) with M = B (x) C, M(i,k) = B[i,k] C, or None.  C is the
        first nonzero block of ``M.num`` divided by its content, signed so
        that its first nonzero entry is positive: a primitive integer
        matrix.  Each block of ``M.num`` is then checked, entry by entry,
        to be an integer multiple b_ik C (an integer block that is a
        rational multiple of a primitive C is an integer multiple), and B is
        [b_ik] over M's denominator.  None when some block is not such a
        multiple, and for the zero form, which has no first block."""
        c, w = self.c, self.n + 1
        R = self.M.num
        blocks = [
            [x for row in R[i * w : (i + 1) * w] for x in row[k * w : (k + 1) * w]] for i in range(c) for k in range(c)
        ]
        first = next((blk for blk in blocks if any(blk)), None)
        if first is None:
            return None
        p = next(q for q, x in enumerate(first) if x)
        g = gcd(*first) if first[p] > 0 else -gcd(*first)
        C = [x // g for x in first]
        b = []
        for blk in blocks:
            x, r = divmod(blk[p], C[p])
            if r or blk != [x * y for y in C]:
                return None
            b.append(x)
        return _from_flat(b, c, self.M.den), _from_flat(C, w, 1)

    @cached_property
    def _charge_groups(self) -> list[list[int]]:
        """Charge group k: the columns (k, l), l = 0..n, of ``M.num`` as one
        flat c(n+1) x (n+1) list, row-major."""
        w = self.n + 1
        return [[x for r in self.M.num for x in r[k * w : (k + 1) * w]] for k in range(self.c)]

    @cached_property
    def _point_gram(self) -> GramCoefficients:
        # point group l: the columns (k, l), k = 0..c-1, as one flat c(n+1) x c list
        w = self.n + 1
        return _gram_coefficients([[x for r in self.M.num for x in r[l::w]] for l in range(w)], self.c)

    @cached_property
    def _charge_gram(self) -> GramCoefficients:
        return _gram_coefficients(self._charge_groups, self.n + 1)

    def kernel_along_point(self, v: Sequence) -> list[tuple[int, ...]]:
        """``kernel_basis`` of the c(n+1) x c contraction A: h -> M(h (x) v),
        taken from the upper triangle of its c x c Gram matrix A^T A."""
        _, v = exact_vector(v, self.n + 1)
        return gram_kernel(_gram_rows(self._point_gram, v), self.c)

    def kernel_along_charge(self, h: Sequence) -> list[tuple[int, ...]]:
        """``kernel_basis`` of the c(n+1) x (n+1) contraction A: v -> M(h (x)
        v), taken from the upper triangle of its (n+1) x (n+1) Gram matrix
        A^T A."""
        _, h = exact_vector(h, self.c)
        return gram_kernel(_gram_rows(self._charge_gram, h), self.n + 1)

    def pencil(self, P: Sequence, Q: Sequence) -> RatMatrix:
        """The c x c pencil value G[i][k] = sum_{j,l} M[(i,j),(k,l)] Q_j P_l,
        the kept slices mixed by their coefficients: a folded slice S_jl
        stands for S_jl Q_j P_l + S_lj Q_l P_j = S_jl (Q_j P_l - Q_l P_j), so
        its coefficient is the Pluecker coordinate Q_j P_l - Q_l P_j, and any
        other slice's is Q_j P_l."""
        c, w = self.c, self.n + 1
        dp, p = exact_vector(P, w)
        dq, q = exact_vector(Q, w)
        pairs, mats = self._slices
        coeffs = [q[j] * p[l] - q[l] * p[j] if folded else q[j] * p[l] for j, l, folded in pairs]
        flat = _mix(mats, coeffs) if mats else [0] * (c * c)
        return _from_flat(flat, c, self.M.den * dp * dq)


def _mix(groups: Sequence[list[int]], coeffs: Sequence[int]) -> list[int]:
    """The flat integer list sum_a coeffs[a] * groups[a], skipping zero
    coefficients; every group has one length."""
    acc = None
    for g, x in zip(groups, coeffs):
        if x:
            acc = [x * y for y in g] if acc is None else [a + x * y for a, y in zip(acc, g)]
    return [0] * len(groups[0]) if acc is None else acc


def _from_flat(flat: list[int], width: int, den: int) -> RatMatrix:
    return RatMatrix.from_ints([flat[s : s + width] for s in range(0, len(flat), width)], den, cols=width)


def _gram_coefficients(groups: list[list[int]], k: int) -> GramCoefficients:
    """The pairs a <= b and, for each row p, the coefficients of the upper
    entries (p, q), q >= p, of the k x k matrices G_ab, so that for A(d) =
    sum_a d_a P_a the Gram matrix is A(d)^T A(d) = sum_{a<=b} d_a d_b G_ab:
    G_aa = P_a^T P_a and G_ab = P_a^T P_b + P_b^T P_a.  P_a is the flat rows x
    k group ``groups[a]``; G_ab[p][q] is a dot product of columns p and q of
    P_a and P_b."""
    cols = [[g[p::k] for p in range(k)] for g in groups]
    pairs = [(a, b) for a in range(len(cols)) for b in range(a, len(cols))]

    def coefficient(a: int, b: int, p: int, q: int) -> int:
        x = sum(map(mul, cols[a][p], cols[b][q]))
        return x if a == b else x + sum(map(mul, cols[b][p], cols[a][q]))

    rows = [[tuple(coefficient(a, b, p, q) for a, b in pairs) for q in range(p, k)] for p in range(k)]
    return pairs, rows


def _gram_rows(coefficients: GramCoefficients, d: Sequence[int]) -> list[list[int]]:
    """The upper rows of the integer Gram matrix along the direction d: each
    entry's coefficients summed by the weights d_a d_b."""
    pairs, rows = coefficients
    w = [d[a] * d[b] for a, b in pairs]
    return [[sum(map(mul, w, entry)) for entry in row] for row in rows]


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


def wedge_membership(F: FlatForm) -> bool:
    """True iff M is symmetric and antisymmetric under swapping the
    first-factor indices, M[(i,j),(k,l)] = -M[(k,j),(i,l)]: the two
    invariants of a flattened sum of skew block pairs, tested on the raw
    matrix, so a symmetric-square contamination is rejected.  For a
    symmetric M, S_lj = S_jl^T, so the second invariant says every slice
    pair folds and every diagonal slice is 0: every kept slice is folded."""
    return F.M.is_symmetric() and all(folded for _, _, folded in F._slices[0])


def act(h: RatMatrix, F: FlatForm) -> FlatForm:
    """Base change on the charge factor: M -> (h (x) Id) M (h^T (x) Id), i.e.
    M'(i,k) = sum_{a,b} h[i,a] h[k,b] M(a,b) on the blocks, contracted
    first over block columns, Y = M (h^T (x) Id), then over block rows.

    Runs on integers: with h = H/e and M = R/d the result is
    (H (x) Id) R (H^T (x) Id) / (d e^2).  Requires invertible h.  Preserves
    symmetry, wedge membership and rank (congruence).
    """
    c, n = F.c, F.n
    if h.rows != c or h.cols != c:
        raise ShapeMismatch(f"action matrix must be {c}x{c}, got {h.rows}x{h.cols}")
    if det(h) == 0:
        raise Singular("action matrix must be invertible")
    w, size = n + 1, F.size
    # column group k of Y = R (H^T (x) Id) is the charge groups mixed by H[k]
    mixes = [_mix(F._charge_groups, Hk) for Hk in h.num]
    Y = [x for s in range(0, size * w, w) for m in mixes for x in m[s : s + w]]
    # row group a of Y is its rows (a, j), j = 0..n; row group i of the
    # result is them mixed by H[i]
    span = w * size
    row_groups = [Y[a : a + span] for a in range(0, size * size, span)]
    flat = [x for Hi in h.num for x in _mix(row_groups, Hi)]
    return FlatForm(c, n, _from_flat(flat, size, F.M.den * h.den**2))
