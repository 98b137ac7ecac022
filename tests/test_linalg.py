import inspect
import random
import textwrap
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import Phase, assume, find, given, settings, strategies as st

from conftest import random_skew, random_spec
from orthinst import (
    NonSquare,
    NotSkew,
    NotSymmetric,
    OddOrder,
    OrthinstError,
    RankMismatch,
    RatMatrix,
    ShapeMismatch,
    act,
    det,
    flatten,
    kernel_basis,
    pfaffian,
    principal_rank_subset,
    rank,
)
from orthinst import linalg


def det_cofactor(rows):
    """Independent oracle: cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * Fraction(rows[0][j]) * det_cofactor(minor)
    return total


def pfaffian_enumeration(rows):
    """Independent oracle: sum over perfect matchings (feasible to n=6)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)

    def rec(remaining):
        if not remaining:
            return Fraction(1)
        i = remaining[0]
        total = Fraction(0)
        for pos in range(1, len(remaining)):
            j = remaining[pos]
            rest = [x for x in remaining[1:] if x != j]
            total += (-1) ** (pos - 1) * Fraction(rows[i][j]) * rec(rest)
        return total

    return rec(list(range(n)))


def rank_gauss_oracle(rows, ncols):
    """Independent oracle: plain fraction Gauss elimination, row-major."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def greedy_by_ranks(M):
    """Reference: the principal-subset greedy as one rank call per candidate
    (each single index in order, then each pair in lexicographic order)."""
    target = rank(M)
    n = M.rows
    S = []
    while len(S) < target:
        singles = ([i] for i in range(n) if i not in S)
        pairs = ([i, j] for i in range(n) for j in range(i + 1, n) if i not in S and j not in S)
        for ext in (*singles, *pairs):
            T = S + ext
            if rank(M.submatrix(T, T)) == len(T):
                S = T
                break
        else:
            raise AssertionError("no extension")
    return tuple(sorted(S))


def pfaffian_by_fractions(rows, swaps=None):
    """Reference: the skew pair elimination in Fraction arithmetic, on the
    whole matrix.  Each step k that swaps a pair is appended to ``swaps``."""
    A = [[Fraction(x) for x in r] for r in rows]
    n = len(A)
    pf = Fraction(1)
    for k in range(0, n, 2):
        p = next((j for j in range(k + 1, n) if A[k][j] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k + 1:
            A[k + 1], A[p] = A[p], A[k + 1]
            for row in A:
                row[k + 1], row[p] = row[p], row[k + 1]
            pf = -pf
            if swaps is not None:
                swaps.append(k)
        a = A[k][k + 1]
        pf *= a
        for i in range(k + 2, n):
            for j in range(i + 1, n):
                delta = (A[k][j] * A[k + 1][i] - A[k][i] * A[k + 1][j]) / a
                if delta:
                    A[i][j] += delta
                    A[j][i] = -A[i][j]
    return pf


def echelon_by_fractions(rows, ncols):
    """Reference: Fraction Gauss elimination with first-nonzero row
    pivoting, as (echelon rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][col] / m[r][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def kernel_by_fractions(rows, ncols):
    """Reference: Fraction Gauss elimination to an echelon form, Fraction
    back-substitution for each free column, then the primitive integer
    multiple (a positive scale, so the free entry stays positive)."""
    m, pivots = echelon_by_fractions(rows, ncols)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for rrow in range(len(pivots) - 1, -1, -1):
            pc = pivots[rrow]
            if pc > free:
                continue
            s = sum(m[rrow][j] * v[j] for j in range(pc + 1, ncols) if v[j])
            v[pc] = -s / m[rrow][pc]
        d = lcm(*[x.denominator for x in v])
        ints = [int(x * d) for x in v]
        g = gcd(*ints)
        basis.append(tuple(Fraction(x, g) for x in ints))
    return basis


def rand_rat_matrix(rng, rows, cols, box=5):
    return RatMatrix(
        [[Fraction(rng.randint(-box, box), rng.randint(1, 6)) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def rand_int_matrix(rng, rows, cols, box=5):
    return RatMatrix([[rng.randint(-box, box) for _ in range(cols)] for _ in range(rows)])


def rand_skew_matrix(rng, n, box=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randint(-box, box)
            rows[i][j] = x
            rows[j][i] = -x
    return RatMatrix(rows)


class TestRank:
    def test_identity(self):
        assert rank(RatMatrix.identity(5)) == 5

    def test_zero(self):
        assert rank(RatMatrix.zeros(4, 7)) == 0

    def test_flatform_examples(self, F6, F5):
        assert rank(F6.M) == 24
        assert rank(F5.M) == 20

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(11)
        for _ in range(40):
            M = rand_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            assert rank(M) == rank(M.transpose())

    def test_rank_under_permuted_pivot_order(self):
        # permuting rows and columns forces a different pivot sequence
        rng = random.Random(20)
        for _ in range(30):
            r, c = rng.randint(2, 7), rng.randint(2, 7)
            M = rand_int_matrix(rng, r, c, box=3)
            rp = list(range(r))
            cp = list(range(c))
            rng.shuffle(rp)
            rng.shuffle(cp)
            assert rank(M) == rank(M.submatrix(rp, cp))

    def test_against_gauss_oracle(self):
        rng = random.Random(12)
        for _ in range(60):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
            assert rank(RatMatrix(rows)) == rank_gauss_oracle(rows, c)

    def test_rational_entries(self):
        M = RatMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]])
        assert rank(M) == rank_gauss_oracle(M.to_rows(), 2)

    def test_memo_is_outside_equality_and_hash(self, monkeypatch):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, Fraction(1, 2)]]
        A, B = RatMatrix(rows), RatMatrix(rows)
        h = hash(A)
        eliminations = []
        dense_rank = linalg._dense_rank
        monkeypatch.setattr(linalg, "_dense_rank", lambda *a: eliminations.append(1) or dense_rank(*a))
        assert rank(A) == rank(A) == 2
        assert len(eliminations) == 1
        assert A == B and B == A
        assert hash(A) == h == hash(B)
        assert {B: "x"}[A] == "x"
        assert rank(B) == 2 and len(eliminations) == 2


def rand_deficient_matrix(rng, rows, cols, box=3):
    """A rational matrix whose rows are rational combinations of fewer
    random rows, with some columns zeroed, so its rank is deficient."""
    k = rng.randint(0, min(rows, cols) - 1)
    base = [[Fraction(rng.randint(-box, box), rng.randint(1, 4)) for _ in range(cols)] for _ in range(k)]
    zero = {j for j in range(cols) if rng.random() < 0.2}
    out = []
    for _ in range(rows):
        coef = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k)]
        out.append([0 if j in zero else sum((c * b[j] for c, b in zip(coef, base)), Fraction(0)) for j in range(cols)])
    return RatMatrix(out, cols=cols)


def rand_sparse_skew(rng, n, rational):
    rows = [[Fraction(0)] * n for _ in range(n)]
    density = rng.choice([0.2, 0.4, 0.7, 1.0])
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                x = Fraction(rng.randint(-4, 4), rng.randint(1, 5) if rational else 1)
                rows[i][j], rows[j][i] = x, -x
    return RatMatrix(rows, cols=n)


def sparse_skew_draws():
    """1200 seeded sparse skew matrices of even order 0 to 10, every other
    one rational."""
    rng = random.Random(35)
    for t in range(1200):
        yield rand_sparse_skew(rng, 2 * rng.randint(0, 5), rational=t % 2 == 1)


BIG = 2**70


@st.composite
def int_matrices(draw):
    """Integer rows with entries up to 2^70 in size: mostly zero, dense, or
    a low-rank product A*B; then some rows and columns zeroed and some rows
    repeated."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["mostly zero", "dense", "low rank"]))
    if kind == "low rank":
        k = draw(st.integers(0, min(m, n)))
        half = st.integers(-(2**35), 2**35)
        A = [[draw(half) for _ in range(k)] for _ in range(m)]
        B = [[draw(half) for _ in range(n)] for _ in range(k)]
        rows = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
    elif kind == "dense":
        rows = [[draw(st.integers(-BIG, BIG)) for _ in range(n)] for _ in range(m)]
    else:
        rows = [[0] * n for _ in range(m)]
        if m and n:
            cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), st.integers(-BIG, BIG))
            for i, j, x in draw(st.lists(cells, max_size=m * n // 3 + 1)):
                rows[i][j] = x
    if m and n:
        for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
            rows[i] = [0] * n
        for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            for row in rows:
                row[j] = 0
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, m - 1), max_size=3))]
    return rows, n


def sparse(rows, cols):
    return linalg.SparseIntMatrix([dict(enumerate(row)) for row in rows], cols)


class TestSparseRank:
    """Primitive-row elimination on a SparseIntMatrix against Bareiss on the
    same entries as a RatMatrix."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(int_matrices())
    def test_equals_bareiss(self, data):
        rows, cols = data
        S = sparse(rows, cols)
        before = [dict(r) for r in S.entries]
        assert rank(S) == rank(RatMatrix.from_ints(rows, cols=cols))
        assert [dict(r) for r in S.entries] == before  # rank mutates nothing

    def test_against_gauss_oracle(self):
        rng = random.Random(13)
        for _ in range(60):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(c)] for _ in range(r)]
            assert rank(sparse(rows, c)) == rank_gauss_oracle(rows, c)

    @pytest.mark.parametrize("rows, cols", [(0, 5), (3, 0), (0, 0), (4, 6)])
    def test_empty_shapes_and_zero_matrix(self, rows, cols):
        S = linalg.SparseIntMatrix([{} for _ in range(rows)], cols)
        assert (S.rows, S.cols) == (rows, cols) and rank(S) == 0
        assert S.entries == ({},) * rows

    def test_never_runs_bareiss(self, monkeypatch):
        monkeypatch.setattr(linalg, "_bareiss", lambda *a: pytest.fail("dense elimination"))
        monkeypatch.setattr(linalg, "_dense_rank", lambda *a: pytest.fail("dense elimination"))
        assert rank(sparse([[2, 4, 0], [1, 2, 0], [0, 0, 3]], 3)) == 2

    def test_memoised(self, monkeypatch):
        S = sparse([[1, 2], [3, 4]], 2)
        calls = []
        sparse_rank = linalg._sparse_rank
        monkeypatch.setattr(linalg, "_sparse_rank", lambda e: calls.append(1) or sparse_rank(e))
        assert rank(S) == rank(S) == 2
        assert calls == [1]

    def test_storage(self):
        given_rows = [{0: 3, 2: 0}, {1: -2**70}]
        S = linalg.SparseIntMatrix(given_rows, 3)
        assert S.entries == ({0: 3}, {1: -2**70})  # zeros are dropped
        given_rows[0][1] = 5  # the caller's dicts are not shared
        assert S.entries[0] == {0: 3}
        assert S.entries == ({0: 3}, {1: -2**70}) and (S.rows, S.cols) == (2, 3)
        with pytest.raises(AttributeError):
            S.cols = 4
        # a zero of any type, at any column, is dropped unchecked
        Z = linalg.SparseIntMatrix([{0: 0.0, 7: 0}, {}, {2: Fraction(0), 1: 4}], 3)
        assert Z.entries == ({}, {}, {1: 4}) and Z.rows == 3

    def test_rejects_bad_entries(self):
        with pytest.raises(ShapeMismatch, match="column 3 outside 0..2"):
            linalg.SparseIntMatrix([{3: 1}], 3)
        with pytest.raises(ShapeMismatch, match="column -1"):
            linalg.SparseIntMatrix([{-1: 1}], 3)
        with pytest.raises(TypeError):
            linalg.SparseIntMatrix([{0: Fraction(1, 2)}], 3)
        # a nonzero's type is checked before its column
        for x in (Fraction(3), Fraction(1, 2), 0.5, True):
            with pytest.raises(TypeError, match=type(x).__name__):
                linalg.SparseIntMatrix([{0: 1}, {7: x}], 3)


@st.composite
def rat_matrices(draw, kinds=("integer rows", "kronecker", "acted")):
    """Rational matrices of every shape, full and deficient rank: the
    integer rows of ``int_matrices`` over a denominator up to 30, a
    Kronecker product B (x) C of random skew blocks, or the flat matrix of a
    random form acted on by a rational h."""
    kind = draw(st.sampled_from(kinds))
    if kind == "integer rows":
        rows, cols = draw(int_matrices())
        return RatMatrix.from_ints(rows, draw(st.integers(1, 30)), cols=cols)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "kronecker":
        B, C = random_skew(draw(st.integers(1, 5)), rng), random_skew(draw(st.integers(1, 5)), rng)
        kron = [[b * x for b in Bi for x in Cj] for Bi in B for Cj in C]
        return RatMatrix.from_ints(kron, draw(st.integers(1, 30)))
    F = flatten(random_spec(rng, cs=(2, 3, 4), ns=(1, 2, 3), max_terms=2))
    h = RatMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(F.c)] for _ in range(F.c)])
    assume(det(h) != 0)
    return act(h, F).M


def three_ranks(M):
    """rank(M), and the ranks of its integer rows by Bareiss and by sparse
    elimination."""
    bareiss = linalg._bareiss([list(r) for r in M.num], M.cols)[0] if M.rows and M.cols else 0
    sparse_rank = linalg._sparse_rank([{j: x for j, x in enumerate(r) if x} for r in M.num])
    return rank(M), bareiss, sparse_rank


class TestDenseRank:
    """Primitive-row elimination on a RatMatrix against Bareiss and the
    sparse elimination on the same integer rows."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rat_matrices())
    def test_equals_bareiss_and_sparse(self, M):
        num = M.num
        dense, bareiss, sparse_rank = three_ranks(M)
        assert dense == bareiss == sparse_rank
        assert M.num == num

    @pytest.mark.parametrize(
        "kind, case",
        [
            ("integer rows", lambda M: M.den > 1 and 0 < rank(M) < min(M.rows, M.cols)),
            ("integer rows", lambda M: not all(any(r) for r in M.num + tuple(zip(*M.num))) and M.rows > 2),
            ("integer rows", lambda M: M.rows == 0 and M.cols > 0),
            ("integer rows", lambda M: M.cols == 0 and M.rows > 0),
            ("kronecker", lambda M: M.den > 1 and 8 < M.rows and 0 < rank(M) < M.rows),
            ("acted", lambda M: M.den > 1 and 8 < M.rows and 0 < rank(M) < M.rows),
        ],
        ids=["deficient over a denominator", "zero row or column", "0 x k", "k x 0", "kronecker", "acted"],
    )
    def test_strategy_draws(self, kind, case):
        # denominators, zero rows and columns, empty shapes and deficient
        # ranks, for integer rows and for both structured kinds
        find(rat_matrices(kinds=(kind,)), case, settings=settings(database=None, derandomize=True))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("if len(rows) < 2:", "if len(rows) < 3:"),  # stops a pivot early
            ("range(len(rows) - 1, p - 1, -1)", "range(len(rows) - 2, p - 1, -1)"),  # spares the last row
            ("pj * x - R[j] * y", "pj * x + R[j] * y"),  # misreads the last row
        ],
        ids=["early stop", "spared row", "last row"],
    )
    def test_rejects_a_mutant(self, monkeypatch, old, new):
        source = inspect.getsource(linalg._dense_rank)
        assert source.count(old) == 1
        scope = dict(vars(linalg))
        exec(source.replace(old, new), scope)
        monkeypatch.setattr(linalg, "_dense_rank", scope["_dense_rank"])
        find(
            rat_matrices(),
            lambda M: len(set(three_ranks(M))) > 1,
            settings=settings(database=None, derandomize=True, max_examples=300),
        )


@st.composite
def skew_pencils(draw):
    """Skew pencil values s*A + t*B over a denominator up to 30, of order 1
    to 6: A and B are sparse skew with small entries and s, t have up to 64
    bits.  The (0, 0) entry is zero, so a nonzero first column forces a
    swap, and the zeros below a pivot give rows whose factor is 0."""
    n = draw(st.integers(1, 6))
    small = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    s, t = (draw(st.integers(-(2**64), 2**64)) for _ in range(2))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = s * draw(small) + t * draw(small)
            rows[j][i] = -rows[i][j]
    return RatMatrix.from_ints(rows, draw(st.integers(1, 30)), cols=n)


def bareiss_disagrees(M):
    """True if det(M), kernel_basis(M) or Bareiss's echelon of M.num
    differs from its Fraction reference, or if the elimination fails.
    Bareiss row r is the Gauss row r times the pivot of row r - 1 (1 for
    row 0), zeros left of the pivot included."""
    try:
        n = M.rows
        gauss, pivots = echelon_by_fractions(M.num, n)
        rows = [list(r) for r in M.num]
        rk, pivot_cols, _, _ = linalg._bareiss(rows, n)
        scale = 1
        for r, (got, want) in enumerate(zip(rows, gauss)):
            if got != [scale * x for x in want]:
                return True
            if r < rk:
                scale = got[pivot_cols[r]]
        return (
            (rk, pivot_cols) != (len(pivots), pivots)
            or det(M) != det_cofactor(M.to_rows())
            or kernel_basis(M) != kernel_by_fractions(M.num, n)
        )
    except ArithmeticError:
        return True


def first_column_zeros(M):
    return sum(r[0] == 0 for r in M.num)


class TestBareissUpdate:
    """The Bareiss row update of det and kernel_basis on skew pencils,
    against the cofactor expansion and Fraction back-substitution."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(skew_pencils())
    def test_det_kernel_and_echelon_match_the_references(self, M):
        num = M.num
        assert not bareiss_disagrees(M)
        assert M.num == num

    @pytest.mark.parametrize(
        "case",
        [
            lambda M: M.rows % 2 == 0 and M.rows > 2 and det(M) != 0,
            lambda M: M.rows % 2 == 1 and M.rows > 2 and any(map(any, M.num)),
            lambda M: M.rows > 3 and first_column_zeros(M) >= 2 and first_column_zeros(M) < M.rows,
            lambda M: det(M) != 0 and max(abs(x) for r in M.num for x in r).bit_length() >= 60,
        ],
        ids=["even order", "odd order", "zero factor", "60-bit entries"],
    )
    def test_strategy_draws(self, case):
        # nonsingular even and nonzero odd pencils, a pivot with a zero
        # below it after the forced swap, and entries of 60 bits or more
        find(skew_pencils(), case, settings=settings(database=None, derandomize=True))

    @pytest.mark.parametrize(
        "old, new",
        [
            (
                "if p != r:\n            rows[r], rows[p] = rows[p], rows[r]\n            sign = -sign\n        Rr = rows[r]",
                "Rr = rows[r]\n        if p != r:\n            rows[r], rows[p] = rows[p], rows[r]\n            sign = -sign",
            ),
            ("Ri[col] = 0", "pass"),
            ("right = range(col + 1, ncols)", "right = range(col, ncols)"),
            ("Ri[j] = piv * Ri[j] // prev", "pass"),
        ],
        ids=["pivot row before the swap", "pivot column kept", "range from the pivot column", "zero-factor row not scaled"],
    )
    def test_rejects_a_mutant(self, monkeypatch, old, new):
        source = inspect.getsource(linalg._bareiss)
        assert source.count(old) == 1
        scope = dict(vars(linalg))
        exec(source.replace(old, new), scope)
        monkeypatch.setattr(linalg, "_bareiss", scope["_bareiss"])
        find(skew_pencils(), bareiss_disagrees, settings=settings(database=None, derandomize=True, max_examples=300))


@st.composite
def gram_matrices(draw):
    """(A, G = A^T A) for an integer A with 1 to 6 columns, of rank 0 to k,
    with entries up to about 60 bits.  A is the product of an m x r factor
    and an r x k echelon factor with its pivots at r drawn columns, so the
    free columns, each in the span of the pivot columns before it (zero
    before the first), fall first, in the middle or last."""
    k = draw(st.integers(1, 6))
    r = draw(st.integers(0, k))
    m = draw(st.integers(max(r, 1), k + 1))
    pivots = sorted(draw(st.sets(st.integers(0, k - 1), min_size=r, max_size=r)))
    entry = st.one_of(st.sampled_from([0, 1, -1, 2]), st.integers(-(2**30), 2**30))
    L = [[draw(entry) for _ in range(r)] for _ in range(m)]
    R = [[0] * k for _ in range(r)]
    for t, p in enumerate(pivots):
        R[t][p] = 1
        for j in range(p + 1, k):
            if j not in pivots:
                R[t][j] = draw(entry)
    A = [[sum(L[i][t] * R[t][j] for t in range(r)) for j in range(k)] for i in range(m)]
    G = [[sum(A[i][p] * A[i][q] for i in range(m)) for q in range(k)] for p in range(k)]
    return A, G


def gram_kernel_disagrees(AG):
    """True if ``gram_kernel`` on the upper rows of G differs from
    ``kernel_basis`` of G or of A, or changes its input rows."""
    A, G = AG
    k = len(G)
    upper = [G[p][p:] for p in range(k)]
    copy = [list(row) for row in upper]
    want = kernel_basis(RatMatrix.from_ints(G, cols=k))
    got = linalg.gram_kernel(upper, k)
    return got != want or upper != copy or kernel_basis(RatMatrix.from_ints(A, cols=k)) != want


def free_columns(AG):
    """The free columns of A, each in the span of the columns before it."""
    A, _ = AG
    k = len(A[0])
    ranks = [rank(RatMatrix.from_ints([r[:j] for r in A], cols=j)) for j in range(k + 1)]
    return [j for j in range(k) if ranks[j + 1] == ranks[j]]


class TestGramKernel:
    """``gram_kernel`` of a positive semidefinite A^T A against the general
    ``kernel_basis``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(gram_matrices())
    def test_matches_kernel_basis(self, AG):
        assert not gram_kernel_disagrees(AG)

    @pytest.mark.parametrize(
        "case",
        [
            lambda AG: not any(map(any, AG[1])),
            lambda AG: len(AG[1]) == 1,
            lambda AG: free_columns(AG)[:1] == [0] and any(map(any, AG[1])),
            lambda AG: any(0 < j < len(AG[1]) - 1 for j in free_columns(AG)) and free_columns(AG)[:1] != [0],
            lambda AG: free_columns(AG)[-1:] == [len(AG[1]) - 1] and len(free_columns(AG)) < len(AG[1]),
            lambda AG: len(free_columns(AG)) >= 2 and any(map(any, AG[1])),
            lambda AG: len(free_columns(AG)) < len(AG[1]) and max(abs(x) for r in AG[0] for x in r).bit_length() >= 58,
        ],
        ids=["zero matrix", "k = 1", "free first", "free in the middle", "free last", "wide kernel", "60-bit entries"],
    )
    def test_strategy_draws(self, case):
        # a draw of each kind is enough: no shrinking
        once = settings(database=None, derandomize=True, max_examples=300, phases=[Phase.generate])
        find(gram_matrices(), case, settings=once)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("if not piv:\n            continue", "if not piv:\n            break"),
            ("for b in range(a, k):", "for b in range(a + 1, k):"),
            ("Ua, f = U[a], Ui[a]", "Ua, f = U[a], U[a][i]"),
        ],
        ids=["stop at the first zero pivot", "diagonal not updated", "factor from the lower triangle"],
    )
    def test_rejects_a_mutant(self, monkeypatch, old, new):
        source = inspect.getsource(linalg.gram_kernel)
        assert source.count(old) == 1
        scope = dict(vars(linalg))
        exec(source.replace(old, new), scope)
        monkeypatch.setattr(linalg, "gram_kernel", scope["gram_kernel"])
        find(gram_matrices(), gram_kernel_disagrees, settings=settings(database=None, derandomize=True, max_examples=300))


class TestStorage:
    """Integer rows over one least positive denominator."""

    def test_every_spelling_gives_one_value(self):
        ints = [RatMatrix([[1, 0], [-3, 2]]), RatMatrix([[Fraction(1), "0"], [Fraction(-6, 2), "2"]])]
        assert [(M.den, M.num) for M in ints] == [(1, ((1, 0), (-3, 2)))] * 2
        assert ints[0] == ints[1] and hash(ints[0]) == hash(ints[1])
        mats = [
            RatMatrix([[Fraction(1, 2), Fraction(0)], [Fraction(-3, 4), Fraction(5, 6)]]),
            RatMatrix([["1/2", "0"], ["-3/4", "10/12"]]),
            RatMatrix([[Fraction(2, 4), 0], ["-3/4", Fraction(5, 6)]]),
            RatMatrix.from_ints([[6, 0], [-9, 10]], 12),
        ]
        for M in mats:
            assert (M.den, M.num) == (12, ((6, 0), (-9, 10)))
            assert M == mats[0] and hash(M) == hash(mats[0])
            assert M[1, 1] == Fraction(5, 6) and M.row(1) == (Fraction(-3, 4), Fraction(5, 6))
        assert RatMatrix.from_ints([[1, 2]], 3) != RatMatrix([[1, 2]])

    @pytest.mark.parametrize("short", [0, 1, 2], ids=["first", "middle", "last"])
    def test_ragged_rows_raise(self, short):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        rows[short] = rows[short][:2]
        with pytest.raises(ShapeMismatch, match="ragged rows"):
            RatMatrix(rows)
        with pytest.raises(ShapeMismatch, match="ragged rows"):
            RatMatrix.from_ints(rows)

    def test_from_ints_is_in_lowest_terms(self):
        rng = random.Random(34)
        for _ in range(200):
            r, c = rng.randint(0, 4), rng.randint(0, 4)
            f = rng.choice([1, 2, 6, 35])
            num = [[f * rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
            den = rng.choice([-1, 1]) * f * rng.randint(1, 6)
            M = RatMatrix.from_ints(num, den, cols=c)
            assert M.den > 0
            assert gcd(M.den, *[x for row in M.num for x in row]) == 1
            assert M.to_rows() == [[Fraction(x, den) for x in row] for row in num]
            assert M == RatMatrix([[Fraction(x, den) for x in row] for row in num], cols=c)

    def test_nonzeros_row_major_with_rational_values(self):
        # integer entries over the one denominator, in lowest terms
        M = RatMatrix([[0, Fraction(1, 2), 0], [3, 0, Fraction(-2, 3)]])
        assert M.nonzeros() == (6, [(0, 1, 3), (1, 0, 18), (1, 2, -4)])
        assert RatMatrix.zeros(3, 2).nonzeros() == (1, [])
        assert RatMatrix([], cols=4).nonzeros() == RatMatrix([[], []]).nonzeros() == (1, [])
        rng = random.Random(36)
        for _ in range(20):
            A = rand_rat_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), box=2)
            den, entries = A.nonzeros()
            assert [(i, j, Fraction(x, den)) for i, j, x in entries] == [
                (i, j, A[i, j]) for i in range(A.rows) for j in range(A.cols) if A[i, j] != 0
            ]
            assert den > 0 and gcd(den, *(x for *_, x in entries)) == 1

    def test_float_entry_raises(self):
        with pytest.raises(TypeError):
            RatMatrix([[1, 0.5]])
        with pytest.raises(TypeError):
            RatMatrix([[1, 2]]).scale(0.5)

    def test_rank_det_kernel_against_oracles(self):
        rng = random.Random(32)
        squares = deficient = 0
        for _ in range(60):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            M = rand_rat_matrix(rng, r, c, box=2) if rng.random() < 0.5 else rand_deficient_matrix(rng, r, c)
            rows = M.to_rows()
            rk = rank_gauss_oracle(rows, c)
            assert rank(M) == rk
            deficient += rk < min(r, c)
            if r == c:
                squares += 1
                assert det(M) == det_cofactor(rows)
            k = min(r, c)
            assert det(M.submatrix(range(k), range(k))) == det_cofactor([row[:k] for row in rows[:k]])
            basis = kernel_basis(M)
            assert len(basis) == c - rk
            assert all(x == 0 for v in basis for x in M.mul_vector(v))
            assert basis == kernel_by_fractions(rows, c)
        assert squares >= 5 and deficient >= 20


class TestIntegerRoutines:
    """The integer pair elimination and back-substitution against the
    Fraction versions they replace."""

    def test_pfaffian_matches_fraction_elimination(self):
        zero = 0
        swaps = {k: 0 for k in range(0, 8, 2)}
        for M in sparse_skew_draws():
            steps = []
            pf = pfaffian(M)
            assert pf == pfaffian_by_fractions(M.to_rows(), steps)
            assert pf * pf == det(M)
            zero += pf == 0
            for k in steps:
                swaps[k] += pf != 0
        # a swap at k >= 2 reads the lower triangle that pfaffian rebuilds
        assert zero >= 100 and swaps[0] >= 80 and swaps[2] >= 40 and swaps[4] >= 15 and swaps[6] >= 4

    @pytest.mark.parametrize(
        "old, new",
        [
            ("A[j][i] = -Ai[j]", "pass"),
            ("for i in range(k, n):", "for i in range(k + 2, n):"),
        ],
        ids=["no rebuild before a swap", "rebuild without the pivot pair"],
    )
    def test_pfaffian_rejects_a_mutant(self, monkeypatch, old, new):
        source = inspect.getsource(linalg.pfaffian)
        assert source.count(old) == 1
        scope = dict(vars(linalg))
        exec(source.replace(old, new), scope)
        monkeypatch.setattr(linalg, "pfaffian", scope["pfaffian"])
        assert any(linalg.pfaffian(M) != pfaffian_by_fractions(M.to_rows()) for M in sparse_skew_draws())

    def test_kernel_matches_fraction_back_substitution(self):
        rng = random.Random(36)
        for _ in range(1200):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            M = rand_deficient_matrix(rng, r, c)
            basis = kernel_basis(M)
            assert basis == kernel_by_fractions(M.to_rows(), c)
            assert len(basis) > c - min(r, c)


def is_skew_by_generator(M):
    """The generator definition of ``RatMatrix.is_skew`` that the loop
    replaced: every (i, j) with j >= i, the diagonal included."""
    A = M.num
    return M.is_square() and all(A[i][j] == -A[j][i] for i in range(M.rows) for j in range(i, M.cols))


@st.composite
def near_skew(draw):
    """A skew pencil value, or one with a single entry on or above the
    diagonal moved, so its skewness fails at that pair alone."""
    M = draw(skew_pencils())
    n = M.rows
    if draw(st.booleans()):
        return M
    rows = [list(r) for r in M.num]
    i = draw(st.integers(0, n - 1))
    rows[i][draw(st.integers(i, n - 1))] += draw(st.sampled_from([1, -1, 2**65]))
    return RatMatrix.from_ints(rows, M.den, cols=n)


def skew_cases():
    last_pair = [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]
    last_pair[2][1] = 4  # only (1, 2) against (2, 1) fails
    last_diagonal = [[0, 5], [-5, 1]]
    return [
        (RatMatrix([], cols=0), True),
        (RatMatrix([[3]]), False),
        (RatMatrix([[0]]), True),
        (RatMatrix.zeros(2, 3), False),
        (RatMatrix.zeros(3, 2), False),
        (RatMatrix(last_pair), False),
        (RatMatrix(last_diagonal), False),
        (RatMatrix.from_ints([[0, 1, -3], [-1, 0, 5], [3, -5, 0]], 7), True),
        (RatMatrix.from_ints([[0, 1, -3], [-1, 0, 5], [3, 5, 0]], 7), False),
    ]


class TestSkew:
    """``RatMatrix.is_skew`` against the generator definition it replaced."""

    @pytest.mark.parametrize("M, want", skew_cases())
    def test_edge_cases(self, M, want):
        assert M.is_skew() is want is is_skew_by_generator(M)

    @given(st.one_of(near_skew(), rat_matrices()))
    @settings(max_examples=300, derandomize=True)
    def test_matches_the_generator(self, M):
        assert M.is_skew() is is_skew_by_generator(M)

    def test_rejects_a_mutant(self, monkeypatch):
        # starting j at i + 1 skips the diagonal
        source = textwrap.dedent(inspect.getsource(RatMatrix.is_skew))
        old = "range(i, n)"
        assert source.count(old) == 1
        scope = dict(vars(linalg))
        exec(source.replace(old, "range(i + 1, n)"), scope)
        monkeypatch.setattr(RatMatrix, "is_skew", scope["is_skew"])
        assert any(M.is_skew() is not want for M, want in skew_cases())


class TestIntegerValues:
    """``det`` and ``pfaffian`` of num / den are integers over a power of den;
    at den 1 the Fraction is built from the integer alone."""

    @given(skew_pencils(), st.integers(2, 30))
    @settings(max_examples=80, derandomize=True)
    def test_det_and_pfaffian_over_the_denominator(self, M, d):
        for A in (RatMatrix.from_ints(M.num), RatMatrix.from_ints(M.num, d)):
            n = A.rows
            x = det_cofactor(A.num)
            got = det(A)
            assert type(got) is Fraction and got == Fraction(x.numerator, A.den**n)
            if n % 2 == 0:
                pf = pfaffian(A)
                assert type(pf) is Fraction
                assert pf == Fraction(pfaffian_enumeration(A.num).numerator, A.den ** (n // 2))

    def test_strategy_draws_a_denominator(self):
        find(
            st.tuples(skew_pencils(), st.integers(2, 30)),
            lambda Md: Md[0].rows % 2 == 0 and RatMatrix.from_ints(Md[0].num, Md[1]).den > 1 and det(Md[0]) != 0,
            settings=settings(database=None, derandomize=True),
        )


class TestDet:
    def test_identity(self):
        assert det(RatMatrix.identity(4)) == 1

    def test_c6p3_C_block(self, c6p3):
        C = RatMatrix(c6p3.spec.terms[0][1])
        assert det(C) == 9
        assert det(C) == det_cofactor(C.to_rows())

    def test_c5p3_flatform_det_nonzero_with_rank(self, F5):
        # a 20x20 expansion oracle is infeasible; cross-check via full rank
        assert rank(F5.M) == 20
        assert det(F5.M) != 0

    def test_nonsquare_rejected(self):
        with pytest.raises(NonSquare):
            det(RatMatrix.zeros(2, 3))

    def test_against_cofactor_oracle(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 5)
            M = rand_int_matrix(rng, n, n)
            assert det(M) == det_cofactor(M.to_rows())

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=60, derandomize=True)
    def test_two_by_two(self, a, b, c, d):
        assert det(RatMatrix([[a, b], [c, d]])) == a * d - b * c

    def test_det_zero_iff_rank_deficient(self):
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(1, 5)
            M = rand_int_matrix(rng, n, n, box=2)
            assert (det(M) != 0) == (rank(M) == n)


class TestKernel:
    def test_zero_matrix(self):
        basis = kernel_basis(RatMatrix.zeros(3, 3))
        assert basis == [
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ]

    def test_rank_one(self):
        basis = kernel_basis(RatMatrix([[1, 2], [2, 4]]))
        assert len(basis) == 1
        v = basis[0]
        # proportional to (2, -1)
        assert v[0] * (-1) == v[1] * 2

    def test_full_rank_empty(self, F6):
        assert kernel_basis(F6.M) == []

    def test_kernel_count_and_membership(self):
        rng = random.Random(15)
        for _ in range(50):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            M = rand_int_matrix(rng, r, c, box=3)
            basis = kernel_basis(M)
            assert len(basis) == c - rank(M)
            for v in basis:
                assert all(x == 0 for x in M.mul_vector(v))
            if basis:
                stacked = RatMatrix([list(v) for v in basis])
                assert rank(stacked) == len(basis)


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian(RatMatrix([[0, 7], [-7, 0]])) == 7

    def test_zero_four_by_four(self):
        assert pfaffian(RatMatrix.zeros(4, 4)) == 0

    def test_c6p3_C_block(self, c6p3):
        C = RatMatrix(c6p3.spec.terms[0][1])
        # closed form p12*p34 - p13*p24 + p14*p23 = 1*(-3) - 0 + 0
        assert pfaffian(C) == -3
        assert pfaffian(C) ** 2 == det(C)

    def test_rejects_odd_order(self):
        with pytest.raises(OddOrder):
            pfaffian(RatMatrix.zeros(3, 3))

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkew):
            pfaffian(RatMatrix.identity(2))

    def test_against_matching_enumeration(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.choice([2, 4, 6])
            M = rand_skew_matrix(rng, n)
            assert pfaffian(M) == pfaffian_enumeration(M.to_rows())

    def test_square_equals_det(self):
        rng = random.Random(18)
        for _ in range(40):
            n = rng.choice([2, 4, 6, 8])
            M = rand_skew_matrix(rng, n)
            assert pfaffian(M) ** 2 == det(M)


class TestPrincipalRankSubset:
    def test_identity(self):
        assert principal_rank_subset(RatMatrix.identity(3)) == (0, 1, 2)

    def test_all_ones(self):
        assert principal_rank_subset(RatMatrix([[1, 1], [1, 1]])) == (0,)

    def test_full_rank_example(self, F6):
        assert principal_rank_subset(F6.M) == tuple(range(24))

    def test_rejects_non_symmetric(self):
        with pytest.raises(NotSymmetric):
            principal_rank_subset(RatMatrix([[0, 1], [2, 0]]))

    def test_zero_diagonal_pairs(self):
        M = RatMatrix([[0, 1], [1, 0]])
        assert principal_rank_subset(M) == (0, 1)

    def test_random_symmetric(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 7)
            raw = rand_int_matrix(rng, n, n, box=2)
            M = raw + raw.transpose()
            S = principal_rank_subset(M)
            assert len(S) == rank(M)
            assert rank(M.submatrix(S, S)) == rank(M)

    def test_matches_rank_greedy_on_fixtures(self, F6, F5, F_deficient):
        for F in (F6, F5, F_deficient):
            assert principal_rank_subset(F.M) == greedy_by_ranks(F.M)

    def test_matches_rank_greedy_on_random_specs(self):
        rng = random.Random(33)
        full = deficient = 0
        for _ in range(120):
            M = flatten(random_spec(rng, cs=(3, 4, 5), ns=(3, 4))).M
            if rank(M) == M.rows:
                full += 1
            else:
                deficient += 1
            assert principal_rank_subset(M) == greedy_by_ranks(M)
        assert full >= 20 and deficient >= 20

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=n, max_size=n),
                    min_size=1,
                    max_size=max(1, n - 1),
                ),
                st.lists(st.sampled_from([-2, -1, Fraction(1, 2), 1, 3]), min_size=n, max_size=n),
            )
        )
    )
    def test_matches_rank_greedy_on_low_rank_rationals(self, drawn):
        # M = sum_t s_t u_t u_t^T: rank at most the number of terms, and a
        # nonzero diagonal, so the pass takes 1x1 pivots that wedge forms
        # (zero diagonal) never reach; mixed signs also zero out later
        # complement diagonals and force pairs after singles
        n, us, signs = drawn
        M = RatMatrix(
            [[sum(s * u[i] * u[j] for s, u in zip(signs, us)) for j in range(n)] for i in range(n)], cols=n
        )
        assume(any(M[i, i] != 0 for i in range(n)))
        assert principal_rank_subset(M) == greedy_by_ranks(M)

    def test_mixed_single_and_pair_pivots(self):
        # index 0 is taken alone; the complement of 1, 2 then has a zero
        # diagonal, so the pair (1, 2) follows
        M = RatMatrix([[1, 1, 1, 0], [1, 1, 2, 0], [1, 2, 1, 0], [0, 0, 0, 0]])
        assert principal_rank_subset(M) == greedy_by_ranks(M) == (0, 1, 2)

    @pytest.mark.parametrize("lie_on_call, message", [(1, "not realizable"), (2, "re-verification")])
    @pytest.mark.parametrize("name", ["full", "deficient"])
    def test_a_lying_rank_raises(self, monkeypatch, F6, F_deficient, name, lie_on_call, message):
        # too high a target leaves the pass without pivots; a wrong count on
        # the subset fails the re-verification.  Both are explicit errors
        # that survive python -O.
        M = F6.M if name == "full" else F_deficient.M
        real = linalg.rank
        calls = []

        def lying_rank(A):
            calls.append(A)
            return real(A) + (len(calls) == lie_on_call)

        monkeypatch.setattr(linalg, "rank", lying_rank)
        with pytest.raises(OrthinstError) as e:
            principal_rank_subset(M)
        assert isinstance(e.value, RankMismatch)
        assert message in str(e.value)
