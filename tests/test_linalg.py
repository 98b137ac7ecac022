import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orthinst import (
    NonSquare,
    NotSkew,
    NotSymmetric,
    OddOrder,
    RatMatrix,
    det,
    kernel_basis,
    pfaffian,
    principal_rank_subset,
    rank,
)


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
