import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_spec
from orthinst import (
    NonSquare,
    NotSkew,
    NotSymmetric,
    OddOrder,
    OrthinstError,
    RankMismatch,
    RatMatrix,
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


def integer_rows_by_multiplying(M):
    """Reference: the denominator clearing as Fraction products, int(x * m)."""
    out = []
    scale = Fraction(1)
    for row in M.to_rows():
        m = 1
        for x in row:
            m = lcm(m, x.denominator)
        scale *= m
        out.append([int(x * m) for x in row])
    return out, scale


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
        bareiss = linalg._bareiss
        monkeypatch.setattr(linalg, "_bareiss", lambda *a: eliminations.append(1) or bareiss(*a))
        assert rank(A) == rank(A) == 2
        assert len(eliminations) == 1
        assert A == B and B == A
        assert hash(A) == h == hash(B)
        assert {B: "x"}[A] == "x"
        assert rank(B) == 2 and len(eliminations) == 2


class TestIntegerRows:
    """The numerator read-off against the Fraction-product conversion."""

    def test_same_ints_and_scale(self):
        rng = random.Random(31)
        for _ in range(60):
            M = rand_rat_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert linalg._integer_rows(M) == integer_rows_by_multiplying(M)

    def test_rank_det_kernel_agree(self, monkeypatch):
        rng = random.Random(32)
        cases = []
        for _ in range(60):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            M = rand_rat_matrix(rng, r, c, box=2)
            if rng.random() < 0.5 and r > 1:
                # a repeated row, scaled, makes rank deficiency common
                rows = M.to_rows()
                rows[-1] = [Fraction(2, 3) * x for x in rows[0]]
                M = RatMatrix(rows, cols=c)
            cases.append(M)
        squares = [M for M in cases if M.is_square()]
        assert len(squares) >= 5 and any(rank(M) < M.cols for M in squares)

        def facts(M):
            fresh = RatMatrix(M.to_rows(), cols=M.cols)  # no rank memo
            return rank(fresh), det(fresh) if M.is_square() else None, kernel_basis(fresh)

        new = [facts(M) for M in cases]
        monkeypatch.setattr(linalg, "_integer_rows", integer_rows_by_multiplying)
        assert [facts(M) for M in cases] == new


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
