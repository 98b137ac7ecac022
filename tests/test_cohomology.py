import pytest

from orthinst import (
    FlatForm,
    PreconditionN,
    RankMismatch,
    RatMatrix,
    TensorSpec,
    bott_h,
    chi_line_bundle,
    flatten,
    h_table,
    monomials,
    rank,
    section_map,
    verify_instanton,
)


class TestBott:
    def test_sections(self):
        assert bott_h(0, 2, 3) == 10
        assert bott_h(0, 0, 3) == 1
        assert bott_h(0, -1, 3) == 0

    def test_top(self):
        assert bott_h(3, -4, 3) == 1
        assert bott_h(3, -3, 3) == 0
        assert bott_h(4, -6, 4) == 5

    def test_middle_vanishing(self):
        assert bott_h(1, -2, 3) == 0
        assert bott_h(2, 5, 4) == 0

    def test_chi_matches_alternating_sum(self):
        for n in range(1, 9):
            for k in range(-40, 41):
                assert chi_line_bundle(k, n) == sum(
                    (-1) ** i * bott_h(i, k, n) for i in range(n + 1)
                )


class TestMonomials:
    def test_degree_one_order(self):
        assert monomials(3, 1) == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_counts(self):
        for n in (2, 3, 4):
            for d in range(5):
                assert len(monomials(n, d)) == bott_h(0, d, n)

    def test_negative_degree_empty(self):
        assert monomials(3, -1) == ()

    def test_graded_lex_descending(self):
        ms = monomials(3, 2)
        assert ms[0] == (2, 0, 0, 0)
        assert list(ms) == sorted(ms, reverse=True)


class TestSectionMap:
    def test_k0_is_the_flat_matrix(self, F6):
        sigma = section_map(F6, 12, 0)
        assert (sigma.rows, sigma.cols) == (24, 24)
        assert sigma == F6.M
        assert rank(sigma) == 24

    def test_c5p3_k0_rank(self, F5):
        assert rank(section_map(F5, 10, 0)) == 20

    def test_k_minus_one_has_no_columns(self, F6):
        sigma = section_map(F6, 12, -1)
        assert sigma.cols == 0 and sigma.rows == 6

    def test_shapes(self, F6):
        sigma = section_map(F6, 12, 1)
        assert sigma.rows == 6 * 10  # degree-2 monomials
        assert sigma.cols == 24 * 4  # degree-1 monomials


class TestHTable:
    @pytest.mark.parametrize("name,c,r", [("F6", 6, 12), ("F5", 5, 10)])
    def test_worked_examples(self, name, c, r, request):
        F = request.getfixturevalue(name)
        table = h_table(F, r, -4, 0)
        assert table.warnings == ()
        for k in range(-4, 1):
            assert table.dim(0, k) == 0
        assert table.dim(1, -1) == c
        assert table.dim(1, 0) == 0 == 2 * c - r  # (n-1)c - r with n = 3
        assert table.dim(1, -2) == 0
        assert table.dim(2, -3) == c  # dual partner of (1, -1)
        assert table.dim(2, -4) == 0  # dual partner of (1, 0)
        assert table.cert(1, -1) == "Direct"
        assert table.cert(2, -3) == "SerreDual"

    def test_serre_dual_agrees_with_direct_partner(self, F6):
        table = h_table(F6, 12, -4, 0)
        for k in range(-4, 1):
            assert table.dim(2, k) == table.dim(1, -k - 4)
            assert table.dim(3, k) == table.dim(0, -k - 4)

    def test_rejects_small_n(self):
        B = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
        C = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
        F = flatten(TensorSpec(3, 2, ((B, C),)))
        with pytest.raises(PreconditionN):
            h_table(F, 2, -1, 0)

    def test_wrong_r_flagged(self, F6):
        # r = 4 forces rank 16 != 24: refuse through the rank precondition
        with pytest.raises(RankMismatch):
            h_table(F6, 4, -1, 0)


class TestVerifyInstanton:
    def test_c6p3(self, F6):
        rep = verify_instanton(F6, 12)
        assert rep.passed
        assert rep.charge_computed == 6
        assert rep.rank_bundle == 12
        assert rep.chi_consistent

    def test_c5p3(self, F5):
        rep = verify_instanton(F5, 10)
        assert rep.passed and rep.charge_computed == 5 and rep.rank_bundle == 10

    def test_degenerate_input_refused(self):
        F = FlatForm(3, 3, RatMatrix.zeros(12, 12))
        with pytest.raises(RankMismatch):
            verify_instanton(F, 6)

    def test_deficient_rank_form_has_table(self, F_deficient):
        # rank 8 = 2c + r with r = 2: the table machinery still runs; the
        # standard-window cross-check flags the non-instanton values
        table = h_table(F_deficient, 2, -1, 0)
        assert isinstance(table.dim(1, -1), int)
