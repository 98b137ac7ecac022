import random
from fractions import Fraction

import pytest

from orthinst import cohomology, linalg
from orthinst.cli import run_command
from orthinst.specfile import bundled_spec_path, generate
from orthinst import (
    FlatForm,
    PreconditionN,
    RankMismatch,
    RatMatrix,
    TensorSpec,
    UsageError,
    bott_h,
    chi_line_bundle,
    flatten,
    h_table,
    monomials,
    rank,
    verify_instanton,
)

from conftest import random_spec


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


def dense_section_map(F, r, k):
    """The degree-k section map as a dense RatMatrix, read from its sparse
    build over beta's denominator: the reference the tests check the sparse
    ranks against."""
    beta = cohomology.build_beta(F, r)
    S = cohomology._section_rows(beta, k)
    return RatMatrix.from_ints([[row.get(j, 0) for j in range(S.cols)] for row in S.entries], beta.denominator, cols=S.cols)


class TestSectionMap:
    def test_k0_is_the_flat_matrix(self, F6):
        sigma = dense_section_map(F6, 12, 0)
        assert (sigma.rows, sigma.cols) == (24, 24)
        assert sigma == F6.M
        assert rank(sigma) == 24

    def test_c5p3_k0_rank(self, F5):
        assert rank(dense_section_map(F5, 10, 0)) == 20

    def test_k_minus_one_has_no_columns(self, F6):
        sigma = dense_section_map(F6, 12, -1)
        assert sigma.cols == 0 and sigma.rows == 6

    def test_shapes(self, F6):
        sigma = dense_section_map(F6, 12, 1)
        assert sigma.rows == 6 * 10  # degree-2 monomials
        assert sigma.cols == 24 * 4  # degree-1 monomials

    def test_rational_form_scales_the_map(self, F5):
        # the integer grid is taken over the denominator of beta
        q = Fraction(-2, 15)
        scaled = FlatForm(F5.c, F5.n, F5.M.scale(q))
        for k in (0, 1):
            assert dense_section_map(scaled, 10, k) == dense_section_map(F5, 10, k).scale(q)


class TestSectionSizeGuard:
    # on c6p3 (c = 6, 2c + r = 24) the second map has 24 nonzero
    # coefficients, so the degree-k section map has 24 * h^0(O(k)) nonzeros:
    # the sparse build is refused from twist 62 on, whatever its rows x cols
    def test_nonzero_cap_lies_between_twists_61_and_62(self, F6):
        beta = cohomology.build_beta(F6, 12)
        assert cohomology._section_shape(beta, 61) == (6 * 43680, 24 * 41664)
        with pytest.raises(UsageError, match="degree-62 section map would have 1048320 nonzeros"):
            cohomology._section_shape(beta, 62)

    @pytest.mark.parametrize("kmin, kmax", [(0, 62), (-100, 0)])
    def test_twist_or_its_dual_over_the_cap_allocates_nothing(self, monkeypatch, F6, kmin, kmax):
        # kmin = -100 reaches twist 96 through the Serre dual -k - n - 1
        monkeypatch.setattr(cohomology, "_section_rows", lambda *a: pytest.fail("allocated"))
        with pytest.raises(UsageError, match=f"degree-{max(kmax, -kmin - 4)} section map"):
            h_table(F6, 12, kmin, kmax)

    def test_twist_0_of_the_report_is_checked_first(self, monkeypatch, F6):
        # the instanton report reads twist 0 whatever the window, so a cap
        # below its 24 nonzeros refuses the window (-1, -1) before any build
        monkeypatch.setattr(cohomology, "MAX_CELLS", 20)
        monkeypatch.setattr(cohomology, "_section_rows", lambda *a: pytest.fail("allocated"))
        with pytest.raises(UsageError, match="degree-0 section map would have 24 nonzeros"):
            h_table(F6, 12, -1, -1)

    @pytest.mark.parametrize("flag", [["--kmax", "62"], ["--kmin", "-66"]])
    def test_cli_exits_1(self, flag):
        rep = run_command(["cohomology", str(bundled_spec_path("c6p3")), *flag])
        assert rep.exit_code == 1
        assert rep.results["error"] == "UsageError"

    def test_cli_admits_twist_6(self):
        # 720 x 2016 cells, but 2016 nonzeros
        rep = run_command(["cohomology", str(bundled_spec_path("c6p3")), "--kmax", "6"])
        assert rep.exit_code == 0
        # h^1 = 0, so h^0(E(6)) = 24 h^0(O(6)) - 6 h^0(O(5)) - 6 h^0(O(7))
        assert rep.results["table"]["entries"]["(0,6)"] == {"dim": 24 * 84 - 6 * 56 - 6 * 120, "cert": "Direct"}
        assert rep.results["table"]["entries"]["(1,6)"]["dim"] == 0


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

    def test_cli_shares_one_engine(self, monkeypatch):
        built = []
        build_beta = cohomology.build_beta
        monkeypatch.setattr(cohomology, "build_beta", lambda F, r: built.append(r) or build_beta(F, r))
        rep = run_command(["cohomology", str(bundled_spec_path("c5p3"))])
        assert rep.exit_code == 0
        assert built == [10]

    @pytest.mark.parametrize("kmin, kmax", [(-4, 0), (-6, 2), (1, 3), (5, 6)])
    def test_cli_ranks_each_twist_once(self, monkeypatch, kmin, kmax):
        # the table's window and the report's standard window [-4, 0] share
        # one rank per twist, the Serre duals -k - 4 included; (5, 6) lies
        # apart from [-4, 0], and no twist between them is ranked
        twists = []
        section_rows = cohomology._section_rows
        monkeypatch.setattr(cohomology, "_section_rows", lambda beta, k: twists.append(k) or section_rows(beta, k))
        rep = run_command(["cohomology", str(bundled_spec_path("c6p3")), "--kmin", str(kmin), "--kmax", str(kmax)])
        assert rep.exit_code == 0
        window = set(range(kmin, kmax + 1))
        assert sorted(twists) == sorted(window | {-k - 4 for k in window} | set(range(-4, 1)))

    def test_shared_engine_gives_the_same_results(self, F6, F5, F_deficient):
        # every entry and its provenance are the display formulas over a
        # fresh rank of each section map: h^0 = dim ker sigma_k - c h^0(O(k-1))
        # and h^1 = dim coker sigma_k, zero in the middle rows, and the top
        # two rows the Serre duals of h^1 and h^0 at -k - n - 1
        gen = generate(8, 5, "pure", seed=1)[0]
        for F, r in [(F6, 12), (F5, 10), (F_deficient, 2), (gen.flatten(), gen.r)]:
            c, n = F.c, F.n
            beta = cohomology.build_beta(F, r)

            def direct(i, k):
                sigma = cohomology._section_rows(beta, k)
                rk = rank(sigma)
                return sigma.rows - rk if i == 1 else sigma.cols - rk - c * bott_h(0, k - 1, n)

            def want(i, k):
                if i <= 1:
                    return cohomology.CohomEntry(direct(i, k), "Direct")
                if i <= n - 2:
                    return cohomology.CohomEntry(0, "ForcedZero")
                return cohomology.CohomEntry(direct(n - i, -k - n - 1), "SerreDual")

            for kmin, kmax in [(-n, -1), (-2, 3), (1, 2)]:
                table = h_table(F, r, kmin, kmax)
                assert table.entries == {(i, k): want(i, k) for k in range(kmin, kmax + 1) for i in range(n + 1)}

    @pytest.mark.parametrize("where", ["inside", "overlapping", "disjoint"])
    def test_table_carries_the_report(self, F6, F5, F_deficient, where):
        # the report is read off the standard window [-n-1, 0] whatever
        # window the table spans
        gen = generate(8, 5, "pure", seed=1)[0]
        forms = [(F6, 12), (F5, 10), (F_deficient, 2), (gen.flatten(), gen.r)]
        rng = random.Random(5)
        while len(forms) < 7:
            F = flatten(random_spec(rng, cs=(3, 4), ns=(3,), max_terms=1))
            if 2 * F.c <= rank(F.M) < F.size:
                forms.append((F, rank(F.M) - 2 * F.c))
        for F, r in forms:
            n = F.n
            kmin, kmax = {"inside": (-n, -1), "overlapping": (-2, 3), "disjoint": (1, 2)}[where]
            table = h_table(F, r, kmin, kmax)
            assert table.instanton == verify_instanton(F, r)
            assert table.instanton.passed

    def test_deficient_rank_form_has_table(self, F_deficient):
        # rank 8 = 2c + r with r = 2: the table machinery still runs and the
        # standard window holds the instanton values; every entry pinned
        table = h_table(F_deficient, 2, -4, 4)
        assert table.warnings == ()
        rows = {k: [table.dim(i, k) for i in range(4)] for k in range(-4, 5)}
        assert rows == {
            -4: [0, 0, 4, 0],
            -3: [0, 0, 3, 0],
            -2: [0, 0, 0, 0],
            -1: [0, 3, 0, 0],
            0: [0, 4, 0, 0],
            1: [5, 6, 0, 0],
            2: [16, 8, 0, 0],
            3: [35, 10, 0, 0],
            4: [64, 12, 0, 0],
        }
        assert {table.cert(i, k) for i in (2, 3) for k in range(-4, 5)} == {"SerreDual"}

    @pytest.mark.parametrize(
        "name, r, h01",
        [("F5", 10, [(25, 0), (80, 0), (175, 0)]), ("F6", 12, [(30, 0), (96, 0), (210, 0)])],
    )
    def test_positive_twists(self, name, r, h01, request):
        table = h_table(request.getfixturevalue(name), r, 1, 3)
        assert [(table.dim(0, k), table.dim(1, k)) for k in (1, 2, 3)] == h01
        assert table.warnings == ()


class TestSparseSectionRanks:
    """``h_table`` ranks the sparse build of each section map; Bareiss on
    its dense view is the reference."""

    @pytest.mark.parametrize(
        "name, r, k",
        [("F_deficient", 2, k) for k in range(5)]
        + [("F6", 12, k) for k in range(5)]
        + [("F5", 10, k) for k in range(4)],
    )
    def test_engine_rank_equals_bareiss(self, name, r, k, request):
        F = request.getfixturevalue(name)
        sparse = cohomology._section_rows(cohomology.build_beta(F, r), k)
        sigma = dense_section_map(F, r, k)
        assert (sparse.rows, sparse.cols) == (sigma.rows, sigma.cols)
        assert rank(sparse) == linalg._bareiss([list(row) for row in sigma.num], sigma.cols)[0]

    def test_tables_run_no_dense_elimination(self, monkeypatch, F6):
        rank(F6.M)  # the one dense rank, memoised on the flat matrix
        for dense in ("_bareiss", "_dense_rank"):
            monkeypatch.setattr(linalg, dense, lambda *a: pytest.fail("dense elimination"))
        table = h_table(F6, 12, -4, 4)
        # h^1 = 0, so h^0(E(4)) = 24 h^0(O(4)) - 6 h^0(O(3)) - 6 h^0(O(5))
        assert table.dim(0, 4) == 24 * 35 - 6 * 20 - 6 * 56 == 384 and table.dim(1, 4) == 0
