import inspect
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import find, given, settings, strategies as st

from orthinst import jsonio, monad
from orthinst.forms import point_indices
from orthinst.jsonio import linform_matrix_json
from orthinst.moduli import random_unimodular
from orthinst.monad import MAX_SAMPLES, randints
from orthinst import (
    BadSubset,
    FlatForm,
    RankMismatch,
    RatMatrix,
    ShapeMismatch,
    TensorSpec,
    act,
    build_alpha,
    build_beta,
    build_beta_full,
    check_conditions,
    flatten,
    kernel_basis,
    nondegeneracy_witness_search,
    principal_rank_subset,
    rank,
    verify_monad_identity,
)

from conftest import random_spec
from display import (
    BETA_T_C5P3_SPOT_ENTRIES,
    BETA_T_C6P3,
    BETA_T_C6P3_SIGN_VARIANT,
    from_parts,
    grid_to_linform_matrix,
    lf,
    to_parts,
    transposed,
    values,
)


def reference_identity(alpha, beta):
    """beta . alpha = 0 by the per-entry Fraction loop: accumulate the
    coefficient of x_j x_l in every entry of the product."""
    w = beta.nvars
    B, A = to_parts(beta), to_parts(alpha)
    for k in range(beta.rows):
        for i in range(alpha.cols):
            acc = [[Fraction(0)] * w for _ in range(w)]
            for t in range(beta.cols):
                b, a = [P[k, t] for P in B], [P[t, i] for P in A]
                for j in range(w):
                    for l in range(w):
                        acc[j][l] += b[j] * a[l]
            if any(acc[j][j] for j in range(w)) or any(acc[j][l] + acc[l][j] for j in range(w) for l in range(j)):
                return False
    return True


def restrict_columns(beta, S):
    return from_parts([B.submatrix(range(B.rows), S) for B in to_parts(beta)])


def rational_matrix(rng, rows, cols):
    return RatMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)])


def one_cross_term_pair(rng, c, w, mid):
    """Random rational parts, for mid > c(w-1), with B_j A_j = 0 for all j
    and B_j A_l + B_l A_j = 0 for all j < l but one pair: only B_{j0} is
    nonzero, and its rows lie in the left kernel of every A_l but A_{l0}."""
    while True:
        A = [rational_matrix(rng, mid, c) for _ in range(w)]
        j0, l0 = rng.sample(range(w), 2)
        others = [A[l] for l in range(w) if l != l0]
        killer = RatMatrix([[x for X in others for x in X.row(t)] for t in range(mid)])
        left = kernel_basis(killer.transpose())
        mix = [[rng.randint(-2, 2) for _ in left] for _ in range(c)]
        B0 = RatMatrix([[sum(a * v[t] for a, v in zip(m, left)) for t in range(mid)] for m in mix], cols=mid)
        if (B0 @ A[l0]).nonzeros()[1]:
            B = [B0 if l == j0 else RatMatrix.zeros(c, mid) for l in range(w)]
            return from_parts(A), from_parts(B)


def fraction_nonzeros(P):
    """(i, j, P[i, j]) for the nonzero entries of P, row-major, as Fractions."""
    return [(i, j, x) for i, row in enumerate(P.to_rows()) for j, x in enumerate(row) if x]


def parts_route_beta(F, col_idx):
    """beta's coefficient values as the per-variable route built them: part
    l is M[col_idx, (., l)] transposed, read part by part, row-major."""
    return tuple(
        (l, k, t, x)
        for l in range(F.n + 1)
        for k, t, x in fraction_nonzeros(F.M.submatrix(col_idx, point_indices(F.c, F.n, l)).transpose())
    )


def parts_route_alpha(c, n, S):
    """alpha's coefficient values read off slices of the identity, at the rows S."""
    size = c * (n + 1)
    rows = range(size) if S is None else sorted(set(S))
    eye = RatMatrix.identity(size)
    return tuple(
        (l, s, i, x) for l in range(n + 1) for s, i, x in fraction_nonzeros(eye.submatrix(rows, point_indices(c, n, l)))
    )


def assert_map(L, shape, vals):
    """``L`` has the shape (rows, cols, nvars) and the coefficient values
    ``vals``, stored as ints over a positive denominator in lowest terms."""
    assert (L.rows, L.cols, L.nvars) == shape
    assert values(L) == vals
    assert all(type(x) is int for *_, x in L.coefficients) and type(L.denominator) is int
    assert L.denominator > 0 and gcd(L.denominator, *(x for *_, x in L.coefficients)) == 1


class TestBuildAlpha:
    def test_c2_n1_pattern(self):
        a = build_alpha(2, 1)
        grid = linform_matrix_json(a)
        assert grid == [["x0", "0"], ["x1", "0"], ["0", "x0"], ["0", "x1"]]

    def test_c6_block_pattern(self):
        a = build_alpha(6, 3)
        assert a.rows == 24 and a.cols == 6
        grid = linform_matrix_json(a)
        for s in range(24):
            i, j = divmod(s, 4)
            for ip in range(6):
                want = f"x{j}" if ip == i else "0"
                assert grid[s][ip] == want

    def test_subset_restriction(self):
        a = build_alpha(3, 3, S=[0, 5, 7])
        assert a.rows == 3 and a.cols == 3
        assert linform_matrix_json(a)[1][1] == "x1"  # row 5 = (1,1)

    def test_bad_subset(self):
        with pytest.raises(BadSubset):
            build_alpha(3, 3, S=[99])

    def test_parts_match_the_identity_slices(self, monkeypatch):
        # reference: part l sliced out of the size x size identity, at the
        # rows S (all rows for None; sorted, without repeats)
        rng = random.Random(106)
        cases = []
        for c in range(1, 6):
            for n in range(1, 5):
                size = c * (n + 1)
                S = rng.sample(range(size), rng.randint(1, size))
                cases += [(c, n, None), (c, n, []), (c, n, S), (c, n, S + S[:2])]
        expected = [
            ((c * (n + 1) if S is None else len(set(S)), c, n + 1), parts_route_alpha(c, n, S)) for c, n, S in cases
        ]
        monkeypatch.setattr(RatMatrix, "identity", lambda size: pytest.fail("built an identity"))
        for (c, n, S), (shape, vals) in zip(cases, expected):
            assert_map(build_alpha(c, n, S), shape, vals)


class TestBuildBeta:
    def test_c6p3_matches_frozen_display(self, F6):
        bt = linform_matrix_json(transposed(build_beta(F6, 12)))
        for i in range(24):
            for k in range(6):
                assert bt[i][k] == BETA_T_C6P3[i][k], (i, k)

    def test_display_signs_are_rigid(self):
        # flipping three entries breaks the composition identity, so the
        # frozen display is pinned sign-by-sign; no convention (global sign,
        # transposition) could produce the variant
        alpha = build_alpha(6, 3)
        beta_variant = transposed(grid_to_linform_matrix(BETA_T_C6P3_SIGN_VARIANT))
        assert not verify_monad_identity(alpha, beta_variant)
        beta_expected = transposed(grid_to_linform_matrix(BETA_T_C6P3))
        assert verify_monad_identity(alpha, beta_expected)

    def test_c5p3_spot_entries(self, F5):
        bt = linform_matrix_json(transposed(build_beta(F5, 10)))
        for (i, k), want in BETA_T_C5P3_SPOT_ENTRIES.items():
            assert bt[i][k] == want, (i, k)
        # remaining entries are pinned by the coefficient audit below

    def test_coefficient_audit(self, F5):
        # entry (k, (i,j)) must carry coefficient M[(i,j),(k,l)] on x_l
        parts = to_parts(build_beta(F5, 10))
        w = F5.n + 1
        for k in range(5):
            for s in range(20):
                for l in range(w):
                    assert parts[l][k, s] == F5.M[s, k * w + l]

    def test_rank_mismatch_rejected(self):
        zero = FlatForm(3, 3, RatMatrix.zeros(12, 12))
        with pytest.raises(RankMismatch):
            build_beta(zero, -6)  # 2c+r = 0 < 2c is impossible anyway
        with pytest.raises(RankMismatch):
            build_beta(zero, 6)

    def test_deficient_rank_restricts_columns(self, F_deficient):
        beta = build_beta(F_deficient, 2)
        assert beta.rows == 3 and beta.cols == 8


class TestDisplay:
    def test_entries_read_back_to_their_coefficients(self):
        # the display is written from the nonzero coefficients alone; an
        # independent parser reads every cell back to the drawn entries
        rng = random.Random(2001)
        values = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), "7/4"]
        for _ in range(300):
            rows, cols, w = rng.randint(0, 5), rng.randint(1, 5), rng.randint(1, 4)
            parts = [RatMatrix([[rng.choice(values) for _ in range(cols)] for _ in range(rows)], cols=cols) for _ in range(w)]
            grid = linform_matrix_json(from_parts(parts))
            assert [len(row) for row in grid] == [cols] * rows
            for i in range(rows):
                for j in range(cols):
                    assert lf(grid[i][j], w) == [P[i, j] for P in parts], grid[i][j]

    def test_rat_str_writes_the_fraction_text_without_a_fraction(self, monkeypatch):
        numbers = [0, 7, -12, 10**30, Fraction(3), Fraction(-4, 6), Fraction(1, 2), Fraction(-10**20, 3)]
        want = ["0", "7", "-12", str(10**30), "3", "-2/3", "1/2", f"-{10**20}/3"]
        monkeypatch.setattr(jsonio, "Fraction", lambda *a: pytest.fail("built a Fraction"))
        assert [jsonio.rat_str(x) for x in numbers] == want

    @pytest.mark.parametrize("text", ["x0x2", "x0 junk +x2", "x0+x0", "+", "x9"])
    def test_lf_refuses_text_that_is_no_form(self, text):
        # gaps, stray text, a repeated variable, a bare sign and a variable
        # out of range would let a broken renderer still read back
        with pytest.raises(ValueError):
            lf(text, 4)


# one rank-8 term in charge 4, n = 4: acted on by diag(1, 1, 1/2, 1/2), M is
# over 4 from its (2, 3) block, but the principal rows (0, 1, 2, 3, 5, 6, 8,
# 12) meet that block only through the even row C[2], so the restricted
# beta's integer coefficients over 4 share the factor 2 and beta is over 2
SHARED_FACTOR = TensorSpec(4, 4, ((
    ((0, 3, 3, -3), (-3, 0, -2, 1), (-3, 2, 0, -1), (3, -1, 1, 0)),
    ((0, -1, 2, -2, 0), (1, 0, -2, -2, -1), (-2, 2, 0, -2, 0), (2, 2, 2, 0, 1), (0, 1, 0, -1, 0)),
),))


@pytest.fixture(scope="module")
def rational_forms(F6, F5, F_deficient):
    """Forms acted on by rational diagonals h, each with M over a
    denominator > 1: the worked examples, the fixture, SHARED_FACTOR and
    eight drawn forms."""
    forms = [
        act(RatMatrix.diagonal(h), F)
        for h, F in (
            ([Fraction(1, 2), Fraction(-2, 3), 1, 1, 1, 1], F6),
            ([Fraction(3, 5), 1, Fraction(1, 4), 1, 1], F5),
            ([1, Fraction(1, 3), Fraction(-1, 2)], F_deficient),
            ([1, 1, Fraction(1, 2), Fraction(1, 2)], flatten(SHARED_FACTOR)),
        )
    ]
    rng = random.Random(2701)
    for _ in range(8):
        F = flatten(random_spec(rng))
        h = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6)) for _ in range(F.c - 1)]
        forms.append(act(RatMatrix.diagonal(h + [Fraction(1, 6)]), F))
    return forms


class TestBuildersAgainstPartsRoute:
    def test_builders_equal_the_parts_route(self, F6, F5, F_deficient, rational_forms):
        rng = random.Random(107)
        forms = [F6, F5, F_deficient] + [flatten(random_spec(rng)) for _ in range(50)]
        for _ in range(6):
            F = flatten(random_spec(rng))
            h = RatMatrix.diagonal([Fraction(1, 2), Fraction(-2, 3)] + [1] * (F.c - 2)) @ random_unimodular(F.c, rng)
            forms.append(act(h, F))
        assert sum(F.M.den > 1 for F in forms) == 6
        restricted = shared = 0
        for F in forms + rational_forms:
            c, n, w = F.c, F.n, F.n + 1
            S = principal_rank_subset(F.M)
            assert_map(build_alpha(c, n), (F.size, c, w), parts_route_alpha(c, n, None))
            assert_map(build_alpha(c, n, S), (len(S), c, w), parts_route_alpha(c, n, S))
            assert_map(build_beta_full(F), (c, F.size, w), parts_route_beta(F, range(F.size)))
            if len(S) >= 2 * c:
                beta = build_beta(F, len(S) - 2 * c)
                assert_map(beta, (c, len(S), w), parts_route_beta(F, S))
                restricted += len(S) < F.size
                # lowest terms matter: the rows S drop a factor of M's denominator
                shared += beta.denominator < F.M.den
        assert restricted >= 2 and shared >= 1


def fraction_route_display(L):
    """A copy of the display as it was written from Fraction coefficients,
    one Fraction per coefficient through the Fraction text of ``rat_str``."""

    def rat_str(x):
        x = Fraction(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    grid = [["0"] * L.cols for _ in range(L.rows)]
    for l, i, j, x in values(L):
        term = f"x{l}" if x == 1 else f"-x{l}" if x == -1 else f"{rat_str(x)}x{l}"
        if grid[i][j] == "0":
            grid[i][j] = term
        else:
            grid[i][j] += term if term[0] == "-" else "+" + term
    return grid


def display_maps(rational_forms):
    """The maps of every builder on the rational forms, their transposes, and
    drawn maps with rational coefficients such as 2/6 and -4/2."""
    maps = []
    for F in rational_forms:
        S = principal_rank_subset(F.M)
        maps += [build_alpha(F.c, F.n), build_alpha(F.c, F.n, S), build_beta_full(F), build_beta(F, len(S) - 2 * F.c)]
    maps += [transposed(L) for L in maps]
    rng = random.Random(2702)
    entries = [0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 6), Fraction(-4, 2), Fraction(9, 6), Fraction(7, 4)]
    for _ in range(60):
        rows, cols, w = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        maps.append(from_parts([RatMatrix([[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]) for _ in range(w)]))
    return maps


class TestIntegerMaps:
    # the maps are integer coefficients over one denominator; the Fraction
    # identity loop and the Fraction display are the references, as the parts
    # route is in TestBuildersAgainstPartsRoute

    def test_forms_are_rational(self, rational_forms):
        assert all(F.M.den > 1 for F in rational_forms)
        F = rational_forms[3]
        beta = build_beta(F, len(principal_rank_subset(F.M)) - 2 * F.c)
        assert principal_rank_subset(F.M) == (0, 1, 2, 3, 5, 6, 8, 12)
        assert (F.M.den, beta.denominator) == (4, 2)

    def test_identity_agrees_across_denominators(self, rational_forms):
        # alpha over 1 or, scaled by 2/7, over 7; beta over a denominator of M
        seventh = lambda L: from_parts([P.scale(Fraction(2, 7)) for P in to_parts(L)])
        outcomes = set()
        for F in rational_forms:
            S = principal_rank_subset(F.M)
            alpha, beta = build_alpha(F.c, F.n), build_beta_full(F)
            alpha_S, beta_S = build_alpha(F.c, F.n, S), build_beta(F, len(S) - 2 * F.c)
            for A, B in ((alpha, beta), (seventh(alpha), beta), (alpha_S, beta_S), (seventh(alpha_S), beta_S)):
                assert A.denominator != B.denominator
                ok = verify_monad_identity(A, B)
                assert ok == reference_identity(A, B)
                outcomes.add(ok)
        assert outcomes == {True, False}

    def test_display_matches_the_fraction_renderer(self, rational_forms):
        maps = display_maps(rational_forms)
        assert any(L.denominator > 1 for L in maps)
        for L in maps:
            assert repr(linform_matrix_json(L)) == repr(fraction_route_display(L))

    @pytest.mark.parametrize(
        "old, new",
        [("d = L.denominator", "d = 1"), ("g = gcd(x, d)", "g = 1")],
        ids=["no denominator", "no lowest terms"],
    )
    def test_display_rejects_a_mutant(self, rational_forms, old, new):
        source = inspect.getsource(jsonio.linform_matrix_json)
        assert source.count(old) == 1
        scope = dict(vars(jsonio))
        exec(source.replace(old, new), scope)
        mutant = scope["linform_matrix_json"]
        assert any(mutant(L) != fraction_route_display(L) for L in display_maps(rational_forms))


class TestMonadIdentity:
    def test_worked_examples(self, F6, F5):
        assert verify_monad_identity(build_alpha(6, 3), build_beta(F6, 12))
        assert verify_monad_identity(build_alpha(5, 3), build_beta(F5, 10))

    def test_symmetric_square_form_fails(self):
        # a symmetric (non-wedge) form: surviving x_j^2 coefficients
        c, n = 2, 1
        B = ((0, 1), (1, 0))
        C = ((0, 1), (1, 0))
        size = c * (n + 1)
        rows = [[0] * size for _ in range(size)]
        for i in range(c):
            for k in range(c):
                for j in range(n + 1):
                    for l in range(n + 1):
                        rows[i * (n + 1) + j][k * (n + 1) + l] = B[i][k] * C[j][l]
        F = FlatForm(c, n, RatMatrix(rows))
        assert not verify_monad_identity(build_alpha(c, n), build_beta_full(F))

    def test_full_maps_vanish_for_every_wedge_member(self):
        rng = random.Random(201)
        for _ in range(25):
            F = flatten(random_spec(rng))
            assert verify_monad_identity(build_alpha(F.c, F.n), build_beta_full(F))

    def test_restricted_pair_is_not_a_monad_at_deficient_rank(self, F_deficient):
        # the row-restricted first map composes nonzero below full rank; only
        # the unrestricted pair carries the vanishing statement
        from orthinst import principal_rank_subset

        S = principal_rank_subset(F_deficient.M)
        assert not verify_monad_identity(
            build_alpha(3, 3, S=S), build_beta(F_deficient, 2)
        )
        assert verify_monad_identity(build_alpha(3, 3), build_beta_full(F_deficient))


def random_parts(rng, w, rows, cols, rational):
    """w coefficient matrices, each zero with probability 1/4 and otherwise
    half-sparse integer rows over a denominator (1 unless ``rational``)."""
    parts = []
    for _ in range(w):
        zero = rng.random() < 0.25
        num = [[0 if zero or rng.random() < 0.5 else rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        parts.append(RatMatrix.from_ints(num, rng.randint(2, 4) if rational else 1, cols=cols))
    return parts


def stacked(blocks_by_row, cols):
    # the RatMatrix of a grid of RatMatrix blocks
    rows = [[x for B in blocks for x in B.row(t)] for blocks in blocks_by_row for t in range(blocks[0].rows)]
    return RatMatrix(rows, cols=cols)


@st.composite
def monad_pairs(draw, kinds=("integer", "rational", "across j", "across orders")):
    """(alpha, beta) pairs of linear-form matrices in w variables: random
    integer or rational parts, some of them zero; or a pair whose product
    cancels only when summed over different inner indices j,
    [beta, t beta] . [alpha; -alpha/t]; or one whose product cancels only
    when x_l x_m and x_m x_l are taken together, u [b, a] . [a; -b] v for
    rows of linear forms a and b, a column u and a row v."""
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    w, rows, mid, cols = (draw(st.integers(1, 3)) for _ in range(4))
    if kind in ("integer", "rational"):
        B = random_parts(rng, w, rows, mid, kind == "rational")
        A = random_parts(rng, w, mid, cols, kind == "rational")
    elif kind == "across j":
        t = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        B0, A0 = random_parts(rng, w, rows, mid, True), random_parts(rng, w, mid, cols, True)
        B = [stacked([[P, P.scale(t)]], 2 * mid) for P in B0]
        A = [stacked([[P], [P.scale(-1 / t)]], cols) for P in A0]
    else:
        b, a = random_parts(rng, w, 1, mid, True), random_parts(rng, w, 1, mid, True)
        u, v = random_parts(rng, 1, rows, 1, True)[0], random_parts(rng, 1, 1, cols, True)[0]
        B = [stacked([[u.scale(x) for x in bl.row(0) + al.row(0)]], 2 * mid) for bl, al in zip(b, a)]
        A = [stacked([[v.scale(x)] for x in al.row(0) + (-bl).row(0)], cols) for bl, al in zip(b, a)]
    return from_parts(A), from_parts(B)


def meets(alpha, beta):
    # some beta[i, j] and alpha[j, k] are both nonzero forms
    return bool({j for _, _, j, _ in beta.coefficients} & {j for _, j, _, _ in alpha.coefficients})


def unsymmetrised(alpha, beta):
    # the coefficient of x_l * x_m, with x_l from beta and x_m from alpha
    acc = {}
    for l, i, j, x in beta.coefficients:
        for m, jj, k, y in alpha.coefficients:
            if j == jj:
                acc[l, m, i, k] = acc.get((l, m, i, k), 0) + x * y
    return acc


class TestIdentityAgainstFractionLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(monad_pairs())
    def test_drawn_pairs(self, pair):
        assert verify_monad_identity(*pair) == reference_identity(*pair)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(monad_pairs(kinds=("across j", "across orders")))
    def test_cancelling_pairs_compose_to_zero(self, pair):
        assert verify_monad_identity(*pair) and reference_identity(*pair)

    @pytest.mark.parametrize(
        "kind, case",
        [
            ("integer", lambda A, B: not reference_identity(A, B)),
            ("rational", lambda A, B: not reference_identity(A, B) and any(P.den > 1 for P in to_parts(A) + to_parts(B))),
            ("rational", lambda A, B: not reference_identity(A, B) and any(not P.nonzeros()[1] for P in to_parts(A))),
            ("integer", lambda A, B: reference_identity(A, B) and A.coefficients and B.coefficients),
            ("rational", lambda A, B: not reference_identity(A, B) and A.nvars == 1),
            ("across j", meets),
            ("across orders", lambda A, B: any(unsymmetrised(A, B).values())),
        ],
        ids=["integer", "rational", "zero part", "zero product", "one variable", "across j", "across orders"],
    )
    def test_strategy_draws(self, kind, case):
        # each family reaches the case it is there for: a nonzero product of
        # integer or rational parts, a zero part, a product that vanishes
        # without a zero map, x_l^2 terms alone, and cancellations that need
        # the sum over j or over both orders of a monomial
        find(monad_pairs(kinds=(kind,)), lambda p: case(*p), settings=settings(database=None, derandomize=True))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("sums[min(l, m), max(l, m), i, k]", "sums[min(l, m), max(l, m), i, j, k]"),
            ("sums[min(l, m), max(l, m), i, k]", "sums[l, m, i, k]"),
            ("not any(sums.values())", "not any(v for (l, m, i, k), v in sums.items() if l < m)"),
        ],
        ids=["no sum over j", "no symmetrisation", "no diagonal"],
    )
    def test_rejects_a_mutant(self, old, new):
        source = inspect.getsource(monad.verify_monad_identity)
        assert source.count(old) == 1
        scope = dict(vars(monad))
        exec(source.replace(old, new), scope)
        mutant = scope["verify_monad_identity"]
        find(
            monad_pairs(),
            lambda p: mutant(*p) != reference_identity(*p),
            settings=settings(database=None, derandomize=True, max_examples=300),
        )

    def test_full_and_restricted_pairs_of_random_forms(self):
        rng = random.Random(205)
        for _ in range(25):
            F = flatten(random_spec(rng))
            alpha, beta = build_alpha(F.c, F.n), build_beta_full(F)
            assert verify_monad_identity(alpha, beta) == reference_identity(alpha, beta) is True
            S = principal_rank_subset(F.M)
            alpha_S, beta_S = build_alpha(F.c, F.n, S=S), restrict_columns(beta, S)
            assert verify_monad_identity(alpha_S, beta_S) == reference_identity(alpha_S, beta_S)

    def test_a_single_cross_term_is_caught(self):
        # every x_j^2 coefficient vanishes, so the product is zero at every
        # coordinate point e_j; only the one x_j x_l coefficient shows it
        rng = random.Random(206)
        for _ in range(20):
            c, w = rng.randint(1, 3), rng.randint(2, 4)
            alpha, beta = one_cross_term_pair(rng, c, w, c * (w - 1) + 2)
            assert not reference_identity(alpha, beta)
            assert not verify_monad_identity(alpha, beta)
            # at the coordinate point e_j the product is B_j A_j
            for B, A in zip(to_parts(beta), to_parts(alpha)):
                assert not (B @ A).nonzeros()[1]

    def test_display_sign_variant(self):
        alpha = build_alpha(6, 3)
        for grid in (BETA_T_C6P3, BETA_T_C6P3_SIGN_VARIANT):
            beta = transposed(grid_to_linform_matrix(grid))
            assert verify_monad_identity(alpha, beta) == reference_identity(alpha, beta) == (grid is BETA_T_C6P3)

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ShapeMismatch):
            verify_monad_identity(build_alpha(3, 3), build_beta_full(FlatForm(3, 2, RatMatrix.zeros(9, 9))))


class TestCheckConditions:
    def test_c6p3(self, F6):
        rep = check_conditions(F6, 12)
        assert rep.rank_a == 24 and rep.a1_expected == 24 and rep.a1_ok
        assert rep.a2.kind == "CertifiedFullRank"
        assert rep.a3_ok
        assert rep.q_subset == tuple(range(24))
        assert rep.precheck == "Ok"
        assert rep.passed

    def test_c5p3(self, F5):
        rep = check_conditions(F5, 10)
        assert rep.rank_a == 20 and rep.a1_ok and rep.a3_ok
        assert rep.a2.kind == "CertifiedFullRank"
        assert rep.precheck == "Ok" and rep.passed

    def test_charge_one_forbidden(self):
        C = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -3), (0, 0, 3, 0))
        F = flatten(TensorSpec(1, 3, ((((0,),), C),)))
        rep = check_conditions(F, 0)
        assert rep.precheck == "ChargeOneForbidden"
        assert not rep.passed

    def test_charge_two_override_with_passing_linear_algebra(self):
        B = ((0, 1), (-1, 0))
        C = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -3), (0, 0, 3, 0))
        rep = check_conditions(flatten(TensorSpec(2, 3, ((B, C),))), 4)
        assert rep.a1_ok and rep.a3_ok and rep.a2.kind == "CertifiedFullRank"
        assert rep.precheck == "ChargeTwoForbidden"
        assert rep.notes  # the passing linear algebra is flagged
        assert not rep.passed

    def test_rank_bound_violated(self, F6):
        rep = check_conditions(F6, 13)
        assert rep.precheck == "RankBoundViolated"
        assert not rep.passed

    def test_sampled_tier_on_deficient_example(self, F_deficient):
        rep = check_conditions(F_deficient, 2, budget=60, seed=0)
        assert rep.a1_ok and rep.a3_ok
        assert rep.a2.kind == "SampledNoCounterexample"
        assert rep.a2.samples == 60
        assert len(rep.q_subset) == 8

    def test_unknown_tier_with_zero_budget(self, F_deficient):
        rep = check_conditions(F_deficient, 2, budget=0)
        assert rep.a2.kind == "Unknown"

    def test_counterexample_tier(self):
        # rank-deficient pure term: kernel directions of B give witnesses
        B = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
        C = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -3), (0, 0, 3, 0))
        F = flatten(TensorSpec(4, 3, ((B, C),)))
        rep = check_conditions(F, rank(F.M) - 8, budget=50)
        assert rep.a2.kind == "CounterexampleFound"
        h, v = rep.a2.witness_h, rep.a2.witness_v
        vec = [Fraction(hi) * Fraction(vj) for hi in h for vj in v]
        assert any(h) and any(v)
        assert all(x == 0 for x in F.M.mul_vector(vec))

    def test_invariant_under_action(self, F6):
        from orthinst.moduli import random_unimodular

        rng = random.Random(202)
        base = check_conditions(F6, 12)
        for _ in range(5):
            from orthinst import act

            G = act(random_unimodular(6, rng), F6)
            rep = check_conditions(G, 12)
            assert rep.a1_ok == base.a1_ok
            assert rep.a2.kind == base.a2.kind
            assert rep.a3_ok == base.a3_ok
            assert rep.precheck == base.precheck


# the bounds of the three box streams, a width of one, a power-of-two
# width, one just above it, and a width of more than 32 bits
RANDINT_BOUNDS = [(-10, 10), (-1000, 1000), (-1, 1), (0, 0), (0, 7), (-8, 8), (-(2**40), 2**40)]


def randint_mismatch(draw, a, b, seeds=1000):
    """The first seed at which ``draw(rng, a, b, size)`` differs from the
    randint list or leaves the stream elsewhere, or None."""
    for seed in range(seeds):
        size = seed % 9
        ref, rng = random.Random(seed), random.Random(seed)
        want = [ref.randint(a, b) for _ in range(size)]
        if draw(rng, a, b, size) != want or rng.random() != ref.random():
            return seed
    return None


class TestRandints:
    @pytest.mark.parametrize("a, b", RANDINT_BOUNDS)
    def test_equals_the_randint_list_and_leaves_the_same_state(self, a, b):
        assert randint_mismatch(randints, a, b) is None

    def test_empty_range_refused_like_randint(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            rng.randint(1, 0)
        with pytest.raises(ValueError, match="empty range"):
            randints(rng, 1, 0, 3)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("x = bits(k)\n        while x >= width:\n            x = bits(k)\n", "x = bits(k) % width\n"),
            ("while x >= width:", "while not x <= width:"),
        ],
        ids=["modulo", "accepts width"],
    )
    def test_rejects_a_mutant(self, old, new):
        source = inspect.getsource(monad.randints)
        assert source.count(old) == 1
        scope = dict(vars(monad))
        exec(source.replace(old, new), scope)
        mutant = scope["randints"]
        assert any(randint_mismatch(mutant, a, b) is not None for a, b in RANDINT_BOUNDS)


class TestWitnessSearch:
    @pytest.mark.parametrize("budget", [-5, MAX_SAMPLES + 1])
    def test_budget_outside_0_to_max_refused_before_any_draw(self, budget, F6, F_deficient, monkeypatch):
        monkeypatch.setattr(monad, "_directions", lambda *a: pytest.fail("drew a direction"))
        for F in (F6, F_deficient):
            with pytest.raises(ValueError, match=f"^budget must be [<>]= .*, got {budget}$"):
                nondegeneracy_witness_search(F, budget=budget)

    def test_full_rank_has_no_witness(self, F6):
        assert nondegeneracy_witness_search(F6, budget=30, seed=3) is None

    def test_full_rank_never_has_a_witness(self):
        # injective forms kill no decomposable tensor; sample random specs
        # and check the search honors that whenever the rank is maximal
        rng = random.Random(210)
        checked = 0
        while checked < 20:
            F = flatten(random_spec(rng, cs=(3, 4), ns=(3,)))
            if rank(F.M) != F.size:
                continue
            assert nondegeneracy_witness_search(F, budget=10, seed=0) is None
            checked += 1

    def test_zero_form(self):
        F = FlatForm(3, 3, RatMatrix.zeros(12, 12))
        assert nondegeneracy_witness_search(F, 10, 0) == ((1, 0, 0), (1, 0, 0, 0))

    def test_kernel_direction_found(self):
        B = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
        C = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -3), (0, 0, 3, 0))
        F = flatten(TensorSpec(4, 3, ((B, C),)))
        hit = nondegeneracy_witness_search(F, budget=50, seed=0)
        assert hit is not None
        h, v = hit
        # h must lie in ker B (the only way a decomposable vector dies here)
        assert all(x == 0 for x in RatMatrix(B).mul_vector(h))
