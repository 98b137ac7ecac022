import inspect
import random
import textwrap
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from orthinst import (
    FlatForm,
    NotSkew,
    RatMatrix,
    ShapeMismatch,
    Singular,
    TensorSpec,
    act,
    build_beta,
    flatten,
    kernel_basis,
    principal_rank_subset,
    rank,
    wedge_membership,
)
from orthinst import forms as forms_module, linalg, monad
from orthinst.forms import point_indices
from orthinst.moduli import random_unimodular
from orthinst.specfile import generate

from conftest import DEFICIENT_TERMS, random_skew, random_spec, reference_along_charge, reference_along_point
from display import to_parts


def unit(j, length):
    return [1 if t == j else 0 for t in range(length)]


def reference_wedge(F):
    """Symmetry and M[(i,j),(k,l)] = -M[(k,j),(i,l)], entry by entry."""
    M, c, w = F.M, F.c, F.n + 1
    if not M.is_symmetric():
        return False
    A = M.num
    for i in range(c):
        for k in range(i, c):
            for j in range(w):
                for l in range(w):
                    if A[i * w + j][k * w + l] != -A[k * w + j][i * w + l]:
                        return False
    return True


def random_symmetric(size, rng):
    """A sparse random symmetric integer matrix, zero with some chance."""
    rows = [[0] * size for _ in range(size)]
    density = rng.choice([0.0, 0.1, 0.5])
    for i in range(size):
        for j in range(i, size):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    return rows


def wedge_test_forms(F6, F5):
    """(members, forms): bundled, acted and random wedge members, then those
    and random symmetric forms, most of them no wedge member, and
    perturbations of the members: one entry, a symmetric pair, and a skew
    pair (i,j),(i,l) inside one charge block, which keeps every slice folded
    but breaks symmetry.  The members come first in ``forms``."""
    rng = random.Random(107)
    members = [F6, F5, flatten(TensorSpec(3, 3, DEFICIENT_TERMS))]
    members += [flatten(random_spec(rng, cs=(2, 3, 4), ns=(1, 2, 3))) for _ in range(12)]
    members += [act(random_unimodular(F.c, rng), F) for F in members[:8]]
    forms = list(members)
    for _ in range(60):
        c, n = rng.randint(1, 4), rng.randint(1, 3)
        forms.append(FlatForm(c, n, RatMatrix.from_ints(random_symmetric(c * (n + 1), rng), cols=c * (n + 1))))
    for F in members:
        for _ in range(12):
            rows = [list(r) for r in F.M.num]
            a, b = rng.randrange(F.size), rng.randrange(F.size)
            x, kind = rng.choice([-1, 1, 2]), rng.choice(["one", "symmetric", "skew"])
            if kind == "skew":
                b = a - a % (F.n + 1) + (a + rng.randrange(1, F.n + 1)) % (F.n + 1)
            rows[a][b] += x
            if kind != "one" and a != b:
                rows[b][a] += x if kind == "symmetric" else -x
            forms.append(FlatForm(F.c, F.n, RatMatrix.from_ints(rows, F.M.den, cols=F.size)))
    return members, forms


def reference_is_symmetric(M):
    """The cell loop ``RatMatrix.is_symmetric`` ran before its zip scan."""
    A = M.num
    return M.is_square() and all(A[i][j] == A[j][i] for i in range(M.rows) for j in range(i + 1, M.cols))


def reference_slices(F):
    """The c^2 indexed cells per slice that ``FlatForm._slices`` read before
    its strided rows, with the same fold rule."""
    c, w = F.c, F.n + 1
    R = F.M.num

    def entries(j, l):
        return [R[i * w + j][k * w + l] for i in range(c) for k in range(c)]

    pairs, mats = [], []

    def keep(j, l, folded, s):
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


def strided_scan_matrices(forms):
    """The flat matrices of the forms, their scalings over 6, and square,
    non-square and empty matrices beside them."""
    rng = random.Random(2801)
    mats = [F.M for F in forms] + [F.M.scale(Fraction(5, 6)) for F in forms[:20]]
    mats += [RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 3), RatMatrix.zeros(3, 0), RatMatrix.zeros(2, 3)]
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mats.append(RatMatrix([[rng.choice([0, 1, -2, Fraction(1, 3)]) for _ in range(cols)] for _ in range(rows)]))
    return mats


def mutant(function, old, new, module):
    """``function`` (a method's or a cached property's function included) with
    the one occurrence of ``old`` in its source replaced by ``new``, compiled
    in a copy of ``module``'s namespace."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    scope = dict(vars(module))
    exec(source.replace(old, new), scope)
    found = scope[function.__name__]
    return getattr(found, "func", found)


def reference_act(h, F):
    """(h (x) Id) M (h^T (x) Id) with the Kronecker factor written out."""
    w = F.n + 1
    K = RatMatrix(
        [[h[i, a] * (j == l) for a in range(F.c) for l in range(w)] for i in range(F.c) for j in range(w)]
    )
    return K @ F.M @ K.transpose()


def contraction_forms(F_deficient):
    rng = random.Random(110)
    forms = [flatten(random_spec(rng)) for _ in range(12)]
    forms.append(F_deficient)
    # common denominators 6 and 3: the integer view must carry them
    forms.append(FlatForm(F_deficient.c, F_deficient.n, F_deficient.M.scale(Fraction(5, 6))))
    forms.append(act(RatMatrix.diagonal([Fraction(1, 3)] + [1] * (F_deficient.c - 1)), F_deficient))
    return forms


def fraction_vector(length):
    return [Fraction((-1) ** t * (t + 2), t + 3) for t in range(length)]


class TestTensorSpec:
    def test_rejects_non_skew_block(self):
        with pytest.raises(NotSkew):
            TensorSpec(2, 1, ((((0, 1), (1, 0)), ((0, 1), (-1, 0))),))

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeMismatch):
            TensorSpec(3, 1, ((((0, 1), (-1, 0)), ((0, 1), (-1, 0))),))

    def test_rejects_degenerate_dims(self):
        with pytest.raises(ShapeMismatch):
            TensorSpec(0, 3, ())


class TestFlatForm:
    @pytest.mark.parametrize("c,n", [(0, 0), (3, 0)])
    def test_rejects_degenerate_dims(self, c, n):
        # a charge-0 form of the empty matrix once passed verify and
        # kronecker, a pass that proved nothing
        size = c * (n + 1)
        with pytest.raises(ShapeMismatch, match=f"need c >= 1 and n >= 1, got c={c}, n={n}$"):
            FlatForm(c, n, RatMatrix([[0] * size for _ in range(size)], cols=size))


class TestFlatten:
    def test_small_product(self):
        spec = TensorSpec(2, 1, ((((0, 1), (-1, 0)), ((0, 1), (-1, 0))),))
        F = flatten(spec)
        # idx(i,j) = 2i + j
        assert F.M[0, 3] == 1  # (0,0),(1,1) = B[0,1]*C[0,1]
        assert F.M[1, 2] == -1  # (0,1),(1,0) = B[0,1]*C[1,0]
        assert F.M.is_symmetric()

    def test_c6p3_rank(self, F6):
        assert rank(F6.M) == 24

    def test_c5p3_rank(self, F5):
        assert rank(F5.M) == 20

    def test_block_structure_matches_entries(self, F6, c6p3):
        B, C = c6p3.spec.terms[0]
        for i in (0, 2, 5):
            for k in (1, 3, 4):
                blk = F6.block(i, k)
                assert blk == RatMatrix(C).scale(B[i][k])

    def test_flatten_always_wedge(self):
        rng = random.Random(101)
        for _ in range(30):
            F = flatten(random_spec(rng))
            assert wedge_membership(F)
            assert F.M.is_symmetric()

    def test_pure_tensor_rank_product(self):
        rng = random.Random(102)
        for _ in range(25):
            c = rng.choice([2, 3, 4])
            n = rng.choice([1, 2, 3])
            B = random_skew(c, rng)
            C = random_skew(n + 1, rng)
            F = flatten(TensorSpec(c, n, ((B, C),)))
            assert rank(F.M) == rank(RatMatrix(B)) * rank(RatMatrix(C))


class TestContractions:
    def test_gram_along_point_matches_tensor_products(self, F_deficient):
        rng = random.Random(111)
        for F in contraction_forms(F_deficient):
            w = F.n + 1
            vs = [unit(j, w) for j in range(w)] + [[rng.randint(-4, 4) for _ in range(w)] for _ in range(3)]
            vs.append([Fraction(1, 2)] + [0] * (w - 1))
            vs.append(fraction_vector(w))
            vs += [[0] * w, [Fraction(0)] * w]
            for v in vs:
                # the kernel read off the Gram matrix is the contraction's
                assert F.kernel_along_point(v) == kernel_basis(reference_along_point(F, v))

    def test_gram_along_charge_matches_tensor_products(self, F_deficient):
        rng = random.Random(112)
        for F in contraction_forms(F_deficient):
            hs = [unit(i, F.c) for i in range(F.c)] + [[rng.randint(-4, 4) for _ in range(F.c)] for _ in range(3)]
            hs.append([Fraction(1, 2), 1] + [0] * (F.c - 2))
            hs.append(fraction_vector(F.c))
            hs += [[0] * F.c, [Fraction(0)] * F.c]
            for h in hs:
                assert F.kernel_along_charge(h) == kernel_basis(reference_along_charge(F, h))

    def test_zero_vector_gives_zero_slice(self, F6):
        # the contraction along a zero vector is zero: its kernel is everything
        assert F6.kernel_along_point([0] * 4) == [tuple(unit(i, 6)) for i in range(6)]
        assert F6.kernel_along_charge([0] * 6) == [tuple(unit(j, 4)) for j in range(4)]

    def test_filled_caches_keep_equality_and_hash(self):
        # the charge groups, Gram coefficients and slices are computed on
        # first use and are not part of the value
        F, G = (flatten(TensorSpec(3, 3, DEFICIENT_TERMS)) for _ in range(2))
        F.kernel_along_point([1, 2, 0, -1])
        F.kernel_along_charge([Fraction(1, 2), 0, 3])
        F.pencil([1, 0, 0, 0], [0, 1, 0, 0])
        act(RatMatrix.identity(3), F)
        caches = {"_charge_groups", "_point_gram", "_charge_gram", "_slices"}
        assert caches <= set(vars(F)) and not caches & set(vars(G))
        assert F == G and hash(F) == hash(G)
        assert len({F, G}) == 1

    def test_monad_parts_read_the_blocks(self, F_deficient):
        # part l of the second map is B_l[k][t] = M[s, (k, l)] for s = col_idx[t],
        # read through point_indices, on integer and rational forms
        for F in contraction_forms(F_deficient):
            w = F.n + 1
            assert [list(point_indices(F.c, F.n, l)) for l in range(w)] == [
                [i * w + l for i in range(F.c)] for l in range(w)
            ]
            maps = [(list(range(F.size)), monad._beta_rows(F, list(range(F.size))))]
            r = rank(F.M) - 2 * F.c
            if r >= 0:
                maps.append((list(principal_rank_subset(F.M)), build_beta(F, r)))
            for col_idx, beta in maps:
                assert beta.nvars == w and (beta.rows, beta.cols) == (F.c, len(col_idx))
                parts = to_parts(beta)
                for l, B in enumerate(parts):
                    assert B.to_rows() == [[F.M[s, k * w + l] for s in col_idx] for k in range(F.c)]
                assert tuple(P[F.c - 1, 0] for P in parts) == tuple(F.M[col_idx[0], (F.c - 1) * w + l] for l in range(w))

    def test_string_coordinates_read_exactly_and_floats_raise(self, F6):
        # one term with a singular 3 x 3 B: along a point v with Cv != 0 the
        # kernel is ker B, so the strings are read into a nonzero kernel
        rng = random.Random(113)
        F = flatten(TensorSpec(3, 3, ((random_skew(3, rng), random_skew(4, rng)),)))
        want = F.kernel_along_point([Fraction(1, 2), 0, 3, Fraction(-1, 3)])
        assert want and F.kernel_along_point(["1/2", 0, "3", Fraction(-1, 3)]) == want
        with pytest.raises(TypeError):
            F6.kernel_along_point([0.5, 0, 0, 0])
        with pytest.raises(TypeError):
            F6.pencil([1, 0, 0, 0], [0, 1.0, 0, 0])

    def test_wrong_length_rejected(self, F6):
        # too long; TestGram checks too short
        with pytest.raises(ShapeMismatch):
            F6.kernel_along_point([1, 2, 3, 4, 5])
        with pytest.raises(ShapeMismatch):
            F6.kernel_along_charge([1] * 7)


def gram_forms():
    """60 seeded deficient forms, the zero form and a form over den 6."""
    rng = random.Random(120)
    forms = []
    while len(forms) < 60:
        F = flatten(random_spec(rng, cs=(3, 4, 5), ns=(3, 4)))
        if rank(F.M) < F.size:
            forms.append(F)
    forms.append(FlatForm(3, 3, RatMatrix.zeros(12, 12)))
    forms.append(FlatForm(F.c, F.n, F.M.scale(Fraction(7, 6))))
    return forms


def contraction_sides(F):
    """(side, kernel, reference contraction, k = its column count, direction length)."""
    return (
        ("h", F.kernel_along_charge, lambda h: reference_along_charge(F, h), F.n + 1, F.c),
        ("v", F.kernel_along_point, lambda v: reference_along_point(F, v), F.c, F.n + 1),
    )


def gram_directions(F, rng):
    """Per side: the basis, seeded integer and Fraction directions, and the
    kernel vectors of the other side's basis contractions, which are
    directions with a kernel off the basis."""
    out = {}
    for side, *_, length in contraction_sides(F):
        out[side] = (
            [unit(i, length) for i in range(length)]
            + [[rng.randint(-6, 6) for _ in range(length)] for _ in range(4)]
            + [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(length)] for _ in range(2)]
        )
    for side, _, along, _, length in contraction_sides(F):
        other = "v" if side == "h" else "h"
        out[other] += [list(x) for i in range(length) for x in kernel_basis(along(unit(i, length)))]
    return out


def one_sided_gram(along, k, length):
    """A broken Gram matrix: sum_{a<=b} d_a d_b P_a^T P_b, the cross term
    P_b^T P_a dropped, with P_a the contraction along the basis vector a."""
    P = [along(unit(a, length)) for a in range(length)]

    def gram(d):
        total = RatMatrix.zeros(k, k)
        for a in range(length):
            for b in range(a, length):
                total = total + (P[a].transpose() @ P[b]).scale(Fraction(d[a]) * Fraction(d[b]))
        return total

    return gram


def gram_mutants(along, k, length):
    """Broken Gram matrices A(d)^T A(d) = sum_{a<=b} d_a d_b G_ab, each off by
    one slip in assembling them from the G_ab: the upper triangle left
    unmirrored, the first cross pair G_01 dropped, and the weight d_a^2 on
    every pair a <= b.  P_a is the contraction along the basis vector a."""
    P = [along(unit(a, length)) for a in range(length)]
    G = {
        (a, b): P[a].transpose() @ P[b] + (P[b].transpose() @ P[a] if a < b else RatMatrix.zeros(k, k))
        for a in range(length)
        for b in range(a, length)
    }
    # sum_{b >= a} G_ab, which the weight d_a^2 scales in the third slip
    row_sums = [sum((G[a, b] for b in range(a, length)), RatMatrix.zeros(k, k)) for a in range(length)]

    def unmirrored(d, gram):
        return RatMatrix([[x if p <= q else 0 for q, x in enumerate(row)] for p, row in enumerate(gram.to_rows())])

    def cross_pair_dropped(d, gram):
        return gram + G[0, 1].scale(-Fraction(d[0]) * Fraction(d[1])) if length > 1 else gram

    def square_weight(d, gram):
        return sum((S.scale(Fraction(x) ** 2) for S, x in zip(row_sums, d)), RatMatrix.zeros(k, k))

    return {"unmirrored": unmirrored, "cross pair dropped": cross_pair_dropped, "square weight": square_weight}


class TestGram:
    def test_gram_has_full_rank_exactly_when_the_contraction_is_injective(self):
        # the search reads each kernel off the Gram matrix: it must be the
        # contraction's kernel, down to the canonical basis kernel_basis returns
        rng = random.Random(121)
        cases = hits = off_basis_hits = broken_misses = broken_kernels = 0
        mutant_kernels = Counter()
        for F in gram_forms():
            directions = gram_directions(F, rng)
            for side, kernel, along, k, length in contraction_sides(F):
                broken = one_sided_gram(along, k, length)
                mutants = gram_mutants(along, k, length)
                for d in directions[side]:
                    A = along(d)
                    G = A.transpose() @ A
                    ker = kernel_basis(A)
                    assert kernel(d) == ker
                    assert kernel_basis(G) == ker
                    assert (rank(G) < k) == bool(ker)
                    B = broken(d)
                    broken_misses += (rank(B) < k) != bool(ker)
                    broken_kernels += kernel_basis(B) != ker
                    for name, mutant in mutants.items():
                        mutant_kernels[name] += kernel_basis(mutant(d, G)) != ker
                    cases += 1
                    hits += bool(ker)
                    off_basis_hits += bool(ker) and sum(map(bool, d)) > 1
        # the sweep reaches directions with and without a kernel, including
        # kernels off the basis, where dropping the cross term shows, and each
        # slip in assembling the Gram matrix changes some kernel the search reads
        assert hits > 500 and off_basis_hits > 300 and cases - hits > 700
        assert broken_misses > 0 and broken_kernels > 0
        assert len(mutant_kernels) == 3 and all(mutant_kernels.values()), mutant_kernels

    def test_zero_direction_gives_zero_gram(self, F_deficient):
        # a zero Gram matrix: every column is free
        assert F_deficient.kernel_along_point([0] * 4) == [tuple(unit(i, 3)) for i in range(3)]
        assert F_deficient.kernel_along_charge([Fraction(0)] * 3) == [tuple(unit(j, 4)) for j in range(4)]

    def test_wrong_length_rejected(self, F6):
        with pytest.raises(ShapeMismatch):
            F6.kernel_along_point([1, 2, 3])
        with pytest.raises(ShapeMismatch):
            F6.kernel_along_charge([1, 2, 3])


class TestWedgeMembership:
    def test_zero_matrix(self):
        assert wedge_membership(FlatForm(2, 3, RatMatrix.zeros(8, 8)))

    def test_symmetric_square_contamination_rejected(self):
        # flatten-like build with symmetric B, C lands in the symmetric square
        c, n = 2, 1
        B = ((1, 2), (2, 1))
        C = ((1, 0), (0, 1))
        size = c * (n + 1)
        rows = [[0] * size for _ in range(size)]
        for i in range(c):
            for k in range(c):
                for j in range(n + 1):
                    for l in range(n + 1):
                        rows[i * (n + 1) + j][k * (n + 1) + l] = B[i][k] * C[j][l]
        M = RatMatrix(rows)
        assert M.is_symmetric()
        assert not wedge_membership(FlatForm(c, n, M))

    def test_flatten_output_true(self, F6, F5):
        assert wedge_membership(F6)
        assert wedge_membership(F5)

    def test_equals_the_entry_loop(self, F6, F5):
        # the fold test against the entry-by-entry loop it replaced
        members, forms = wedge_test_forms(F6, F5)
        verdicts = Counter(reference_wedge(F) for F in forms)
        assert verdicts[True] >= len(members) and verdicts[False] >= 300
        assert [wedge_membership(F) for F in forms] == [reference_wedge(F) for F in forms]


class TestStridedScans:
    # the symmetry test and the slice reader scan whole rows by C-level
    # slices and zip; each must give what its per-cell loop gave

    def test_is_symmetric_equals_the_cell_loop(self, F6, F5):
        _, forms = wedge_test_forms(F6, F5)
        mats = strided_scan_matrices(forms)
        verdicts = Counter(reference_is_symmetric(M) for M in mats)
        assert verdicts[True] >= 100 and verdicts[False] >= 100
        assert [M.is_symmetric() for M in mats] == [reference_is_symmetric(M) for M in mats]
        assert RatMatrix.zeros(0, 0).is_symmetric() and not RatMatrix.zeros(0, 3).is_symmetric()

    def test_slices_equal_the_cell_loop(self, F6, F5):
        _, forms = wedge_test_forms(F6, F5)
        folds = Counter(folded for F in forms for _, _, folded in reference_slices(F)[0])
        assert folds[True] >= 100 and folds[False] >= 100
        for F in forms:
            assert F._slices == reference_slices(F)

    @pytest.mark.parametrize(
        "old, new",
        [("A == tuple(zip(*A))", "A[::2] == tuple(zip(*A))[::2]"), ("A == tuple(zip(*A))", "A == tuple(zip(*A[1:]))")],
        ids=["every other row", "one row short"],
    )
    def test_is_symmetric_rejects_a_mutant(self, F6, F5, old, new):
        _, forms = wedge_test_forms(F6, F5)
        broken = mutant(RatMatrix.is_symmetric, old, new, linalg)
        assert any(broken(M) != reference_is_symmetric(M) for M in strided_scan_matrices(forms))

    @pytest.mark.parametrize(
        "old, new",
        [("row[l::w]", "row[l::w - 1]"), ("row in R[j::w]", "row in R[j + 1::w]"), ("row[l::w]", "row[l + 1::w]")],
        ids=["column stride", "row start", "column start"],
    )
    def test_slices_reject_a_mutant(self, F6, F5, old, new):
        _, forms = wedge_test_forms(F6, F5)
        broken = mutant(FlatForm._slices.func, old, new, forms_module)
        assert any(broken(F) != reference_slices(F) for F in forms)


class TestAct:
    def test_identity_fixes(self, F6):
        assert act(RatMatrix.identity(6), F6).M == F6.M

    def test_minus_identity_fixes(self, F6):
        assert act(-RatMatrix.identity(6), F6).M == F6.M

    def test_singular_rejected(self, F6):
        with pytest.raises(Singular):
            act(RatMatrix.zeros(6, 6), F6)

    def test_rank_invariance_diag(self, F6):
        h = RatMatrix.diagonal([2, 1, 1, 1, 1, 1])
        assert rank(act(h, F6).M) == 24

    def test_wedge_invariance(self):
        rng = random.Random(103)
        for _ in range(20):
            F = flatten(random_spec(rng))
            h = random_unimodular(F.c, rng)
            G = act(h, F)
            assert wedge_membership(G)
            assert rank(G.M) == rank(F.M)

    def test_group_action_law(self):
        rng = random.Random(104)
        for _ in range(15):
            F = flatten(random_spec(rng, cs=(3, 4), ns=(3,)))
            h1 = random_unimodular(F.c, rng)
            h2 = random_unimodular(F.c, rng)
            assert act(h2, act(h1, F)).M == act(h2 @ h1, F).M

    def test_matches_kronecker_congruence(self, F6, F5, F_deficient):
        rng = random.Random(105)
        scaled = FlatForm(F5.c, F5.n, F5.M.scale(Fraction(-2, 15)))  # denominator 15
        for F in (F6, F5, F_deficient, scaled, flatten(random_spec(rng))):
            for h in (
                random_unimodular(F.c, rng),
                RatMatrix.diagonal([Fraction(1, 2)] + [1] * (F.c - 1)),
                RatMatrix.diagonal([Fraction(t + 1, 3) for t in range(F.c)]) @ random_unimodular(F.c, rng),
                # a full matrix with mixed denominators 2, 3 and 5
                random_unimodular(F.c, rng) @ RatMatrix.diagonal([Fraction(1, 2 + t % 3) for t in range(F.c)])
                + RatMatrix.identity(F.c).scale(Fraction(1, 5)),
            ):
                assert act(h, F).M == reference_act(h, F)


def kron(B, C):
    """B (x) C with entry ((i,j),(k,l)) = B[i,k] C[j,l], written out."""
    return RatMatrix(
        [[B[i, k] * C[j, l] for k in range(B.cols) for l in range(C.cols)] for i in range(B.rows) for j in range(C.rows)]
    )


def pure_test_forms(F6):
    """Pure forms: the bundled c6p3, one-term random specs, and their images
    under rational base changes (denominators 2, 3 and 6)."""
    rng = random.Random(120)
    forms = [F6]
    for _ in range(12):
        F = flatten(random_spec(rng, cs=(2, 3, 4, 5, 6), ns=(1, 2, 3, 4), max_terms=1))
        if any(map(any, F.M.num)):
            forms.append(F)
    for F in forms[:6]:
        forms.append(act(RatMatrix.diagonal([Fraction(1, 2), Fraction(-2, 3)] + [3] * (F.c - 2)), F))
        forms.append(act(RatMatrix.diagonal([Fraction(t + 1, 6) for t in range(F.c)]) @ random_unimodular(F.c, rng), F))
    return forms


class TestPureFactors:
    def test_factors_flatten_back_to_the_form(self, F6):
        for F in pure_test_forms(F6):
            B, C = F.pure_factors
            assert (B.rows, C.rows) == (F.c, F.n + 1)
            assert kron(B, C) == F.M

    def test_factor_c_is_primitive_and_signed(self, F6):
        for F in pure_test_forms(F6):
            _, C = F.pure_factors
            den, nonzeros = C.nonzeros()
            assert den == 1 and nonzeros[0][2] > 0
            assert gcd(*(x for _, _, x in nonzeros)) == 1

    def test_c6p3_factors(self, F6, c6p3):
        ((B0, C0),) = c6p3.spec.terms
        assert F6.pure_factors == (RatMatrix(B0), RatMatrix(C0))
        # the block term's factors absorb a content and a denominator into B
        F = flatten(TensorSpec(6, 3, ((B0, tuple(tuple(-6 * x for x in r) for r in C0)),)))
        assert F.pure_factors == (RatMatrix(B0).scale(-6), RatMatrix(C0))
        F = FlatForm(6, 3, F6.M.scale(Fraction(5, 6)))
        assert F.pure_factors == (RatMatrix(B0).scale(Fraction(5, 6)), RatMatrix(C0))

    def test_rational_base_change_stays_pure(self, F6):
        rng = random.Random(121)
        dens = []
        for F in pure_test_forms(F6):
            h = RatMatrix.diagonal([Fraction(2 * t + 1, t + 2) for t in range(F.c)]) @ random_unimodular(F.c, rng)
            G = act(h, F)
            dens.append(G.M.den)
            B, C = F.pure_factors
            BG, CG = G.pure_factors
            # (h (x) Id)(B (x) C)(h^T (x) Id) = (h B h^T) (x) C, and C is fixed
            # by its normalisation
            assert CG == C and BG == h @ B @ h.transpose()
            assert kron(BG, CG) == G.M
        assert max(dens) > 1

    def test_none_off_pure_forms(self, F5, F_deficient):
        rng = random.Random(122)
        sym = FlatForm(4, 3, RatMatrix(random_symmetric(16, rng)))
        while not any(map(any, sym.M.num)):
            sym = FlatForm(4, 3, RatMatrix(random_symmetric(16, rng)))
        zero = FlatForm(3, 3, RatMatrix.zeros(12, 12))
        for F in (F5, F_deficient, generate(6, 3, "sum", seed=1)[0].flatten(), sym, zero):
            assert F.pure_factors is None

    def test_every_entry_is_compared(self, F6):
        # one changed entry anywhere, inside a nonzero block or a zero one,
        # breaks the factorisation
        rng = random.Random(123)
        for F in pure_test_forms(F6):
            rows = [list(r) for r in F.M.num]
            for _ in range(8):
                p, q = rng.randrange(F.size), rng.randrange(F.size)
                rows[p][q] += 1
                assert FlatForm(F.c, F.n, RatMatrix.from_ints(rows, F.M.den)).pure_factors is None
                rows[p][q] -= 1
