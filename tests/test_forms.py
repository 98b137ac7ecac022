import random
from fractions import Fraction

import pytest

from orthinst import (
    FlatForm,
    NotSkew,
    RatMatrix,
    ShapeMismatch,
    Singular,
    TensorSpec,
    act,
    flatten,
    is_wedge_matrix,
    rank,
    wedge_membership,
)
from orthinst.moduli import random_unimodular

from conftest import random_skew, random_spec


def tensor_vec(h, v):
    return [Fraction(a) * Fraction(b) for a in h for b in v]


def unit(j, length):
    return [1 if t == j else 0 for t in range(length)]


def reference_along_point(F, v):
    """h -> M(h (x) v) built column by column from M times e_i (x) v."""
    cols = [F.M.mul_vector(tensor_vec(unit(i, F.c), v)) for i in range(F.c)]
    return RatMatrix([[col[s] for col in cols] for s in range(F.size)], cols=F.c)


def reference_along_charge(F, h):
    """v -> M(h (x) v) built column by column from M times h (x) e_j."""
    w = F.n + 1
    cols = [F.M.mul_vector(tensor_vec(h, unit(j, w))) for j in range(w)]
    return RatMatrix([[col[s] for col in cols] for s in range(F.size)], cols=w)


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
    forms.append(FlatForm(F_deficient.c, F_deficient.n, F_deficient.M))  # no source
    return forms


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
    def test_along_point_matches_tensor_products(self, F_deficient):
        rng = random.Random(111)
        for F in contraction_forms(F_deficient):
            w = F.n + 1
            vs = [unit(j, w) for j in range(w)] + [[rng.randint(-4, 4) for _ in range(w)] for _ in range(3)]
            vs.append([Fraction(1, 2)] + [0] * (w - 1))
            for v in vs:
                assert F.along_point(v) == reference_along_point(F, v)

    def test_along_charge_matches_tensor_products(self, F_deficient):
        rng = random.Random(112)
        for F in contraction_forms(F_deficient):
            hs = [unit(i, F.c) for i in range(F.c)] + [[rng.randint(-4, 4) for _ in range(F.c)] for _ in range(3)]
            hs.append([Fraction(1, 2), 1] + [0] * (F.c - 2))
            for h in hs:
                assert F.along_charge(h) == reference_along_charge(F, h)

    def test_zero_vector_gives_zero_slice(self, F6):
        assert F6.along_point([0] * 4) == RatMatrix.zeros(24, 6)
        assert F6.along_charge([0] * 6) == RatMatrix.zeros(24, 4)

    def test_wrong_length_rejected(self, F6):
        with pytest.raises(ShapeMismatch):
            F6.along_point([1, 2, 3])
        with pytest.raises(ShapeMismatch):
            F6.along_charge([1, 2, 3])


class TestWedgeMembership:
    def test_zero_matrix(self):
        assert is_wedge_matrix(RatMatrix.zeros(8, 8), 2, 3)

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
        assert not is_wedge_matrix(M, c, n)

    def test_flatten_output_true(self, F6, F5):
        assert wedge_membership(F6)
        assert wedge_membership(F5)


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
        bare = FlatForm(F5.c, F5.n, F5.M)  # no source
        for F in (F6, F5, F_deficient, bare, flatten(random_spec(rng))):
            for h in (
                random_unimodular(F.c, rng),
                RatMatrix.diagonal([Fraction(1, 2)] + [1] * (F.c - 1)),
                RatMatrix.diagonal([Fraction(t + 1, 3) for t in range(F.c)]) @ random_unimodular(F.c, rng),
            ):
                assert act(h, F).M == reference_act(h, F)

    def test_source_transforms_with_pure_term(self, F6):
        h = RatMatrix.diagonal([2, 1, 1, 1, 1, 1])
        G = act(h, F6)
        assert G.source is not None
        assert flatten(G.source).M == G.M
