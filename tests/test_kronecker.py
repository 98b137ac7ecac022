import random
from fractions import Fraction

import pytest

from orthinst import (
    DegenerateLine,
    FlatForm,
    OrthinstError,
    RatMatrix,
    build_alpha,
    build_beta,
    evaluate_bilinear,
    flatten,
    gamma_coefficients,
    gamma_eval,
    kronecker_conditions,
    scan_lines,
    splitting_type,
)
from orthinst import kronecker
from orthinst.moduli import random_unimodular
from orthinst.forms import act

from conftest import random_spec


def lam_values(P, Q):
    """The three block parameters of the charge-6 example's pencil."""
    a, b, c, d = P
    e, f, g, h = Q
    lam1 = 2 * b * e - 2 * a * f - 6 * d * g + 6 * c * h
    lam2 = -b * e + a * f + 3 * d * g - 3 * c * h
    lam3 = b * e - a * f - 3 * d * g + 3 * c * h
    return lam1, lam2, lam3


class TestGammaEval:
    def test_lambda_formula_at_random_points(self, F6):
        rng = random.Random(301)
        checked = 0
        while checked < 200:
            P = [rng.randint(-9, 9) for _ in range(4)]
            Q = [rng.randint(-9, 9) for _ in range(4)]
            try:
                g = gamma_eval(F6, P, Q)
            except DegenerateLine:
                continue
            lam1, lam2, lam3 = lam_values(P, Q)
            assert g.M[0, 1] == lam1
            assert g.M[1, 0] == -lam1
            assert g.M[2, 3] == lam2
            assert g.M[4, 5] == lam3
            checked += 1

    def test_special_line_vanishes(self, F6):
        g = gamma_eval(F6, [1, 0, 0, 0], [0, 0, 0, 1])
        assert all(x == 0 for row in g.M.to_rows() for x in row)

    def test_c5p3_odd_skew(self, F5):
        rng = random.Random(302)
        for _ in range(20):
            P = [rng.randint(-9, 9) for _ in range(4)]
            Q = [rng.randint(-9, 9) for _ in range(4)]
            try:
                g = gamma_eval(F5, P, Q)
            except DegenerateLine:
                continue
            assert g.M.rows == 5
            assert g.M.is_skew()

    def test_degenerate_line_rejected(self, F6):
        with pytest.raises(DegenerateLine):
            gamma_eval(F6, [1, 2, 3, 4], [2, 4, 6, 8])
        with pytest.raises(DegenerateLine):
            gamma_eval(F6, [0, 0, 0, 0], [1, 0, 0, 0])

    def test_matches_monad_composition(self, F6, F5):
        # beta(Q) . alpha(P) must reproduce the pencil value
        for F, c, r in ((F6, 6, 12), (F5, 5, 10)):
            alpha = build_alpha(c, 3)
            beta = build_beta(F, r)
            rng = random.Random(303)
            for _ in range(10):
                P = [rng.randint(-5, 5) for _ in range(4)]
                Q = [rng.randint(-5, 5) for _ in range(4)]
                try:
                    g = gamma_eval(F, P, Q)
                except DegenerateLine:
                    continue
                assert beta.evaluate(Q) @ alpha.evaluate(P) == g.M

    def test_sourceless_block_contraction_agrees(self, F6):
        bare = FlatForm(F6.c, F6.n, F6.M)  # drop the block terms
        rng = random.Random(304)
        for _ in range(10):
            P = [rng.randint(-5, 5) for _ in range(4)]
            Q = [rng.randint(-5, 5) for _ in range(4)]
            try:
                assert gamma_eval(bare, P, Q).M == gamma_eval(F6, P, Q).M
            except DegenerateLine:
                continue

    def test_skew_for_every_wedge_member(self):
        rng = random.Random(305)
        for _ in range(25):
            F = flatten(random_spec(rng))
            w = F.n + 1
            P = [rng.randint(-6, 6) for _ in range(w)]
            Q = [rng.randint(-6, 6) for _ in range(w)]
            try:
                assert gamma_eval(F, P, Q).M.is_skew()
            except DegenerateLine:
                continue

    def test_antisymmetry_and_bilinearity(self, F6):
        P, Q, P2 = [1, 2, 3, 4], [5, 6, 7, 8], [2, 0, -1, 3]
        g_pq = gamma_eval(F6, P, Q).M
        g_qp = gamma_eval(F6, Q, P).M
        assert g_qp == -g_pq
        a, b = 3, -2
        combo = [a * x + b * y for x, y in zip(P, P2)]
        lhs = gamma_eval(F6, combo, Q).M
        rhs = gamma_eval(F6, P, Q).M.scale(a) + gamma_eval(F6, P2, Q).M.scale(b)
        assert lhs == rhs


class TestSplitting:
    def test_generic_line_trivial(self, F6):
        v = splitting_type(F6, [1, 2, 3, 4], [5, 6, 7, 8])
        lam1, lam2, lam3 = lam_values([1, 2, 3, 4], [5, 6, 7, 8])
        assert lam1 == -16
        assert v.verdict == "Trivial"
        assert v.determinant == Fraction(lam1 * lam2 * lam3) ** 2
        assert v.pfaffian is not None and v.pfaffian ** 2 == v.determinant

    def test_special_line_jumping(self, F6):
        v = splitting_type(F6, [1, 0, 0, 0], [0, 0, 0, 1])
        assert v.verdict == "Jumping"
        assert v.determinant == 0

    def test_c5p3_every_line_jumps(self, F5):
        rng = random.Random(306)
        for _ in range(30):
            P = [rng.randint(-9, 9) for _ in range(4)]
            Q = [rng.randint(-9, 9) for _ in range(4)]
            try:
                v = splitting_type(F5, P, Q)
            except DegenerateLine:
                continue
            assert v.verdict == "Jumping"
            assert v.pfaffian is None  # odd charge

    def test_pfaffian_mismatch_raises(self, F6, monkeypatch):
        monkeypatch.setattr(kronecker, "pfaffian", lambda M: Fraction(7))
        with pytest.raises(OrthinstError, match="pfaffian"):
            splitting_type(F6, [1, 2, 3, 4], [5, 6, 7, 8])

    def test_verdict_invariant_under_reparametrization(self, F6, F5):
        rng = random.Random(307)
        for F in (F6, F5):
            for _ in range(20):
                P = [rng.randint(-6, 6) for _ in range(4)]
                Q = [rng.randint(-6, 6) for _ in range(4)]
                u, v_, w, z = rng.choice([(1, 2, 0, 1), (2, 1, 1, 1), (0, 1, -1, 0), (3, -1, 1, 2)])
                P2 = [u * x + v_ * y for x, y in zip(P, Q)]
                Q2 = [w * x + z * y for x, y in zip(P, Q)]
                try:
                    before = splitting_type(F, P, Q)
                    after = splitting_type(F, P2, Q2)
                except DegenerateLine:
                    continue
                assert before.verdict == after.verdict
                scale = Fraction(u * z - v_ * w) ** F.c
                assert after.determinant == before.determinant * scale

    def test_verdict_equivariant_under_action(self, F6):
        rng = random.Random(308)
        h = random_unimodular(6, rng)
        G = act(h, F6)
        for P, Q in ([1, 2, 3, 4], [5, 6, 7, 8]), ([1, 0, 0, 0], [0, 0, 0, 1]):
            gF = gamma_eval(F6, P, Q).M
            gG = gamma_eval(G, P, Q).M
            assert gG == h @ gF @ h.transpose()
            assert splitting_type(G, P, Q).verdict == splitting_type(F6, P, Q).verdict


class TestScanLines:
    def test_deterministic(self, F6):
        a = scan_lines(F6, 100, seed=5, box=10)
        b = scan_lines(F6, 100, seed=5, box=10)
        assert a == b

    def test_c6p3_box10_counts_and_witnesses(self, F6):
        rep = scan_lines(F6, 1000, seed=0, box=10)
        assert rep.samples == 1000
        assert rep.trivial == 997 and rep.jumping == 3 and rep.degenerate == 0
        assert rep.fraction_trivial == Fraction(997, 1000)
        # each witness lies exactly on the jumping locus: all three block
        # parameters vanish
        assert len(rep.witnesses) == 3
        for w in rep.witnesses:
            assert lam_values(w.P, w.Q) == (0, 0, 0)
            assert w.determinant == 0

    def test_degenerate_pairs_match_the_rng_stream(self, F6):
        # box 1 makes proportional pairs common; recount them, by their 2x2
        # minors, from the same per-sample streams
        rep = scan_lines(F6, 200, seed=3, box=1)
        want = 0
        for s in range(200):
            rng = random.Random(f"3:line:{s}")
            P = [rng.randint(-1, 1) for _ in range(4)]
            Q = [rng.randint(-1, 1) for _ in range(4)]
            want += all(P[j] * Q[l] == P[l] * Q[j] for j in range(4) for l in range(4))
        assert rep.degenerate == want
        assert rep.trivial + rep.jumping + rep.degenerate == 200

    def test_c5p3_no_trivial(self, F5):
        rep = scan_lines(F5, 300, seed=1, box=10)
        assert rep.trivial == 0
        assert rep.jumping + rep.degenerate == 300

    def test_forced_jumping_line_counts(self, F6):
        v = splitting_type(F6, [1, 0, 0, 0], [0, 0, 0, 1])
        assert v.verdict == "Jumping"


class TestGammaCoefficients:
    def test_c6p3_entry_01(self, F6, c6p3):
        G = gamma_coefficients(F6)
        B, C = c6p3.spec.terms[0]
        assert G[0][1] == RatMatrix(C).scale(B[0][1])

    def test_interpolation_reproduces_evaluation(self, F5):
        G = gamma_coefficients(F5)
        rng = random.Random(309)
        for _ in range(10):
            P = [rng.randint(-5, 5) for _ in range(4)]
            Q = [rng.randint(-5, 5) for _ in range(4)]
            try:
                g = gamma_eval(F5, P, Q)
            except DegenerateLine:
                continue
            for i in range(5):
                for k in range(5):
                    assert evaluate_bilinear(G[i][k], P, Q) == g.M[i, k]

    def test_c5p3_entry_2_4_carries_the_third_block_pattern(self, F5, c5p3):
        # slot (2,4) is fed only by the third block pair, so its bilinear
        # form must be that pair's pattern and not the second pair's
        G = gamma_coefficients(F5)
        B3, C3 = c5p3.spec.terms[2]
        assert B3[2][4] == 1
        assert G[2][4] == RatMatrix(C3)
        assert G[2][4] != RatMatrix(c5p3.spec.terms[1][1])


class TestKroneckerConditions:
    def test_c6p3(self, F6):
        rep = kronecker_conditions(F6, 12)
        assert rep.k1.kind == "CertifiedFullRank"
        assert rep.k2.kind == "CertifiedFullRank"
        assert rep.rank_gamma_hat == 24
        assert rep.expected_rank == 24 and rep.matches_expected
        assert rep.printed_alt_rank == 18 and not rep.matches_printed_alt
        assert rep.passed

    def test_c5p3(self, F5):
        rep = kronecker_conditions(F5, 10)
        assert rep.k1.is_pass() and rep.k2.is_pass()
        assert rep.rank_gamma_hat == 20 == rep.expected_rank
        assert rep.passed

    def test_zero_form_fails_with_witness(self):
        F = FlatForm(3, 3, RatMatrix.zeros(12, 12))
        rep = kronecker_conditions(F, 2, budget=10)
        assert rep.k1.kind == "CounterexampleFound"
        assert rep.k1.witness_v is not None and rep.k1.witness_h is not None
        assert not rep.passed
