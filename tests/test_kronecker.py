import inspect
import random
import textwrap
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from orthinst import (
    DegenerateLine,
    FlatForm,
    OrthinstError,
    RatMatrix,
    ScanReport,
    SplitVerdict,
    build_alpha,
    build_beta,
    check_conditions,
    det,
    flatten,
    gamma_eval,
    kronecker_conditions,
    line_span_ok,
    pencil_verdict,
    pfaffian,
    rank,
    scan_lines,
    splitting_type,
    wedge_membership,
)
from orthinst import kronecker
from orthinst.kronecker import LineWitness
from orthinst.moduli import random_unimodular
from orthinst.forms import act
from orthinst.linalg import exact_vector
from orthinst.specfile import generate

from conftest import bilinear, random_spec


def composed_at(beta, alpha, Q, P):
    """beta(Q) . alpha(P), summed over the two maps' nonzero coefficients
    and divided by their denominators."""
    alpha_rows = {}
    for m, t, i, y in alpha.coefficients:
        alpha_rows.setdefault(t, []).append((i, y * P[m]))
    out = [[Fraction(0)] * alpha.cols for _ in range(beta.rows)]
    for l, k, t, x in beta.coefficients:
        for i, y in alpha_rows.get(t, ()):
            out[k][i] += x * Q[l] * y
    d = beta.denominator * alpha.denominator
    return RatMatrix([[v / d for v in row] for row in out], cols=alpha.cols)


def lam_values(P, Q):
    """The three block parameters of the charge-6 example's pencil."""
    a, b, c, d = P
    e, f, g, h = Q
    lam1 = 2 * b * e - 2 * a * f - 6 * d * g + 6 * c * h
    lam2 = -b * e + a * f + 3 * d * g - 3 * c * h
    lam3 = b * e - a * f - 3 * d * g + 3 * c * h
    return lam1, lam2, lam3


def term_pencil(c, terms, P, Q):
    """G[i][k] = sum_t B_t[i,k] * (Q^T C_t P) for M = sum_t B_t (x) C_t."""
    w = len(P)
    vals = [sum(Fraction(Q[j]) * C[j][l] * Fraction(P[l]) for j in range(w) for l in range(w)) for _, C in terms]
    return RatMatrix(
        [[sum((x * B[i][k] for x, (B, _) in zip(vals, terms)), Fraction(0)) for k in range(c)] for i in range(c)]
    )


def block_pencil(F, P, Q):
    """Each pencil entry as the bilinear form of its block M(i,k)."""
    return RatMatrix([[bilinear(F.block(i, k), P, Q) for k in range(F.c)] for i in range(F.c)])


def random_symmetric(size, rng, box=3):
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = rng.randint(-box, box)
    return rows


def flat_of_terms(c, n, terms):
    """The symmetric flat form sum_t B_t (x) C_t of any blocks."""
    w = n + 1
    rows = [
        [sum(B[i][k] * C[j][l] for B, C in terms) for k in range(c) for l in range(w)]
        for i in range(c)
        for j in range(w)
    ]
    return FlatForm(c, n, RatMatrix(rows))


def pencil_cases():
    """(F, terms) with F.M = sum_t B_t (x) C_t: random wedge forms, their
    images under a rational base change (common denominators 3 and 6),
    symmetric forms outside the wedge built directly from symmetric blocks,
    and partly folded forms: a wedge member plus a symmetric c x c block D
    at the slices (j, l) and (l, j), j < l, so that S_lj = -S_jl fails at
    that pair alone."""
    rng = random.Random(310)
    cases = []
    for _ in range(6):
        spec = random_spec(rng, max_terms=3)
        cases.append((flatten(spec), spec.terms))
    for _ in range(4):
        spec = random_spec(rng, cs=(3, 4), ns=(3,))
        h = RatMatrix.diagonal([Fraction(1, 2), Fraction(-2, 3)] + [1] * (spec.c - 2)) @ random_unimodular(
            spec.c, rng
        )
        terms = [((h @ RatMatrix(B) @ h.transpose()).to_rows(), C) for B, C in spec.terms]
        cases.append((act(h, flatten(spec)), terms))
    for c, n in ((3, 3), (4, 2)):
        w = n + 1
        terms = [(random_symmetric(c, rng), random_symmetric(w, rng)) for _ in range(2)]
        F = flat_of_terms(c, n, terms)
        assert F.M.is_symmetric() and not wedge_membership(F)
        cases.append((F, terms))
    for _ in range(4):
        spec = random_spec(rng, max_terms=3)
        c, w = spec.c, spec.n + 1
        j, l = sorted(rng.sample(range(w), 2))
        D = random_symmetric(c, rng)
        D[0][0] = D[0][0] or 1
        E = [[int((a, b) in ((j, l), (l, j))) for b in range(w)] for a in range(w)]
        terms = spec.terms + ((D, E),)
        F = flat_of_terms(c, spec.n, terms)
        assert F.M.is_symmetric() and not wedge_membership(F)
        cases.append((F, terms))
    return cases


def pencil_points(w, rng):
    pts = [([rng.randint(-6, 6) for _ in range(w)], [rng.randint(-6, 6) for _ in range(w)]) for _ in range(4)]
    pts.append(([Fraction(1, 2)] + [1] * (w - 1), [Fraction(t - 1, t + 2) for t in range(w)]))
    pts.append(([1] + [0] * (w - 1), [0] * (w - 1) + [1]))
    return pts


class TestPencilReferences:
    def test_pencil_matches_term_formula(self):
        rng = random.Random(311)
        for F, terms in pencil_cases():
            for P, Q in pencil_points(F.n + 1, rng):
                want = term_pencil(F.c, terms, P, Q)
                assert F.pencil(P, Q) == want
                assert gamma_eval(F, P, Q) == want

    def test_pencil_matches_block_contraction(self):
        rng = random.Random(312)
        for F, _ in pencil_cases():
            for P, Q in pencil_points(F.n + 1, rng):
                want = block_pencil(F, P, Q)
                assert F.pencil(P, Q) == want
                assert gamma_eval(F, P, Q) == want

    def test_cases_fold_some_slices_and_keep_others(self):
        # the references above see forms whose pencil mixes folded and
        # unfolded slices at once, diagonal slices among the unfolded
        kept = [F._slices[0] for F, _ in pencil_cases()]
        assert [{folded for _, _, folded in pairs} for pairs in kept].count({True, False}) >= 4
        assert any(j == l for pairs in kept for j, l, _ in pairs)

    @pytest.mark.parametrize("name", ["c6p3", "c5p3", "generated (8,5)"])
    def test_wedge_members_mix_only_folded_slices(self, name, F6, F5):
        # S_lj = -S_jl on every wedge member, so its pencil mixes at most
        # C(n+1, 2) slices, each by a Pluecker coordinate
        F = {"c6p3": F6, "c5p3": F5}.get(name) or generate(8, 5, mode="pure", seed=1)[0].flatten()
        pairs, _ = F._slices
        assert pairs and all(folded and j < l for j, l, folded in pairs)
        assert len(pairs) <= comb(F.n + 1, 2)


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
            assert g[0, 1] == lam1
            assert g[1, 0] == -lam1
            assert g[2, 3] == lam2
            assert g[4, 5] == lam3
            checked += 1

    def test_special_line_vanishes(self, F6):
        g = gamma_eval(F6, [1, 0, 0, 0], [0, 0, 0, 1])
        assert all(x == 0 for row in g.to_rows() for x in row)

    def test_c5p3_odd_skew(self, F5):
        rng = random.Random(302)
        for _ in range(20):
            P = [rng.randint(-9, 9) for _ in range(4)]
            Q = [rng.randint(-9, 9) for _ in range(4)]
            try:
                g = gamma_eval(F5, P, Q)
            except DegenerateLine:
                continue
            assert g.rows == 5
            assert g.is_skew()

    def test_exact_coordinates_only(self, F6):
        g = gamma_eval(F6, [1, "1/2", 0, 3], [Fraction(2, 3), 0, 1, 0])
        assert g == gamma_eval(F6, [2, 1, 0, 6], [2, 0, 3, 0]).scale(Fraction(1, 6))
        with pytest.raises(TypeError):
            gamma_eval(F6, [1, 0.5, 0, 3], [0, 0, 1, 0])
        with pytest.raises(TypeError):
            splitting_type(F6, [1, 0, 0, 3], [0, 0, 1.0, 0])

    @pytest.mark.parametrize("which", ["c6p3", "c5p3", "fixture", "rational"])
    def test_pencil_reads_the_points_scale(self, which, F6, F5, F_deficient):
        # reference: the pencil at the points' integer numerators, rescaled
        # by their denominators; "rational" is c6p3 acted on by a rational
        # diagonal, so the form's own denominator is not 1 either
        if which == "rational":
            F = act(RatMatrix.diagonal([Fraction(1, 2), Fraction(2, 3), 3, 1, Fraction(-1, 5), 1]), F6)
        else:
            F = {"c6p3": F6, "c5p3": F5, "fixture": F_deficient}[which]
        assert (F.M.den > 1) == (which == "rational")
        rng = random.Random(306)
        spell = {
            "int": lambda a, b: a,
            "Fraction": lambda a, b: Fraction(a, b),
            "p/q": lambda a, b: f"{a}/{b}",
        }
        checked = 0
        for kind, form in spell.items():
            for _ in range(10):
                top = 1 if kind == "int" else 4
                P, Q = ([form(rng.randint(-6, 6), rng.randint(1, top)) for _ in range(4)] for _ in range(2))
                try:
                    g = gamma_eval(F, P, Q)
                except DegenerateLine:
                    continue
                (dp, p), (dq, q) = exact_vector(P, 4), exact_vector(Q, 4)
                assert g == F.pencil(p, q).scale(Fraction(1, dp * dq))
                checked += 1
        assert checked >= 25

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
                assert composed_at(beta, alpha, Q, P) == g

    def test_sourceless_block_contraction_agrees(self, F6):
        rng = random.Random(304)
        for _ in range(10):
            P = [rng.randint(-5, 5) for _ in range(4)]
            Q = [rng.randint(-5, 5) for _ in range(4)]
            try:
                assert gamma_eval(F6, P, Q) == block_pencil(F6, P, Q)
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
                assert gamma_eval(F, P, Q).is_skew()
            except DegenerateLine:
                continue

    def test_antisymmetry_and_bilinearity(self, F6):
        P, Q, P2 = [1, 2, 3, 4], [5, 6, 7, 8], [2, 0, -1, 3]
        g_pq = gamma_eval(F6, P, Q)
        g_qp = gamma_eval(F6, Q, P)
        assert g_qp == -g_pq
        a, b = 3, -2
        combo = [a * x + b * y for x, y in zip(P, P2)]
        lhs = gamma_eval(F6, combo, Q)
        rhs = gamma_eval(F6, P, Q).scale(a) + gamma_eval(F6, P2, Q).scale(b)
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

    @pytest.mark.parametrize("which", ["integer", "rational"])
    def test_right_numerator_over_a_wrong_denominator_raises(self, F6, monkeypatch, which):
        # the guard compares numerators and denominators; a pfaffian whose
        # numerator squares to det's must still fail on its denominator
        F = F6
        if which == "rational":
            F = act(RatMatrix.diagonal([Fraction(1, 2), Fraction(2, 3), 3, 1, Fraction(-1, 5), 1]), F6)
        P, Q = [1, 2, 3, 4], [5, 6, 7, 8]
        pf = pfaffian(gamma_eval(F, P, Q))
        assert pf != 0 and (pf.denominator > 1) == (which == "rational")
        k = next(k for k in (2, 3, 5, 7, 11, 13) if pf.numerator % k)
        wrong = Fraction(pf.numerator, pf.denominator * k)
        assert wrong.numerator == pf.numerator and wrong.denominator != pf.denominator
        monkeypatch.setattr(kronecker, "pfaffian", lambda M: wrong)
        with pytest.raises(OrthinstError, match=f"pfaffian {wrong} does not square to the determinant"):
            splitting_type(F, P, Q)

    def test_negated_pfaffian_passes(self, F6, monkeypatch):
        # Pf^2 = det cannot see the sign of Pf
        P, Q = [1, 2, 3, 4], [5, 6, 7, 8]
        before = splitting_type(F6, P, Q)
        assert before.pfaffian != 0
        monkeypatch.setattr(kronecker, "pfaffian", lambda M: -pfaffian(M))
        after = splitting_type(F6, P, Q)
        assert after == SplitVerdict(before.verdict, before.determinant, -before.pfaffian)

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
            gF = gamma_eval(F6, P, Q)
            gG = gamma_eval(G, P, Q)
            assert gG == h @ gF @ h.transpose()
            assert splitting_type(G, P, Q).verdict == splitting_type(F6, P, Q).verdict


def bareiss_verdict(G):
    """The verdict by elimination alone: det, and the Pfaffian of an even
    skew pencil."""
    d = det(G)
    pf = pfaffian(G) if G.rows % 2 == 0 and G.is_skew() else None
    return SplitVerdict("Trivial" if d else "Jumping", d, pf)


def verdict_pencils(F6, F5, F_deficient):
    """(kind, pencil) on lines of the bundled forms, the fixture, the (8, 5)
    spec and the ``pencil_cases``: the odd ones are skew for every wedge
    member, and not skew for a form outside the wedge on most lines."""
    rng = random.Random(320)
    forms = [F6, F5, F_deficient, generate(8, 5, mode="pure", seed=1)[0].flatten()]
    forms += [F for F, _ in pencil_cases()]
    out = []
    for F in forms:
        for P, Q in pencil_points(F.n + 1, rng):
            try:
                G = gamma_eval(F, P, Q)
            except DegenerateLine:
                continue
            out.append(("even" if F.c % 2 == 0 else "odd skew" if G.is_skew() else "odd non-skew", G))
    return out


class TestOddSkewVerdict:
    def test_det_runs_except_on_odd_skew_pencils(self, F6, F5, F_deficient, monkeypatch):
        # det G = det(-G^T) = -det G for odd order, so an odd skew pencil is
        # Jumping with no elimination; every other pencil runs det once
        calls = []
        monkeypatch.setattr(kronecker, "det", lambda M: calls.append(M.rows) or det(M))
        seen = {}
        for kind, G in verdict_pencils(F6, F5, F_deficient):
            calls.clear()
            assert pencil_verdict(G) == bareiss_verdict(G)
            assert len(calls) == (0 if kind == "odd skew" else 1)
            seen[kind] = seen.get(kind, 0) + 1
        assert seen.keys() == {"even", "odd skew", "odd non-skew"} and min(seen.values()) >= 5

    def test_rejects_a_mutant_that_skips_det_for_every_odd_pencil(self, F6, F5, F_deficient, monkeypatch):
        source = textwrap.dedent(inspect.getsource(pencil_verdict))
        old = "if odd and G.is_skew():"
        assert source.count(old) == 1
        scope = dict(vars(kronecker))
        exec(source.replace(old, "if odd:"), scope)
        monkeypatch.setattr(kronecker, "pencil_verdict", scope["pencil_verdict"])
        pencils = verdict_pencils(F6, F5, F_deficient)
        assert any(kronecker.pencil_verdict(G) != bareiss_verdict(G) for _, G in pencils)


def spans_by_minors(P, Q):
    """P and Q span a line iff some 2x2 minor of the pair is nonzero."""
    p, q = [Fraction(x) for x in P], [Fraction(x) for x in Q]
    return any(p[j] * q[l] != p[l] * q[j] for j in range(len(p)) for l in range(j + 1, len(p)))


def span_cases(F6, F5, F_deficient):
    """(form, P, Q) on c6p3, c5p3, the fixture, the (8, 5) spec and both
    bundled forms acted on by a rational h.  Per form: integer pairs from
    the box [-1, 1], where proportional pairs and zero points are common;
    pairs made proportional on purpose, by the factor 1, 0, an integer,
    a Fraction or a "p/q" string; and spanning Fraction and "p/q" points."""
    rng = random.Random(330)
    forms = [F6, F5, F_deficient, generate(8, 5, mode="pure", seed=1)[0].flatten()]
    for F in (F6, F5):
        h = RatMatrix.diagonal([Fraction(1, 2), Fraction(-3, 5)] + [1] * (F.c - 2)) @ random_unimodular(F.c, rng)
        forms.append(act(h, F))
    cases = []
    for F in forms:
        w = F.n + 1
        for _ in range(12):
            cases.append((F, [rng.randint(-1, 1) for _ in range(w)], [rng.randint(-1, 1) for _ in range(w)]))
        for spell in (lambda x: x, lambda x: 0, lambda x: 3 * x, lambda x: Fraction(-2, 7) * x, lambda x: f"{5 * x}/3"):
            P = [rng.randint(-4, 4) for _ in range(w)]
            cases.append((F, P, [spell(x) for x in P]))
        for spell in (Fraction, str):
            for _ in range(3):
                P, Q = ([spell(Fraction(rng.randint(-6, 6), rng.randint(1, 5))) for _ in range(w)] for _ in range(2))
                cases.append((F, P, Q))
    return cases


class TestSpanRule:
    def test_one_span_rule_and_one_verdict(self, F6, F5, F_deficient):
        # gamma_eval refuses a pair exactly when line_span_ok does, and every
        # route to a line's verdict ends in pencil_verdict of the same pencil
        seen, verdicts = {True: 0, False: 0}, set()
        for F, P, Q in span_cases(F6, F5, F_deficient):
            span = line_span_ok(P, Q)
            assert span == spans_by_minors(P, Q)
            seen[span] += 1
            if not span:
                with pytest.raises(DegenerateLine, match="proportional"):
                    gamma_eval(F, P, Q)
                with pytest.raises(DegenerateLine, match="proportional"):
                    splitting_type(F, P, Q)
                continue
            G = gamma_eval(F, P, Q)
            assert G == F.pencil(P, Q)
            v = pencil_verdict(G)
            assert v == splitting_type(F, P, Q) == bareiss_verdict(F.pencil(P, Q))
            verdicts.add(v.verdict)
        assert min(seen.values()) >= 30 and verdicts == {"Trivial", "Jumping"}


@pytest.fixture(scope="module")
def F85():
    return generate(8, 5, "pure", seed=1)[0].flatten()


@pytest.fixture(scope="module")
def F44():
    # an even fallback sum of three terms: not pure
    return generate(4, 4, "pure", seed=1)[0].flatten()


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

    @pytest.mark.parametrize("box", [1, 10, 1000])
    @pytest.mark.parametrize("which", ["c6p3", "c5p3", "fixture", "gen85", "gen44"])
    def test_tallies_and_witnesses_match_the_randint_stream(self, which, box, F6, F5, F_deficient, F85, F44):
        # the scan against a loop that draws each line by randint from
        # f"{seed}:line:{s}", tells a line by an exact rank of the pair and
        # decides it by det of the pencil; c6p3 and the (8, 5) spec are pure,
        # the (4, 4) fallback sum is the even form that is not
        F, seed = {
            "c6p3": (F6, 11), "c5p3": (F5, 12), "fixture": (F_deficient, 13), "gen85": (F85, 14), "gen44": (F44, 15)
        }[which]
        samples, w = 300, F.n + 1
        trivial = jumping = degenerate = 0
        witnesses = []
        for s in range(samples):
            rng = random.Random(f"{seed}:line:{s}")
            P = [rng.randint(-box, box) for _ in range(w)]
            Q = [rng.randint(-box, box) for _ in range(w)]
            if rank(RatMatrix([P, Q])) < 2:
                degenerate += 1
                continue
            d = det(F.pencil(P, Q))
            if d:
                trivial += 1
            else:
                jumping += 1
                if len(witnesses) < 10:
                    witnesses.append(LineWitness(tuple(P), tuple(Q), d))
        rep = scan_lines(F, samples, seed=seed, box=box)
        assert (rep.trivial, rep.jumping, rep.degenerate) == (trivial, jumping, degenerate)
        assert rep.witnesses == tuple(witnesses)

    def test_each_line_tests_skewness_once(self, F6, F44, monkeypatch):
        # the pfaffian's own skewness test is the only one per eliminated
        # pencil: a pure form's scan eliminates B once and no line (none of
        # these 250 has Q^T C P = 0), a form that is not pure every line
        calls = []
        is_skew = RatMatrix.is_skew
        monkeypatch.setattr(RatMatrix, "is_skew", lambda M: calls.append(M.rows) or is_skew(M))
        rep = scan_lines(F6, 250, seed=3)
        assert rep.degenerate == 0 and rep.jumping == 0
        assert calls == [6]
        calls.clear()
        assert F44.pure_factors is None
        rep = scan_lines(F44, 250, seed=3)
        assert rep.trivial + rep.jumping > 200
        assert calls == [4] * (rep.trivial + rep.jumping)

    def test_non_skew_pencil_has_no_pfaffian(self):
        # a symmetric M outside the wedge: its even pencil is not skew
        rng = random.Random(41)
        F = FlatForm(4, 3, RatMatrix(random_symmetric(16, rng)))
        g = gamma_eval(F, [1, 2, 0, -1], [0, 1, 3, 1])
        assert not g.is_skew()
        v = pencil_verdict(g)
        assert v.pfaffian is None and v.determinant == det(g)

    def test_c5p3_no_trivial(self, F5):
        rep = scan_lines(F5, 300, seed=1, box=10)
        assert rep.trivial == 0
        assert rep.jumping + rep.degenerate == 300

    def test_forced_jumping_line_counts(self, F6):
        v = splitting_type(F6, [1, 0, 0, 0], [0, 0, 0, 1])
        assert v.verdict == "Jumping"


def pure_route_forms():
    """Pure forms for the base route: 44 one-term random specs (c from 2
    to 6, n from 1 to 4), eight of them under a rational diagonal base
    change (denominator 10), and four symmetric B (x) C outside the wedge,
    whose pencils have no Pfaffian."""
    rng = random.Random(330)
    forms = [flatten(random_spec(rng, cs=(2, 3, 4, 5, 6), ns=(1, 2, 3, 4), max_terms=1)) for _ in range(44)]
    for F in forms[:8]:
        forms.append(act(RatMatrix.diagonal([Fraction(1, 2), Fraction(-3, 5)] + [2] * (F.c - 2)), F))
    for c, n in ((2, 1), (3, 2), (4, 3), (6, 2)):
        B = random_symmetric(c, rng)
        B[0][0] = B[0][0] or 1
        forms.append(flat_of_terms(c, n, [(B, random_symmetric(n + 1, rng))]))
    return forms


def scan_routes(F, samples, seed, box):
    """(P, Q, G, route, verdict) for each spanning line of a scan: its
    points, its pencil, the route the scan took for it and that route's
    verdict, recorded by wrapping the scan's two calls.  A line whose
    ``gamma_eval`` is followed by ``pencil_verdict`` of its pencil has the
    route "pencil_verdict"; a line that calls only ``gamma_eval`` has the
    route "base" and the verdict of the scan's first call,
    ``pencil_verdict(B)`` of the pure factors."""
    events = []

    def recording(name):
        real = getattr(kronecker, name)

        def wrapper(*args):
            out = real(*args)
            events.append((name, args, out))
            return out

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("gamma_eval", "pencil_verdict"):
            mp.setattr(kronecker, name, recording(name))
        rep = scan_lines(F, samples, seed=seed, box=box)
    base = None
    if F.pure_factors is not None:
        name, args, base = events.pop(0)
        assert name == "pencil_verdict" and args == (F.pure_factors[0],)
    lines = []
    for (name, args, G), after in zip(events, events[1:] + [None]):
        if name != "gamma_eval":
            continue
        if after is not None and after[0] == "pencil_verdict":
            assert after[1] == (G,)
            lines.append((*args[1:], G, "pencil_verdict", after[2]))
        else:
            lines.append((*args[1:], G, "base", base))
    assert base is not None or all(route == "pencil_verdict" for *_, route, _ in lines)
    assert len(lines) == rep.trivial + rep.jumping
    return lines


def eliminated_scan(F, samples, seed, box):
    """The scan's report with every spanning line decided by
    ``pencil_verdict(gamma_eval(F, P, Q))``, each line drawn by randint
    from the stream f"{seed}:line:{s}"."""
    w = F.n + 1
    trivial = jumping = degenerate = 0
    witnesses = []
    for s in range(samples):
        rng = random.Random(f"{seed}:line:{s}")
        P = [rng.randint(-box, box) for _ in range(w)]
        Q = [rng.randint(-box, box) for _ in range(w)]
        try:
            v = pencil_verdict(gamma_eval(F, P, Q))
        except DegenerateLine:
            degenerate += 1
            continue
        if v.trivial:
            trivial += 1
        else:
            jumping += 1
            if len(witnesses) < 10:
                witnesses.append(LineWitness(tuple(P), tuple(Q), v.determinant))
    return ScanReport(samples, trivial, jumping, degenerate, tuple(witnesses), Fraction(trivial, samples), seed, box)


class TestPureRoute:
    @pytest.mark.parametrize("box", [1, 3, 10, 1000])
    @pytest.mark.parametrize("which", ["pure_route_forms", "c6p3", "c5p3", "gen85", "gen44"])
    def test_reports_match_a_scan_that_eliminates_every_line(self, which, box, F6, F5, F85, F44):
        # the whole report, tallies and witnesses with their determinants,
        # against a scan that eliminates every spanning line's pencil
        if which == "pure_route_forms":
            cases = [(F, 40, s) for s, F in enumerate(pure_route_forms())]
        else:
            cases = [({"c6p3": F6, "c5p3": F5, "gen85": F85, "gen44": F44}[which], 150, 21)]
        for F, samples, seed in cases:
            assert scan_lines(F, samples, seed=seed, box=box) == eliminated_scan(F, samples, seed, box)

    @pytest.mark.parametrize("box", [1, 3, 10, 1000])
    def test_scaled_verdicts_match_the_eliminated_pencil(self, box):
        # a pure form's line, whose pencil is t B, takes B's verdict unless
        # its pencil is 0 (t = 0), and that verdict is trivial iff the
        # eliminated pencil is
        routes = Counter()
        forms = pure_route_forms()
        for s, F in enumerate(forms):
            # a one-term spec is pure unless a factor drawn is 0
            pure = F.pure_factors is not None
            assert pure or not any(map(any, F.M.num))
            for _, _, G, route, verdict in scan_routes(F, 40, seed=s, box=box):
                assert verdict.trivial == pencil_verdict(G).trivial
                zero = not any(map(any, G.to_rows()))
                assert (route == "pencil_verdict") == (zero or not pure)
                if pure:
                    routes[route, zero, verdict.pfaffian is None] += 1
        assert sum(F.pure_factors is not None for F in forms) >= 52
        # base lines with and without a Pfaffian, and lines with t = 0
        assert routes["base", False, False] > 500 and routes["base", False, True] > 500
        if box <= 3:
            assert routes["pencil_verdict", True, False] + routes["pencil_verdict", True, True] > 30

    @pytest.mark.parametrize("box", [1, 10])
    def test_a_pure_line_jumps_on_the_line_complex(self, box, F6, F85):
        # G = (Q^T C P) B exactly, so a line jumps iff Q^T C P = 0 or B is
        # singular
        for s, F in enumerate([F6, F85] + pure_route_forms()[::4]):
            if F.pure_factors is None:
                continue
            B, C = F.pure_factors
            for P, Q, G, _, verdict in scan_routes(F, 40, seed=s, box=box):
                t = bilinear(C, P, Q)
                assert G == B.scale(t)
                assert verdict.trivial == (t != 0 and det(B) != 0)

    def test_rejects_a_scan_that_scales_a_zero_pencil(self, F6):
        # the mutant gives a line with t = 0, whose pencil is 0 B, B's verdict
        source = textwrap.dedent(inspect.getsource(scan_lines))
        old = "if pure is not None and G[i0, k0] else pencil_verdict(G)"
        assert source.count(old) == 1
        scope = dict(vars(kronecker))
        exec(source.replace(old, "if pure is not None else pencil_verdict(G)"), scope)
        mutant = scope["scan_lines"](F6, 200, seed=0, box=1)
        assert mutant != scan_lines(F6, 200, seed=0, box=1) == eliminated_scan(F6, 200, 0, 1)


class TestGammaCoefficients:
    # the pencil entry (i,k) is the bilinear form whose coefficient matrix
    # is the block M(i,k): TestPencilReferences checks the values

    def test_c6p3_entry_01(self, F6, c6p3):
        B, C = c6p3.spec.terms[0]
        assert F6.block(0, 1) == RatMatrix(C).scale(B[0][1])

    def test_c5p3_entry_2_4_carries_the_third_block_pattern(self, F5, c5p3):
        # slot (2,4) is fed only by the third block pair, so its bilinear
        # form must be that pair's pattern and not the second pair's
        B3, C3 = c5p3.spec.terms[2]
        assert B3[2][4] == 1
        assert F5.block(2, 4) == RatMatrix(C3)
        assert F5.block(2, 4) != RatMatrix(c5p3.spec.terms[1][1])


class TestKroneckerConditions:
    # the pencil-module report is the form-condition report: K1 = K2 = A2,
    # and the linearized map's rank is A1's rank(M)

    def test_c6p3(self, F6):
        rep = kronecker_conditions(F6, 12)
        assert rep == check_conditions(F6, 12, budget=200, seed=0)
        assert rep.a2.kind == "CertifiedFullRank"
        assert rep.rank_a == 24
        assert rep.a1_expected == 24 and rep.a1_ok
        assert rep.passed

    def test_c5p3(self, F5):
        rep = kronecker_conditions(F5, 10)
        assert rep.a2.is_pass()
        assert rep.rank_a == 20 == rep.a1_expected
        assert rep.passed

    def test_zero_form_fails_with_witness(self):
        F = FlatForm(3, 3, RatMatrix.zeros(12, 12))
        rep = kronecker_conditions(F, 2, budget=10)
        assert rep.a2.kind == "CounterexampleFound"
        assert rep.a2.witness_v is not None and rep.a2.witness_h is not None
        assert not rep.a1_ok and not rep.passed
