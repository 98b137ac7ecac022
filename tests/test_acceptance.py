"""Acceptance suite: one test per criterion, exact tolerances, pinned seeds.

Each test prints a PASS line tagged with its criterion number so the suite
doubles as a checklist (`pytest -s tests/test_acceptance.py`).
"""

import random
import time
import pytest

from orthinst import (
    GenerationExhausted,
    RatMatrix,
    TensorSpec,
    act,
    build_alpha,
    build_beta,
    check_conditions,
    det,
    flatten,
    gamma_eval,
    h_table,
    moduli_dim,
    pfaffian,
    rank,
    scan_lines,
    splitting_type,
    verify_instanton,
    verify_monad_identity,
    wedge_membership,
)
from orthinst import monad
from orthinst.errors import DegenerateLine
from orthinst.jsonio import linform_matrix_json
from orthinst.moduli import random_unimodular
from orthinst.specfile import generate

from conftest import bilinear, random_skew, random_spec
from display import BETA_T_C6P3, transposed


def _report(tag, detail=""):
    print(f"ACCEPTANCE {tag}: PASS {detail}".rstrip())


def test_criterion_1_charge6_end_to_end(c6p3, F6):
    t0 = time.perf_counter()
    assert rank(F6.M) == 24

    rep = check_conditions(F6, 12)
    assert rep.a1_ok and rep.a1_expected == 24
    assert rep.a2.kind == "CertifiedFullRank"
    assert rep.a3_ok and rep.precheck == "Ok" and rep.passed

    bt = linform_matrix_json(transposed(build_beta(F6, 12)))
    for i in range(24):
        for k in range(6):
            assert bt[i][k] == BETA_T_C6P3[i][k], f"beta^t entry ({i},{k})"

    # symbolic pencil entry (0,1): coefficients of 2be - 2af - 6dg + 6ch,
    # i.e. 2 on Q0P1, -2 on Q1P0, -6 on Q2P3, 6 on Q3P2
    assert F6.block(0, 1) == RatMatrix([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, -6], [0, 0, 6, 0]])

    special = gamma_eval(F6, [1, 0, 0, 0], [0, 0, 0, 1])
    assert all(x == 0 for row in special.to_rows() for x in row)
    assert splitting_type(F6, [1, 0, 0, 0], [0, 0, 0, 1]).verdict == "Jumping"

    scan = scan_lines(F6, 1000, seed=0, box=1000)
    assert scan.trivial >= 999
    lam_entries = (F6.block(0, 1), F6.block(2, 3), F6.block(4, 5))
    for w in scan.witnesses:
        for lam in lam_entries:
            assert bilinear(lam, w.P, w.Q) == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"(rank 24, display exact, {scan.trivial}/1000 trivial, {elapsed:.2f}s)")


def test_criterion_2_charge5_end_to_end(c5p3, F5):
    t0 = time.perf_counter()
    assert rank(F5.M) == 20

    rep = check_conditions(F5, 10)
    assert rep.a1_ok and rep.a2.kind == "CertifiedFullRank" and rep.a3_ok
    assert rep.precheck == "Ok" and rep.passed

    scan = scan_lines(F5, 1000, seed=0, box=10)
    assert scan.trivial == 0
    assert scan.jumping + scan.degenerate == 1000

    # structural reason: every pencil value is 5x5 skew, hence singular
    rng = random.Random("c5-structure")
    checked = 0
    while checked < 200:
        P = [rng.randint(-10, 10) for _ in range(4)]
        Q = [rng.randint(-10, 10) for _ in range(4)]
        try:
            g = gamma_eval(F5, P, Q)
        except DegenerateLine:
            continue
        assert g.is_skew() and g.rows == 5
        assert det(g) == 0
        checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"(rank 20, 0/1000 trivial, 200 skew evals, {elapsed:.2f}s)")


@pytest.mark.parametrize("name,r", [("F6", 12), ("F5", 10)])
def test_criterion_3_cohomology_table(name, r, request):
    F = request.getfixturevalue(name)
    c, n = F.c, F.n
    table = h_table(F, r, -4, 0)
    for k in range(-4, 1):
        assert table.dim(0, k) == 0
    assert table.dim(1, -1) == c
    assert table.dim(1, 0) == (n - 1) * c - r == 0
    assert table.dim(1, -2) == 0
    for k in range(-4, 1):
        assert table.cert(n - 1, k) == "SerreDual"
        assert table.dim(n - 1, k) == table.dim(1, -k - n - 1)
        assert table.dim(n, k) == table.dim(0, -k - n - 1)
    assert table.warnings == ()
    inst = verify_instanton(F, r)
    assert inst.charge_computed == c
    assert inst.passed
    _report(3, f"(charge {c}: table exact, charge recomputed {inst.charge_computed})")


def test_criterion_4_nonexistence_prechecks(F6):
    C = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -3), (0, 0, 3, 0))
    one = flatten(TensorSpec(1, 3, ((((0,),), C),)))
    rep1 = check_conditions(one, 0)
    assert rep1.precheck == "ChargeOneForbidden" and not rep1.passed

    two = flatten(TensorSpec(2, 3, ((((0, 1), (-1, 0)), C),)))
    rep2 = check_conditions(two, 4)
    assert rep2.precheck == "ChargeTwoForbidden" and not rep2.passed
    assert rep2.a1_ok and rep2.a3_ok and rep2.notes  # override is flagged

    rep3 = check_conditions(F6, 13)
    assert rep3.precheck == "RankBoundViolated" and not rep3.passed
    _report(4, "(charge 1 and 2 rejected, rank bound enforced)")


def test_criterion_5_moduli_numerology():
    assert moduli_dim(6, 3).dim == 54
    assert moduli_dim(5, 3).dim == 35
    assert moduli_dim(3, 3).dim == 9
    _report(5, "(54, 35, 9)")


class TestCriterion6Properties:
    N = 200

    def test_flatten_symmetric_and_swap_antisymmetric(self):
        rng = random.Random("c6-flatten")
        for _ in range(self.N):
            F = flatten(random_spec(rng))
            assert F.M.is_symmetric()
            assert wedge_membership(F)
        _report("6a", f"({self.N} flatten cases symmetric + swap-antisymmetric)")

    def test_monad_identity_on_wedge_members(self):
        rng = random.Random("c6-monad")
        for _ in range(self.N):
            F = flatten(random_spec(rng, cs=(3, 4, 5), ns=(3,)))
            assert verify_monad_identity(build_alpha(F.c, F.n), monad._beta_rows(F, list(range(F.size))))
        _report("6b", f"({self.N} wedge members compose to zero)")

    def test_gamma_skew_and_bilinear(self):
        rng = random.Random("c6-gamma")
        done = 0
        while done < self.N:
            F = flatten(random_spec(rng, cs=(3, 4, 5), ns=(3, 4)))
            w = F.n + 1
            P = [rng.randint(-8, 8) for _ in range(w)]
            Q = [rng.randint(-8, 8) for _ in range(w)]
            P2 = [rng.randint(-8, 8) for _ in range(w)]
            a, b = rng.randint(-3, 3), rng.randint(1, 3)
            combo = [a * x + b * y for x, y in zip(P, P2)]
            try:
                g = gamma_eval(F, P, Q)
                g2 = gamma_eval(F, P2, Q)
                gc = gamma_eval(F, combo, Q)
            except DegenerateLine:
                continue
            assert g.is_skew()
            assert gc == g.scale(a) + g2.scale(b)
            done += 1
        _report("6c", f"({self.N} pencil values skew + bilinear)")

    def test_verdict_invariance(self):
        rng = random.Random("c6-verdict")
        done = 0
        while done < self.N:
            F = flatten(random_spec(rng, cs=(3, 4), ns=(3,)))
            w = F.n + 1
            P = [rng.randint(-6, 6) for _ in range(w)]
            Q = [rng.randint(-6, 6) for _ in range(w)]
            u, v, s, z = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
            if u * z - v * s == 0:
                continue
            P2 = [u * x + v * y for x, y in zip(P, Q)]
            Q2 = [s * x + z * y for x, y in zip(P, Q)]
            h = random_unimodular(F.c, rng)
            try:
                base = splitting_type(F, P, Q)
                repar = splitting_type(F, P2, Q2)
                moved = splitting_type(act(h, F), P, Q)
            except DegenerateLine:
                continue
            assert repar.verdict == base.verdict
            assert moved.verdict == base.verdict
            done += 1
        _report("6d", f"({self.N} verdicts stable under reparametrization + action)")

    def test_pfaffian_squares_to_determinant(self):
        rng = random.Random("c6-pfaffian")
        done = 0
        while done < self.N:
            F = flatten(random_spec(rng, cs=(4, 6), ns=(3,)))
            w = F.n + 1
            P = [rng.randint(-6, 6) for _ in range(w)]
            Q = [rng.randint(-6, 6) for _ in range(w)]
            try:
                g = gamma_eval(F, P, Q)
            except DegenerateLine:
                continue
            assert pfaffian(g) ** 2 == det(g)
            done += 1
        _report("6e", f"({self.N} even-order pencil values satisfy pf^2 = det)")

    def test_action_group_law_and_isotropy(self):
        rng = random.Random("c6-action")
        for i in range(self.N):
            F = flatten(random_spec(rng, cs=(3, 4), ns=(3,), max_terms=2))
            h1 = random_unimodular(F.c, rng)
            h2 = random_unimodular(F.c, rng)
            assert act(h2, act(h1, F)).M == act(h2 @ h1, F).M
            eye = RatMatrix.identity(F.c)
            assert act(eye, F).M == F.M
            assert act(-eye, F).M == F.M
        _report("6f", f"({self.N} action compositions + isotropy fixed points)")


def test_criterion_7_generator():
    t0 = time.perf_counter()

    sf, attempts = generate(6, 3, mode="pure", seed=1)
    assert attempts == 1
    assert check_conditions(sf.flatten(), sf.r).passed

    # at (4,4) the odd point-space factor rules out a literal single term
    # (a 5x5 skew block is singular), so pure mode emits its documented
    # short-sum fallback; it must still verify on the first attempt
    sf44, attempts44 = generate(4, 4, mode="pure", seed=0)
    assert attempts44 == 1
    assert check_conditions(sf44.flatten(), sf44.r).passed
    assert rank(sf44.flatten().M) == 20

    successes = 0
    for seed in range(10):
        try:
            sf5, att = generate(5, 3, mode="sum", seed=seed, num_terms=3)
        except GenerationExhausted:
            continue
        assert att <= 100
        assert check_conditions(sf5.flatten(), sf5.r).passed
        successes += 1
    assert successes >= 9

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, f"(pure first-attempt at (6,3) and (4,4); sum {successes}/10 seeds, {elapsed:.2f}s)")


def test_criterion_7_single_term_obstruction_at_4_4():
    # the structural fact behind the fallback: every one-term spec at
    # (c,n) = (4,4) has rank <= 16 < 20 and a decomposable kernel vector
    rng = random.Random("c7-struct")
    for _ in range(10):
        B = random_skew(4, rng)
        C = random_skew(5, rng)
        F = flatten(TensorSpec(4, 4, ((B, C),)))
        assert rank(F.M) <= 16
        rep = check_conditions(F, 12, budget=20)
        assert not rep.a1_ok
        assert rep.a2.kind == "CounterexampleFound"
    _report("7-struct", "(one-term forms at (4,4) provably cannot verify)")
