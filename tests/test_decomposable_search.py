"""A2 and K1 share one decomposable-kernel search over a lazy direction
stream; these tests pin it to the two samplers it replaced, which are kept
below as references."""

import random

import pytest
from conftest import DEFICIENT_TERMS, random_skew, random_spec

from orthinst import A2Status, FlatForm, RatMatrix, TensorSpec, check_conditions, flatten, kernel_basis, rank
from orthinst.cli import run_command
from orthinst.kronecker import kronecker_conditions
from orthinst.specfile import SpecFile, bundled_spec_path, serialize_spec

C6 = str(bundled_spec_path("c6p3"))


def reference_a2(F, budget, seed, box):
    """The A2 sampler before the shared search: basis h, basis v, then per
    sample s an h and a v from the stream f"{seed}:wit:{s}"."""
    if budget <= 0:
        return A2Status("Unknown")
    c, w = F.c, F.n + 1

    def check_h(h):
        if all(x == 0 for x in h):
            return None
        ker = kernel_basis(F.along_charge(h))
        return (tuple(int(x) for x in h), tuple(int(x) for x in ker[0])) if ker else None

    def check_v(v):
        if all(x == 0 for x in v):
            return None
        ker = kernel_basis(F.along_point(v))
        return (tuple(int(x) for x in ker[0]), tuple(int(x) for x in v)) if ker else None

    def search():
        for i in range(c):
            hit = check_h([1 if k == i else 0 for k in range(c)])
            if hit:
                return hit
        for j in range(w):
            hit = check_v([1 if l == j else 0 for l in range(w)])
            if hit:
                return hit
        for s in range(budget):
            rng = random.Random(f"{seed}:wit:{s}")
            hit = check_h([rng.randint(-box, box) for _ in range(c)])
            if hit:
                return hit
            hit = check_v([rng.randint(-box, box) for _ in range(w)])
            if hit:
                return hit
        return None

    hit = search()
    if hit is not None:
        return A2Status("CounterexampleFound", witness_h=hit[0], witness_v=hit[1])
    return A2Status("SampledNoCounterexample", samples=budget)


def reference_k1(F, budget, seed, box):
    """The eager K1 sampler before the shared search: every direction is
    drawn before the first kernel is tried."""
    w = F.n + 1
    hit = None
    sweeps = [[1 if t == j else 0 for t in range(w)] for j in range(w)]
    for s in range(budget):
        rng = random.Random(f"{seed}:kdir:{s}")
        v = [rng.randint(-box, box) for _ in range(w)]
        if any(v):
            sweeps.append(v)
    for v in sweeps:
        ker = kernel_basis(F.along_point(v))
        if ker:
            hit = (tuple(int(x) for x in v), tuple(int(x) for x in ker[0]))
            break
    if hit is not None:
        return A2Status("CounterexampleFound", witness_h=hit[1], witness_v=hit[0])
    return A2Status("SampledNoCounterexample", samples=budget)


@pytest.fixture(scope="module")
def deficient_forms():
    # the fixture, the zero form and 40 deficient random forms
    rng = random.Random(20261018)
    forms = [flatten(TensorSpec(3, 3, DEFICIENT_TERMS)), FlatForm(3, 3, RatMatrix.zeros(12, 12))]
    while len(forms) < 42:
        F = flatten(random_spec(rng, cs=(3, 4, 5), ns=(3,)))
        if rank(F.M) < F.size:
            forms.append(F)
    return forms


# box 0 draws only zero directions, which the search must skip
@pytest.mark.parametrize("budget,seed,box", [(1000, 0, 10), (0, 0, 10), (7, 3, 2), (5, 4, 1), (20, 1, 0)])
def test_a2_and_k1_statuses_match_the_replaced_samplers(budget, seed, box, deficient_forms):
    kinds = set()
    for F in deficient_forms:
        r = rank(F.M) - 2 * F.c
        a2 = check_conditions(F, r, budget=budget, seed=seed, box=box).a2
        k1 = kronecker_conditions(F, r, budget=budget, seed=seed, box=box).k1
        assert a2 == reference_a2(F, budget, seed, box)
        assert k1 == reference_k1(F, budget, seed, box)
        kinds |= {a2.kind, k1.kind}
    assert {"CounterexampleFound", "SampledNoCounterexample"} <= kinds


def test_k1_draws_no_direction_past_the_first_hit(monkeypatch):
    # one term with a singular 3x3 B: h in ker B gives M(h (x) v) = 0 for
    # every v, so the first basis direction hits
    rng = random.Random(5)
    F = flatten(TensorSpec(3, 3, ((random_skew(3, rng), random_skew(4, rng)),)))
    assert rank(F.M) < F.size

    def no_rng(*args, **kwargs):
        raise AssertionError("a random direction was drawn")

    monkeypatch.setattr(random, "Random", no_rng)
    rep = kronecker_conditions(F, rank(F.M) - 6, budget=10**9)
    assert rep.k1.kind == "CounterexampleFound"
    assert rep.k1.witness_v == (1, 0, 0, 0)


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "fixture.json"
    path.write_text(serialize_spec(SpecFile(TensorSpec(3, 3, DEFICIENT_TERMS), 2)))
    return str(path)


@pytest.mark.parametrize("cmd", ["verify", "kronecker"])
@pytest.mark.parametrize("flag,name", [("--budget", "budget"), ("--box", "box")])
@pytest.mark.parametrize("which", ["c6p3", "fixture"])
def test_negative_budget_or_box_exits_1_at_every_rank(cmd, flag, name, which, fixture_path):
    spec = C6 if which == "c6p3" else fixture_path
    rep = run_command([cmd, spec, flag, "-5"])
    assert rep.exit_code == 1
    assert rep.results["error"] == "ValueError"
    assert rep.results["message"] == f"{name} must be >= 0, got -5"
