"""A2 is decided once, by ``monad.nondegeneracy``, and K1 reads that
decision; these tests pin K1 to A2, and A2's search over a lazy direction
stream to the sampler it replaced, which is kept below as a reference, and
check the one sampling bound of verify, kronecker and scan-lines."""

import inspect
import random

import pytest
from conftest import DEFICIENT_TERMS, random_skew, random_spec, reference_along_charge, reference_along_point

from orthinst import A2Status, FlatForm, RatMatrix, TensorSpec, check_conditions, flatten, kernel_basis, rank
from orthinst import forms, monad
from orthinst.cli import run_command
from orthinst.kronecker import kronecker_conditions, scan_lines
from orthinst.linalg import gram_kernel
from orthinst.monad import MAX_SAMPLES
from orthinst.specfile import SpecFile, bundled_spec_path, load_bundled, serialize_spec

C6 = str(bundled_spec_path("c6p3"))


def reference_directions(F, budget, seed):
    """The sampler's directions before the shared search: basis h, basis v,
    then per sample s an h and a v in [-10, 10] from the stream
    f"{seed}:wit:{s}"."""
    c, w = F.c, F.n + 1
    for i in range(c):
        yield "h", [1 if k == i else 0 for k in range(c)]
    for j in range(w):
        yield "v", [1 if l == j else 0 for l in range(w)]
    for s in range(budget):
        rng = random.Random(f"{seed}:wit:{s}")
        yield "h", [rng.randint(-10, 10) for _ in range(c)]
        yield "v", [rng.randint(-10, 10) for _ in range(w)]


def direction_forms():
    return {"fixture": flatten(TensorSpec(3, 3, DEFICIENT_TERMS)), "c6p3": load_bundled("c6p3").flatten()}


@pytest.mark.parametrize("name", ["fixture", "c6p3"])
@pytest.mark.parametrize("seed", [0, 4, 91])
def test_reseeded_direction_stream_matches_a_fresh_generator_per_sample(name, seed):
    # one generator reseeded per sample draws what a new one per sample draws
    F = direction_forms()[name]
    assert list(monad._directions(F, 60, seed)) == list(reference_directions(F, 60, seed))


def test_direction_stream_rejects_a_mutant(monkeypatch):
    # seeding once, outside the sample loop, runs one stream on from sample 0
    source = inspect.getsource(monad._directions)
    swaps = [("rng = random.Random()", 'rng = random.Random(f"{seed}:wit:0")'), ('rng.seed(f"{seed}:wit:{s}")', "pass")]
    for old, new in swaps:
        assert source.count(old) == 1
        source = source.replace(old, new)
    scope = dict(vars(monad))
    exec(source, scope)
    monkeypatch.setattr(monad, "_directions", scope["_directions"])
    for F in direction_forms().values():
        assert list(monad._directions(F, 60, 0)) != list(reference_directions(F, 60, 0))


def reference_hit(F, side, d):
    """The witness (h, v) along a nonzero direction, from the kernel of its
    contraction, or None."""
    if side == "h":
        ker = kernel_basis(reference_along_charge(F, d))
        return (tuple(d), ker[0]) if ker else None
    ker = kernel_basis(reference_along_point(F, d))
    return (ker[0], tuple(d)) if ker else None


def reference_a2(F, budget, seed):
    """The A2 sampler before the shared search."""
    if budget <= 0:
        return A2Status("Unknown")
    for side, d in reference_directions(F, budget, seed):
        hit = any(d) and reference_hit(F, side, d)
        if hit:
            return A2Status("CounterexampleFound", witness_h=hit[0], witness_v=hit[1])
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


@pytest.fixture(scope="module")
def bundled_forms():
    return [load_bundled(name).flatten() for name in ("c6p3", "c5p3")]


@pytest.mark.parametrize("budget,seed", [(1000, 0), (0, 0), (7, 3), (5, 4)])
def test_a2_and_k1_statuses_match_the_replaced_samplers(budget, seed, deficient_forms, bundled_forms):
    # K1 is A2's decision at the same budget; A2 below full rank is the
    # replaced sampler's status
    kinds = set()
    for F in deficient_forms + bundled_forms:
        r = rank(F.M) - 2 * F.c
        a2 = check_conditions(F, r, budget=budget, seed=seed).a2
        assert kronecker_conditions(F, r, budget=budget, seed=seed).k1 == a2
        if rank(F.M) < F.size:
            assert a2 == reference_a2(F, budget, seed)
        else:
            assert a2.kind == "CertifiedFullRank"
        kinds.add(a2.kind)
    if budget == 0:
        assert kinds == {"CertifiedFullRank", "Unknown"}
    else:
        assert kinds == {"CertifiedFullRank", "CounterexampleFound", "SampledNoCounterexample"}


@pytest.fixture(scope="module")
def wide_deficient_forms():
    # n in {4, 5}, c in {3, 4}: along h a Gram table has fewer pairs a <= b
    # (C(c+1, 2)) than upper entries (C(n+2, 2)), along v more
    rng = random.Random(20261019)
    found = []
    for c in (3, 4):
        for n in (4, 5):
            drawn = len(found)
            while len(found) < drawn + 4:
                F = flatten(random_spec(rng, cs=(c,), ns=(n,)))
                if rank(F.M) < F.size:
                    found.append(F)
    return found


@pytest.mark.parametrize("seed", [0, 3])
def test_search_matches_the_replaced_sampler_on_wider_shapes(seed, wide_deficient_forms):
    kinds = set()
    for F in wide_deficient_forms:
        a2 = monad.nondegeneracy(F, budget=50, seed=seed)
        assert a2 == reference_a2(F, 50, seed)
        kinds.add(a2.kind)
    assert kinds == {"CounterexampleFound", "SampledNoCounterexample"}


def test_search_takes_one_gram_kernel_per_direction(deficient_forms, monkeypatch):
    # every nonzero direction drawn, up to and including the hit, asks once
    # for the kernel of its k x k Gram matrix: k = n+1 along h, c along v
    sizes = []

    def counting(rows, k):
        sizes.append(k)
        return gram_kernel(rows, k)

    monkeypatch.setattr(forms, "gram_kernel", counting)
    hits = []
    for F in deficient_forms:
        sizes.clear()
        hit = monad.nondegeneracy_witness_search(F, budget=1000)
        want = []
        for side, d in reference_directions(F, 1000, 0):
            if any(d):
                want.append(F.n + 1 if side == "h" else F.c)
                # a direction equal to the witness's has a kernel: the first is the hit
                if hit is not None and tuple(d) == hit[0 if side == "h" else 1]:
                    break
        assert sizes == want
        hits.append((hit, len(sizes)))
    # the fixture's clean run: 7 basis and 2000 drawn directions
    assert hits[0] == (None, 2007)
    assert 0 < sum(hit is not None for hit, _ in hits) < len(hits)


def test_search_sums_each_gram_entry_from_the_cached_table(monkeypatch):
    # a Gram matrix is summed entry by entry from its side's coefficient
    # table into integer rows; the flat mix that pencil and act use is off
    # the search's path, and no direction builds a matrix
    F = flatten(TensorSpec(3, 3, DEFICIENT_TERMS))
    monkeypatch.setattr(forms, "_mix", lambda *a: pytest.fail("the search mixed flat Gram matrices"))
    monkeypatch.setattr(RatMatrix, "from_ints", lambda *a, **k: pytest.fail("the search built a matrix"))
    monkeypatch.setattr(RatMatrix, "__init__", lambda *a, **k: pytest.fail("the search built a matrix"))
    calls = []
    monkeypatch.setattr(forms, "gram_kernel", lambda rows, k: calls.append(k) or gram_kernel(rows, k))
    assert monad.nondegeneracy_witness_search(F, budget=1000) is None
    assert len(calls) == 2007


def no_rng(*args, **kwargs):
    raise AssertionError("a random direction was drawn")


def test_k1_draws_no_direction_past_the_first_hit(monkeypatch):
    # one term with a singular 3x3 B: h in ker B gives M(h (x) v) = 0 for
    # every v, so a basis direction hits
    rng = random.Random(5)
    F = flatten(TensorSpec(3, 3, ((random_skew(3, rng), random_skew(4, rng)),)))
    assert rank(F.M) < F.size

    monkeypatch.setattr(random, "Random", no_rng)
    rep = kronecker_conditions(F, rank(F.M) - 6, budget=MAX_SAMPLES)
    assert rep.k1.kind == "CounterexampleFound"
    assert rep.k1.witness_v == (1, 0, 0, 0)


@pytest.mark.parametrize("box", [0, -1])
def test_box_below_1_is_refused_before_any_draw(box, deficient_forms, bundled_forms, monkeypatch):
    # the line scan is the one sampler with a box: box 0 draws only the zero
    # point pair, a degenerate line, so it is refused at every rank
    monkeypatch.setattr(random, "Random", no_rng)
    for F in deficient_forms + bundled_forms:
        with pytest.raises(ValueError, match=f"^box must be >= 1, got {box}$"):
            scan_lines(F, 20, seed=1, box=box)


@pytest.mark.parametrize("cmd", ["verify", "kronecker"])
@pytest.mark.parametrize("flag,name", [("--budget", "budget"), ("--box", "box")])
@pytest.mark.parametrize("which", ["c6p3", "fixture"])
def test_negative_budget_or_box_exits_1_at_every_rank(cmd, flag, name, which, fixture_path):
    # the search has no box option: --box is a usage error like any unknown flag
    spec = C6 if which == "c6p3" else fixture_path
    rep = run_command([cmd, spec, flag, "-5"])
    assert rep.exit_code == 1
    if name == "budget":
        assert (rep.results["error"], rep.results["message"]) == ("ValueError", "budget must be >= 0, got -5")
    else:
        assert rep.results["error"] == "UsageError"


@pytest.mark.parametrize("cmd", ["verify", "kronecker"])
def test_verify_and_kronecker_take_no_box(cmd, fixture_path):
    rep = run_command([cmd, fixture_path, "--box", "3"])
    assert (rep.exit_code, rep.results["error"]) == (1, "UsageError")
    assert rep.results["message"] == "unrecognized arguments: --box 3"


@pytest.mark.parametrize("cmd,flag", [("verify", "--budget"), ("kronecker", "--budget"), ("scan-lines", "--samples")])
@pytest.mark.parametrize("which", ["c6p3", "fixture"])
def test_sampling_bound_exits_1_before_any_draw(cmd, flag, which, fixture_path, monkeypatch):
    # c6p3 is full rank: the bound is checked before the full-rank shortcut
    spec = C6 if which == "c6p3" else fixture_path
    monkeypatch.setattr(random, "Random", no_rng)
    over = MAX_SAMPLES + 1
    cases = [([flag, str(over)], f"{flag[2:]} must be <= {MAX_SAMPLES}, got {over}")]
    if cmd == "scan-lines":  # the one command with a box
        cases += [(["--box", "0"], "box must be >= 1, got 0"), (["--box", "-1"], "box must be >= 1, got -1")]
    for args, message in cases:
        rep = run_command([cmd, spec, *args])
        assert (rep.exit_code, rep.results["error"], rep.results["message"]) == (1, "ValueError", message)


def test_kronecker_refutes_the_form_verify_refutes(tmp_path):
    # draw 0 of this stream is a one-term c=4, n=4 form with singular B;
    # K1 once passed it on its own v-only sampler
    spec = random_spec(random.Random(20261018), cs=(3, 4, 5, 6), ns=(3, 4))
    F = flatten(spec)
    path = tmp_path / "draw0.json"
    path.write_text(serialize_spec(SpecFile(spec, rank(F.M) - 2 * F.c)))
    verify = run_command(["verify", str(path)])
    kron = run_command(["kronecker", str(path)])
    assert verify.exit_code == kron.exit_code == 2
    a2, k1 = verify.results["conditions"]["a2"], kron.results["kronecker"]["k1"]
    assert a2["kind"] == k1["kind"] == "CounterexampleFound"
    assert a2["h"] == k1["h"] == [1, 0, 0, 0]


def test_kronecker_with_zero_budget_is_unknown(fixture_path):
    rep = run_command(["kronecker", fixture_path, "--budget", "0"])
    assert rep.exit_code == 2
    assert rep.results["kronecker"]["k1"] == rep.results["kronecker"]["k2"] == {"kind": "Unknown"}
