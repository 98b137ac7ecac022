"""Correctness checks for every benchmark op, with the benchmark's own exact
arithmetic.

The checks re-derive what they can from the spec's block data without
calling the program: decomposable kernel vectors M(h (x) v), the line pencil
G(P, Q) and exact ranks.  A check raises ``CheckFailed`` when an output
breaks an invariant and otherwise returns a ``Counter`` of tags:

* ``a2_false_pass`` / ``k1_false_pass``: a passing A2 or K1 verdict on a form
  whose A2 is known to fail over C (the fixture, or a one-term form with a
  singular factor).  The program answered, but wrongly.
* ``a2_unproved``: a ``SampledNoCounterexample`` A2 verdict on a form whose
  answer is unknown.
* ``lines`` / ``degenerate`` / ``trials``: work counts read off the report.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path


class CheckFailed(Exception):
    """An op's output broke an invariant."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# exact arithmetic on block data
# ----------------------------------------------------------------------


def exact_rank(rows) -> int:
    """Rank of an integer or rational matrix by Gaussian elimination over Q."""
    A = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(A[0]) if A else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(A)) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(rank + 1, len(A)):
            f = A[i][col] / A[rank][col]
            if f:
                A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


def flat_matrix(spec: dict) -> list[list[int]]:
    """M[(i,j),(k,l)] = sum_t B_t[i][k] * C_t[j][l], second factor fastest."""
    c, w = spec["c"], spec["n"] + 1
    M = [[0] * (c * w) for _ in range(c * w)]
    for B, C in terms_of(spec):
        for i in range(c):
            for k in range(c):
                if B[i][k]:
                    for j in range(w):
                        for l in range(w):
                            M[i * w + j][k * w + l] += B[i][k] * C[j][l]
    return M


@lru_cache(maxsize=None)
def spec_rank(text: str) -> int:
    """Rank of the flat matrix of a spec file's text (inputs repeat across passes)."""
    return exact_rank(flat_matrix(json.loads(text)))


def terms_of(spec: dict):
    terms = spec["terms"]
    if terms and isinstance(terms[0], dict):
        return [(t["B"], t["C"]) for t in terms]
    return terms


def matvec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def kills_decomposable(spec: dict, h, v) -> bool:
    """True iff h, v are nonzero and M(h (x) v) = sum_t (B_t h) (x) (C_t v) = 0."""
    if not any(h) or not any(v):
        return False
    c, w = spec["c"], spec["n"] + 1
    acc = [[0] * w for _ in range(c)]
    for B, C in terms_of(spec):
        bh, cv = matvec(B, h), matvec(C, v)
        for i in range(c):
            for j in range(w):
                acc[i][j] += bh[i] * cv[j]
    return all(x == 0 for row in acc for x in row)


def pencil(spec: dict, P, Q) -> list[list[int]]:
    """G[i][k] = sum_t B_t[i][k] * (Q^T C_t P)."""
    c = spec["c"]
    G = [[0] * c for _ in range(c)]
    for B, C in terms_of(spec):
        s = sum(q * x for q, x in zip(Q, matvec(C, P)))
        for i in range(c):
            for k in range(c):
                G[i][k] += B[i][k] * s
    return G


def spans_line(P, Q) -> bool:
    return exact_rank([P, Q]) == 2


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpecInput:
    """A spec file the program reads.  ``a2`` is what the benchmark knows
    about the no-decomposable-kernel-vector condition over C: ``holds`` (full
    rank), ``fails`` or ``unknown``."""

    name: str
    path: Path
    a2: str

    def data(self) -> dict:
        return json.loads(self.path.read_text())


# ----------------------------------------------------------------------
# per-op checks; ``report`` is the --json report without timing_ms
# ----------------------------------------------------------------------


def _exit_matches(report: dict, passed: bool) -> None:
    require(report["exit_code"] == (0 if passed else 2), f"exit code {report['exit_code']} with passed={passed}")


def _verdict_tags(inp: SpecInput, spec: dict, status: dict, passed: bool, prefix: str) -> Counter:
    tags: Counter = Counter()
    if "h" in status and "v" in status:
        require(kills_decomposable(spec, status["h"], status["v"]), f"{prefix} witness is not a decomposable kernel vector")
        require(not passed, f"{prefix} counterexample reported with a passing verdict")
    if inp.a2 == "holds":
        require(passed, f"{prefix} fails on a full-rank form")
    elif inp.a2 == "fails" and passed:
        tags[f"{prefix}_false_pass"] += 1
    elif inp.a2 == "unknown" and prefix == "a2" and status["kind"] == "SampledNoCounterexample":
        tags["a2_unproved"] += 1
    return tags


def check_verify(inp: SpecInput, report: dict) -> Counter:
    spec = inp.data()
    c, n, r = spec["c"], spec["n"], spec["r"]
    cond = report["results"]["conditions"]
    want = 2 * c + r
    require(cond["rank_A"] == want and cond["a1_expected"] == want and cond["a1_ok"], f"rank {cond['rank_A']} != 2c+r = {want}")
    require(spec_rank(inp.path.read_text()) == want, "input rank differs from 2c+r")
    q = cond["q_subset"]
    require(cond["a3_ok"] and len(q) == want and q == sorted(set(q)) and all(0 <= s < c * (n + 1) for s in q), "bad principal subset")
    require(cond["precheck"] == "Ok", f"precheck {cond['precheck']}")
    _exit_matches(report, cond["passed"])
    return _verdict_tags(inp, spec, cond["a2"], cond["passed"], "a2")


def check_kronecker(inp: SpecInput, report: dict) -> Counter:
    spec = inp.data()
    want = 2 * spec["c"] + spec["r"]
    k = report["results"]["kronecker"]
    require(k["rank_gamma_hat"] == want and k["expected_rank_2c_plus_r"] == want and k["matches_expected"], "kronecker rank mismatch")
    _exit_matches(report, k["passed"])
    return _verdict_tags(inp, spec, k["k1"], k["passed"], "k1")


def check_monad(inp: SpecInput, report: dict) -> Counter:
    spec = inp.data()
    c, want = spec["c"], 2 * spec["c"] + spec["r"]
    res = report["results"]
    require(res["identity_zero"] is True and report["exit_code"] == 0, "monad identity beta.alpha != 0")
    for key in ("alpha", "beta_t"):
        require(len(res[key]) == want and all(len(row) == c for row in res[key]), f"{key} is not {want}x{c}")
    return Counter()


def expected_window(c: int, n: int, r: int, i: int, k: int) -> int:
    """Instanton values of h^i(E(k)) in the standard window -n-1 <= k <= 0."""
    if (i, k) in ((1, -1), (n - 1, -n)):
        return c
    if (i, k) in ((1, 0), (n - 1, -n - 1)):
        return (n - 1) * c - r
    return 0


def check_cohomology(inp: SpecInput, report: dict, kmin: int, kmax: int) -> Counter:
    spec = inp.data()
    c, n, r = spec["c"], spec["n"], spec["r"]
    res = report["results"]
    table, inst = res["table"], res["instanton"]
    require(report["exit_code"] == 0 and not report["warnings"] and not table["warnings"], "cohomology warnings")
    require(inst["passed"] and inst["charge_computed"] == c and inst["rank_bundle"] == r, "instanton check failed")
    entries = table["entries"]
    require(len(entries) == (n + 1) * (kmax - kmin + 1), "table has the wrong number of entries")
    for k in range(kmin, kmax + 1):
        for i in range(n + 1):
            dim = entries[f"({i},{k})"]["dim"]
            require(dim >= 0, f"negative h^{i}(E({k}))")
            if -n - 1 <= k <= 0:
                require(dim == expected_window(c, n, r, i, k), f"h^{i}(E({k})) = {dim}")
    return Counter()


def check_splitting(inp: SpecInput, report: dict, P, Q) -> Counter:
    spec = inp.data()
    c = spec["c"]
    res = report["results"]
    G = pencil(spec, P, Q)
    require(res["gamma"]["matrix"] == [[str(x) for x in row] for row in G], "pencil value differs")
    split = res["split"]
    det = Fraction(split["det"])
    trivial = exact_rank(G) == c
    require((split["verdict"] == "Trivial") == trivial and (det != 0) == trivial, "verdict disagrees with the pencil")
    if c % 2:
        require(not trivial, "odd charge gave a trivial line")
    else:
        require(Fraction(split["pfaffian"]) ** 2 == det, "Pf^2 != det")
    require(report["exit_code"] == 0, "splitting exit code")
    return Counter()


def check_generate(path: Path, report: dict, c: int, n: int) -> Counter:
    spec = report["results"]["spec"]
    require(report["exit_code"] == 0 and report["results"]["attempts"] >= 1, "generate failed")
    require((spec["c"], spec["n"], spec["r"]) == (c, n, (n - 1) * c), "generated spec has the wrong shape")
    require(json.loads(path.read_text()) == spec, "written spec differs from the report")
    return Counter()


def check_scan(inp: SpecInput, scan: dict, samples: int, box: int) -> Counter:
    spec = inp.data()
    c = spec["c"]
    t, j, d = scan["trivial"], scan["jumping"], scan["degenerate"]
    require(scan["samples"] == samples and t + j + d == samples, "scan tallies do not sum to samples")
    require(Fraction(scan["fraction_trivial"]) == Fraction(t, samples), "fraction_trivial is wrong")
    require(scan["box"] == box, "box not echoed")
    if c % 2:
        require(t == 0, "odd charge gave trivial lines")
    wit = scan["witnesses"]
    require(len(wit) == min(j, 10), "witness list has the wrong length")
    for w in wit:
        require(w["det"] == "0", "witness with nonzero det")
        require(all(abs(x) <= box for x in w["P"] + w["Q"]) and spans_line(w["P"], w["Q"]), "witness is not a line in the box")
        require(exact_rank(pencil(spec, w["P"], w["Q"])) < c, "witness line does not jump")
    return Counter(lines=samples, degenerate=d)


def check_orbit(orbit: dict, trials: int) -> Counter:
    require(orbit["passed"] and orbit["isotropy_ok"] and not orbit["violations"], "orbit probe found violations")
    require(orbit["trials"] == trials and orbit["panel_size"] == 20, "orbit probe ran the wrong amount of work")
    return Counter(trials=trials)
