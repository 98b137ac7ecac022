"""JSON conversion of reports; exact numbers become "p/q" strings."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cohomology import CohomTable, InstantonReport
from .kronecker import KroneckerReport, ScanReport, SplitVerdict
from .linalg import RatMatrix
from .moduli import ModuliInfo, OrbitProbeReport
from .monad import A2Status, ConditionReport, LinFormMatrix


def rat_str(x: int | Fraction) -> str:
    if type(x) is int:
        return str(x)
    p, q = x.numerator, x.denominator
    return str(p) if q == 1 else f"{p}/{q}"


def matrix_json(M: RatMatrix) -> list[list[str]]:
    return [[rat_str(x) for x in M.row(i)] for i in range(M.rows)]


def linform_matrix_json(L: LinFormMatrix) -> list[list[str]]:
    """Each entry (i, j), the sum of x / d * x_l over the nonzero coefficients
    (l, i, j, x) over d, as text: its terms in variable order, "0" if none."""
    grid = [["0"] * L.cols for _ in range(L.rows)]
    d = L.denominator
    for l, i, j, x in L.coefficients:
        g = gcd(x, d)
        term = f"x{l}" if x == d else f"-x{l}" if x == -d else f"{x // g}x{l}" if g == d else f"{x // g}/{d // g}x{l}"
        if grid[i][j] == "0":
            grid[i][j] = term
        else:
            grid[i][j] += term if term[0] == "-" else "+" + term
    return grid


def a2_json(a2: A2Status) -> dict:
    out: dict = {"kind": a2.kind}
    if a2.samples is not None:
        out["samples"] = a2.samples
    if a2.witness_h is not None:  # a counterexample carries both halves
        out["h"], out["v"] = list(a2.witness_h), list(a2.witness_v)
    return out


def condition_report_json(rep: ConditionReport) -> dict:
    return {
        "rank_A": rep.rank_a,
        "a1_expected": rep.a1_expected,
        "a1_ok": rep.a1_ok,
        "a2": a2_json(rep.a2),
        "a3_ok": rep.a3_ok,
        "q_subset": list(rep.q_subset),
        "precheck": rep.precheck,
        "notes": list(rep.notes),
        "passed": rep.passed,
    }


def gamma_json(P: list[int], Q: list[int], G: RatMatrix) -> dict:
    return {
        "P": [rat_str(x) for x in P],
        "Q": [rat_str(x) for x in Q],
        "matrix": matrix_json(G),
    }


def verdict_json(v: SplitVerdict) -> dict:
    out = {"verdict": v.verdict, "det": rat_str(v.determinant)}
    if v.pfaffian is not None:
        out["pfaffian"] = rat_str(v.pfaffian)
    return out


def scan_report_json(rep: ScanReport) -> dict:
    return {
        "samples": rep.samples,
        "trivial": rep.trivial,
        "jumping": rep.jumping,
        "degenerate": rep.degenerate,
        "witnesses": [
            {"P": list(w.P), "Q": list(w.Q), "det": rat_str(w.determinant)}
            for w in rep.witnesses
        ],
        "fraction_trivial": rat_str(rep.fraction_trivial),
        "seed": rep.seed,
        "box": rep.box,
    }


def kronecker_report_json(rep: KroneckerReport) -> dict:
    return {
        "k1": a2_json(rep.k1),
        "k2": a2_json(rep.k2),
        "rank_gamma_hat": rep.rank_gamma_hat,
        "expected_rank_2c_plus_r": rep.expected_rank,
        "printed_alt_rank_2n_plus_r": rep.printed_alt_rank,
        "matches_expected": rep.matches_expected,
        "matches_printed_alt": rep.matches_printed_alt,
        "passed": rep.passed,
    }


def cohom_table_json(table: CohomTable) -> dict:
    return {
        "c": table.c,
        "n": table.n,
        "r": table.r,
        "kmin": table.kmin,
        "kmax": table.kmax,
        "entries": {
            f"({i},{k})": {"dim": e.dim, "cert": e.cert}
            for (i, k), e in sorted(table.entries.items())
        },
        "warnings": list(table.warnings),
    }


def instanton_report_json(rep: InstantonReport) -> dict:
    return {
        "conditions": {name: ok for name, ok in rep.conditions},
        "charge_computed": rep.charge_computed,
        "charge_expected": rep.charge_expected,
        "chi_consistent": rep.chi_consistent,
        "rank_bundle": rep.rank_bundle,
        "passed": rep.passed,
    }


def moduli_json(info: ModuliInfo) -> dict:
    return {
        "c": info.c,
        "n": info.n,
        "ambient_dim": info.ambient_dim,
        "group_dim": info.group_dim,
        "dim": info.dim,
        "possibly_empty": info.possibly_empty,
    }


def orbit_probe_json(rep: OrbitProbeReport) -> dict:
    return {
        "trials": rep.trials,
        "panel_size": rep.panel_size,
        "violations": list(rep.violations),
        "isotropy_ok": rep.isotropy_ok,
        "passed": rep.passed,
    }
