"""Command-line surface: parse, dispatch, render.

Subcommands: verify, monad, splitting, scan-lines, kronecker, cohomology,
moduli-dim, generate.  Exit codes: 0 when the requested check passes, 2 when
the mathematics says no (a condition is violated, generation is exhausted),
1 on usage or schema errors.  ``--json`` switches to machine output whose
bytes are deterministic for a fixed input and seed, except the timing field.
A report's text is rendered only when it is printed, so ``--json`` never
builds it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import jsonio
from .cohomology import h_table
from .errors import GenerationExhausted, OrthinstError, RankMismatch, UsageError
from .kronecker import gamma_eval, kronecker_conditions, pencil_verdict, scan_lines
from .linalg import principal_rank_subset
from .moduli import moduli_dim
from .monad import build_alpha, build_beta, check_conditions, verify_monad_identity
from .specfile import SpecFile, generate, parse_spec, serialize_spec

USAGE_EXIT = 1
MATH_EXIT = 2


@dataclass
class Report:
    """One invocation's outcome.  ``render`` builds the text report from
    values the command already holds; ``human`` calls it on first read and
    keeps the string, so a ``--json`` run never renders text.  The renderer
    is no part of the value: equality and repr ignore it."""

    command: tuple[str, ...]
    input_hash: str | None
    results: dict
    warnings: tuple[str, ...]
    timing_ms: float
    exit_code: int
    render: Callable[[], str] = field(compare=False, repr=False)

    @functools.cached_property
    def human(self) -> str:
        return self.render()

    def to_json_dict(self) -> dict:
        return {
            "command": list(self.command),
            "input_hash": self.input_hash,
            "results": self.results,
            "warnings": list(self.warnings),
            "timing_ms": self.timing_ms,
            "exit_code": self.exit_code,
        }


class _Parser(argparse.ArgumentParser):
    # no prefix matching, here or in the subparsers (which are _Parsers):
    # main picks the output format by an exact "--json" in argv
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _joined_points(argv: list[str]) -> list[str]:
    """argv with each ``--P``/``--Q`` joined to the token after it, as
    ``--P=-1,2,0,0``: argparse takes a separate value that starts with "-"
    for an option."""
    out, rest = [], iter(argv)
    for a in rest:
        value = next(rest, None) if a in ("--P", "--Q") else None
        out.append(a if value is None else f"{a}={value}")
    return out


def _grid(cells: list[list[str]]) -> str:
    if not cells:
        return "(empty)"
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    lines = []
    for row in cells:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


@functools.cache
def _build_parser() -> _Parser:
    # built on first use, then shared: parse_args leaves the parser unchanged
    p = _Parser(prog="orthinst", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_spec_cmd(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("spec", help="path of a spec JSON file")
        q.add_argument("--json", action="store_true", dest="as_json")
        return q

    q = add_spec_cmd("verify", "check the form conditions and prechecks")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--budget", type=int, default=1000)

    add_spec_cmd("monad", "build the monad maps and verify the identity")

    q = add_spec_cmd("splitting", "evaluate the line pencil at one point pair")
    q.add_argument("--P", type=_int_list, required=True)
    q.add_argument("--Q", type=_int_list, required=True)

    q = add_spec_cmd("scan-lines", "sample lines and tally splitting verdicts")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--samples", type=int, default=1000)
    q.add_argument("--box", type=int, default=10)

    q = add_spec_cmd("kronecker", "check the pencil-module conditions")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--budget", type=int, default=200)

    q = add_spec_cmd("cohomology", "cohomology table and vanishing checks")
    q.add_argument("--kmin", type=int, default=-4)
    q.add_argument("--kmax", type=int, default=0)

    q = sub.add_parser("moduli-dim", help="moduli dimension count")
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--json", action="store_true", dest="as_json")

    q = sub.add_parser("generate", help="generate a verified spec")
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--mode", choices=["pure", "sum"], default="pure")
    q.add_argument("--terms", type=int, default=3, dest="num_terms", metavar="TERMS", help="term count for sum mode")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("-o", "--output", default=None, help="write the spec here instead of stdout")
    q.add_argument("--json", action="store_true", dest="as_json")
    return p


def _load(args) -> tuple[SpecFile, str]:
    # one read: the input hash is of the bytes that are parsed
    data = Path(args.spec).read_bytes()
    return parse_spec(data), hashlib.sha256(data).hexdigest()


def run_command(argv: list[str]) -> Report:
    """Dispatch one CLI invocation and return its report (never raises for
    usage or mathematical failures; those set the exit code)."""
    t0 = time.perf_counter()
    try:
        args = _build_parser().parse_args(_joined_points(argv))
        report = _dispatch(args, argv)
    except (OSError, ValueError, OrthinstError) as e:
        code = USAGE_EXIT
        if isinstance(e, (GenerationExhausted, RankMismatch)):
            code = MATH_EXIT
        # bound here: the name e is unbound when the except block ends
        message = str(e)
        report = Report(
            command=tuple(argv),
            input_hash=None,
            results={"error": type(e).__name__, "message": message},
            warnings=(),
            timing_ms=0.0,
            exit_code=code,
            render=lambda: f"error: {message}",
        )
    report.timing_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    return report


def _dispatch(args, argv) -> Report:
    cmd = args.cmd
    if cmd == "moduli-dim":
        info = moduli_dim(args.c, args.n)
        results = {"moduli": jsonio.moduli_json(info)}

        def human() -> str:
            return (
                f"moduli dimension for c={info.c}, n={info.n}: {info.dim}\n"
                f"  ambient {info.ambient_dim} - group {info.group_dim}"
            )

        return Report(tuple(argv), None, results, (), 0.0, 0, human)

    if cmd == "generate":
        sf, attempts = generate(args.c, args.n, mode=args.mode, seed=args.seed, num_terms=args.num_terms)
        text = serialize_spec(sf)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if args.output:
            Path(args.output).write_text(text)

        def human() -> str:
            if args.output:
                return f"wrote verified spec to {args.output} (attempt {attempts})"
            return text.rstrip("\n") + f"\n-- verified on attempt {attempts}"

        results = {"spec": sf.to_json_dict(), "attempts": attempts}
        return Report(tuple(argv), digest, results, (), 0.0, 0, human)

    sf, digest = _load(args)
    r = sf.r
    F = sf.flatten()

    if cmd == "verify":
        rep = check_conditions(F, r, budget=args.budget, seed=args.seed)
        results = {"conditions": jsonio.condition_report_json(rep)}

        def human() -> str:
            lines = [
                f"rank A = {rep.rank_a} (expected 2c+r = {rep.a1_expected})",
                f"A1 {'ok' if rep.a1_ok else 'FAIL'} | A2 {rep.a2.kind} | A3 {'ok' if rep.a3_ok else 'FAIL'}",
                f"precheck: {rep.precheck}",
            ]
            lines += [f"note: {note}" for note in rep.notes]
            lines.append("verdict: PASS" if rep.passed else "verdict: FAIL")
            return "\n".join(lines)

        return Report(tuple(argv), digest, results, tuple(rep.notes), 0.0, 0 if rep.passed else MATH_EXIT, human)

    if cmd == "monad":
        beta = build_beta(F, r)
        # alpha on the rows that beta keeps: all of them at full rank
        alpha = build_alpha(sf.c, sf.n, S=None if beta.cols == F.size else principal_rank_subset(F.M))
        identity_ok = verify_monad_identity(alpha, beta)
        results = {
            "alpha": jsonio.linform_matrix_json(alpha),
            "beta_t": [list(col) for col in zip(*jsonio.linform_matrix_json(beta))],
            "identity_zero": identity_ok,
        }

        def human() -> str:
            return (
                "alpha =\n" + _grid(results["alpha"]) + "\n\n"
                "beta^t =\n" + _grid(results["beta_t"]) + "\n\n"
                + ("composition beta.alpha = 0: ok" if identity_ok else "composition beta.alpha != 0: FAIL")
            )

        return Report(tuple(argv), digest, results, (), 0.0, 0 if identity_ok else MATH_EXIT, human)

    if cmd == "splitting":
        G = gamma_eval(F, args.P, args.Q)
        v = pencil_verdict(G)
        results = {"gamma": jsonio.gamma_json(args.P, args.Q, G), "split": jsonio.verdict_json(v)}

        def human() -> str:
            return (
                f"gamma(P={args.P}, Q={args.Q}) =\n" + _grid(results["gamma"]["matrix"])
                + f"\ndet = {jsonio.rat_str(v.determinant)}"
                + (f", pfaffian = {jsonio.rat_str(v.pfaffian)}" if v.pfaffian is not None else "")
                + f"\nverdict: {v.verdict}"
            )

        return Report(tuple(argv), digest, results, (), 0.0, 0, human)

    if cmd == "scan-lines":
        rep = scan_lines(F, args.samples, seed=args.seed, box=args.box)
        results = {"scan": jsonio.scan_report_json(rep)}

        def human() -> str:
            text = (
                f"{rep.samples} sampled lines: {rep.trivial} trivial, {rep.jumping} jumping, "
                f"{rep.degenerate} degenerate (fraction trivial {jsonio.rat_str(rep.fraction_trivial)})"
            )
            if rep.witnesses:
                text += "\njumping witnesses:"
                for w in rep.witnesses:
                    text += f"\n  P={list(w.P)} Q={list(w.Q)} det={jsonio.rat_str(w.determinant)}"
            return text

        return Report(tuple(argv), digest, results, (), 0.0, 0, human)

    if cmd == "kronecker":
        rep = kronecker_conditions(F, r, budget=args.budget, seed=args.seed)
        k = jsonio.kronecker_report_json(rep)
        results = {"kronecker": k}

        def human() -> str:
            return (
                f"K1: {k['k1']['kind']} | K2 (dual): {k['k2']['kind']}\n"
                f"rank of the linearized map = {k['rank_gamma_hat']}; "
                f"2c+r = {k['expected_rank_2c_plus_r']} ({'match' if k['matches_expected'] else 'MISMATCH'})\n"
                + ("verdict: PASS" if k["passed"] else "verdict: FAIL")
            )

        return Report(tuple(argv), digest, results, (), 0.0, 0 if k["passed"] else MATH_EXIT, human)

    if cmd == "cohomology":
        table = h_table(F, r, args.kmin, args.kmax)
        inst = table.instanton
        results = {"table": jsonio.cohom_table_json(table), "instanton": jsonio.instanton_report_json(inst)}

        def human() -> str:
            twists = range(table.kmin, table.kmax + 1)
            cells = [["h^i \\ k"] + [str(k) for k in twists]]
            for i in range(table.n, -1, -1):
                cells.append([f"i={i}"] + [str(table.dim(i, k)) for k in twists])
            text = _grid(cells)
            text += "\nconditions: " + ", ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in inst.conditions)
            text += f"\ncharge recomputed = {inst.charge_computed} (expected {inst.charge_expected})"
            text += f"\nrank of the bundle = {inst.rank_bundle}; chi bookkeeping {'ok' if inst.chi_consistent else 'FAIL'}"
            for w in table.warnings:
                text += f"\nwarning: {w}"
            return text

        ok = inst.passed and not table.warnings
        return Report(tuple(argv), digest, results, table.warnings, 0.0, 0 if ok else MATH_EXIT, human)

    raise UsageError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    as_json = "--json" in argv
    report = run_command(argv)
    if as_json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.human)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
