"""The four benchmark workloads: inputs drawn from the seed, and the ops of
one pass.

A pass is a fixed list of ops that run back to back (a closed loop with one
client).  Pass ``p`` of a workload draws its inputs from ``(seed, p)``, so
the same seed always gives the same passes and a longer run sees more
draws.  Each op calls the program through a public entry point and returns
its JSON output; its check runs untimed afterwards.  Ops look up program
functions through their modules at call time, so a traced pass sees the
span wrappers.

``orthinst`` must already be importable from the checkout's ``src/``
(``run.load_program``) before this module is imported.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

from orthinst import cli, jsonio, kronecker, moduli, specfile

import checks
import speed
from checks import SpecInput, exact_rank, flat_matrix, spans_line
from fixtures import DEFICIENT_SPEC, random_spec
from speed import TICK_S, HostSpeed

GEN_C, GEN_N = 8, 5
SCAN_SAMPLES = 250
SCAN_BOXES = (10, 1000)
ORBIT_TRIALS = 8
DRAWN = 2
# verify's default budget, passed explicitly: its A2 sampler makes 2
# kernel_basis calls per unit of budget, so one verify of the fixture,
# which exhausts the budget, takes about 3 s and is the slowest op
VERIFY_BUDGET = 1000
FIXTURE_KMAX = 4
DRAWN_KMAX = 3


@dataclass
class Op:
    name: str
    inputs: object  # what the program receives, without checkout paths
    run: Callable  # run(span) -> JSON text or JSON-able dict
    check: Callable[[dict], Counter]


@dataclass
class PassResult:
    seconds: float  # sum of op times; checks are not timed
    op_seconds: dict[str, float]  # op name -> wall time, without the speed samples
    op_scaled: dict[str, float]  # op name -> wall time at the nominal speed (speed.py)
    failures: list[str]
    tags: Counter
    digest: str


def _file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_spec(path: Path, c: int, n: int, r: int, terms, name: str) -> None:
    doc = {"c": c, "n": n, "r": r, "name": name,
           "terms": [{"B": [list(x) for x in B], "C": [list(x) for x in C]} for B, C in terms]}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _cli_op(name: str, argv: list[str], check, names: dict[str, str]) -> Op:
    argv = argv + ["--json"]

    def run(span):
        report = cli.run_command(argv)
        with span("cli.json_dump"):
            return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)

    return Op(name, [names.get(a, a) for a in argv], run, check)


def _draw_line(rng: random.Random, w: int, box: int = 10) -> tuple[list[int], list[int]]:
    while True:
        P = [rng.randint(-box, box) for _ in range(w)]
        Q = [rng.randint(-box, box) for _ in range(w)]
        if spans_line(P, Q):
            return P, Q


class Workload:
    name = ""
    unit = ""  # what one unit of work_per_s counts

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.bundled = [SpecInput(nm, specfile.bundled_spec_path(nm), "holds") for nm in ("c6p3", "c5p3")]

    def rng(self, p: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{p}")

    def prepare(self) -> None:
        """Untimed input preparation before the set-up probes and passes."""

    def build_pass(self, p: int) -> tuple[list[Op], int]:
        """Ops of pass ``p`` and the units of work they complete."""
        raise NotImplementedError


def _certify_ops(inp: SpecInput, n: int, rng: random.Random, kmax: int, names, full: bool,
                 verify_args: tuple[str, ...] = ()) -> list[Op]:
    """verify, kronecker and cohomology -4..kmax; with ``full`` also monad and
    splitting on a drawn line."""
    spec = str(inp.path)
    seed = str(rng.randrange(10**6))
    ops = [
        _cli_op(f"verify:{inp.name}", ["verify", spec, "--seed", seed, *verify_args],
                partial(checks.check_verify, inp), names),
    ]
    if full:
        ops.append(_cli_op(f"monad:{inp.name}", ["monad", spec], partial(checks.check_monad, inp), names))
    ops += [
        _cli_op(f"kronecker:{inp.name}", ["kronecker", spec, "--seed", seed], partial(checks.check_kronecker, inp), names),
        _cli_op(f"cohomology:{inp.name}", ["cohomology", spec, "--kmin", "-4", "--kmax", str(kmax)],
                partial(checks.check_cohomology, inp, kmin=-4, kmax=kmax), names),
    ]
    if full:
        P, Q = _draw_line(rng, n + 1)
        ops.append(_cli_op(
            f"splitting:{inp.name}",
            # "--P=..." because argparse reads a value starting with "-" as an option
            ["splitting", spec, "--P=" + ",".join(map(str, P)), "--Q=" + ",".join(map(str, Q))],
            partial(checks.check_splitting, inp, P=P, Q=Q), names,
        ))
    return ops


class CertifyFull(Workload):
    """generate (8,5), then verify, monad, kronecker, cohomology -4..0 and
    splitting on c6p3, c5p3 and the generated spec, all through run_command."""

    name = "certify-full"
    unit = "specs certified"

    def build_pass(self, p):
        rng = self.rng(p)
        gen = SpecInput("gen", self.workdir / "gen.json", "holds")
        names = {str(s.path): s.name for s in self.bundled + [gen]}
        gen_seed = str(rng.randrange(10**6))
        ops = [_cli_op(
            "generate",
            ["generate", "--c", str(GEN_C), "--n", str(GEN_N), "--mode", "pure", "--seed", gen_seed, "-o", str(gen.path)],
            partial(checks.check_generate, gen.path, c=GEN_C, n=GEN_N), names,
        )]
        if gen.path.exists():
            gen.path.unlink()  # written by the generate op of this pass
        for inp in self.bundled + [gen]:
            n = GEN_N if inp is gen else inp.data()["n"]
            ops += _certify_ops(inp, n, rng, 0, names, full=True)
        return ops, 3


class CertifyDeficient(Workload):
    """verify and kronecker (default budgets, seeded samplers) and cohomology
    past the standard window, on the rank-8 fixture and on deficient forms
    drawn with the test suite's random_spec recipe."""

    name = "certify-deficient"
    unit = "specs certified"

    def drawn_forms(self, rng: random.Random) -> list[tuple[int, int, int, tuple]]:
        """The first DRAWN one-term random_spec forms (c in {3, 4}, n = 3) of
        rank below size, with r = rank - 2c >= 0, whose charge factor B is
        singular (every c = 3 form, and c = 4 forms with Pf(B) = 0).  Each
        fails A2 by a rational witness h in ker B that the basis sweeps of
        verify and kronecker find at once, so a pass costs the same for
        every seed.  Multi-term forms would not: the samplers run anywhere
        from a few to two thousand kernel_basis calls on them."""
        out = []
        while len(out) < DRAWN:
            c, n, terms = random_spec(rng, cs=(3, 4), ns=(3,), max_terms=1)
            rk = exact_rank(flat_matrix({"c": c, "n": n, "terms": terms}))
            if 2 * c <= rk < c * (n + 1) and exact_rank(terms[0][0]) < c:
                out.append((c, n, rk - 2 * c, terms))
        return out

    def prepare(self):
        self.fixture = SpecInput("fixture", self.workdir / "fixture.json", "fails")
        d = DEFICIENT_SPEC
        _write_spec(self.fixture.path, d["c"], d["n"], d["r"], d["terms"], "deficient-fixture")

    def build_pass(self, p):
        rng = self.rng(p)
        inputs = [(self.fixture, FIXTURE_KMAX)]
        for i, (c, n, r, terms) in enumerate(self.drawn_forms(rng)):
            path = self.workdir / f"drawn{i}.json"
            _write_spec(path, c, n, r, terms, f"drawn{i}")
            inputs.append((SpecInput(f"drawn{i}", path, "fails"), DRAWN_KMAX))
        names = {str(inp.path): inp.name for inp, _ in inputs}
        ops = []
        for inp, kmax in inputs:
            ops += _certify_ops(inp, 3, rng, kmax, names, full=False, verify_args=("--budget", str(VERIFY_BUDGET)))
        return ops, len(inputs)


def _library_op(name: str, inp: SpecInput, inputs: dict, body, check) -> Op:
    def run(span):
        F = specfile.parse_spec(inp.path).flatten()
        return body(F)

    return Op(name, {"spec": inp.name, "sha256": _file_sha(inp.path), **inputs}, run, check)


class LineScan(Workload):
    """scan_lines on c6p3 (even c), c5p3 (odd c) and the generated (8,5)
    spec, each at box 10 and box 1000."""

    name = "line-scan"
    unit = "lines sampled"

    def prepare(self):
        """Write the (8,5) pure spec of this seed with the program's generator."""
        gen_seed = random.Random(f"{self.seed}:{self.name}:gen").randrange(10**6)
        sf, _ = specfile.generate(GEN_C, GEN_N, mode="pure", seed=gen_seed)
        self.gen = SpecInput("gen", self.workdir / "gen.json", "holds")
        self.gen.path.write_text(specfile.serialize_spec(sf))

    def build_pass(self, p):
        rng = self.rng(p)
        ops = []
        for inp in self.bundled + [self.gen]:
            for box in SCAN_BOXES:
                seed = rng.randrange(10**6)
                ops.append(_library_op(
                    f"scan_lines:{inp.name}:{box}", inp, {"samples": SCAN_SAMPLES, "seed": seed, "box": box},
                    lambda F, seed=seed, box=box: jsonio.scan_report_json(
                        kronecker.scan_lines(F, SCAN_SAMPLES, seed=seed, box=box)),
                    partial(checks.check_scan, inp, samples=SCAN_SAMPLES, box=box),
                ))
        return ops, SCAN_SAMPLES * len(ops)


class Orbit(Workload):
    """orbit_probe on c6p3 and c5p3.  Not on the (8,5) spec: one trial there
    takes two to three seconds and its cost swings with the drawn base
    change, more than a run can average out."""

    name = "orbit"
    unit = "orbit trials"

    def build_pass(self, p):
        rng = self.rng(p)
        ops = []
        for inp in self.bundled:
            seed = rng.randrange(10**6)
            ops.append(_library_op(
                f"orbit_probe:{inp.name}", inp, {"trials": ORBIT_TRIALS, "seed": seed},
                lambda F, seed=seed: jsonio.orbit_probe_json(moduli.orbit_probe(F, trials=ORBIT_TRIALS, seed=seed)),
                partial(checks.check_orbit, trials=ORBIT_TRIALS),
            ))
        return ops, ORBIT_TRIALS * len(ops)


WORKLOADS = {w.name: w for w in (CertifyFull, CertifyDeficient, LineScan, Orbit)}


def _result_doc(raw) -> dict:
    """The op's output without the fields that legitimately vary: the timing,
    and the echoed command line, which holds checkout paths."""
    doc = json.loads(raw) if isinstance(raw, str) else raw
    if isinstance(doc, dict) and "timing_ms" in doc:
        doc = {k: v for k, v in doc.items() if k not in ("timing_ms", "command")}
    return doc


def run_pass(ops: list[Op], span=None) -> PassResult:
    """Run the ops back to back; time each while sampling the host's speed
    (speed.py); check each output untimed.  A traced pass (``span`` given)
    takes no speed samples, so that span durations do not include them."""
    tick = TICK_S if span is None else 0
    span = span or (lambda name: nullcontext())
    times, own, failures, tags, results = {}, {}, [], Counter(), []
    with HostSpeed(tick) as host:
        for op in ops:
            mark = host.mark()
            t0 = perf_counter()
            try:
                raw = op.run(span)
            except Exception as e:  # an op that raises is a failed op, not a crashed run
                raw, error = None, e
            else:
                error = None
            wall = perf_counter() - t0
            own[op.name], sampling = host.measure(mark)
            times[op.name] = wall - sampling
            if error is not None:
                failures.append(f"{op.name}: {type(error).__name__}: {error}")
                continue
            doc = _result_doc(raw)
            results.append({"op": op.name, "inputs": op.inputs, "result": doc})
            try:
                tags += op.check(doc)
            except (checks.CheckFailed, KeyError, TypeError, ValueError) as e:
                failures.append(f"{op.name}: {type(e).__name__}: {e}")
    scaled = {name: speed.scaled(t, own[name], host.samples) for name, t in times.items()}
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    return PassResult(sum(times.values()), times, scaled, failures, tags, digest)


def fastest_ops(runs: list[PassResult]) -> dict[str, float]:
    """Each op's fastest wall time over the runs, for trace.overhead_s and
    the info line; the end-to-end metrics use scaled times (speed.py)."""
    best: dict[str, float] = {}
    for res in runs:
        for name, t in res.op_seconds.items():
            best[name] = min(best.get(name, t), t)
    return best
