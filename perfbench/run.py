#!/usr/bin/env python3
"""Run one orthinst benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify-full --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from that
checkout's ``src/`` and nowhere else.  Inputs are drawn from ``--seed``.
``perfbench/workloads.json`` describes the workloads and metrics.

Untraced (``--trace 0``): passes of the workload run back to back in this
process until ``--seconds`` have elapsed (the last pass always completes),
with one set-up probe before each pass.  Later passes are warm: nothing the
program caches per process is reset.  Prints the end-to-end metrics, each a
median over the passes or probes of times scaled to a fixed host speed
(``speed.py``).

Traced (``--trace 1``): pass 0 runs twice untraced and twice with every
layer function wrapped in a span recorder, whatever ``--seconds`` says, so
call counts repeat exactly.  Prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries provenance, the result digest and any failures.  Without a
``src/orthinst`` package next to ``perfbench/`` it exits 1 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import HostSpeed, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_REPEATS = 2
MIN_SETUP_PROBES = 15


def load_program():
    """Import ``orthinst`` from the checkout's ``src/`` and prove it came from there."""
    if not (SRC / "orthinst" / "__init__.py").is_file():
        raise SystemExit(f"error: no orthinst package under {SRC}")
    sys.path.insert(0, str(SRC))
    import orthinst

    if Path(orthinst.__file__).resolve().parent != SRC / "orthinst":
        raise SystemExit(f"error: orthinst imported from {orthinst.__file__}, not from {SRC}")
    return orthinst


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git; None
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def pin_to_quietest_cpu(cpus) -> None:
    """Move this process to the CPU of ``cpus`` that runs a short fixed loop
    fastest right now.  On a shared host the CPUs slow down unevenly, by up
    to half, as other tenants come and go; measuring on the quietest one
    keeps the figures steady.  Child processes inherit the choice, so a
    set-up probe runs on the CPU whose speed the parent samples."""
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(3):
            t0 = perf_counter()
            sum(i * i % 7 for i in range(20000))
            times.append(perf_counter() - t0)
        speed[cpu] = min(times)
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def setup_probe() -> float:
    """Wall time of a fresh interpreter that imports orthinst.cli and parses
    and flattens the bundled specs (``setup_probe.py``), scaled to the
    nominal host speed (``speed.py``)."""
    with HostSpeed() as host:
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py")], check=True, timeout=120)
        wall = perf_counter() - t0 - host.spent
    return scaled(wall, host.samples, host.samples)


def run_untraced(wl, seconds: float, cpus):
    """Passes until ``seconds`` have elapsed, with one set-up probe before
    each pass so the probes spread over the run."""
    from workloads import run_pass

    passes, setup = [], []
    t_start = perf_counter()
    while not passes or perf_counter() - t_start < seconds:
        pin_to_quietest_cpu(cpus)
        setup.append(setup_probe())
        ops, units = wl.build_pass(len(passes))
        passes.append(run_pass(ops))
    while len(setup) < MIN_SETUP_PROBES:
        pin_to_quietest_cpu(cpus)
        setup.append(setup_probe())
    return passes, units, statistics.median(setup)


def untraced_metrics(passes, units: int, setup_s: float) -> dict:
    """Medians over the passes, which draw their own inputs, of the scaled
    pass time and of the pass's slowest scaled op."""
    pass_s = statistics.median(sum(res.op_scaled.values()) for res in passes)
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (units / pass_s, "1/s"),
        "slowest_op_s": (statistics.median(max(res.op_scaled.values()) for res in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(wl, cpus):
    """Pass 0, TRACE_REPEATS times untraced, then TRACE_REPEATS times traced.
    Returns the untraced pass results and a (result, recorder) pair for each
    traced repeat."""
    from spans import Recorder, traced
    from workloads import run_pass

    ops = wl.build_pass(0)[0]
    plain = []
    for _ in range(TRACE_REPEATS):
        pin_to_quietest_cpu(cpus)
        plain.append(run_pass(ops))
    runs = []
    for _ in range(TRACE_REPEATS):
        pin_to_quietest_cpu(cpus)
        rec = Recorder()
        with traced(rec):
            runs.append((run_pass(ops, span=rec.span), rec))
    return plain, runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    orthinst = load_program()
    from spans import layer_metrics
    from workloads import WORKLOADS, fastest_ops

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cpus = os.sched_getaffinity(0)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        if args.trace:
            plain, runs = run_traced(wl, cpus)
            traced_results = [res for res, _ in runs]
            fast, rec = min(runs, key=lambda run: run[0].seconds)
            metrics = layer_metrics(rec.spans, fast.tags)
            overhead = sum(fastest_ops(traced_results).values()) - sum(fastest_ops(plain).values())
            metrics["trace.overhead_s"] = (overhead, "s")
            results = plain + traced_results
            passes = 1
        else:
            results, units, setup_s = run_untraced(wl, args.seconds, cpus)
            metrics = untraced_metrics(results, units, setup_s)
            passes = len(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(res.op_seconds) for res in results)
    failures = [f for res in results for f in res.failures]
    # every pass p has its own inputs; pass 0 is the one a traced run repeats
    digest = results[0].digest
    digest_ok = all(res.digest == digest for res in results) if args.trace else True
    if args.trace:
        metrics["fail_ratio"] = (len(failures) / attempted, "ratio")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "work_unit": wl.unit,
        "digest": digest,
        "digest_traced_equals_untraced": digest_ok if args.trace else None,
        "failures": failures[:20],
        "fastest_op_s": fastest_ops(results),
        "median_op_wall_s": {name: statistics.median(res.op_seconds[name] for res in results)
                             for name in results[0].op_seconds},
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "orthinst": orthinst.__version__,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures and digest_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
