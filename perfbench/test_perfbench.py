"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

import copy
import json
import random
import signal
import time
from pathlib import Path

import pytest

import run

run.load_program()

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from fixtures import DEFICIENT_SPEC  # noqa: E402
from orthinst import cli, jsonio, kronecker, linalg, monad  # noqa: E402
from orthinst.specfile import bundled_spec_path, parse_spec  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_pass(wl):
    rec = spans.Recorder()
    ops = wl.build_pass(0)[0]
    with spans.traced(rec):
        result = workloads.run_pass(ops, span=rec.span)
    return result, rec


@pytest.fixture(scope="module")
def line_scan(tmp_path_factory):
    wl = workloads.LineScan(1, tmp_path_factory.mktemp("line-scan"))
    wl.prepare()
    return wl


def test_wrappers_rebind_every_import_and_are_restored(line_scan):
    before = spans.bindings_snapshot()
    original_rank = linalg.rank
    rec = spans.Recorder()
    with spans.traced(rec):
        assert linalg.rank is not original_rank
        assert monad.rank is linalg.rank and cli.check_conditions is monad.check_conditions
        linalg.principal_rank_subset(parse_spec(bundled_spec_path("c5p3")).flatten().M)
    inner = [sp for sp in rec.spans if sp.name == "linalg.rank"]
    assert inner and all(rec.spans[sp.parent].name == "linalg.principal_rank_subset" for sp in inner)
    assert spans.bindings_snapshot() == before
    traced_pass(line_scan)
    assert spans.bindings_snapshot() == before


def test_wrappers_are_restored_after_an_exception():
    before = spans.bindings_snapshot()
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Recorder()):
            raise RuntimeError
    assert spans.bindings_snapshot() == before


@pytest.mark.parametrize("cls", [workloads.LineScan, workloads.CertifyFull])
def test_traced_and_untraced_digests_match_and_counts_repeat(cls, tmp_path):
    wl = cls(3, tmp_path)
    wl.prepare()
    plain = workloads.run_pass(wl.build_pass(0)[0])
    first, rec1 = traced_pass(wl)
    second, rec2 = traced_pass(wl)
    assert not plain.failures and not first.failures
    assert plain.digest == first.digest == second.digest
    m1 = spans.layer_metrics(rec1.spans, first.tags)
    m2 = spans.layer_metrics(rec2.spans, second.tags)
    counts = {k: v for k, v in m1.items() if v[1] == "count"}
    assert counts == {k: v for k, v in m2.items() if v[1] == "count"}
    assert m1["linalg.rank.calls"][0] > 0


def test_speed_sampling_restores_the_handler_and_scales_by_the_samples():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.HostSpeed() as host:
        mark = host.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        own, spent = host.measure(mark)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(own) >= speed.MIN_OWN_SAMPLES and 0 < spent < 0.2
    with speed.HostSpeed(0) as idle:
        pass
    assert len(idle.samples) == 1 and idle.spent == 0
    # twice as slow samples halve the scaled time; too few own samples fall back to the pass
    slow = [2 * speed.NOMINAL_S] * speed.MIN_OWN_SAMPLES
    assert speed.scaled(1.0, slow, []) == pytest.approx(0.5)
    assert speed.scaled(1.0, slow[:1], [speed.NOMINAL_S]) == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_different_seed_changes_the_inputs(name, tmp_path):
    def inputs(seed, run):
        wl = workloads.WORKLOADS[name](seed, tmp_path / f"{seed}-{run}")
        wl.workdir.mkdir()
        wl.prepare()
        ops, _ = wl.build_pass(0)
        files = sorted(p.read_text() for p in wl.workdir.glob("*.json"))
        return [op.inputs for op in ops], files

    first = inputs(1, "a")
    assert first == inputs(1, "b")
    assert first != inputs(2, "a")


def test_names_match_benchmark_json_and_the_description(line_scan):
    described = json.loads((run.HERE / "workloads.json").read_text())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS) == list(described["workloads"])
    result, rec = traced_pass(line_scan)
    per_layer = set(spans.layer_metrics(rec.spans, result.tags)) | {"trace.overhead_s", "fail_ratio"}
    assert per_layer == {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = run.untraced_metrics([result], 1, 0.1)
    assert set(end_to_end) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: u for k, (_, u) in end_to_end.items()}


# ----------------------------------------------------------------------
# the checks reject tampered reports
# ----------------------------------------------------------------------


def write_spec(tmp_path, doc, name, a2):
    path = tmp_path / f"{name}.json"
    workloads._write_spec(path, doc["c"], doc["n"], doc["r"], doc["terms"], name)
    return checks.SpecInput(name, path, a2)


def cli_report(argv):
    doc = json.loads(json.dumps(cli.run_command(argv + ["--json"]).to_json_dict()))
    return workloads._result_doc(doc)


def test_scan_check_rejects_a_wrong_tally_and_a_false_witness():
    inp = checks.SpecInput("c6p3", bundled_spec_path("c6p3"), "holds")
    F = parse_spec(inp.path).flatten()
    scan = None
    for seed in range(50):
        scan = jsonio.scan_report_json(kronecker.scan_lines(F, 40, seed=seed, box=3))
        if scan["witnesses"]:
            break
    assert scan["witnesses"], "no jumping line found to tamper with"
    checks.check_scan(inp, scan, samples=40, box=3)

    bad = copy.deepcopy(scan)
    bad["trivial"] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_scan(inp, bad, samples=40, box=3)

    rng = random.Random(0)
    while True:  # a line on which the pencil is invertible: not a witness
        P, Q = workloads._draw_line(rng, 4, box=3)
        if checks.exact_rank(checks.pencil(inp.data(), P, Q)) == 6:
            break
    bad = copy.deepcopy(scan)
    bad["witnesses"][0]["P"], bad["witnesses"][0]["Q"] = P, Q
    with pytest.raises(checks.CheckFailed):
        checks.check_scan(inp, bad, samples=40, box=3)


def test_verify_check_rejects_a_false_counterexample(tmp_path):
    wl = workloads.CertifyDeficient(5, tmp_path)
    c, n, r, terms = wl.drawn_forms(random.Random(0))[0]
    inp = write_spec(tmp_path, {"c": c, "n": n, "r": r, "terms": terms}, "drawn", "fails")
    report = cli_report(["verify", str(inp.path)])
    a2 = report["results"]["conditions"]["a2"]
    assert a2["kind"] == "CounterexampleFound"
    assert checks.check_verify(inp, report) == {}

    bad = copy.deepcopy(report)
    bad["results"]["conditions"]["a2"]["h"] = [x + 1 for x in a2["h"]]
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(inp, bad)


def test_fixture_pass_is_tagged_as_a_false_verdict(tmp_path):
    inp = write_spec(tmp_path, DEFICIENT_SPEC, "fixture", "fails")
    report = cli_report(["kronecker", str(inp.path), "--budget", "5"])
    assert report["results"]["kronecker"]["passed"]
    assert checks.check_kronecker(inp, report) == {"k1_false_pass": 1}


def test_cohomology_and_splitting_checks_reject_tampering():
    inp = checks.SpecInput("c5p3", bundled_spec_path("c5p3"), "holds")
    report = cli_report(["cohomology", str(inp.path)])
    checks.check_cohomology(inp, report, kmin=-4, kmax=0)
    bad = copy.deepcopy(report)
    bad["results"]["table"]["entries"]["(1,-1)"]["dim"] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_cohomology(inp, bad, kmin=-4, kmax=0)

    P, Q = [1, 2, 0, -1], [0, 1, 3, 1]
    report = cli_report(["splitting", str(inp.path), "--P=1,2,0,-1", "--Q=0,1,3,1"])
    checks.check_splitting(inp, report, P=P, Q=Q)
    bad = copy.deepcopy(report)
    bad["results"]["split"]["verdict"] = "Trivial"
    with pytest.raises(checks.CheckFailed):
        checks.check_splitting(inp, bad, P=P, Q=Q)


def test_missing_program_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    with pytest.raises(SystemExit) as exc:
        run.load_program()
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""
