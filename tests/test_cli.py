import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from orthinst import FlatForm, TensorSpec, build_beta, cli, jsonio
from orthinst.cli import run_command
from orthinst.specfile import SpecFile, bundled_spec_path, parse_spec, serialize_spec

from conftest import DEFICIENT_TERMS
from display import transposed

C6 = str(bundled_spec_path("c6p3"))
C5 = str(bundled_spec_path("c5p3"))


def strip_timing(report_dict):
    d = dict(report_dict)
    d.pop("timing_ms")
    return d


class TestVerify:
    def test_c6p3_passes(self):
        rep = run_command(["verify", C6])
        assert rep.exit_code == 0
        assert rep.results["conditions"]["passed"] is True
        assert rep.results["conditions"]["rank_A"] == 24

    def test_r_from_file(self):
        rep = run_command(["verify", C5])
        assert rep.exit_code == 0

    def test_rank_bound_violation_exits_2(self, tmp_path):
        doc = json.loads(Path(C6).read_bytes())
        doc["r"] = 13
        path = tmp_path / "c6p3-r13.json"
        path.write_text(json.dumps(doc))
        rep = run_command(["verify", str(path)])
        assert rep.exit_code == 2
        assert rep.results["conditions"]["precheck"] == "RankBoundViolated"

    def test_missing_file_exits_1(self):
        rep = run_command(["verify", "/no/such/file.json"])
        assert rep.exit_code == 1

    def test_deterministic_modulo_timing(self):
        a = run_command(["verify", C6, "--json"])
        b = run_command(["verify", C6, "--json"])
        assert a.exit_code == 0
        assert strip_timing(a.to_json_dict()) == strip_timing(b.to_json_dict())
        assert json.dumps(strip_timing(a.to_json_dict()), sort_keys=True) == json.dumps(
            strip_timing(b.to_json_dict()), sort_keys=True
        )

    def test_input_hash_present(self):
        rep = run_command(["verify", C6])
        assert len(rep.input_hash) == 64


class TestMonad:
    def test_c6p3(self):
        rep = run_command(["monad", C6])
        assert rep.exit_code == 0
        assert rep.results["identity_zero"] is True
        assert rep.results["beta_t"][0][1] == "2x1"
        assert rep.results["alpha"][0][0] == "x0"

    def test_full_rank_builds_each_map_once(self, monkeypatch):
        calls = []
        build_alpha = cli.build_alpha
        monkeypatch.setattr(cli, "build_alpha", lambda *a, **k: calls.append(a) or build_alpha(*a, **k))
        monkeypatch.setattr(cli, "build_beta_full", lambda F: pytest.fail("unrestricted beta built at full rank"))
        rep = run_command(["monad", C6])
        assert rep.exit_code == 0 and rep.results["identity_zero"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("which", ["c6p3", "c5p3", "deficient"])
    def test_beta_t_is_the_transpose_of_beta(self, which, tmp_path):
        # beta^t is rendered from beta's own grid; it must read as the grid
        # of the transposed map, in JSON and in text
        if which == "deficient":
            path = tmp_path / "deficient.json"
            path.write_text(serialize_spec(SpecFile(TensorSpec(3, 3, DEFICIENT_TERMS), 2)))
        else:
            path = bundled_spec_path(which)
        sf = parse_spec(path)
        expected = jsonio.linform_matrix_json(transposed(build_beta(sf.flatten(), sf.r)))
        rep = run_command(["monad", str(path), "--json"])
        assert rep.exit_code == 0
        assert json.loads(json.dumps(rep.results))["beta_t"] == expected
        # below full rank the identity is checked on the unrestricted pair,
        # and the line says so: the displayed restricted pair is no monad
        checked = "of the unrestricted maps beta.alpha" if which == "deficient" else "beta.alpha"
        assert "\nbeta^t =\n" + cli._grid(expected) + f"\n\ncomposition {checked} = 0: ok" in rep.human


class TestSplitting:
    @pytest.mark.parametrize("P,Q", [("1,0,0,0", "0,0,0,1"), ("1,2,3,4", "5,6,7,8")])
    def test_pencil_evaluated_once(self, monkeypatch, P, Q):
        calls = []
        pencil = FlatForm.pencil
        monkeypatch.setattr(FlatForm, "pencil", lambda self, *a: calls.append(a) or pencil(self, *a))
        for spec in (C6, C5):
            rep = run_command(["splitting", spec, "--P", P, "--Q", Q])
            assert rep.exit_code == 0
        assert len(calls) == 2

    def test_jumping_line(self):
        rep = run_command(["splitting", C6, "--P", "1,0,0,0", "--Q", "0,0,0,1"])
        assert rep.exit_code == 0
        assert rep.results["split"]["verdict"] == "Jumping"
        assert rep.results["split"]["det"] == "0"

    def test_trivial_line(self):
        rep = run_command(["splitting", C6, "--P", "1,2,3,4", "--Q", "5,6,7,8"])
        assert rep.results["split"]["verdict"] == "Trivial"

    def test_degenerate_line_exits_1(self):
        rep = run_command(["splitting", C6, "--P", "1,0,0,0", "--Q", "2,0,0,0"])
        assert rep.exit_code == 1

    def test_bad_point_syntax_exits_1(self):
        rep = run_command(["splitting", C6, "--P", "1,a,0,0", "--Q", "0,0,0,1"])
        assert rep.exit_code == 1

    @pytest.mark.parametrize("spec", [C6, C5], ids=["c6p3", "c5p3"])
    @pytest.mark.parametrize("P,Q", [("-1,2,0,0", "0,0,1,0"), ("1,0,0,0", "-3,0,1,2"), ("-1,0,0,0", "-2,1,0,0")])
    def test_negative_first_coordinate_in_either_form(self, spec, P, Q):
        # argparse reads a separate "-1,2,0,0" as an option unless --P is
        # joined to it; the report echoes the argv as given
        argv = ["splitting", spec, "--P", P, "--Q", Q]
        spaced = run_command(argv)
        joined = run_command(["splitting", spec, f"--P={P}", f"--Q={Q}"])
        assert spaced.exit_code == joined.exit_code == 0, spaced.human
        assert spaced.results == joined.results
        assert spaced.results["gamma"]["P"] == P.split(",")
        assert spaced.command == tuple(argv)

    @pytest.mark.parametrize("point", ["-1,a,0,0", "-1,,0,0", "-"])
    def test_malformed_negative_list_names_the_list(self, point):
        rep = run_command(["splitting", C6, "--P", point, "--Q", "0,0,1,0"])
        assert rep.exit_code == 1
        assert rep.results == {"error": "UsageError", "message": f"expected comma-separated integers, got {point!r}"}

    def test_missing_point_still_needs_its_argument(self):
        rep = run_command(["splitting", C6, "--Q", "0,0,1,0", "--P"])
        assert rep.exit_code == 1
        assert rep.results["message"] == "argument --P: expected one argument"


class TestScan:
    def test_scan_json_schema(self):
        rep = run_command(["scan-lines", C6, "--samples", "50", "--seed", "0", "--json"])
        scan = rep.results["scan"]
        assert scan["samples"] == 50
        assert scan["samples"] == scan["trivial"] + scan["jumping"] + scan["degenerate"]
        assert isinstance(scan["witnesses"], list)

    def test_forced_jumping_witness_fields(self):
        rep = run_command(["scan-lines", C5, "--samples", "3"])
        ws = rep.results["scan"]["witnesses"]
        assert ws and set(ws[0]) == {"P", "Q", "det"}


class TestKronecker:
    def test_c6p3(self):
        rep = run_command(["kronecker", C6])
        assert rep.exit_code == 0
        k = rep.results["kronecker"]
        assert k["rank_gamma_hat"] == 24
        assert k["matches_expected"] is True
        assert k["matches_printed_alt"] is False


class TestCohomology:
    def test_c6p3_table(self):
        rep = run_command(["cohomology", C6, "--kmin", "-4", "--kmax", "0"])
        assert rep.exit_code == 0
        entries = rep.results["table"]["entries"]
        assert entries["(1,-1)"] == {"dim": 6, "cert": "Direct"}
        assert entries["(2,-3)"] == {"dim": 6, "cert": "SerreDual"}
        assert rep.results["instanton"]["charge_computed"] == 6


class TestModuliDim:
    def test_value(self):
        rep = run_command(["moduli-dim", "--c", "6", "--n", "3"])
        assert rep.exit_code == 0
        assert rep.results["moduli"]["dim"] == 54

    def test_hypothesis_violation_exits_1(self):
        rep = run_command(["moduli-dim", "--c", "2", "--n", "3"])
        assert rep.exit_code == 1


class TestGenerate:
    def test_pure(self, tmp_path):
        out = tmp_path / "spec.json"
        rep = run_command(["generate", "--c", "6", "--n", "3", "--mode", "pure", "--seed", "1", "-o", str(out)])
        assert rep.exit_code == 0
        assert out.exists()
        check = run_command(["verify", str(out)])
        assert check.exit_code == 0

    def test_exhaustion_exits_2(self):
        rep = run_command(["generate", "--c", "5", "--n", "3", "--mode", "pure"])
        assert rep.exit_code == 2

    def test_sum_exhaustion_names_the_term_count(self):
        # the default 3 terms reach no full-rank form at c = 5, n = 4 for
        # seed 0 (4 terms do at once), so the message names the count to change
        rep = run_command(["generate", "--c", "5", "--n", "4", "--mode", "sum", "--seed", "0"])
        assert rep.exit_code == 2
        assert rep.results == {
            "error": "GenerationExhausted",
            "message": "no verified sum spec of 3 terms found in 100 attempts",
        }


class TestUsage:
    @pytest.mark.parametrize("cmd", ["verify", "monad", "kronecker", "cohomology"])
    def test_r_option_is_refused(self, cmd, monkeypatch):
        # r is read only from the spec file: --r is an unknown option whatever
        # its value, c6p3's own r = 12 included, and is refused before the
        # form is flattened
        monkeypatch.setattr(SpecFile, "flatten", lambda sf: pytest.fail("flattened despite --r"))
        for value in ("-1", "0", "12"):
            rep = run_command([cmd, C6, "--r", value])
            assert (rep.exit_code, rep.results["error"]) == (1, "UsageError")
            assert rep.human == f"error: unrecognized arguments: --r {value}"

    @staticmethod
    def _c6p3_with_r(tmp_path, r):
        doc = json.loads(Path(C6).read_bytes())
        doc["r"] = r
        path = tmp_path / f"c6p3-r{r}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("cmd", ["verify", "monad", "kronecker", "cohomology"])
    def test_negative_r_is_refused(self, cmd, monkeypatch, tmp_path):
        # "r": -1 in the spec file, the only source of r, is a usage error
        # refused by the schema before the form is flattened
        path = self._c6p3_with_r(tmp_path, -1)
        monkeypatch.setattr(SpecFile, "flatten", lambda sf: pytest.fail("flattened before r was checked"))
        rep = run_command([cmd, path])
        assert (rep.exit_code, rep.results["error"]) == (1, "SchemaError")
        assert rep.human == "error: /r: must be >= 0"

    @pytest.mark.parametrize("cmd", ["verify", "monad", "kronecker", "cohomology"])
    def test_r_zero_is_accepted(self, cmd, tmp_path):
        # c6p3 has r = 12, so "r": 0 in its file is a mathematical failure,
        # not a usage one
        rep = run_command([cmd, self._c6p3_with_r(tmp_path, 0)])
        assert rep.exit_code == 2
        assert rep.results.get("error") not in ("UsageError", "SchemaError")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", C5, "--jso"],
            ["verify", C5, "--bud", "5"],
            ["scan-lines", C5, "--samp", "5"],
            ["moduli-dim", "--c", "6", "--n", "3", "--js"],
            ["generate", "--c", "6", "--n", "3", "--see", "1"],
        ],
    )
    def test_abbreviated_flags_are_refused(self, argv):
        # main picks the output format by an exact "--json" in argv, so the
        # parser must not read "--jso" as "--json" either
        rep = run_command(argv)
        assert (rep.exit_code, rep.results["error"]) == (1, "UsageError")
        assert rep.results["message"].startswith("unrecognized arguments: ")

    def test_unknown_command(self):
        rep = run_command(["frobnicate"])
        assert rep.exit_code == 1

    def test_no_command(self):
        rep = run_command([])
        assert rep.exit_code == 1

    @pytest.mark.parametrize(
        "argv",
        [["monad", C5], ["splitting", C5, "--P", "1,2,3,4", "--Q", "2,-1,0,3"], ["cohomology", C5, "--kmax", "-1"]],
    )
    def test_seed_is_refused_where_nothing_is_drawn(self, argv):
        # only verify, kronecker and scan-lines draw from a seed
        assert run_command(argv).exit_code == 0
        rep = run_command([*argv, "--seed", "1"])
        assert (rep.exit_code, rep.results["error"]) == (1, "UsageError")
        assert "--seed" in rep.results["message"]

    @pytest.mark.parametrize("cmd", ["verify", "kronecker", "scan-lines"])
    def test_seeded_commands_keep_seed(self, cmd):
        rep = run_command([cmd, C5, "--seed", "1", *(["--samples", "5"] if cmd == "scan-lines" else [])])
        assert rep.exit_code == 0

    def test_shared_parser_reports_match_fresh_parsers(self):
        # the parser is built once per process; a usage error must leave it
        # as a fresh one for the calls that follow
        argvs = [
            ["verify"],
            ["kronecker", C6, "--json"],
            ["splitting", C5, "--P", "1,2,3,4", "--Q", "2,-1,0,3"],
        ]
        cli._build_parser.cache_clear()
        shared = [run_command(a) for a in argvs]
        fresh = []
        for a in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run_command(a))
        assert shared[0].exit_code == 1 and [r.exit_code for r in shared[1:]] == [0, 0]
        for a, b in zip(shared, fresh):
            assert strip_timing(a.to_json_dict()) == strip_timing(b.to_json_dict())
            assert a.human == b.human


class TestReadme:
    def test_command_line_examples_run(self, tmp_path):
        # every line of the README's command block, run on the bundled c6p3,
        # exits 0 or 2; a usage error means the README shows a gone option
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
        lines = block.splitlines()
        assert lines
        for line in lines:
            prog, *argv = shlex.split(line, comments=True)
            assert prog == "orthinst"
            argv = [{"SPEC.json": C6, "out.json": str(tmp_path / "out.json")}.get(a, a) for a in argv]
            rep = run_command(argv)
            assert rep.exit_code in (0, 2), (line, rep.human)

    def test_layout_names_every_module(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^## Layout\n.*?^```\n(.*?)^```", text, re.S | re.M).group(1)
        named = re.findall(r"^  (\w+\.py) ", block, re.M)
        modules = [p.name for p in sorted((Path(cli.__file__).parent).glob("*.py")) if p.name != "__init__.py"]
        assert sorted(named) == modules


class TestOptimizedInterpreter:
    # python -O drops every assert; the mathematical guards are explicit
    # checks, so the reports must not change
    EXTRA = {"splitting": ["--P", "1,2,3,4", "--Q", "2,-1,0,3"], "scan-lines": ["--samples", "40"]}
    # a deficient (3, 3) form with r = 2 whose first decomposable kernel
    # vector is found along a drawn direction, after the 7 basis directions
    DRAWN_HIT_TERMS = (
        (((0, 1, 2), (-1, 0, -1), (-2, 1, 0)), ((0, 1, -1, -1), (-1, 0, -1, 1), (1, 1, 0, -3), (1, -1, 3, 0))),
        (((0, 2, 2), (-2, 0, -2), (-2, 2, 0)), ((0, 0, 0, -3), (0, 0, -2, 2), (0, 2, 0, -2), (3, -2, 2, 0))),
    )

    def reports(self, argv):
        """The JSON reports of argv under plain python and python -O, without timing."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONOPTIMIZE", None)
        reports = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "orthinst.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.stderr == ""
            report = json.loads(proc.stdout)
            assert proc.returncode == report["exit_code"]
            reports.append(strip_timing(report))
        return reports

    @pytest.mark.parametrize("cmd", ["verify", "kronecker", "cohomology", "splitting", "monad", "scan-lines"])
    @pytest.mark.parametrize("which", ["c5p3", "fixture"])
    def test_reports_match_under_python_o(self, cmd, which, fixture_path):
        spec = C5 if which == "c5p3" else fixture_path
        reports = self.reports([cmd, spec, "--json", *self.EXTRA.get(cmd, [])])
        assert reports[0] == reports[1]
        assert "error" not in reports[0]["results"]

    @pytest.mark.parametrize("cmd", ["verify", "kronecker"])
    def test_drawn_hit_matches_under_python_o(self, cmd, tmp_path):
        # the search's hit path: a witness from the random phase, with
        # neither h nor v a basis vector
        path = tmp_path / "drawn_hit.json"
        path.write_text(serialize_spec(SpecFile(TensorSpec(3, 3, self.DRAWN_HIT_TERMS), 2)))
        reports = self.reports([cmd, str(path), "--json"])
        assert reports[0] == reports[1]
        results = reports[0]["results"]
        status = results["conditions"]["a2"] if cmd == "verify" else results["kronecker"]["k1"]
        assert status == {"kind": "CounterexampleFound", "h": [3, 4, -3], "v": [1, 1, 1, 0]}
        assert reports[0]["exit_code"] == 2
