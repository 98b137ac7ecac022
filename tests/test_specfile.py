import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orthinst import (
    GenerationExhausted,
    cli,
    NotSkew,
    OddOrder,
    SchemaError,
    ShapeMismatch,
    TensorSpec,
    UsageError,
    check_conditions,
    monad,
    rank,
    specfile,
)
from orthinst.cli import run_command
from orthinst.linalg import MAX_CELLS
from orthinst.specfile import (
    _paired_skew,
    bundled_spec_path,
    generate,
    load_bundled,
    parse_spec,
    serialize_spec,
)


class TestParse:
    def test_bundled_c6p3(self):
        sf = load_bundled("c6p3")
        assert (sf.c, sf.n, sf.r) == (6, 3, 12)
        assert len(sf.spec.terms) == 1
        assert sf.name == "c6p3"

    def test_bundled_c5p3(self):
        sf = load_bundled("c5p3")
        assert (sf.c, sf.n, sf.r) == (5, 3, 10)
        assert len(sf.spec.terms) == 3

    def test_bundled_paths_exist(self):
        for name in ("c6p3", "c5p3"):
            assert bundled_spec_path(name).exists()

    def test_parse_raw_text(self):
        text = json.dumps(
            {"c": 3, "n": 3, "r": 6, "terms": [{"B": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                                                "C": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]}]}
        )
        sf = parse_spec(text.encode())
        assert sf.c == 3 and sf.name is None

    def test_a_str_is_always_a_path(self, tmp_path, monkeypatch):
        # the content of a str is never looked at: a file named like JSON
        # loads, and JSON text is a missing file
        monkeypatch.chdir(tmp_path)
        Path("{c6}.json").write_bytes(bundled_spec_path("c6p3").read_bytes())
        assert parse_spec("{c6}.json") == load_bundled("c6p3")
        with pytest.raises(FileNotFoundError):
            parse_spec('{"c": 3, "n": 3, "r": 0, "terms": []}')

    def test_not_skew_pointer(self):
        text = json.dumps(
            {"c": 2, "n": 1, "r": 0,
             "terms": [{"B": [[0, 1], [1, 0]], "C": [[0, 1], [-1, 0]]}]}
        )
        with pytest.raises(NotSkew) as e:
            parse_spec(text.encode())
        assert e.value.pointer == "/terms/0/B"

    def test_shape_mismatch_pointer(self):
        text = json.dumps(
            {"c": 3, "n": 1, "r": 0,
             "terms": [{"B": [[0, 1], [-1, 0]], "C": [[0, 1], [-1, 0]]}]}
        )
        with pytest.raises(ShapeMismatch) as e:
            parse_spec(text.encode())
        assert e.value.pointer == "/terms/0/B"

    @pytest.mark.parametrize(
        "B, C2, error, pointer, message",
        [
            ([[0, 1, 0], 5, [0, 0, 0]], None, ShapeMismatch, "/terms/0/B", "row 1 must have 3 integer entries"),
            ([[0, True, 0], [-1, 0, 0], [0, 0, 0]], None, ShapeMismatch, "/terms/0/B", "entry [0][1] must be an integer"),
            ([[0, 1, 0], [-1, 0, 0]], None, ShapeMismatch, "/terms/0/B", "expected 3 rows"),
            (None, [[0, 1], "ab"], ShapeMismatch, "/terms/1/C", "row 1 must have 2 integer entries"),
            (None, [[0, 1.5], [-1, 0]], ShapeMismatch, "/terms/1/C", "entry [0][1] must be an integer"),
            (None, [[0, 1], [1, 0]], NotSkew, "/terms/1/C", "entry [0][1] != -entry [1][0]"),
        ],
        ids=["row-not-list", "bool-entry", "row-count", "row-string", "float-entry", "not-skew"],
    )
    def test_malformed_matrix_reports(self, B, C2, error, pointer, message):
        good_B = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
        good_C = [[0, 1], [-1, 0]]
        doc = {"c": 3, "n": 1, "r": 0,
               "terms": [{"B": B or good_B, "C": good_C}, {"B": good_B, "C": C2 or good_C}]}
        with pytest.raises(error) as e:
            parse_spec(json.dumps(doc).encode())
        assert type(e.value) is error
        assert e.value.pointer == pointer
        assert e.value.violations == [(pointer, message)]

    def test_schema_violations_collected_with_pointers(self):
        text = json.dumps({"c": "six", "n": 3, "terms": [], "bogus": 1})
        with pytest.raises(SchemaError) as e:
            parse_spec(text.encode())
        pointers = {ptr for ptr, _ in e.value.violations}
        assert "/c" in pointers and "/r" in pointers and "/terms" in pointers and "/bogus" in pointers

    def test_degenerate_dims_rejected(self):
        text = json.dumps({"c": 0, "n": 3, "r": 0, "terms": [{"B": [], "C": []}]})
        with pytest.raises(SchemaError):
            parse_spec(text.encode())

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_spec(b"{not json")


def utf8_spec(tmp_path):
    """c5p3 named "Kähler-test", written as UTF-8 bytes."""
    doc = json.loads(bundled_spec_path("c5p3").read_bytes())
    doc["name"] = "K\u00e4hler-test"
    path = tmp_path / "kaehler.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    return path


class TestSpecFileBytes:
    # a spec file is UTF-8 JSON whatever the locale, read once: the input
    # hash is of the bytes that were parsed
    def test_utf8_name_verifies_under_the_c_locale(self, tmp_path):
        path = utf8_spec(tmp_path)
        assert b"\xc3\xa4" in path.read_bytes()
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "orthinst.cli", "verify", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "verdict: PASS" in proc.stdout

    def test_input_hash_is_of_the_one_read(self, tmp_path, monkeypatch):
        path = utf8_spec(tmp_path)
        reads, parsed = [], []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
        monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: pytest.fail("spec decoded as text"))
        monkeypatch.setattr(cli, "parse_spec", lambda source: parsed.append(source) or parse_spec(source))
        rep = run_command(["verify", str(path)])
        assert rep.exit_code == 0
        assert reads == [path]
        assert parsed == [path.read_bytes()]
        assert rep.input_hash == hashlib.sha256(parsed[0]).hexdigest()
        assert parse_spec(parsed[0]).name == "K\u00e4hler-test"

    def test_a_list_document_is_a_schema_error(self, tmp_path):
        # file contents are not taken for a path: "[1]" is a document
        path = tmp_path / "list.json"
        path.write_text("[1]")
        with pytest.raises(SchemaError) as e:
            parse_spec(path)
        assert e.value.violations == [("", "document must be a JSON object")]
        rep = run_command(["verify", str(path)])
        assert rep.exit_code == 1
        assert rep.results == {"error": "SchemaError", "message": ": document must be a JSON object"}

    def test_undecodable_bytes_are_invalid_json(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "K\u00e4hler"}'.encode("latin-1"))
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_spec(path)
        rep = run_command(["verify", str(path)])
        assert rep.exit_code == 1 and rep.results["error"] == "SchemaError"

    def test_deeply_nested_json_is_a_schema_error(self, tmp_path):
        # json.loads raises RecursionError, not ValueError, past its depth
        path = tmp_path / "nested.json"
        path.write_text("[" * 1000 + "]" * 1000)
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_spec(path)
        rep = run_command(["verify", str(path), "--json"])
        assert rep.exit_code == 1 and rep.results["error"] == "SchemaError"

    @pytest.mark.parametrize("encode", [
        lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),
        lambda text: text.encode("utf-16"),
    ], ids=["utf8-bom", "utf16"])
    def test_only_plain_utf8_is_json(self, tmp_path, encode):
        # json.loads would detect these encodings in bytes; a spec file is
        # decoded as UTF-8 alone
        path = tmp_path / "encoded.json"
        path.write_bytes(encode(bundled_spec_path("c5p3").read_text(encoding="utf-8")))
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_spec(path)
        rep = run_command(["verify", str(path)])
        assert rep.exit_code == 1 and rep.results["error"] == "SchemaError"


class TestRoundTrip:
    def test_serialize_reparses_equal(self):
        for name in ("c6p3", "c5p3"):
            sf = load_bundled(name)
            again = parse_spec(serialize_spec(sf).encode())
            assert again == sf

    def test_generated_round_trip(self):
        sf, _ = generate(6, 3, mode="pure", seed=1)
        assert parse_spec(serialize_spec(sf).encode()) == sf


class TestGenerate:
    def test_pure_6_3_first_attempt(self):
        sf, attempts = generate(6, 3, mode="pure", seed=1)
        assert attempts == 1
        assert len(sf.spec.terms) == 1
        assert rank(sf.flatten().M) == 24

    def test_pure_rejects_odd_charge(self):
        with pytest.raises(GenerationExhausted) as e:
            generate(5, 3, mode="pure", seed=0)
        assert e.value.attempts == 0
        assert "singular" in str(e.value)

    def test_pure_fallback_on_even_n(self):
        sf, attempts = generate(4, 4, mode="pure", seed=0)
        assert attempts == 1
        assert len(sf.spec.terms) >= 2
        assert "fallback" in sf.name
        assert rank(sf.flatten().M) == 20

    def test_sum_5_3(self):
        sf, attempts = generate(5, 3, mode="sum", seed=7, num_terms=3)
        assert rank(sf.flatten().M) == 20
        assert attempts <= 100

    @pytest.mark.parametrize("terms", [0, 1, 61])
    def test_sum_term_count_outside_2_to_cap_refused_before_any_draw(self, monkeypatch, terms):
        # the cap for c = 5, n = 3 is C(5,2) * C(4,2) = 60, the dimension of the space of forms
        monkeypatch.setattr(specfile, "_random_skew", lambda *a, **k: pytest.fail("drew a block"))
        with pytest.raises(ValueError, match=f"2 <= terms <= C\\(c,2\\)\\*C\\(n\\+1,2\\) = 60, got {terms}"):
            generate(5, 3, mode="sum", num_terms=terms)
        rep = run_command(["generate", "--c", "5", "--n", "3", "--mode", "sum", "--terms", str(terms)])
        assert rep.exit_code == 1
        assert rep.results["error"] == "ValueError"

    def test_precondition(self):
        with pytest.raises(ValueError):
            generate(2, 3, mode="pure", seed=0)

    def test_deterministic(self):
        a, _ = generate(6, 3, mode="pure", seed=9)
        b, _ = generate(6, 3, mode="pure", seed=9)
        assert a == b

    # golden outputs: the bytes, attempt count and name of each path through
    # the attempt loop (paired single term, the even-n fallback that rejects a
    # 2-term sum, a sum, a sum verified on its second attempt) stay fixed
    @pytest.mark.parametrize(
        "c, n, mode, terms, seed, attempts, name, sha",
        [
            (6, 3, "pure", 3, 0, 1, "pure-c6n3-seed0", "48db7c77a71cbde83299fcaf92a97ba506b671dcf8928a8f29ca83ef7a0cb155"),
            (4, 4, "pure", 3, 0, 1, "pure-fallback-sum3-c4n4-seed0", "5c5b5208bcc56c9e8abd921643b8de8544b79126fef3551cd64befc76523b416"),
            (5, 3, "sum", 4, 0, 1, "sum4-c5n3-seed0", "aa0d95b4ef0eb4825f029d6f85cb15aee0088d7bfa7135b8ce17cacc60ca965a"),
            (3, 4, "sum", 3, 1, 2, "sum3-c3n4-seed1", "24d0cfd87f61d584cd6610d36d31595fa9bf2e4e41b7a3ccfbb741b81e996fe9"),
        ],
    )
    def test_golden(self, c, n, mode, terms, seed, attempts, name, sha):
        sf, got = generate(c, n, mode=mode, seed=seed, num_terms=terms)
        assert (got, sf.name) == (attempts, name)
        assert hashlib.sha256(serialize_spec(sf).encode()).hexdigest() == sha

    def test_golden_errors(self, monkeypatch):
        with pytest.raises(GenerationExhausted) as e:
            generate(3, 3, mode="pure")
        assert e.value.attempts == 0
        assert str(e.value) == (
            "pure mode needs even charge: a 3x3 skew matrix is singular, so a single-term form cannot reach "
            "full rank; use sum mode"
        )
        with pytest.raises(ValueError, match="^unknown mode 'mixed'; expected 'pure' or 'sum'$"):
            generate(4, 3, mode="mixed")
        # no candidate verifies: each mode runs out after GENERATE_ATTEMPTS
        monkeypatch.setattr(specfile, "rank", lambda M: -1)
        for c, n, mode, message in [
            (4, 3, "pure", "no verified pure spec found"),
            (4, 4, "pure", "no verified pure spec found"),
            (4, 3, "sum", "no verified sum spec of 3 terms found in 100 attempts"),
        ]:
            with pytest.raises(GenerationExhausted) as e:
                generate(c, n, mode=mode)
            assert (str(e.value), e.value.attempts) == (message, specfile.GENERATE_ATTEMPTS)

    @pytest.fixture(scope="class")
    def generated(self):
        # c in 3..6, n in 3..5, sum of 4 terms at every shape (3 terms find
        # no full-rank form at c = 5, n = 4 for these seeds) and pure at even
        # charge, seeds 0-2
        cases = [
            (c, n, mode, seed)
            for c in range(3, 7)
            for n in range(3, 6)
            for mode in ("sum", "pure")
            if mode == "sum" or c % 2 == 0
            for seed in range(3)
        ]
        return {case: generate(case[0], case[1], mode=case[2], seed=case[3], num_terms=4) for case in cases}

    def test_every_generated_spec_passes_its_conditions(self, generated):
        # the one rank test accepts only verified specs
        for sf, _ in generated.values():
            assert check_conditions(sf.flatten(), sf.r).passed

    def test_generation_runs_no_condition_check(self, generated, monkeypatch):
        # the full-rank test alone decides: no condition check runs, by
        # either name, and every spec and attempt count stays the same
        fail = lambda *a, **k: pytest.fail("ran check_conditions")
        monkeypatch.setattr(monad, "check_conditions", fail)
        monkeypatch.setattr(specfile, "check_conditions", fail, raising=False)
        for (c, n, mode, seed), (sf, attempts) in generated.items():
            again, got = generate(c, n, mode=mode, seed=seed, num_terms=4)
            assert (serialize_spec(again), got) == (serialize_spec(sf), attempts)

    def test_paired_skew_rejects_odd_size(self):
        with pytest.raises(OddOrder):
            _paired_skew(5, random.Random(0))


class TestFlatSizeGuard:
    # the flat matrix has c(n+1) x c(n+1) cells: c(n+1) = 1000 is the largest
    # size within MAX_CELLS = 10**6, and 1001 is refused
    def test_cap_lies_between_1000_and_1001(self):
        assert MAX_CELLS == 1000 * 1000
        assert TensorSpec(1, 999, ()).size == 1000
        with pytest.raises(UsageError, match="1001 x 1001 = 1002001 cells"):
            TensorSpec(1, 1000, ())

    def test_cap_comes_before_block_validation(self):
        with pytest.raises(UsageError, match="c=3, n=333"):
            TensorSpec(3, 333, ((((0,),), ((0,),)),))

    def test_generate_draws_no_block_over_the_cap(self, monkeypatch):
        for drawer in ("_paired_skew", "_random_skew"):
            monkeypatch.setattr(specfile, drawer, lambda *a, **k: pytest.fail("drew a block"))
        for c, n, mode in ((4, 250, "pure"), (4, 251, "pure"), (3, 333, "sum")):
            with pytest.raises(UsageError, match="over the limit"):
                generate(c, n, mode=mode)

    def test_verify_exits_1(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"c": 3, "n": 333, "r": 0, "terms": [{"B": [], "C": []}]}))
        rep = run_command(["verify", str(path)])
        assert rep.exit_code == 1
        assert rep.results["error"] == "UsageError"
        assert "1002 x 1002" in rep.results["message"]

    def test_generate_exits_1(self, monkeypatch):
        for drawer in ("_paired_skew", "_random_skew"):
            monkeypatch.setattr(specfile, drawer, lambda *a, **k: pytest.fail("drew a block"))
        rep = run_command(["generate", "--c", "4", "--n", "250"])
        assert rep.exit_code == 1
        assert rep.results["error"] == "UsageError"
