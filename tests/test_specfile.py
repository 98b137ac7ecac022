import json

import pytest

from orthinst import (
    GenerationExhausted,
    NotSkew,
    SchemaError,
    ShapeMismatch,
    rank,
)
from orthinst.specfile import (
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
        sf = parse_spec(text)
        assert sf.c == 3 and sf.name is None

    def test_not_skew_pointer(self):
        text = json.dumps(
            {"c": 2, "n": 1, "r": 0,
             "terms": [{"B": [[0, 1], [1, 0]], "C": [[0, 1], [-1, 0]]}]}
        )
        with pytest.raises(NotSkew) as e:
            parse_spec(text)
        assert e.value.pointer == "/terms/0/B"

    def test_shape_mismatch_pointer(self):
        text = json.dumps(
            {"c": 3, "n": 1, "r": 0,
             "terms": [{"B": [[0, 1], [-1, 0]], "C": [[0, 1], [-1, 0]]}]}
        )
        with pytest.raises(ShapeMismatch) as e:
            parse_spec(text)
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
            parse_spec(json.dumps(doc))
        assert type(e.value) is error
        assert e.value.pointer == pointer
        assert e.value.violations == [(pointer, message)]

    def test_schema_violations_collected_with_pointers(self):
        text = json.dumps({"c": "six", "n": 3, "terms": [], "bogus": 1})
        with pytest.raises(SchemaError) as e:
            parse_spec(text)
        pointers = {ptr for ptr, _ in e.value.violations}
        assert "/c" in pointers and "/r" in pointers and "/terms" in pointers and "/bogus" in pointers

    def test_degenerate_dims_rejected(self):
        text = json.dumps({"c": 0, "n": 3, "r": 0, "terms": [{"B": [], "C": []}]})
        with pytest.raises(SchemaError):
            parse_spec(text)

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_spec("{not json")


class TestRoundTrip:
    def test_serialize_reparses_equal(self):
        for name in ("c6p3", "c5p3"):
            sf = load_bundled(name)
            again = parse_spec(serialize_spec(sf))
            assert again == sf

    def test_generated_round_trip(self):
        sf, _ = generate(6, 3, mode="pure", seed=1)
        assert parse_spec(serialize_spec(sf)) == sf


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

    def test_precondition(self):
        with pytest.raises(ValueError):
            generate(2, 3, mode="pure", seed=0)

    def test_deterministic(self):
        a, _ = generate(6, 3, mode="pure", seed=9)
        b, _ = generate(6, 3, mode="pure", seed=9)
        assert a == b
