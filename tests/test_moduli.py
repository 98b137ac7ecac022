import pytest
from hypothesis import given, settings, strategies as st

from orthinst import (
    FlatForm,
    HypothesisViolation,
    RatMatrix,
    det,
    moduli_dim,
    orbit_probe,
)
from orthinst import kronecker, moduli
from orthinst.moduli import random_unimodular
from orthinst.monad import MAX_SAMPLES

import random


class TestModuliDim:
    @pytest.mark.parametrize("c,n,want", [(6, 3, 54), (5, 3, 35), (3, 3, 9)])
    def test_values(self, c, n, want):
        info = moduli_dim(c, n)
        assert info.dim == want
        assert not info.possibly_empty

    def test_components(self):
        info = moduli_dim(6, 3)
        assert info.ambient_dim == 90 and info.group_dim == 36

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolation):
            moduli_dim(2, 3)
        with pytest.raises(HypothesisViolation):
            moduli_dim(3, 2)

    def test_dim_components_consistent(self):
        info = moduli_dim(4, 3)
        assert info.dim == 6 * 6 - 16 == 20
        assert info.dim + info.group_dim == info.ambient_dim

    @given(st.integers(3, 12), st.integers(3, 9))
    @settings(max_examples=80, derandomize=True)
    def test_formula_invariant(self, c, n):
        from math import comb

        info = moduli_dim(c, n)
        assert info.dim + c * c == comb(c, 2) * comb(n + 1, 2)
        assert info.dim >= c * (2 * c - 3)
        assert info.possibly_empty == (info.dim < 0)


class TestRandomUnimodular:
    def test_invertible_integer(self):
        rng = random.Random(7)
        for _ in range(30):
            h = random_unimodular(5, rng)
            assert det(h) in (1, -1)
            assert all(x.denominator == 1 for row in h.to_rows() for x in row)


class TestOrbitProbe:
    def test_c6p3(self, F6):
        rep = orbit_probe(F6, trials=10, seed=0)
        assert rep.passed
        assert rep.violations == ()
        assert rep.isotropy_ok
        assert rep.panel_size == 20

    def test_zero_form(self):
        F = FlatForm(3, 3, RatMatrix.zeros(12, 12))
        rep = orbit_probe(F, trials=5, seed=1)
        assert rep.passed

    def test_panel_lines_are_span_checked_once(self, F6, monkeypatch):
        # the span checks are the rank calls on 2 x (n+1) point matrices;
        # the panel's own check is the only one per line
        shapes = []
        rank = kronecker.rank
        monkeypatch.setattr(kronecker, "rank", lambda M: shapes.append((M.rows, M.cols)) or rank(M))
        rep = orbit_probe(F6, trials=8, seed=3)
        assert rep.passed and rep.panel_size == 20
        assert shapes == [(2, 4)] * 20

    def test_deterministic(self, F5):
        a = orbit_probe(F5, trials=4, seed=3)
        b = orbit_probe(F5, trials=4, seed=3)
        assert a == b

    @pytest.mark.parametrize("trials, bound", [(-3, ">= 1"), (0, ">= 1"), (MAX_SAMPLES + 1, f"<= {MAX_SAMPLES}")])
    def test_trial_count_outside_1_to_max_refused_before_any_draw(self, F5, monkeypatch, trials, bound):
        monkeypatch.setattr(moduli, "_seeded_panel", lambda *a: pytest.fail("drew the panel"))
        with pytest.raises(ValueError, match=f"^trials must be {bound}, got {trials}$"):
            orbit_probe(F5, trials=trials)
