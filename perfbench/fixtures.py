"""Benchmark input data and the random-form recipe.

Both are copied from ``tests/conftest.py`` so that the benchmark never
imports from ``tests/``: ``DEFICIENT_TERMS`` is the frozen two-term form of
deficient rank 8 = 2*3 + 2 (c = 3, n = 3, r = 2), and ``random_spec`` is the
recipe the test suite uses for random forms.  Forms are returned as plain
block data (tuples of integer rows), not as program objects, so the
benchmark decides which inputs to keep without calling the program.
"""

from __future__ import annotations

import random

# tests/conftest.py: DEFICIENT_TERMS.  Over C this form fails the
# no-decomposable-kernel-vector condition (A2): the witness h = (1/2, 1, x)
# with 5x^2 + 7x + 4 = 0 is irrational, so no integer sampler can find it
# (ROADMAP Open item 1).  A passing A2 or K1 verdict on it is false.
DEFICIENT_TERMS = (
    (
        ((0, 0, -2), (0, 0, 1), (2, -1, 0)),
        ((0, -1, 1, 2), (1, 0, 0, 0), (-1, 0, 0, -2), (-2, 0, 2, 0)),
    ),
    (
        ((0, -2, -2), (2, 0, 1), (2, -1, 0)),
        ((0, 0, -2, 0), (0, 0, 0, 2), (2, 0, 0, -1), (0, -2, 1, 0)),
    ),
)
DEFICIENT_SPEC = {"c": 3, "n": 3, "r": 2, "terms": DEFICIENT_TERMS}


def random_skew(size: int, rng: random.Random, box: int = 3) -> tuple[tuple[int, ...], ...]:
    """tests/conftest.py: random_skew."""
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            x = rng.randint(-box, box)
            rows[i][j] = x
            rows[j][i] = -x
    return tuple(tuple(r) for r in rows)


def random_spec(rng: random.Random, cs=(3, 4, 5, 6), ns=(3, 4), max_terms: int = 3):
    """tests/conftest.py: random_spec, returning (c, n, terms)."""
    c = rng.choice(cs)
    n = rng.choice(ns)
    t = rng.randint(1, max_terms)
    return c, n, tuple((random_skew(c, rng), random_skew(n + 1, rng)) for _ in range(t))
