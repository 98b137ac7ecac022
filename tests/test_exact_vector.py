"""One reader for exact vectors: ``linalg.exact_vector``.

Every function that takes a point, a direction or a contraction vector reads
it through the one reader, so each of them rejects floats and wrong lengths
alike and agrees on "p/q" strings, Fractions and scaled integers.
"""

import random
from enum import IntEnum
from fractions import Fraction
from math import gcd, lcm

import pytest

from orthinst import (
    DegenerateLine,
    RatMatrix,
    ShapeMismatch,
    TensorSpec,
    flatten,
    gamma_eval,
    kernel_basis,
    line_span_ok,
    splitting_type,
)
from orthinst import kronecker, linalg
from orthinst.linalg import exact_vector


def _linear(M, d):
    return M.scale(Fraction(1, d))


def _invariant(r, d):  # a kernel does not change with the scale of its direction
    return r


def _pairing(size, starts):
    """The skew matrix pairing i with i + 1 for each i in ``starts``."""
    rows = [[0] * size for _ in range(size)]
    for i in starts:
        rows[i][i + 1], rows[i + 1][i] = 1, -1
    return rows


def _split(s):
    return s.verdict, s.determinant


def _cases(F):
    """name -> (length, f, how f(d*v) relates to f(v), the wrong-length error),
    on the c6p3 form (c = 6, n = 3, r = 12), the kernels on a singular form
    of its shape."""
    c, w = F.c, F.n + 1
    P0, Q0 = (1, 2, 3, 4), (5, -6, 7, 8)
    # F has full rank, so every kernel along it is empty; along a direction
    # off ker B and ker C, B (x) C has the kernels ker B (h) and ker C (v)
    S = flatten(TensorSpec(c, F.n, ((_pairing(c, (0, 2)), _pairing(w, (0,))),)))

    def det_scaled(r, d):  # the determinant of a c x c pencil has degree c
        return r[0], r[1] / d**c

    return {
        "exact_vector": (w, lambda v: exact_vector(v, w), lambda r, d: (d, r[1]), ShapeMismatch),
        "kernel_along_point": (w, S.kernel_along_point, _invariant, ShapeMismatch),
        "kernel_along_charge": (c, S.kernel_along_charge, _invariant, ShapeMismatch),
        "pencil:P": (w, lambda v: F.pencil(v, Q0), _linear, ShapeMismatch),
        "pencil:Q": (w, lambda v: F.pencil(P0, v), _linear, ShapeMismatch),
        "mul_vector": (F.size, F.M.mul_vector, lambda r, d: tuple(x / d for x in r), ShapeMismatch),
        "line_span_ok:P": (w, lambda v: line_span_ok(v, Q0), lambda r, d: r, ShapeMismatch),
        "line_span_ok:Q": (w, lambda v: line_span_ok(P0, v), lambda r, d: r, ShapeMismatch),
        "gamma_eval:P": (w, lambda v: gamma_eval(F, v, Q0), _linear, DegenerateLine),
        "gamma_eval:Q": (w, lambda v: gamma_eval(F, P0, v), _linear, DegenerateLine),
        "splitting_type:P": (w, lambda v: _split(splitting_type(F, v, Q0)), det_scaled, DegenerateLine),
        "splitting_type:Q": (w, lambda v: _split(splitting_type(F, P0, v)), det_scaled, DegenerateLine),
    }


NAMES = (
    "exact_vector",
    "kernel_along_point",
    "kernel_along_charge",
    "pencil:P",
    "pencil:Q",
    "mul_vector",
    "line_span_ok:P",
    "line_span_ok:Q",
    "gamma_eval:P",
    "gamma_eval:Q",
    "splitting_type:P",
    "splitting_type:Q",
)


def test_every_reader_is_covered(F6):
    assert set(_cases(F6)) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
class TestOneDoor:
    def vector(self, length):
        return [Fraction((-1) ** k * (k + 1), k % 3 + 2) for k in range(length)]

    def test_float_raises_type_error(self, F6, name):
        length, f, _, _ = _cases(F6)[name]
        v = self.vector(length)
        v[length // 2] = 0.5
        with pytest.raises(TypeError):
            f(v)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_raises_type_error(self, F6, name, flag):
        # bool subclasses int, but a flag is no coordinate
        length, f, _, _ = _cases(F6)[name]
        v = self.vector(length)
        v[length // 2] = flag
        with pytest.raises(TypeError):
            f(v)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length(self, F6, name, delta):
        length, f, _, error = _cases(F6)[name]
        with pytest.raises(error):
            f(self.vector(length + delta))

    def test_strings_fractions_and_scaled_ints_agree(self, F6, name):
        length, f, rescale, _ = _cases(F6)[name]
        v = self.vector(length)
        d = lcm(*[x.denominator for x in v])
        assert d > 1
        want = f(v)
        assert f([str(x) for x in v]) == want
        assert rescale(f([int(x * d) for x in v]), d) == want


class Small(IntEnum):
    ONE = 1
    MINUS_FOUR = -4


# only entries of type exactly int skip the entry check: an int subclass is
# read through it, an IntEnum member as its value and a bool refused
DIFFERENTIAL_VECTORS = [
    [],
    [0, 0, 0],
    [1, -2, 3],
    [-4, -6, -8],
    [True, False, True],
    [1, True, 2],
    [Small.ONE, 2, Small.MINUS_FOUR],
    [Fraction(1, 2), Fraction(-3, 4)],
    [Fraction(4, 2), 6, Fraction(0, 5)],
    ["1/2", "-3/4", "5", "0"],
    ["-10/4", Fraction(5, 6), 7, False],
    [Fraction(-1, 3), Fraction(-2, 3)],
]


def _random_vectors(count=40):
    rng = random.Random(2024)
    kinds = (
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        lambda: f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}",
        lambda: rng.random() < 0.5,
    )
    return [[rng.choice(kinds)() for _ in range(rng.randint(0, 7))] for _ in range(count)]


@pytest.mark.parametrize("vec", DIFFERENTIAL_VECTORS + _random_vectors())
def test_exact_vector_against_fraction_arithmetic_and_ratmatrix(vec):
    if any(type(x) is bool for x in vec):
        # a bool is refused like a float, by the reader and the matrix alike
        with pytest.raises(TypeError):
            exact_vector(vec, len(vec))
        with pytest.raises(TypeError):
            RatMatrix([vec], cols=len(vec))
        return
    d, nums = exact_vector(vec, len(vec))
    assert d > 0 and all(type(x) is int for x in nums)
    # the same rationals, over the least common denominator
    assert [Fraction(x, d) for x in nums] == [Fraction(x) for x in vec]
    assert gcd(d, *nums) == 1
    V = RatMatrix([vec], cols=len(vec))
    assert (V.den, V.num[0]) == (d, nums)


def test_integer_points_build_no_fraction(monkeypatch, F6):
    g = gamma_eval(F6, [1, 2, 3, 4], [5, 6, 7, 8])

    class NoFraction(Fraction):
        def __new__(cls, *args):
            raise AssertionError("a Fraction was built for an integer point")

    for module in (kronecker, linalg):
        monkeypatch.setattr(module, "Fraction", NoFraction)
    again = gamma_eval(F6, [1, 2, 3, 4], [5, 6, 7, 8])
    assert again == g


def test_short_point_message(F6):
    with pytest.raises(DegenerateLine, match="point must have 4 coordinates, got 3"):
        gamma_eval(F6, [1, 2, 3], [5, 6, 7, 8])
    with pytest.raises(DegenerateLine, match="point must have 4 coordinates, got 5"):
        splitting_type(F6, [1, 2, 3, 4], [5, 6, 7, 8, 9])


def test_kernel_basis_returns_int_tuples():
    M = RatMatrix([[Fraction(1, 2), 1, 0], [1, 2, Fraction(1, 3)]])
    (k,) = kernel_basis(M)
    assert all(type(x) is int for x in k)
    assert all(x == 0 for x in M.mul_vector(k))
