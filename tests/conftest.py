import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from orthinst import RatMatrix, TensorSpec, flatten
from orthinst.specfile import SpecFile, load_bundled, serialize_spec


def random_skew(size, rng, box=3):
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            x = rng.randint(-box, box)
            rows[i][j] = x
            rows[j][i] = -x
    return tuple(tuple(r) for r in rows)


def random_spec(rng, cs=(3, 4, 5, 6), ns=(3, 4), max_terms=3):
    c = rng.choice(cs)
    n = rng.choice(ns)
    t = rng.randint(1, max_terms)
    return TensorSpec(c, n, tuple((random_skew(c, rng), random_skew(n + 1, rng)) for _ in range(t)))


def _over_one_denominator(vec):
    """(e, integers) with vec = integers / e."""
    if all(type(x) is int for x in vec):
        return 1, list(vec)
    vec = [Fraction(x) for x in vec]
    e = lcm(*(x.denominator for x in vec))
    return e, [int(x * e) for x in vec]


def reference_along_point(F, v):
    """The c(n+1) x c contraction h -> M(h (x) v): entry ((i,j), k) is
    sum_l M[(i,j),(k,l)] v_l, summed on the integer rows of M."""
    c, w = F.c, F.n + 1
    e, v = _over_one_denominator(v)
    rows = [[sum(map(mul, r[k * w : (k + 1) * w], v)) for k in range(c)] for r in F.M.num]
    return RatMatrix.from_ints(rows, F.M.den * e, cols=c)


def reference_along_charge(F, h):
    """The c(n+1) x (n+1) contraction v -> M(h (x) v): entry ((i,j), l) is
    sum_k h_k M[(i,j),(k,l)], summed on the integer rows of M."""
    c, w = F.c, F.n + 1
    e, h = _over_one_denominator(h)
    rows = [[sum(map(mul, r[l::w], h)) for l in range(w)] for r in F.M.num]
    return RatMatrix.from_ints(rows, F.M.den * e, cols=w)


def bilinear(B, P, Q):
    """sum_{j,l} B[j,l] Q_j P_l: the value at (P, Q) of the bilinear form
    whose coefficient matrix is B, such as a pencil entry's block M(i,k)."""
    P, Q = [Fraction(x) for x in P], [Fraction(x) for x in Q]
    return sum((B[j, l] * Q[j] * P[l] for j in range(B.rows) for l in range(B.cols)), Fraction(0))


@pytest.fixture(scope="session")
def c6p3():
    return load_bundled("c6p3")


@pytest.fixture(scope="session")
def c5p3():
    return load_bundled("c5p3")


@pytest.fixture(scope="session")
def F6(c6p3):
    return c6p3.flatten()


@pytest.fixture(scope="session")
def F5(c5p3):
    return c5p3.flatten()


# a frozen two-term form of deficient rank 8 = 2*3 + 2 whose witness search
# comes up empty: exercises the sampled nondegeneracy tier
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


@pytest.fixture(scope="session")
def F_deficient():
    return flatten(TensorSpec(3, 3, DEFICIENT_TERMS))


@pytest.fixture(scope="session")
def fixture_path(tmp_path_factory):
    """The deficient fixture as a spec file, with r = 2."""
    path = tmp_path_factory.mktemp("specs") / "fixture.json"
    path.write_text(serialize_spec(SpecFile(TensorSpec(3, 3, DEFICIENT_TERMS), 2)))
    return str(path)
