"""Frozen monad-map displays, a tiny linear-form string parser, and the
conversions between a map's integer coefficients, their Fraction values and
its per-variable matrices.

BETA_T_C6P3 is the expected 24x6 second-map display for the bundled
charge-6 example.  Its signs are fully rigid: BETA_T_C6P3_SIGN_VARIANT
flips three entries (rows 10, 11, 13) and thereby breaks the composition
identity and the line-pencil values, which is checked in test_monad.
"""

import re
from fractions import Fraction
from math import lcm

from orthinst import LinFormMatrix, RatMatrix

_COEF = r"\d+(?:/\d+)?"
_TERM = re.compile(rf"([+-]?)({_COEF})?x(\d+)")
# signed terms with no gaps; only the first may omit its sign
_FORM = re.compile(rf"[+-]?(?:{_COEF})?x\d+(?:[+-](?:{_COEF})?x\d+)*")


def lf(text: str, nvars: int = 4) -> list[Fraction]:
    """The coefficients of x_0..x_{nvars-1} in a displayed linear form: "0",
    or terms [+-](p|p/q)x<l>, each variable at most once and below nvars;
    ``ValueError`` for any other text."""
    coeffs = [Fraction(0)] * nvars
    if text == "0":
        return coeffs
    if not _FORM.fullmatch(text):
        raise ValueError(f"not a linear form: {text!r}")
    seen = set()
    for sign, p, l in _TERM.findall(text):
        l = int(l)
        if l >= nvars or l in seen:
            raise ValueError(f"variable x{l} repeated or not below {nvars} in {text!r}")
        seen.add(l)
        coeffs[l] = Fraction(p or 1) * (-1 if sign == "-" else 1)
    return coeffs


def values(L: LinFormMatrix) -> tuple:
    """The nonzero coefficients (l, i, j, x / denominator) of ``L`` as Fractions."""
    return tuple((l, i, j, Fraction(x, L.denominator)) for l, i, j, x in L.coefficients)


def from_values(rows: int, cols: int, nvars: int, vals) -> LinFormMatrix:
    """The map with the nonzero Fraction coefficients ``vals``, (l, i, j, v)
    in stored order, over their least common denominator, which shares no
    factor with the integer coefficients."""
    d = lcm(1, *(Fraction(v).denominator for *_, v in vals))
    return LinFormMatrix(rows, cols, nvars, tuple((l, i, j, int(v * d)) for l, i, j, v in vals), d)


def from_parts(parts) -> LinFormMatrix:
    """The map sum_l x_l * parts[l] of one-shape ``RatMatrix`` parts, as its
    nonzero coefficients."""
    P0 = parts[0]
    vals = [(l, i, j, P[i, j]) for l, P in enumerate(parts) for i in range(P.rows) for j in range(P.cols) if P[i, j]]
    return from_values(P0.rows, P0.cols, len(parts), vals)


def to_parts(L: LinFormMatrix) -> list[RatMatrix]:
    """The coefficient matrix of each variable of ``L``, zeros included."""
    grids = [[[0] * L.cols for _ in range(L.rows)] for _ in range(L.nvars)]
    for l, i, j, x in values(L):
        grids[l][i][j] = x
    return [RatMatrix(g, cols=L.cols) for g in grids]


def transposed(L: LinFormMatrix) -> LinFormMatrix:
    """``L`` with i and j swapped in every coefficient, back in row-major order."""
    swapped = tuple(sorted((l, j, i, x) for l, i, j, x in L.coefficients))
    return LinFormMatrix(L.cols, L.rows, L.nvars, swapped, L.denominator)


def grid_to_linform_matrix(grid, nvars: int = 4) -> LinFormMatrix:
    """The displayed grid as a map, read cell by cell through ``lf``."""
    cells = [[lf(cell, nvars) for cell in row] for row in grid]
    vals = [(l, i, j, e[l]) for l in range(nvars) for i, row in enumerate(cells) for j, e in enumerate(row) if e[l]]
    return from_values(len(grid), len(grid[0]), nvars, vals)


BETA_T_C6P3 = [
    ["0", "2x1", "0", "0", "0", "0"],
    ["0", "-2x0", "0", "0", "0", "0"],
    ["0", "-6x3", "0", "0", "0", "0"],
    ["0", "6x2", "0", "0", "0", "0"],
    ["-2x1", "0", "0", "0", "0", "0"],
    ["2x0", "0", "0", "0", "0", "0"],
    ["6x3", "0", "0", "0", "0", "0"],
    ["-6x2", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "-x1", "0", "0"],
    ["0", "0", "0", "x0", "0", "0"],
    ["0", "0", "0", "3x3", "0", "0"],
    ["0", "0", "0", "-3x2", "0", "0"],
    ["0", "0", "x1", "0", "0", "0"],
    ["0", "0", "-x0", "0", "0", "0"],
    ["0", "0", "-3x3", "0", "0", "0"],
    ["0", "0", "3x2", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "x1"],
    ["0", "0", "0", "0", "0", "-x0"],
    ["0", "0", "0", "0", "0", "-3x3"],
    ["0", "0", "0", "0", "0", "3x2"],
    ["0", "0", "0", "0", "-x1", "0"],
    ["0", "0", "0", "0", "x0", "0"],
    ["0", "0", "0", "0", "3x3", "0"],
    ["0", "0", "0", "0", "-3x2", "0"],
]

# three sign flips that look plausible in isolation but are inconsistent:
# row 13 breaks the composition identity outright, rows 10/11 contradict the
# block data through the line-pencil values
BETA_T_C6P3_SIGN_VARIANT = [row[:] for row in BETA_T_C6P3]
BETA_T_C6P3_SIGN_VARIANT[10][3] = "-3x3"
BETA_T_C6P3_SIGN_VARIANT[11][3] = "3x2"
BETA_T_C6P3_SIGN_VARIANT[13][2] = "x0"

# characteristic entries of the charge-5 display, including the composite
# forms produced by the third block pair
BETA_T_C5P3_SPOT_ENTRIES = {
    (0, 1): "x1",
    (0, 2): "x3",
    (0, 4): "x3",
    (1, 1): "-x0",
    (3, 2): "-x0",
    (4, 0): "-x1",
    (4, 3): "x3",
    (7, 3): "-x0-x2",
    (8, 0): "-x3",
    (8, 1): "-x1",
    (11, 4): "-x0-x2",
    (14, 1): "-x3",
    (14, 4): "-x1",
    (15, 1): "x0+x2",
    (17, 0): "-x2",
    (19, 2): "x0+x2",
}
