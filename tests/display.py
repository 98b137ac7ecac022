"""Frozen monad-map displays and a tiny linear-form string parser.

BETA_T_C6P3 is the expected 24x6 second-map display for the bundled
charge-6 example.  Its signs are fully rigid: BETA_T_C6P3_SIGN_VARIANT
flips three entries (rows 10, 11, 13) and thereby breaks the composition
identity and the line-pencil values, which is checked in test_monad.
"""

import re
from fractions import Fraction

from orthinst import LinFormMatrix, RatMatrix

_TERM = re.compile(r"([+-]?(?:\d+(?:/\d+)?)?)x(\d+)")


def lf(text: str, nvars: int = 4) -> list[Fraction]:
    """The coefficients of x_0..x_{nvars-1} in a displayed linear form,
    each an optional integer or p/q before its variable."""
    coeffs = [Fraction(0)] * nvars
    if text.strip() != "0":
        for m in _TERM.finditer(text):
            c = m.group(1)
            if c in ("", "+"):
                val = Fraction(1)
            elif c == "-":
                val = Fraction(-1)
            else:
                val = Fraction(c)
            coeffs[int(m.group(2))] += val
    return coeffs


def grid_to_linform_matrix(grid, nvars: int = 4) -> LinFormMatrix:
    """The displayed grid as its coefficient matrices, one per variable."""
    coeffs = [[lf(cell, nvars) for cell in row] for row in grid]
    return LinFormMatrix(tuple(RatMatrix([[e[l] for e in row] for row in coeffs]) for l in range(nvars)))


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
