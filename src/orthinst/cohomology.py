"""Cohomology tables of the monad's bundle from global-section matrices.

Writing sigma_k for the matrix of the second monad map on degree-k global
sections (monomial coefficients of the linear-form entries), the display of
the monad gives, for n >= 3,

    h^0(k) = dim ker sigma_k - c * h^0(O(k-1))
    h^1(k) = dim coker sigma_k
    h^i(k) = 0                      for 2 <= i <= n-2 (forced by the display)
    h^{n-1}(k), h^n(k)              by duality with h^1, h^0 at -k-n-1,

the last line using the symmetric self-duality of the bundle.  Monomials are
ordered graded-lexicographically with x_0 > x_1 > ... > x_n so every matrix
layout is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .errors import PreconditionN
from .forms import FlatForm
from .linalg import RatMatrix, rank
from .monad import LinFormMatrix, build_beta


def bott_h(i: int, k: int, n: int) -> int:
    """Cohomology dimension h^i(O(k)) of a line bundle on projective n-space."""
    if i < 0 or i > n:
        raise ValueError(f"need 0 <= i <= n, got i={i}")
    if i == 0:
        return comb(n + k, n) if k >= 0 else 0
    if i == n:
        return comb(-k - 1, n) if k <= -n - 1 else 0
    return 0


def chi_line_bundle(k: int, n: int) -> int:
    """Euler characteristic chi(O(k)) as the binomial polynomial, any k
    (exact: n! divides a product of n consecutive integers)."""
    return prod(range(k + 1, k + n + 1)) // factorial(n)


@lru_cache(maxsize=None)
def monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the degree-d monomials in x_0..x_n, graded-lex
    descending (x_0 biggest)."""
    if d < 0:
        return ()
    if n == 0:
        return ((d,),)
    out = []
    for e0 in range(d, -1, -1):
        for rest in monomials(n - 1, d - e0):
            out.append((e0,) + rest)
    return tuple(out)


def section_map(F: FlatForm, r: int, k: int) -> RatMatrix:
    """Matrix of the second monad map on degree-k sections.

    Maps (middle space) x (degree-k monomials) to (charge-dual space) x
    (degree-(k+1) monomials); block (m, w) multiplies by the linear form in
    entry (m, w) of the second map.  At k = 0 and maximal rank this is the
    flat matrix itself.
    """
    beta = build_beta(F, r)
    return _assemble_section_matrix(beta, F.c, F.n, k)


def _assemble_section_matrix(beta: LinFormMatrix, c: int, n: int, k: int) -> RatMatrix:
    src = monomials(n, k)
    dst = monomials(n, k + 1)
    dst_index = {m: t for t, m in enumerate(dst)}
    wdim = beta.cols
    rows_n = c * len(dst)
    cols_n = wdim * len(src)
    grid = [[Fraction(0)] * cols_n for _ in range(rows_n)]
    for m in range(c):
        for w in range(wdim):
            form = beta.entries[m][w]
            if form.is_zero():
                continue
            for s, mono in enumerate(src):
                col = w * len(src) + s
                for l, coef in enumerate(form.coeffs):
                    if coef == 0:
                        continue
                    bumped = list(mono)
                    bumped[l] += 1
                    row = m * len(dst) + dst_index[tuple(bumped)]
                    grid[row][col] += coef
    return RatMatrix(grid, cols=cols_n)


@dataclass(frozen=True)
class CohomEntry:
    dim: int
    cert: str  # Direct | ForcedZero | SerreDual


@dataclass(frozen=True)
class CohomTable:
    c: int
    n: int
    r: int
    kmin: int
    kmax: int
    entries: dict  # (i, k) -> CohomEntry
    warnings: tuple[str, ...]

    def dim(self, i: int, k: int) -> int:
        return self.entries[(i, k)].dim

    def cert(self, i: int, k: int) -> str:
        return self.entries[(i, k)].cert


class _DirectEngine:
    """Caches section-map ranks/kernels per twist for one (F, r)."""

    def __init__(self, F: FlatForm, r: int):
        self.F = F
        self.r = r
        self.c = F.c
        self.n = F.n
        self.beta = build_beta(F, r)
        self._cache: dict[int, tuple[int, int, int]] = {}

    def _sigma(self, k: int) -> tuple[int, int, int]:
        if k not in self._cache:
            m = _assemble_section_matrix(self.beta, self.c, self.n, k)
            self._cache[k] = (m.rows, m.cols, rank(m))
        return self._cache[k]

    def h0(self, k: int) -> int:
        rows, cols, rk = self._sigma(k)
        return (cols - rk) - self.c * bott_h(0, k - 1, self.n)

    def h1(self, k: int) -> int:
        rows, cols, rk = self._sigma(k)
        return rows - rk

    def entry(self, i: int, k: int) -> CohomEntry:
        """h^i(E(k)) and its provenance, by the display and duality above."""
        n = self.n
        if i == 0:
            return CohomEntry(self.h0(k), "Direct")
        if i == 1:
            return CohomEntry(self.h1(k), "Direct")
        if 2 <= i <= n - 2:
            return CohomEntry(0, "ForcedZero")
        if i == n - 1:
            return CohomEntry(self.h1(-k - n - 1), "SerreDual")
        if i == n:
            return CohomEntry(self.h0(-k - n - 1), "SerreDual")
        raise ValueError(i)


def h_table(F: FlatForm, r: int, kmin: int, kmax: int) -> CohomTable:
    """Dimension table h^i(E(k)) for i in [0, n], k in [kmin, kmax].

    Every entry carries its provenance: Direct (section-map computation),
    ForcedZero (middle row vanishing forced by the display), or SerreDual
    (duality partner computed directly).  Entries inside the standard window
    k in [-n-1, 0] are cross-checked against the expected instanton values
    and discrepancies are reported as warnings.
    """
    c, n = F.c, F.n
    if n < 3:
        raise PreconditionN(f"cohomology tables need n >= 3, got n={n}")
    if kmin > kmax:
        raise ValueError("kmin must be <= kmax")
    eng = _DirectEngine(F, r)
    entries: dict[tuple[int, int], CohomEntry] = {}
    for k in range(kmin, kmax + 1):
        for i in range(n + 1):
            entries[(i, k)] = eng.entry(i, k)

    warnings = []
    for (i, k), e in sorted(entries.items()):
        if -n - 1 <= k <= 0:
            if (i, k) in ((1, -1), (n - 1, -n)):
                want = c
            elif (i, k) in ((1, 0), (n - 1, -n - 1)):
                want = (n - 1) * c - r
            else:
                want = 0
            if e.dim != want:
                warnings.append(f"h^{i}(E({k})) = {e.dim}, expected {want} for charge {c} rank {r}")
    return CohomTable(c=c, n=n, r=r, kmin=kmin, kmax=kmax, entries=entries, warnings=tuple(warnings))


@dataclass(frozen=True)
class InstantonReport:
    conditions: tuple[tuple[str, bool], ...]
    charge_computed: int
    charge_expected: int
    chi_consistent: bool
    rank_bundle: int

    @property
    def passed(self) -> bool:
        return (
            all(ok for _, ok in self.conditions)
            and self.charge_computed == self.charge_expected
            and self.chi_consistent
        )


def verify_instanton(F: FlatForm, r: int) -> InstantonReport:
    """Check the defining cohomological vanishings and recompute the charge.

    The charge is the negated alternating sum of the k = -1 table column;
    Euler characteristics of every computed column are also compared against
    the bundle-level bookkeeping (middle space dimension 2c+r minus the two
    end terms), which pins rank = dim W - 2c.
    """
    c, n = F.c, F.n
    if n < 3:
        raise PreconditionN(f"instanton verification needs n >= 3, got n={n}")
    eng = _DirectEngine(F, r)

    def h(i: int, k: int) -> int:
        return eng.entry(i, k).dim

    conditions = (
        ("h0(E(-1)) = 0", h(0, -1) == 0),
        (f"h{n}(E({-n})) = 0", h(n, -n) == 0),
        ("h1(E(-2)) = 0", h(1, -2) == 0),
        (f"h{n - 1}(E({1 - n})) = 0", h(n - 1, 1 - n) == 0),
    )
    charge = -sum((-1) ** i * h(i, -1) for i in range(n + 1))

    wdim = 2 * c + r
    chi_ok = True
    for k in range(-n - 1, 1):
        chi_table = sum((-1) ** i * h(i, k) for i in range(n + 1))
        chi_monad = (
            wdim * chi_line_bundle(k, n)
            - c * chi_line_bundle(k - 1, n)
            - c * chi_line_bundle(k + 1, n)
        )
        if chi_table != chi_monad:
            chi_ok = False
    return InstantonReport(
        conditions=conditions,
        charge_computed=charge,
        charge_expected=c,
        chi_consistent=chi_ok,
        rank_bundle=wdim - 2 * c,
    )
