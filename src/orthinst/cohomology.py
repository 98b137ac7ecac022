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

Each sigma_k is built once, sparse: the second map's integer coefficients
are scattered straight into ``linalg.SparseIntMatrix`` rows, with at most
n+1 nonzeros in a column of each block, and its rank is exact sparse
elimination through ``linalg.rank``.  Its nonzero count is known before
the build, so that count, not rows x cols, is held to ``linalg.MAX_CELLS``.

``h_table`` is the one cohomology computation: one call ranks each sigma_k
it reads once, in a memo local to the call, and its table carries the
instanton report, read off its own entries over the standard window
k in [-n-1, 0].  ``verify_instanton`` is that report for that window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod

from .errors import PreconditionN, UsageError
from .forms import FlatForm
from .linalg import MAX_CELLS, SparseIntMatrix, rank
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


def _section_shape(beta: LinFormMatrix, k: int) -> tuple[int, int]:
    """Shape of the degree-k section map of ``beta``, whose linear forms
    are in n + 1 = ``beta.nvars`` variables; ``UsageError`` if its sparse
    build would hold more than ``linalg.MAX_CELLS`` nonzeros, or rows,
    which are allocated even when empty.  Each nonzero coefficient of
    x_l in ``beta`` becomes one nonzero per degree-k monomial, so the count
    is known before allocation.  On c6p3 it is 24 * h^0(O(k)), and the cap
    lies between twists 61 and 62."""
    n = beta.nvars - 1
    src = bott_h(0, k, n)
    rows, cols = beta.rows * bott_h(0, k + 1, n), beta.cols * src
    nnz = src * len(beta.coefficients)
    if max(nnz, rows) > MAX_CELLS:
        raise UsageError(
            f"the degree-{k} section map would have {nnz} nonzeros in {rows} rows, over the limit of {MAX_CELLS}"
        )
    return rows, cols


def _section_rows(beta: LinFormMatrix, k: int) -> SparseIntMatrix:
    """The degree-k section map of ``beta``, on monomials in the
    ``beta.nvars`` variables, times ``beta.denominator``: the integer map,
    stored sparsely, with the rank of sigma_k.  Each integer coefficient of
    x_l in entry (m, w) of the second map is scattered to block (m, w),
    mapping the source monomial u to u * x_l."""
    rows_n, cols_n = _section_shape(beta, k)
    n = beta.nvars - 1
    src = monomials(n, k)
    dst = monomials(n, k + 1)
    dst_index = {m: t for t, m in enumerate(dst)}
    bumped = [[dst_index[u[:l] + (u[l] + 1,) + u[l + 1 :]] for u in src] for l in range(n + 1)]
    rows: list[dict[int, int]] = [{} for _ in range(rows_n)]
    for l, m, w, x in beta.coefficients:
        for s, t in enumerate(bumped[l]):
            # each cell is written once: its column fixes w and u, its row
            # m and u * x_l, hence l
            rows[m * len(dst) + t][w * len(src) + s] = x
    return SparseIntMatrix(rows, cols_n)


@dataclass(frozen=True)
class CohomEntry:
    dim: int
    cert: str  # Direct | ForcedZero | SerreDual


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


@dataclass(frozen=True)
class CohomTable:
    c: int
    n: int
    r: int
    kmin: int
    kmax: int
    entries: dict  # (i, k) -> CohomEntry
    warnings: tuple[str, ...]
    instanton: InstantonReport

    def dim(self, i: int, k: int) -> int:
        return self.entries[(i, k)].dim

    def cert(self, i: int, k: int) -> str:
        return self.entries[(i, k)].cert


def h_table(F: FlatForm, r: int, kmin: int, kmax: int) -> CohomTable:
    """Dimension table h^i(E(k)) for i in [0, n], k in [kmin, kmax], with
    the instanton report as ``instanton``.

    Every entry carries its provenance: Direct (section-map computation),
    ForcedZero (middle row vanishing forced by the display), or SerreDual
    (duality partner computed directly).  Each sigma_k is ranked once, for
    the entries of the window and of the standard window k in [-n-1, 0],
    which the report reads whatever window was asked for; entries of the
    window inside the standard one that differ from the instanton values
    are reported as warnings.

    The report checks the defining vanishings, recomputes the charge as the
    negated alternating sum of the k = -1 column, and compares the Euler
    characteristic of every standard column against the bundle-level
    bookkeeping (middle space dimension 2c+r minus the two end terms),
    which pins rank = dim W - 2c.
    """
    c, n = F.c, F.n
    if n < 3:
        raise PreconditionN(f"cohomology tables need n >= 3, got n={n}")
    if kmin > kmax:
        raise ValueError("kmin must be <= kmax")
    beta = build_beta(F, r)
    # the largest twist the window or the report reaches, directly or by duality
    _section_shape(beta, max(kmax, -kmin - n - 1, 0))
    sigma: dict[int, tuple[int, int, int]] = {}

    def direct(i: int, k: int) -> int:
        """h^0 (i = 0) or h^1 (i = 1) of E(k) from the rank of sigma_k."""
        if k not in sigma:
            m = _section_rows(beta, k)
            sigma[k] = (m.rows, m.cols, rank(m))
        rows, cols, rk = sigma[k]
        return rows - rk if i else (cols - rk) - c * bott_h(0, k - 1, n)

    standard = range(-n - 1, 1)
    entries: dict[tuple[int, int], CohomEntry] = {}
    for k in sorted({*range(kmin, kmax + 1), *standard}):
        for i in range(n + 1):
            if i <= 1:
                entries[(i, k)] = CohomEntry(direct(i, k), "Direct")
            elif i <= n - 2:
                entries[(i, k)] = CohomEntry(0, "ForcedZero")
            else:
                entries[(i, k)] = CohomEntry(direct(n - i, -k - n - 1), "SerreDual")

    def h(i: int, k: int) -> int:
        return entries[(i, k)].dim

    wdim = 2 * c + r
    report = InstantonReport(
        conditions=(
            ("h0(E(-1)) = 0", h(0, -1) == 0),
            (f"h{n}(E({-n})) = 0", h(n, -n) == 0),
            ("h1(E(-2)) = 0", h(1, -2) == 0),
            (f"h{n - 1}(E({1 - n})) = 0", h(n - 1, 1 - n) == 0),
        ),
        charge_computed=-sum((-1) ** i * h(i, -1) for i in range(n + 1)),
        charge_expected=c,
        chi_consistent=all(
            sum((-1) ** i * h(i, k) for i in range(n + 1))
            == wdim * chi_line_bundle(k, n) - c * chi_line_bundle(k - 1, n) - c * chi_line_bundle(k + 1, n)
            for k in standard
        ),
        rank_bundle=wdim - 2 * c,
    )

    window = {(i, k): e for (i, k), e in entries.items() if kmin <= k <= kmax}
    warnings = []
    for (i, k), e in sorted(window.items()):
        if -n - 1 <= k <= 0:
            if (i, k) in ((1, -1), (n - 1, -n)):
                want = c
            elif (i, k) in ((1, 0), (n - 1, -n - 1)):
                want = (n - 1) * c - r
            else:
                want = 0
            if e.dim != want:
                warnings.append(f"h^{i}(E({k})) = {e.dim}, expected {want} for charge {c} rank {r}")
    return CohomTable(c=c, n=n, r=r, kmin=kmin, kmax=kmax, entries=window, warnings=tuple(warnings), instanton=report)


def verify_instanton(F: FlatForm, r: int) -> InstantonReport:
    """Check the defining cohomological vanishings and recompute the charge:
    the ``instanton`` report of ``h_table`` over the standard window."""
    return h_table(F, r, -F.n - 1, 0).instanton
