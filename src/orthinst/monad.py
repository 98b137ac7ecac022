"""Monad maps as matrices of linear forms, and the form conditions.

For a flat form of full rank the two maps are

    alpha[(i,j), i'] = delta_{i,i'} x_j          (size c(n+1) x c)
    beta[k, (i,j)]   = sum_l M[(i,j),(k,l)] x_l  (size c x c(n+1))

and beta . alpha = 0 as a matrix of quadratic forms exactly when the form
is a wedge member.  When the rank 2c+r is smaller than c(n+1) the middle
space is realized on a rank-carrying principal index set S: beta keeps the
columns indexed by S, alpha the rows indexed by S.  That restricted pair
need not compose to zero, even for a wedge member: beta_S = alpha^T M[:,S]
composes to zero with alpha' = M[S,S]^-1 M[S,:] alpha = alpha_S +
M[S,S]^-1 M[S,T] alpha_T, T the indices outside S, not in general with alpha_S.

A map beta = sum_l x_l B_l (the Kronecker module of the map) is stored as
its nonzero coefficients alone, ints (l, i, j, x) for x = d * B_l[i, j] over
one denominator d, so the composition identity, the section maps of
``cohomology`` and the display of ``jsonio`` all read one view of a map.

``check_conditions`` evaluates the three defining conditions of a verified
form (rank equals 2c+r, no decomposable kernel vector, symmetric invertible
principal block of order 2c+r) together with the charge and rank-bound
prechecks; ``kronecker`` reads the same report as the pencil-module
conditions, where K1 and K2 are A2.  A2 is decided once, by
``nondegeneracy``: full rank certifies it, and below full rank one search
for h (x) v in ker M runs along a seeded stream of directions in [-10, 10],
drawn by ``randints``: a hit is exact, a clean run is no proof.  Each
direction's contraction A is asked for its kernel once
(``FlatForm.kernel_along_point`` and ``kernel_along_charge``), which is read
off the integer upper triangle of its small Gram matrix A^T A; A itself is
never built.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import BadSubset, RankMismatch, ShapeMismatch
from .forms import FlatForm, point_indices
from .linalg import principal_rank_subset, rank


@dataclass(frozen=True)
class LinFormMatrix:
    """A rows x cols matrix of linear forms in nvars variables, stored as its
    nonzero coefficients: ints (l, i, j, x) for each coefficient x / denominator
    of x_l in entry (i, j), by variable, then row-major, in lowest terms."""

    rows: int
    cols: int
    nvars: int
    coefficients: tuple[tuple[int, int, int, int], ...]
    denominator: int


def build_alpha(c: int, n: int, S: Optional[Sequence[int]] = None) -> LinFormMatrix:
    """First monad map: column i' carries x_0..x_n in its i'-th block, so
    the coefficient of x_l in row s is 1 in column i' when s = i'(n+1) + l.

    With ``S`` the rows are restricted to that index set (a choice of basis
    for the middle space in the non-maximal case).  Below full rank this
    alpha_S need not compose to zero with ``build_beta``'s beta_S, even on a
    wedge member; the first map that does is alpha' = M[S,S]^-1 M[S,:] alpha.
    """
    size = c * (n + 1)
    if S is None:
        row_idx = range(size)
    else:
        row_idx = sorted(set(S))
        if any(s < 0 or s >= size for s in row_idx):
            raise BadSubset(f"subset entries must lie in [0, {size})")
    row_of = {s: t for t, s in enumerate(row_idx)}
    coefficients = tuple(
        (l, row_of[s], i, 1)
        for l in range(n + 1)
        for i, s in enumerate(point_indices(c, n, l))
        if s in row_of
    )
    return LinFormMatrix(len(row_idx), c, n + 1, coefficients, 1)


def _beta_rows(F: FlatForm, col_idx: Sequence[int]) -> LinFormMatrix:
    # the coefficient of x_l in entry (k, t) is M[col_idx[t], (k, l)]; the rows
    # col_idx of M in lowest terms list them by t, sorted to row-major per variable
    variable_row = {s: (l, k) for l in range(F.n + 1) for k, s in enumerate(point_indices(F.c, F.n, l))}
    rows = F.M if len(col_idx) == F.size else F.M.submatrix(col_idx, range(F.size))
    den, entries = rows.nonzeros()
    coefficients = sorted((*variable_row[s], t, x) for t, s, x in entries)
    return LinFormMatrix(F.c, len(col_idx), F.n + 1, tuple(coefficients), den)


def build_beta(F: FlatForm, r: int) -> LinFormMatrix:
    """Second monad map: entry (k, s=(i,j)) is sum_l M[(i,j),(k,l)] x_l.

    Requires rank(M) = 2c + r.  In the maximal case the columns run over the
    whole product space; otherwise they are restricted to the principal
    rank-carrying index set.
    """
    c, n = F.c, F.n
    size = c * (n + 1)
    expected = 2 * c + r
    if expected < 2 * c:
        raise RankMismatch(f"middle space of dimension 2c+r = {expected} < 2c = {2 * c}")
    rank_m = rank(F.M)
    if rank_m != expected:
        raise RankMismatch(f"rank {rank_m} != 2c+r = {expected}")
    if expected == size:
        col_idx = range(size)
    else:
        col_idx = principal_rank_subset(F.M)
    return _beta_rows(F, list(col_idx))


def verify_monad_identity(alpha: LinFormMatrix, beta: LinFormMatrix) -> bool:
    """True iff beta . alpha = 0, i.e. every coefficient of every monomial
    x_l x_m (l <= m) in every entry (i, k) of the product vanishes exactly.

    That coefficient is the sum of x * y over the nonzero coefficients
    (l, i, j, x) of beta and (m, j, k, y) of alpha, and over those with l
    and m swapped, for every inner index j; on the ints, times both denominators.
    """
    if beta.cols != alpha.rows or beta.nvars != alpha.nvars:
        raise ShapeMismatch(
            f"cannot compose beta ({beta.rows}x{beta.cols}) with alpha ({alpha.rows}x{alpha.cols})"
        )
    alpha_rows = defaultdict(list)
    for m, j, k, y in alpha.coefficients:
        alpha_rows[j].append((m, k, y))
    sums = defaultdict(int)
    for l, i, j, x in beta.coefficients:
        for m, k, y in alpha_rows[j]:
            sums[min(l, m), max(l, m), i, k] += x * y
    return not any(sums.values())


# ----------------------------------------------------------------------
# condition checks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class A2Status:
    """Status of the no-decomposable-kernel condition: A2 of a form, and K1
    and K2 of its pencil module, which state the same condition."""

    kind: str  # CertifiedFullRank | SampledNoCounterexample | CounterexampleFound | Unknown
    samples: Optional[int] = None
    witness_h: Optional[tuple[int, ...]] = None
    witness_v: Optional[tuple[int, ...]] = None

    def is_pass(self) -> bool:
        return self.kind in ("CertifiedFullRank", "SampledNoCounterexample")


@dataclass(frozen=True)
class ConditionReport:
    rank_a: int
    a1_expected: int
    a1_ok: bool
    a2: A2Status
    a3_ok: bool
    q_subset: tuple[int, ...]
    precheck: str  # Ok | ChargeOneForbidden | ChargeTwoForbidden | RankBoundViolated
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.a1_ok and self.a3_ok and self.precheck == "Ok" and self.a2.is_pass()


MAX_SAMPLES = 100_000  # cap on --budget and --samples, 100 times their defaults
WITNESS_BOX = 10  # the drawn search directions have entries in [-10, 10]


def check_sampling(name: str, count: int, least: int = 0) -> None:
    """The one sample-count bound of verify, kronecker, scan-lines and
    orbit_probe: ``least <= count <= MAX_SAMPLES``."""
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    if count > MAX_SAMPLES:
        raise ValueError(f"{name} must be <= {MAX_SAMPLES}, got {count}")


def randints(rng: random.Random, a: int, b: int, size: int) -> list[int]:
    """``[rng.randint(a, b) for _ in range(size)]``, with ``rng`` left in the
    same state, drawn without randint's call layers; an empty range raises
    ``ValueError``, as randint does.

    This is the rule of CPython's ``Random._randbelow_with_getrandbits``,
    which ``randint`` runs: with width = b - a + 1 and k = width.bit_length(),
    draw ``rng.getrandbits(k)`` until the value is below width, and add a.
    The seeded streams of the line scan, the witness search and the orbit
    panel are pinned by their reports; ``tests/test_monad.py::TestRandints``
    compares the replica with ``randint``, draws and the state after them,
    over 1000 seeds on their boxes and on widths of 1, a power of two and
    more than 32 bits.
    """
    width = b - a + 1
    if width < 1:
        raise ValueError(f"empty range [{a}, {b}]")
    k = width.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(size):
        x = bits(k)
        while x >= width:
            x = bits(k)
        out.append(a + x)
    return out


def _directions(F: FlatForm, budget: int, seed: int) -> Iterator[tuple[str, list[int]]]:
    """Lazy search directions: the h basis, the v basis, then for each
    sample s one h in [-10, 10]^c and one v in [-10, 10]^(n+1), drawn in
    that order from the stream ``f"{seed}:wit:{s}"``: one local generator,
    reseeded with that string for each sample, which gives the stream of a
    new ``random.Random`` on it."""
    sides = (("h", F.c), ("v", F.n + 1))
    for side, size in sides:
        for i in range(size):
            yield side, [int(k == i) for k in range(size)]
    rng = random.Random()
    for s in range(budget):
        rng.seed(f"{seed}:wit:{s}")
        for side, size in sides:
            yield side, randints(rng, -WITNESS_BOX, WITNESS_BOX, size)


def nondegeneracy_witness_search(
    F: FlatForm, budget: int = 1000, seed: int = 0
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The first decomposable kernel vector h (x) v along ``_directions``,
    as the int pair (h, v), or ``None``.

    A direction ("h", h) looks for v in the kernel of the contraction A: v ->
    M(h (x) v), ("v", v) for h in the kernel of A: h -> M(h (x) v); zero
    directions are skipped.  Each direction takes one kernel, through the
    upper triangle of its k x k Gram matrix A^T A, which has the kernel of A
    since x^T A^T A x = |Ax|^2; the basis is the canonical one of
    ``kernel_basis``, which depends only on the kernel, so the witness is
    the first vector of the basis of ker A.  Every kernel is exact, so a hit
    is a witness; the stream is drawn only as far as the first hit, and not
    at all for a budget outside ``check_sampling``, which raises
    ``ValueError``.  ``None`` is *not* a certificate of nondegeneracy.
    """
    check_sampling("budget", budget)
    for side, d in _directions(F, budget, seed):
        if not any(d):
            continue
        ker = F.kernel_along_charge(d) if side == "h" else F.kernel_along_point(d)
        if ker:
            return (tuple(d), ker[0]) if side == "h" else (ker[0], tuple(d))
    return None


def nondegeneracy(F: FlatForm, budget: int = 1000, seed: int = 0) -> A2Status:
    """The one decision of A2, which ``check_conditions`` reports and
    ``kronecker`` reads through it as K1 and K2: after ``check_sampling``,
    full rank is certified outright (an injective map kills no decomposable
    tensor), a zero budget is Unknown, and otherwise
    ``nondegeneracy_witness_search`` finds a counterexample or reports the
    clean sample count."""
    check_sampling("budget", budget)
    if rank(F.M) == F.size:
        return A2Status("CertifiedFullRank")
    if budget == 0:
        return A2Status("Unknown")
    hit = nondegeneracy_witness_search(F, budget, seed)
    if hit is None:
        return A2Status("SampledNoCounterexample", samples=budget)
    return A2Status("CounterexampleFound", witness_h=hit[0], witness_v=hit[1])


def check_conditions(F: FlatForm, r: int, budget: int = 1000, seed: int = 0) -> ConditionReport:
    """Evaluate the three form conditions plus the charge/rank prechecks.

    A2 is ``nondegeneracy(F, budget, seed)``, decided first, so a budget
    outside ``check_sampling`` raises ``ValueError`` whatever the rank.

    ``a3_ok`` as coded always equals ``a1_ok``: a symmetric matrix always has
    a nonsingular principal block of order equal to its rank, and
    ``principal_rank_subset`` returns one; its re-verification
    rank(M[S,S]) = rank(M) = |S| already proves M[S,S] nonsingular (it
    raises ``RankMismatch`` otherwise).  The subset is the witness of A3,
    not an independent check.
    """
    a2 = nondegeneracy(F, budget, seed)
    c, n = F.c, F.n
    rank_a = rank(F.M)
    a1_expected = 2 * c + r
    a1_ok = rank_a == a1_expected

    if c == 1:
        precheck = "ChargeOneForbidden"
    elif c == 2:
        precheck = "ChargeTwoForbidden"
    elif r > (n - 1) * c:
        precheck = "RankBoundViolated"
    else:
        precheck = "Ok"

    q_subset = principal_rank_subset(F.M)
    a3_ok = len(q_subset) == a1_expected

    notes = []
    if precheck == "ChargeTwoForbidden" and a1_ok and a3_ok and a2.is_pass():
        notes.append(
            "charge-2 exclusion: the linear-algebra conditions pass but charge 2 is "
            "ruled out structurally; the exclusion overrides the passing checks"
        )
    return ConditionReport(
        rank_a=rank_a,
        a1_expected=a1_expected,
        a1_ok=a1_ok,
        a2=a2,
        a3_ok=a3_ok,
        q_subset=tuple(q_subset),
        precheck=precheck,
        notes=tuple(notes),
    )
