"""Monad maps as matrices of linear forms, and the form conditions.

For a flat form of full rank the two maps are

    alpha[(i,j), i'] = delta_{i,i'} x_j          (size c(n+1) x c)
    beta[k, (i,j)]   = sum_l M[(i,j),(k,l)] x_l  (size c x c(n+1))

and beta . alpha = 0 as a matrix of quadratic forms exactly when the form
is a wedge member.  When the rank 2c+r is smaller than c(n+1) the middle
space is realized on a rank-carrying principal index set S: beta keeps the
columns indexed by S, alpha the rows indexed by S.

``check_conditions`` evaluates the three defining conditions of a verified
form (rank equals 2c+r, no decomposable kernel vector, symmetric invertible
principal block of order 2c+r) together with the charge and rank-bound
prechecks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BadSubset, RankMismatch, ShapeMismatch
from .forms import FlatForm
from .linalg import RatMatrix, det, kernel_basis, principal_rank_subset, rank


@dataclass(frozen=True)
class LinForm:
    """A homogeneous linear form sum_j coeffs[j] * x_j."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def zero(cls, nvars: int) -> "LinForm":
        return cls(tuple(Fraction(0) for _ in range(nvars)))

    @classmethod
    def variable(cls, j: int, nvars: int) -> "LinForm":
        return cls(tuple(Fraction(1 if l == j else 0) for l in range(nvars)))

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def evaluate(self, point: Sequence) -> Fraction:
        return sum((c * Fraction(p) for c, p in zip(self.coeffs, point)), Fraction(0))

    def __str__(self) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if c == 1:
                term = f"x{j}"
            elif c == -1:
                term = f"-x{j}"
            else:
                term = f"{c}x{j}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class LinFormMatrix:
    """Dense matrix whose entries are linear forms in the same n+1 variables."""

    nvars: int
    entries: tuple[tuple[LinForm, ...], ...]

    def __post_init__(self):
        for row in self.entries:
            for e in row:
                if e.nvars != self.nvars:
                    raise ShapeMismatch("mixed variable counts in linear-form matrix")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij) -> LinForm:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "LinFormMatrix":
        return LinFormMatrix(
            self.nvars,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def evaluate(self, point: Sequence) -> RatMatrix:
        return RatMatrix(
            [[e.evaluate(point) for e in row] for row in self.entries],
            cols=self.cols,
        )


def build_alpha(c: int, n: int, S: Optional[Sequence[int]] = None) -> LinFormMatrix:
    """First monad map: column i' carries x_0..x_n in its i'-th block.

    With ``S`` the rows are restricted to that index set (a choice of basis
    for the middle space in the non-maximal case).
    """
    w = n + 1
    size = c * w
    if S is None:
        row_idx = range(size)
    else:
        row_idx = sorted(set(S))
        if any(s < 0 or s >= size for s in row_idx):
            raise BadSubset(f"subset entries must lie in [0, {size})")
    zero = LinForm.zero(w)
    rows = []
    for s in row_idx:
        i, j = divmod(s, w)
        rows.append(tuple(LinForm.variable(j, w) if ip == i else zero for ip in range(c)))
    return LinFormMatrix(w, tuple(rows))


def _beta_rows(F: FlatForm, col_idx: Sequence[int]) -> LinFormMatrix:
    c, n = F.c, F.n
    w = n + 1
    rows = []
    for k in range(c):
        row = []
        for s in col_idx:
            row.append(LinForm(tuple(F.M[s, k * w + l] for l in range(w))))
        rows.append(tuple(row))
    return LinFormMatrix(w, tuple(rows))


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


def build_beta_full(F: FlatForm) -> LinFormMatrix:
    """Unrestricted second map on the whole product space (audit use: its
    composition with the unrestricted alpha vanishes for every wedge member,
    whatever the rank)."""
    return _beta_rows(F, list(range(F.size)))


def verify_monad_identity(alpha: LinFormMatrix, beta: LinFormMatrix) -> bool:
    """True iff beta . alpha = 0, i.e. every coefficient of every monomial
    x_j x_l in every entry of the product vanishes exactly."""
    if beta.cols != alpha.rows or beta.nvars != alpha.nvars:
        raise ShapeMismatch(
            f"cannot compose beta ({beta.rows}x{beta.cols}) with alpha ({alpha.rows}x{alpha.cols})"
        )
    w = beta.nvars
    for k in range(beta.rows):
        for i in range(alpha.cols):
            acc = [[Fraction(0)] * w for _ in range(w)]
            for t in range(beta.cols):
                b = beta.entries[k][t]
                a = alpha.entries[t][i]
                if b.is_zero() or a.is_zero():
                    continue
                for j in range(w):
                    if b.coeffs[j] == 0:
                        continue
                    for l in range(w):
                        if a.coeffs[l] != 0:
                            acc[j][l] += b.coeffs[j] * a.coeffs[l]
            for j in range(w):
                if acc[j][j] != 0:
                    return False
                for l in range(j + 1, w):
                    if acc[j][l] + acc[l][j] != 0:
                        return False
    return True


# ----------------------------------------------------------------------
# condition checks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NondegStrategy:
    """Sampling parameters for the no-decomposable-kernel search."""

    budget: int = 1000
    seed: int = 0
    box: int = 10


@dataclass(frozen=True)
class A2Status:
    kind: str  # CertifiedFullRank | CertifiedPureTensor | SampledNoCounterexample | CounterexampleFound | Unknown
    samples: Optional[int] = None
    witness_h: Optional[tuple[int, ...]] = None
    witness_v: Optional[tuple[int, ...]] = None

    def is_pass(self) -> bool:
        return self.kind in ("CertifiedFullRank", "CertifiedPureTensor", "SampledNoCounterexample")


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


def _ints(v: Sequence[Fraction]) -> tuple[int, ...]:
    return tuple(int(x) for x in v)


def nondegeneracy_witness_search(
    F: FlatForm, budget: int = 1000, seed: int = 0, box: int = 10
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Search for a nonzero decomposable kernel vector h (x) v.

    Deterministic sweep over the basis slices first (both fixed-h and
    fixed-v), then ``budget`` seeded random integer samples; each sampled
    direction is checked through the exact kernel of its slice, so a hit is
    exact.  Returning ``None`` is *not* a certificate of nondegeneracy.
    """
    c, n = F.c, F.n
    w = n + 1

    def check_h(h) -> Optional[tuple]:
        if all(x == 0 for x in h):
            return None
        ker = kernel_basis(F.along_charge(h))
        if ker:
            return _ints(h), _ints(ker[0])
        return None

    def check_v(v) -> Optional[tuple]:
        if all(x == 0 for x in v):
            return None
        ker = kernel_basis(F.along_point(v))
        if ker:
            return _ints(ker[0]), _ints(v)
        return None

    for i in range(c):
        hit = check_h([1 if k == i else 0 for k in range(c)])
        if hit:
            return hit
    for j in range(w):
        hit = check_v([1 if l == j else 0 for l in range(w)])
        if hit:
            return hit
    for s in range(budget):
        rng = random.Random(f"{seed}:wit:{s}")
        h = [rng.randint(-box, box) for _ in range(c)]
        hit = check_h(h)
        if hit:
            return hit
        v = [rng.randint(-box, box) for _ in range(w)]
        hit = check_v(v)
        if hit:
            return hit
    return None


def check_conditions(F: FlatForm, r: int, strategy: Optional[NondegStrategy] = None) -> ConditionReport:
    """Evaluate the three form conditions plus the charge/rank prechecks.

    The nondegeneracy status is tiered: a full-rank form is certified
    outright (an injective map kills no decomposable tensor); a single-term
    form with invertible blocks is certified structurally; otherwise the
    witness search runs and reports either a counterexample or the clean
    sample count; with a zero budget the status is Unknown.
    """
    if strategy is None:
        strategy = NondegStrategy()
    c, n = F.c, F.n
    size = F.size
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

    if rank_a == size:
        a2 = A2Status("CertifiedFullRank")
    elif (
        F.source is not None
        and len(F.source.terms) == 1
        and rank(RatMatrix(F.source.terms[0][0])) == c
        and rank(RatMatrix(F.source.terms[0][1])) == n + 1
    ):
        a2 = A2Status("CertifiedPureTensor")
    elif strategy.budget > 0:
        hit = nondegeneracy_witness_search(F, strategy.budget, strategy.seed, strategy.box)
        if hit is not None:
            a2 = A2Status("CounterexampleFound", witness_h=hit[0], witness_v=hit[1])
        else:
            a2 = A2Status("SampledNoCounterexample", samples=strategy.budget)
    else:
        a2 = A2Status("Unknown")

    q_subset = principal_rank_subset(F.M)
    a3_ok = len(q_subset) == a1_expected and det(F.M.submatrix(q_subset, q_subset)) != 0

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
