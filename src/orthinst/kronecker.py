"""Line evaluation of the associated c x c pencil and splitting verdicts.

Evaluating a flat form on an ordered point pair (P, Q) spanning a line
gives the c x c matrix

    G[i][k] = sum_{j,l} M[(i,j),(k,l)] * Q_j * P_l
            = sum_t B_t[i,k] * (Q^T C_t P)      (when block terms are known)

which is skew-symmetric for every wedge member.  The restriction of the
associated bundle to the line is trivial exactly when G is invertible, so
odd charge forces every line to jump (odd skew matrices are singular).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegenerateLine, OrthinstError
from .forms import FlatForm
from .linalg import RatMatrix, det, kernel_basis, pfaffian, rank


def _frac_point(p: Sequence, w: int) -> tuple[Fraction, ...]:
    pt = tuple(Fraction(x) for x in p)
    if len(pt) != w:
        raise DegenerateLine(f"point must have {w} coordinates, got {len(pt)}")
    return pt


def line_span_ok(P: Sequence, Q: Sequence) -> bool:
    """True iff P and Q span a line (are not proportional)."""
    return rank(RatMatrix([list(P), list(Q)])) == 2


@dataclass(frozen=True)
class GammaEval:
    """Value of the line pencil at an ordered point pair."""

    P: tuple[Fraction, ...]
    Q: tuple[Fraction, ...]
    M: RatMatrix


@dataclass(frozen=True)
class SplitVerdict:
    verdict: str  # "Trivial" | "Jumping"
    determinant: Fraction
    pfaffian: Optional[Fraction] = None  # even charge only

    @property
    def trivial(self) -> bool:
        return self.verdict == "Trivial"


def gamma_eval(F: FlatForm, P: Sequence, Q: Sequence) -> GammaEval:
    """Evaluate the pencil: G[i][k] = sum_t B_t[i,k] * (Q^T C_t P).

    Without block terms each entry is the bilinear form of the block M(i,k)
    at (P, Q); both routes agree exactly, and the term route is faster.
    Scaling P or Q rescales G but never changes the Trivial/Jumping verdict.
    """
    c, n = F.c, F.n
    w = n + 1
    Pt = _frac_point(P, w)
    Qt = _frac_point(Q, w)
    if not line_span_ok(Pt, Qt):
        raise DegenerateLine("points are proportional and span no line")
    if F.source is not None:
        vals = []
        for B, C in F.source.terms:
            s = Fraction(0)
            for j in range(w):
                if Qt[j] == 0:
                    continue
                row = C[j]
                s += Qt[j] * sum((row[l] * Pt[l] for l in range(w) if row[l]), Fraction(0))
            vals.append(s)
        rows = [
            [
                sum((vals[t] * B[i][k] for t, (B, _) in enumerate(F.source.terms) if B[i][k]), Fraction(0))
                for k in range(c)
            ]
            for i in range(c)
        ]
    else:
        rows = [[evaluate_bilinear(F.block(i, k), Pt, Qt) for k in range(c)] for i in range(c)]
    return GammaEval(Pt, Qt, RatMatrix(rows, cols=c))


def splitting_type(F: FlatForm, P: Sequence, Q: Sequence) -> SplitVerdict:
    """Trivial iff the pencil value on the line is invertible.

    For even charge the Pfaffian is reported as well, and Pf^2 = det is
    checked.
    """
    g = gamma_eval(F, P, Q)
    d = det(g.M)
    pf = None
    if F.c % 2 == 0 and g.M.is_skew():
        pf = pfaffian(g.M)
        if pf * pf != d:
            raise OrthinstError(f"pfaffian {pf} does not square to the determinant {d}")
    return SplitVerdict("Trivial" if d != 0 else "Jumping", d, pf)


@dataclass(frozen=True)
class LineWitness:
    P: tuple[int, ...]
    Q: tuple[int, ...]
    determinant: Fraction


@dataclass(frozen=True)
class ScanReport:
    samples: int
    trivial: int
    jumping: int
    degenerate: int
    witnesses: tuple[LineWitness, ...]  # first jumping lines found, at most 10
    fraction_trivial: Fraction
    seed: int
    box: int


def scan_lines(F: FlatForm, samples: int, seed: int = 0, box: int = 10) -> ScanReport:
    """Sample integer point pairs in [-box, box]^(n+1) and tally verdicts.

    The RNG stream of sample s is derived from (seed, s), so the tally is
    reproducible and independent of any chunking of the loop.  Degenerate
    pairs are counted, not resampled.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    w = F.n + 1
    trivial = jumping = degenerate = 0
    witnesses: list[LineWitness] = []
    for s in range(samples):
        rng = random.Random(f"{seed}:line:{s}")
        P = [rng.randint(-box, box) for _ in range(w)]
        Q = [rng.randint(-box, box) for _ in range(w)]
        try:
            verdict = splitting_type(F, P, Q)
        except DegenerateLine:
            degenerate += 1
            continue
        if verdict.trivial:
            trivial += 1
        else:
            jumping += 1
            if len(witnesses) < 10:
                witnesses.append(LineWitness(tuple(P), tuple(Q), verdict.determinant))
    return ScanReport(
        samples=samples,
        trivial=trivial,
        jumping=jumping,
        degenerate=degenerate,
        witnesses=tuple(witnesses),
        fraction_trivial=Fraction(trivial, samples),
        seed=seed,
        box=box,
    )


def gamma_coefficients(F: FlatForm) -> tuple[tuple[RatMatrix, ...], ...]:
    """Symbolic pencil entries as bilinear coefficient matrices.

    Entry (i,k) of the pencil is the bilinear form sum_{j,l} G[j][l] Q_j P_l
    whose coefficient matrix is the (n+1)x(n+1) block M(i,k) of the flat
    form: G[j][l] = M[(i,j),(k,l)].
    """
    return tuple(tuple(F.block(i, k) for k in range(F.c)) for i in range(F.c))


def evaluate_bilinear(G: RatMatrix, P: Sequence, Q: Sequence) -> Fraction:
    """Value sum_{j,l} G[j][l] Q_j P_l of one symbolic pencil entry."""
    Qf = [Fraction(x) for x in Q]
    Pf = [Fraction(x) for x in P]
    return sum(
        (G[j, l] * Qf[j] * Pf[l] for j in range(G.rows) for l in range(G.cols) if G[j, l]),
        Fraction(0),
    )


# ----------------------------------------------------------------------
# pencil-module conditions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class K12Status:
    kind: str  # CertifiedFullRank | SampledNoCounterexample | CounterexampleFound
    samples: Optional[int] = None
    witness_v: Optional[tuple[int, ...]] = None
    witness_h: Optional[tuple[int, ...]] = None

    def is_pass(self) -> bool:
        return self.kind in ("CertifiedFullRank", "SampledNoCounterexample")


@dataclass(frozen=True)
class KroneckerReport:
    k1: K12Status
    k2: K12Status  # transpose-dual of k1: injectivity of the slices dualizes to surjectivity
    rank_gamma_hat: int
    expected_rank: int  # 2c + r, the operative reading
    printed_alt_rank: int  # 2n + r, reported for comparison only
    matches_expected: bool
    matches_printed_alt: bool

    @property
    def passed(self) -> bool:
        return self.k1.is_pass() and self.k2.is_pass() and self.matches_expected


def kronecker_conditions(
    F: FlatForm, r: int, budget: int = 200, seed: int = 0, box: int = 10
) -> KroneckerReport:
    """Check the pencil-module conditions on the linearized map.

    The linearized map of the pencil is the flat form itself, so injectivity
    of every fixed-direction slice is certified outright at full rank;
    otherwise a basis sweep plus seeded sampling over directions v checks the
    exact kernel of each c(n+1) x c slice.  The surjectivity condition is the
    transpose dual of the injectivity condition and inherits its status.
    The rank is compared against both candidate values 2c+r and 2n+r; the
    first is operative.
    """
    c, n = F.c, F.n
    w = n + 1
    rank_g = rank(F.M)

    status: K12Status
    if rank_g == F.size:
        status = K12Status("CertifiedFullRank")
    else:
        hit = None
        sweeps = [[1 if t == j else 0 for t in range(w)] for j in range(w)]
        for s in range(budget):
            rng = random.Random(f"{seed}:kdir:{s}")
            v = [rng.randint(-box, box) for _ in range(w)]
            if any(v):
                sweeps.append(v)
        for v in sweeps:
            ker = kernel_basis(F.along_point(v))
            if ker:
                hit = (tuple(int(x) for x in v), tuple(int(x) for x in ker[0]))
                break
        if hit is not None:
            status = K12Status("CounterexampleFound", witness_v=hit[0], witness_h=hit[1])
        else:
            status = K12Status("SampledNoCounterexample", samples=budget)

    expected = 2 * c + r
    printed = 2 * n + r
    return KroneckerReport(
        k1=status,
        k2=status,
        rank_gamma_hat=rank_g,
        expected_rank=expected,
        printed_alt_rank=printed,
        matches_expected=rank_g == expected,
        matches_printed_alt=rank_g == printed,
    )
