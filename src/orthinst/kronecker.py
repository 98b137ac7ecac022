"""Line evaluation of the associated c x c pencil and splitting verdicts.

Evaluating a flat form on an ordered point pair (P, Q) spanning a line
gives the c x c matrix

    G[i][k] = sum_{j,l} M[(i,j),(k,l)] * Q_j * P_l

(``FlatForm.pencil``), which is skew-symmetric for every wedge member.  For
a wedge member the slices S_jl[i][k] = M[(i,j),(k,l)] satisfy S_lj = -S_jl,
so G = sum_{j<l} S_jl (Q_j P_l - Q_l P_j) depends on the line only through
its Pluecker coordinates: another point pair on the same line rescales G by
the determinant of the change of basis.  ``gamma_eval`` returns G for a
pair that ``line_span_ok`` accepts.  The restriction of the associated
bundle to the line is trivial exactly when G is invertible, and
``pencil_verdict`` decides that from G alone; odd charge forces every line
to jump (odd skew matrices are singular), which it reads off G's skewness
with no elimination.  ``scan_lines`` draws its points through
``monad.randints``, randint's exact replica, from one generator that it
reseeds for each sample, so each line has its own stream.  The
pencil-module condition K1 is A2 of the form, and ``kronecker_conditions``
reads it off A2's decision, ``monad.nondegeneracy``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegenerateLine, NotSkew, OrthinstError
from .forms import FlatForm
from .linalg import RatMatrix, det, exact_vector, pfaffian, rank
from .monad import A2Status, check_sampling, nondegeneracy, randints


def line_span_ok(P: Sequence, Q: Sequence) -> bool:
    """True iff P and Q span a line (are not proportional)."""
    (_, p), (_, q) = exact_vector(P, len(P)), exact_vector(Q, len(P))
    return rank(RatMatrix.from_ints([p, q])) == 2


@dataclass(frozen=True)
class SplitVerdict:
    verdict: str  # "Trivial" | "Jumping"
    determinant: Fraction
    pfaffian: Optional[Fraction] = None  # even charge only

    @property
    def trivial(self) -> bool:
        return self.verdict == "Trivial"


def pencil_verdict(G: RatMatrix) -> SplitVerdict:
    """Trivial iff the pencil value is invertible.  A skew pencil of odd
    order is singular, det G = det(-G^T) = -det G, so it is Jumping with no
    elimination.  For even order the Pfaffian is reported as well, and
    Pf^2 = det is checked on the lowest terms of both: a square of a
    fraction in lowest terms is in lowest terms, so the check compares
    numerators and denominators.  The check cannot see the sign of Pf, so
    it passes -Pf too.  The pencil of a form outside the wedge need not be
    skew; then its determinant alone decides."""
    odd = G.rows % 2 == 1
    if odd and G.is_skew():
        return SplitVerdict("Jumping", Fraction(0))
    d = det(G)
    try:  # pfaffian tests skewness itself
        pf = None if odd else pfaffian(G)
    except NotSkew:
        pf = None
    if pf is not None and (pf.numerator**2 != d.numerator or pf.denominator**2 != d.denominator):
        raise OrthinstError(f"pfaffian {pf} does not square to the determinant {d}")
    return SplitVerdict("Trivial" if d != 0 else "Jumping", d, pf)


def gamma_eval(F: FlatForm, P: Sequence, Q: Sequence) -> RatMatrix:
    """The pencil at a point pair spanning a line: entry (i,k) is the
    bilinear form of the block M(i,k) at (P, Q).  Scaling P or Q rescales
    the pencil but never changes its verdict.
    """
    w = F.n + 1
    for X in (P, Q):
        if len(X) != w:
            raise DegenerateLine(f"point must have {w} coordinates, got {len(X)}")
    if not line_span_ok(P, Q):
        raise DegenerateLine("points are proportional and span no line")
    return F.pencil(P, Q)


def splitting_type(F: FlatForm, P: Sequence, Q: Sequence) -> SplitVerdict:
    """The verdict of the pencil on the line through P and Q."""
    return pencil_verdict(gamma_eval(F, P, Q))


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
    reproducible and independent of any chunking of the loop.  One local
    generator is reseeded with ``f"{seed}:line:{s}"`` for each sample, which
    gives the stream of a new ``random.Random`` on that string.  Degenerate
    pairs are counted, not resampled.  Box 0 draws only zeros and is refused.
    """
    check_sampling("samples", samples, least=1)
    if box < 1:
        raise ValueError(f"box must be >= 1, got {box}")
    w = F.n + 1
    trivial = jumping = degenerate = 0
    witnesses: list[LineWitness] = []
    rng = random.Random()
    for s in range(samples):
        rng.seed(f"{seed}:line:{s}")
        P = randints(rng, -box, box, w)
        Q = randints(rng, -box, box, w)
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
    dq, q = exact_vector(Q, G.rows)
    return Fraction(sum(x * y for x, y in zip(q, G.mul_vector(P))), dq)


# ----------------------------------------------------------------------
# pencil-module conditions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KroneckerReport:
    k1: A2Status  # the A2 statement read on the pencil module
    rank_gamma_hat: int
    expected_rank: int  # 2c + r, the operative reading
    printed_alt_rank: int  # 2n + r, reported for comparison only
    matches_expected: bool
    matches_printed_alt: bool

    @property
    def k2(self) -> A2Status:
        """The surjectivity condition, the transpose dual of K1: injectivity
        of the slices dualizes to surjectivity, so it is K1's status."""
        return self.k1

    @property
    def passed(self) -> bool:
        return self.k1.is_pass() and self.matches_expected


def kronecker_conditions(F: FlatForm, r: int, budget: int = 200, seed: int = 0) -> KroneckerReport:
    """Check the pencil-module conditions on the linearized map.

    The linearized map of the pencil is the flat form itself, and
    injectivity of every fixed-direction slice is A2, so K1 is
    ``nondegeneracy(F, budget, seed)``: the decision ``check_conditions``
    reports, at this budget.  The surjectivity condition is the transpose
    dual of the injectivity condition and inherits its status.  The rank is
    compared against both candidate values 2c+r and 2n+r; the first is
    operative.
    """
    status = nondegeneracy(F, budget, seed)
    rank_g = rank(F.M)
    expected, printed = 2 * F.c + r, 2 * F.n + r
    return KroneckerReport(
        k1=status,
        rank_gamma_hat=rank_g,
        expected_rank=expected,
        printed_alt_rank=printed,
        matches_expected=rank_g == expected,
        matches_printed_alt=rank_g == printed,
    )
