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
reseeds for each sample, so each line has its own stream.

On a pure form, M = B (x) C (``FlatForm.pure_factors``), the pencil is
G[i][k] = sum_{j,l} B[i,k] C[j,l] Q_j P_l = t B[i,k] with t = Q^T C P, so
every line's pencil is the one matrix B scaled by t.  For t != 0, t B is
invertible iff B is, so ``scan_lines`` decides B once and a line with
t != 0 takes B's verdict as it is: a line of a pure form jumps iff
Q^T C P = 0 or B is singular.  For a skew C, Q^T C P is linear in the
line's Pluecker coordinates, so off a singular B the jumping lines are a
linear line complex.  A line with t = 0, whose pencil is 0, and every line
of a form that is not pure are decided by ``pencil_verdict`` of their own
pencil, so every pencil that is eliminated passes its Pf^2 = det check.  The
pencil-module conditions are the form conditions: the linearized map is the
flat form, K1 is A2 and K2 its transpose dual, so ``kronecker_conditions``
is ``monad.check_conditions``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegenerateLine, NotSkew, OrthinstError
from .forms import FlatForm
from .linalg import RatMatrix, det, exact_vector, pfaffian, rank
from .monad import ConditionReport, check_conditions, check_sampling, randints


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

    Every line's pencil is ``gamma_eval``'s, under the one span rule.  On a
    pure form M = B (x) C the pencil is t B with t = Q^T C P, and t != 0
    iff G[i0, k0] != 0 at one nonzero entry (i0, k0) of B.  B is decided
    once by ``pencil_verdict`` and a line with t != 0 takes that verdict as
    it is, so such a line jumps iff B is singular; its determinant is then
    0, the one a witness records.  On a trivial line the verdict carries
    det B and Pf B, not det(t B) and Pf(t B), which no report reads.  A
    line with t = 0 has the zero pencil and jumps; it and every line of a
    form that is not pure are decided by ``pencil_verdict`` of their pencil.
    """
    check_sampling("samples", samples, least=1)
    if box < 1:
        raise ValueError(f"box must be >= 1, got {box}")
    w = F.n + 1
    trivial = jumping = degenerate = 0
    witnesses: list[LineWitness] = []
    pure = F.pure_factors
    if pure is not None:
        base = pencil_verdict(pure[0])
        i0, k0, _ = pure[0].nonzeros()[1][0]
    rng = random.Random()
    for s in range(samples):
        rng.seed(f"{seed}:line:{s}")
        P = randints(rng, -box, box, w)
        Q = randints(rng, -box, box, w)
        try:
            G = gamma_eval(F, P, Q)
        except DegenerateLine:
            degenerate += 1
            continue
        verdict = base if pure is not None and G[i0, k0] else pencil_verdict(G)
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


def kronecker_conditions(F: FlatForm, r: int, budget: int = 200, seed: int = 0) -> ConditionReport:
    """The pencil-module conditions, which are the form conditions.

    The linearized map of the pencil is the flat form itself, so its rank
    is A1's rank(M) against 2c+r; injectivity of every fixed-direction
    slice is A2, so K1 is A2, and the surjectivity condition K2 is the
    transpose dual of K1 and has its status.  The report is
    ``check_conditions(F, r, budget, seed)``, at this budget.
    """
    return check_conditions(F, r, budget, seed)
