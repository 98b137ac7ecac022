"""Moduli numerology and base-change-orbit diagnostics.

The space of verified maximal-rank forms, modulo the charge-factor group
GL(c), has expected dimension C(c,2) * C(n+1,2) - c^2 for c, n >= 3, which
holds at a form exactly when its stabiliser is finite.  Plus/minus identity
always fix a form, but a stabiliser can be larger: the bundled c6p3 is one
term B (x) C, fixed to first order by sp(B), of dimension 21.

``orbit_probe`` stress-tests the computable orbit invariants: rank, wedge
membership, and the line verdicts on a fixed seeded panel must be constant
along the orbit, and the identity and its negative must fix the form
exactly.  Any violation indicates an implementation bug, never new
mathematics, so the probe reports them as hard findings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .errors import HypothesisViolation
from .forms import FlatForm, act, wedge_membership
from .kronecker import line_span_ok, pencil_verdict
from .linalg import RatMatrix, rank
from .monad import check_sampling, randints


@dataclass(frozen=True)
class ModuliInfo:
    c: int
    n: int
    ambient_dim: int
    group_dim: int
    dim: int
    possibly_empty: bool


def moduli_dim(c: int, n: int) -> ModuliInfo:
    """Exact dimension count C(c,2)*C(n+1,2) - c^2 for c, n >= 3.

    With C(n+1,2) >= 6 the count is at least 6 C(c,2) - c^2 = c(2c-3) > 0,
    so ``possibly_empty`` (dim < 0) is always false.
    """
    if c < 3 or n < 3:
        raise HypothesisViolation(f"dimension formula needs c >= 3 and n >= 3, got c={c}, n={n}")
    ambient = comb(c, 2) * comb(n + 1, 2)
    group = c * c
    dim = ambient - group
    return ModuliInfo(c=c, n=n, ambient_dim=ambient, group_dim=group, dim=dim, possibly_empty=dim < 0)


def random_unimodular(c: int, rng: random.Random) -> RatMatrix:
    """Product of 3c seeded elementary row operations with entries in
    [-3, 3]; exactly invertible by construction (determinant +-1)."""
    rows = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    for _ in range(3 * c):
        kind = rng.randrange(3)
        i = rng.randrange(c)
        j = rng.randrange(c)
        if kind == 0 and i != j:
            lam = rng.choice([-3, -2, -1, 1, 2, 3])
            rows[i] = [a + lam * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-a for a in rows[i]]
    return RatMatrix.from_ints(rows, cols=c)


@dataclass(frozen=True)
class OrbitProbeReport:
    trials: int
    panel_size: int
    violations: tuple[str, ...]
    isotropy_ok: bool

    @property
    def passed(self) -> bool:
        return not self.violations and self.isotropy_ok


PANEL_SIZE, PANEL_BOX = 20, 10  # the seeded lines orbit_probe compares, and their box


def _seeded_panel(n: int, seed: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    rng = random.Random(f"{seed}:panel")
    w = n + 1
    panel = []
    while len(panel) < PANEL_SIZE:
        P = randints(rng, -PANEL_BOX, PANEL_BOX, w)
        Q = randints(rng, -PANEL_BOX, PANEL_BOX, w)
        if line_span_ok(P, Q):
            panel.append((tuple(P), tuple(Q)))
    return panel


def orbit_probe(F: FlatForm, trials: int = 25, seed: int = 0) -> OrbitProbeReport:
    """Recompute orbit invariants along random base changes.

    For each trial h the transformed form must keep the rank, keep wedge
    membership, and keep the Trivial/Jumping verdict on every panel line;
    the identity and its negative must return the form unchanged.
    ``trials`` must lie in 1..``monad.MAX_SAMPLES``, or ``ValueError`` is
    raised before anything is drawn.
    """
    check_sampling("trials", trials, least=1)
    c = F.c
    panel = _seeded_panel(F.n, seed)
    base_rank = rank(F.M)
    base_wedge = wedge_membership(F)
    # the panel lines span, so each verdict is read off the pencil with no span check
    base_verdicts = [pencil_verdict(F.pencil(P, Q)).verdict for P, Q in panel]

    violations: list[str] = []
    for t in range(trials):
        rng = random.Random(f"{seed}:trial:{t}")
        h = random_unimodular(c, rng)
        G = act(h, F)
        if rank(G.M) != base_rank:
            violations.append(f"trial {t}: rank changed under the action")
        if wedge_membership(G) != base_wedge:
            violations.append(f"trial {t}: wedge membership changed under the action")
        for p, (P, Q) in enumerate(panel):
            if pencil_verdict(G.pencil(P, Q)).verdict != base_verdicts[p]:
                violations.append(f"trial {t}: verdict changed on panel line {p}")

    eye = RatMatrix.identity(c)
    isotropy_ok = act(eye, F).M == F.M and act(-eye, F).M == F.M
    return OrbitProbeReport(
        trials=trials,
        panel_size=len(panel),
        violations=tuple(violations),
        isotropy_ok=isotropy_ok,
    )
