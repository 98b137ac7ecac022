#!/usr/bin/env python3
"""End-to-end walkthrough of the two bundled worked examples.

Runs every pipeline stage on the charge-6 and charge-5 specs: condition
checks, monad maps with the composition identity, the pencil on a generic
and a special line, a seeded line scan, the pencil-module conditions, the
cohomology table, and the moduli dimension.  Everything printed is exact.
"""

import argparse

from orthinst import (
    build_alpha,
    build_beta,
    check_conditions,
    gamma_eval,
    h_table,
    kronecker_conditions,
    moduli_dim,
    rank,
    scan_lines,
    splitting_type,
    verify_monad_identity,
)
from orthinst.cli import _grid
from orthinst.jsonio import linform_matrix_json, matrix_json
from orthinst.specfile import load_bundled


def walkthrough(name: str, samples: int, seed: int, box: int) -> None:
    sf = load_bundled(name)
    F = sf.flatten()
    c, n, r = sf.c, sf.n, sf.r
    print(f"\n=== {name}: c={c}, n={n}, r={r} ===")
    print(f"rank of the flattened form: {rank(F.M)} (2c+r = {2 * c + r})")

    rep = check_conditions(F, r)
    print(f"conditions: A1 {rep.a1_ok}, A2 {rep.a2.kind}, A3 {rep.a3_ok}, precheck {rep.precheck}")

    alpha = build_alpha(c, n)
    beta = build_beta(F, r)
    print(f"monad identity beta.alpha = 0: {verify_monad_identity(alpha, beta)}")
    print("beta^t =")
    print(_grid([list(col) for col in zip(*linform_matrix_json(beta))]))

    P, Q = [1, 2, 3, 4], [5, 6, 7, 8]
    print(f"\npencil at P={P}, Q={Q}:")
    print(_grid(matrix_json(gamma_eval(F, P, Q))))
    print("verdict:", splitting_type(F, P, Q).verdict)
    P0, Q0 = [1, 0, 0, 0], [0, 0, 0, 1]
    print(f"verdict on the line through {P0} and {Q0}:", splitting_type(F, P0, Q0).verdict)

    scan = scan_lines(F, samples, seed=seed, box=box)
    print(
        f"scan of {scan.samples} lines (seed {seed}, box {box}): "
        f"{scan.trivial} trivial, {scan.jumping} jumping, {scan.degenerate} degenerate"
    )

    kron = kronecker_conditions(F, r)
    print(f"pencil module: K1 {kron.a2.kind}, rank {kron.rank_a} (2c+r={kron.a1_expected} match={kron.a1_ok})")

    table = h_table(F, r, -4, 0)
    print("cohomology dimensions h^i(E(k)), k = -4..0:")
    for i in range(n, -1, -1):
        print(f"  i={i}:", [table.dim(i, k) for k in range(-4, 1)])
    inst = table.instanton
    print(f"vanishing conditions pass: {inst.passed}; charge recomputed: {inst.charge_computed}")

    info = moduli_dim(c, n)
    print(f"moduli dimension at (c={c}, n={n}): {info.dim}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--box", type=int, default=10)
    args = ap.parse_args()
    for name in ("c6p3", "c5p3"):
        walkthrough(name, args.samples, args.seed, args.box)


if __name__ == "__main__":
    main()
