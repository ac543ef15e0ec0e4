#!/usr/bin/env python3
"""Measure what breaks when the per-index maps stop being shared.

Shared-map (homogeneous) families keep three properties that index-dependent
families lose:

1. partition of unity: sum_j L_j(x) = 1 off the nodes,
2. vanishing derivative-matrix row sums (constants are annihilated),
3. agreement of the high-order recurrence with the true nodal derivatives.

The first-derivative closed form is exact either way - that is the control
measurement.  This script quantifies all four items for the ``mixed``
family (exponential maps up to ``split``, sine maps above it) next to a
homogeneous reference, so the numbers in the test suite stay reproducible.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dlf.basis import basis_from_spec, lagrange_matrix
from dlf.diffmat import d1_matrix, dm_matrix, dm_oracle_fd


def build(kind, params, n, a, b):
    return basis_from_spec({"kind": kind, "params": params}, {}, n, (a, b))


def partition_defect(basis, samples=200, seed=7):
    rng = np.random.default_rng(seed)
    a, b = basis.nodes.domain
    xs = rng.uniform(a, b, size=samples)
    return float(np.max(np.abs(lagrange_matrix(basis, xs).sum(axis=0) - 1.0)))


def report(label, basis, fd_step=None):
    d1 = d1_matrix(basis).entries
    o1 = dm_oracle_fd(basis, 1, step=fd_step)
    d2 = dm_matrix(basis, 2).entries
    o2 = dm_oracle_fd(basis, 2, step=fd_step)
    print(f"\n[{label}] size {basis.size} on {list(basis.nodes.domain)}")
    print(f"  partition-of-unity defect      {partition_defect(basis):.3e}")
    print(f"  D1 row-sum magnitude           {np.max(np.abs(d1.sum(axis=1))):.3e}")
    print(f"  D1 closed form vs oracle       {np.max(np.abs(d1 - o1.entries)):.3e}")
    print(f"  D2 recurrence vs oracle        {np.max(np.abs(d2 - o2.entries)):.3e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4, help="node count minus one")
    ap.add_argument("--split", type=int, default=2, help="mixed family split index")
    ap.add_argument("--rates", type=float, default=0.3)
    ap.add_argument("--freqs", type=float, default=1.1)
    ap.add_argument("--domain", default="0.1,0.9")
    ap.add_argument("--fd-step", type=float, default=1e-2, help="oracle base step")
    args = ap.parse_args()

    a, b = (float(t) for t in args.domain.split(","))
    split = min(args.split, args.n)  # the family requires split < size

    homogeneous = build("exponential", {"rates": args.rates}, args.n, a, b)
    mixed = build(
        "mixed",
        {"split": split, "rates": args.rates, "freqs": args.freqs},
        args.n,
        a,
        b,
    )

    report("exponential, shared maps", homogeneous, fd_step=args.fd_step)
    report("mixed, index-dependent maps", mixed, fd_step=args.fd_step)
    print(
        "\nThe closed-form line stays at oracle accuracy in both columns; the"
        "\nother three lines are the structural cost of index-dependent maps."
    )


if __name__ == "__main__":
    main()
