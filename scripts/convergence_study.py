#!/usr/bin/env python3
"""N-sweep over the bundled problem configs.

For each config the script assembles and solves the collocation system at a
list of node counts, compares against the config's ``exact`` expression, and
prints one table per problem.  With ``--out DIR`` each table is also written
as CSV (same columns as ``dlf converge``; timings stay in the terminal
output only, so the CSVs are byte-reproducible).

Typical output shows the error saturating near machine precision by N = 16
for the smooth 1-d problems and N = 12 for the 2-d one.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dlf import exprlang
from dlf.interp import eval_interpolant
from dlf.solver import (
    assemble_collocation_nd,
    bases_from_config,
    load_config,
    problem_from_config,
    solve_system,
)

DEFAULT_SWEEPS = [
    ("configs/sine_bvp.json", [4, 6, 8, 10, 12, 14, 16]),
    ("configs/riccati_ivp.json", [4, 6, 8, 10, 12]),
    ("configs/poisson2d.json", [4, 6, 8, 10, 12]),
]


def max_error(cfg, bases, result):
    tree = exprlang.parse_expr(cfg["exact"])
    if len(bases) == 1:
        a, b = bases[0].nodes.domain
        xs = np.linspace(a, b, 201)
        exact = np.broadcast_to(
            np.asarray(exprlang.eval_expr(tree, {"x": xs}), dtype=float), xs.shape
        )
        approx = eval_interpolant(result.interpolant, xs)
        return float(np.max(np.abs(approx - exact)))
    grids = np.meshgrid(*[b.nodes.nodes for b in bases], indexing="ij")
    env = {f"x{d + 1}": grids[d] for d in range(len(bases))}
    exact = np.broadcast_to(
        np.asarray(exprlang.eval_expr(tree, env), dtype=float), grids[0].shape
    )
    return float(np.max(np.abs(result.interpolant.grid_values() - exact)))


def sweep(config_path, ns):
    cfg = load_config(config_path)
    problem = problem_from_config(cfg)
    rows = []
    for n in ns:
        t0 = time.perf_counter()
        bases = bases_from_config(cfg, n_override=n)
        system = assemble_collocation_nd(problem, bases)
        t1 = time.perf_counter()
        result = solve_system(system)
        t2 = time.perf_counter()
        rows.append(
            {
                "N": n,
                "size": system.size,
                "max_error": max_error(cfg, bases, result),
                "iterations": result.iterations,
                "assemble_ms": (t1 - t0) * 1e3,
                "solve_ms": (t2 - t1) * 1e3,
            }
        )
    return rows


def print_table(config_path, rows):
    print(f"\n{config_path}")
    print(f"{'N':>4} {'size':>6} {'max_error':>12} {'iters':>5} {'asm_ms':>8} {'slv_ms':>8}")
    for r in rows:
        print(
            f"{r['N']:>4} {r['size']:>6} {r['max_error']:>12.3e} "
            f"{r['iterations']:>5} {r['assemble_ms']:>8.1f} {r['solve_ms']:>8.1f}"
        )


def write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("N,max_error\n")
        for r in rows:
            fh.write(f"{r['N']},{r['max_error']:.16e}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="sweep a single config instead of the bundle")
    ap.add_argument("--N", help="comma-separated node counts for --config")
    ap.add_argument("--out", help="directory for per-problem CSV files")
    args = ap.parse_args()

    if args.config:
        ns = [int(tok) for tok in (args.N or "4,8,12,16").split(",")]
        sweeps = [(args.config, ns)]
    else:
        sweeps = DEFAULT_SWEEPS

    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for config_path, ns in sweeps:
        rows = sweep(config_path, ns)
        print_table(config_path, rows)
        if args.out:
            stem = os.path.splitext(os.path.basename(config_path))[0]
            write_csv(os.path.join(args.out, f"{stem}_convergence.csv"), rows)


if __name__ == "__main__":
    main()
