"""Reference optima for the benchmark, computed with HiGHS outside every timed region.

Usage, from the repository root:

    python3 perfbench/reference.py --workload scale|sweep|files --seed N --out FILE
    python3 perfbench/reference.py --ladder

The first form is started by ``run.py`` as a child process that it waits
for, so neither scipy's memory nor HiGHS time shows in any metric.  The
second rewrites ``ladder_reference.json``, the committed optima of the
``exact`` ladder; it takes several minutes because HiGHS is slow to prove
the 8-cloud instances.  Optima come from ``scipy.optimize.milp`` on
``build_ilp``; the chosen placement is re-evaluated with the rate engine,
so the reference and the solvers use the same arithmetic.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

import run
import workloads

BRUTE_PREFIX = 2   # chains per brute-force cross-check; 2 clouds give 2**16 placements


def highs_optimum(m, inst) -> tuple[float, dict | None]:
    """Proven optimum and placement: HiGHS picks the placement, evaluate prices it.

    An infeasible instance has optimum infinity and no placement.
    """
    mdl = m.ilp.build_ilp(inst)
    names = list(mdl.continuous) + list(mdl.binaries)
    col = {v: i for i, v in enumerate(names)}
    cost = np.zeros(len(names))
    for var, coef in mdl.objective:
        cost[col[var]] += coef
    rows, cols, vals, lo, hi = [], [], [], [], []
    for i, con in enumerate(mdl.constraints):
        for var, coef in con.terms:
            rows.append(i)
            cols.append(col[var])
            vals.append(coef)
        lo.append(-np.inf if con.sense == "<=" else con.rhs)
        hi.append(np.inf if con.sense == ">=" else con.rhs)
    upper = np.full(len(names), np.inf)
    upper[[col[v] for v in mdl.binaries]] = 1.0
    upper[[col[v] for v in mdl.fixed_zero]] = 0.0
    res = milp(cost,
               constraints=LinearConstraint(
                   csr_matrix((vals, (rows, cols)), shape=(len(mdl.constraints), len(names))),
                   lo, hi),
               integrality=np.array([0] * len(mdl.continuous) + [1] * len(mdl.binaries)),
               bounds=Bounds(np.zeros(len(names)), upper),
               options={"mip_rel_gap": 0.0})
    if res.status == 2:
        return math.inf, None
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    clouds = inst.infra.cloud_ids()
    vectors = {
        chain.id: [max(clouds, key=lambda k: res.x[col[m.ilp.x_name(si, n, k)]])
                   for n in range(1, len(chain.vnfs) + 1)]
        for si, chain in enumerate(inst.chains)
    }
    sol = m.rates.evaluate(inst, m.rates.Assignment.from_vectors(vectors))
    if not sol.feasible or not math.isclose(sol.objective, res.fun, rel_tol=1e-6):
        raise RuntimeError(f"HiGHS placement re-evaluates to {sol.objective}, not {res.fun}")
    return sol.objective, vectors


def chain_optima(m, inst, cache: dict) -> list[float]:
    """Optimum of each chain alone with no capacity limit, in chain order.

    Their sum is the optimum of an uncapacitated instance and a lower bound
    on any capacitated one.
    """
    infra = inst.infra
    free = dataclasses.replace(infra, clouds=tuple(
        m.model.CloudNode(c.id, math.inf) for c in infra.clouds))
    out = []
    for chain in inst.chains:
        key = (chain.rrh, chain.vnfs, tuple(sorted(infra.rrh_distances[chain.rrh].items())),
               tuple((k, tuple(sorted(row.items())))
                     for k, row in sorted(infra.cloud_distances.items())))
        if key not in cache:
            cache[key] = highs_optimum(m, m.model.Instance(free, (chain,)))[0]
        out.append(cache[key])
    return out


def compute_ladder(m) -> dict:
    """Optima of the exact ladder, cross-checked against brute_force and the search.

    brute_force runs on each two-chain prefix whose space fits under its
    cap; solve_optimal with a 3M-node budget is compared wherever it
    proves optimality.
    """
    ladder = sorted(workloads.Exact().build(m, 0), key=lambda pair: pair[0])
    entries, checks = [], []
    for i, inst in ladder:
        objective, placement = highs_optimum(m, inst)
        prefix = inst.subset([c.id for c in inst.chains[:BRUTE_PREFIX]])
        try:
            brute = m.solver.brute_force(prefix).solution.objective
            checks.append(("brute_force", i, brute, highs_optimum(m, prefix)[0]))
        except m.solver.BruteForceCapError:
            pass
        search = m.solver.solve_optimal(inst, m.solver.SearchBudget(max_nodes=3_000_000))
        if search.status == "optimal":
            checks.append(("solve_optimal", i, search.solution.objective, objective))
        entries.append({"objective": objective, "placement": placement})
        print(f"ladder instance {i}: optimum {objective}", flush=True)
    for method, i, found, opt in checks:
        if not math.isclose(found, opt, rel_tol=1e-6):
            raise RuntimeError(f"ladder instance {i}: {method} {found} != HiGHS {opt}")
    return {"ladder": entries,
            "cross_checks": [f"{method} on instance {i}" for method, i, _, _ in checks]}


def sweep_reference(m, cfg) -> dict:
    """Capacity-free optimum of the instance behind every sweep record.

    The instances are rebuilt as run_sweep builds them: scenario seed
    cfg.seed * 100003 + rep, and cran-only folded onto the central cloud.
    """
    cache: dict = {}
    optima = []
    for method, size, d0, ce, rep in workloads.sweep_points():
        inst = m.scenario.build_instance(cfg, d0_m=d0, size=size, edge_capacity=ce,
                                         seed=cfg.seed * 100003 + rep,
                                         cran=method == "cran_only")
        optima.append(sum(chain_optima(m, inst, cache)))
    return {"instance_optimum": optima, "problems": []}


def compute(name: str, m, state) -> dict:
    if name == "sweep":
        return sweep_reference(m, state)
    return {"chain_optimum": chain_optima(m, state, {}), "problems": []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scale", "sweep", "files"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--ladder", action="store_true",
                        help=f"rewrite {os.path.relpath(run.LADDER_REFERENCE)}")
    args = parser.parse_args(argv)
    m = run.import_layers(os.getcwd())
    if args.ladder:
        out, ref = run.LADDER_REFERENCE, compute_ladder(m)
    elif args.workload and args.seed is not None and args.out:
        out = args.out
        state = workloads.make(args.workload, os.path.dirname(out)).build(m, args.seed)
        ref = compute(args.workload, m, state)
    else:
        parser.error("give --ladder, or --workload, --seed and --out")
    tmp = out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
