"""The benchmark's four workloads.

Each workload builds its inputs from the seed, runs one operation, checks
the operation's outputs and scores their quality against a reference that
``reference.py`` computes outside every timed region.  The layer modules
are passed in as ``m`` (``m.scenario``, ``m.solver``, ...) and every call
goes through a module attribute, so the tracer's wrappers see it.
"""
from __future__ import annotations

import json
import math
import os
import random

# A fixed node budget with the time limit off makes results independent of
# machine speed; at this budget most ladder instances stop on the budget.
NODE_BUDGET = 20_000
D0_M = 45_000.0
LADDER_SITES = ("center", "all")
LADDER_SIZES = (5, 7, 9, 11)
LADDER_REPS = 3
SCALE_CHAINS = 800
UNCAPPED = 1e12  # GFLOPS/s: no capacity ever binds
SWEEP_METHODS = ("optimal", "b-first", "fixed-split", "fixed-service", "cran-only")
SWEEP_AXES = {"S": (4, 8), "d0": (30_000.0, 90_000.0), "Ce": (2240.0, 4480.0)}
SWEEP_REPS = 3
FILES_CHAINS = 40
REL_TOL = 1e-6


def _budget(m):
    return m.solver.SearchBudget(max_nodes=NODE_BUDGET, time_limit=math.inf)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _at_least(value: float, ref: float) -> bool:
    return value >= ref - REL_TOL * max(1.0, abs(ref))


class Exact:
    """solve_optimal over the fixed quality ladder, in an order drawn from the seed.

    The ladder is fixed (scenario seeds 0..LADDER_REPS-1 per point) because
    HiGHS needs minutes per 8-cloud instance to prove the reference optima,
    too long to redo for every seed; ``ladder_reference.json`` holds them.
    """

    def build(self, m, seed):
        ladder = []
        for sites in LADDER_SITES:
            for size in LADDER_SIZES:
                for rep in range(LADDER_REPS):
                    cfg = m.scenario.ScenarioConfig(edge_sites=sites, seed=rep)
                    ladder.append(m.scenario.build_instance(cfg, d0_m=D0_M, size=size))
        order = list(range(len(ladder)))
        random.Random(seed).shuffle(order)
        return [(i, ladder[i]) for i in order]

    def op(self, m, ladder):
        budget = _budget(m)
        return [m.solver.solve_optimal(inst, budget=budget) for _, inst in ladder]

    def signature(self, results):
        return tuple((r.status, r.nodes, r.solution.objective if r.solution else None)
                     for r in results)

    def check(self, m, ladder, results, ref):
        problems = []
        for (i, inst), res in zip(ladder, results):
            opt = ref["optimum"][i]
            if res.solution is None:
                problems.append(f"ladder instance {i}: {res.status}, no solution")
                continue
            obj = res.solution.objective
            again = m.rates.evaluate(inst, res.solution.assignment)
            if not again.feasible or not _close(again.objective, obj):
                problems.append(f"ladder instance {i}: solution does not re-evaluate")
            if not _at_least(obj, opt):
                problems.append(f"ladder instance {i}: objective {obj} below optimum {opt}")
            if res.status == "optimal" and not _close(obj, opt):
                problems.append(f"ladder instance {i}: 'optimal' {obj} but optimum is {opt}")
        return problems

    def quality(self, ladder, results, ref):
        gaps = [100.0 * (r.solution.objective / ref["optimum"][i] - 1.0)
                if r.solution else 100.0 for (i, _), r in zip(ladder, results)]
        placed = sum(len(inst.chains) for (_, inst), r in zip(ladder, results) if r.solution)
        return {
            "obj_ratio": 1.0 + sum(gaps) / len(gaps) / 100.0,
            "accepted_frac": placed / sum(len(inst.chains) for _, inst in ladder),
            "gap_pct": sum(gaps) / len(gaps),
            "proven_frac": sum(r.status == "optimal" for r in results) / len(results),
        }


def ladder_reference(m, ladder, path) -> dict:
    """The committed ladder optima, after checking they still fit the instances.

    Each stored HiGHS placement is re-evaluated with the current rate engine;
    an instance or rate change that moves its objective voids the reference.
    """
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)["ladder"]
    problems = []
    if len(stored) != len(ladder):
        return {"optimum": [], "problems": [f"{len(stored)} stored optima for "
                                            f"{len(ladder)} ladder instances"]}
    for i, inst in sorted(ladder, key=lambda pair: pair[0]):
        entry = stored[i]
        sol = m.rates.evaluate(inst, m.rates.Assignment.from_vectors(entry["placement"]))
        if not sol.feasible or not _close(sol.objective, entry["objective"]):
            problems.append(f"ladder instance {i}: stored optimum no longer re-evaluates")
    return {"optimum": [entry["objective"] for entry in stored], "problems": problems}


def _uncapped_instance(m, seed, size):
    cfg = m.scenario.ScenarioConfig(edge_sites="all", seed=seed,
                                    central_capacity=UNCAPPED, edge_capacity=UNCAPPED)
    return m.scenario.build_instance(cfg, d0_m=D0_M, size=size)


class Scale:
    """One rate table shared by b_first and the two fixed baselines on many chains."""

    def build(self, m, seed):
        return _uncapped_instance(m, seed, SCALE_CHAINS)

    def op(self, m, inst):
        table = m.rates.RateTable(inst)
        return (table, m.heuristics.b_first(inst, table),
                m.heuristics.fixed_split(inst, table=table),
                m.heuristics.fixed_service(inst, table=table))

    def signature(self, result):
        _, bf, split, service = result
        return (bf.solution.objective, bf.evaluations, len(bf.accepted_ids),
                split.objective, service.objective)

    def check(self, m, inst, result, ref):
        table, bf, _, _ = result
        problems = []
        if len(bf.accepted_ids) != len(inst.chains):
            problems.append(f"b_first accepted {len(bf.accepted_ids)} of {len(inst.chains)}")
        again = m.rates.evaluate(inst, bf.solution.assignment, table)
        if not _close(again.objective, bf.solution.objective):
            problems.append("b_first objective differs from evaluate of its assignment")
        if not _at_least(bf.solution.objective, sum(ref["chain_optimum"])):
            problems.append("b_first objective below the optimum")
        return problems

    def quality(self, inst, result, ref):
        bf = result[1]
        return {"obj_ratio": bf.solution.objective / sum(ref["chain_optimum"]),
                "accepted_frac": len(bf.accepted_ids) / len(inst.chains)}


def sweep_points():
    """The sweep's (method, S, d0, Ce, rep) points in run_sweep's record order."""
    return [(method.replace("-", "_"), size, d0, ce, rep)
            for method in SWEEP_METHODS for size in SWEEP_AXES["S"]
            for d0 in SWEEP_AXES["d0"] for ce in SWEEP_AXES["Ce"]
            for rep in range(SWEEP_REPS)]


class Sweep:
    """One run_sweep(jobs=1) over the paper's axes, then a CSV round trip."""

    def __init__(self, workdir):
        self.csv_path = os.path.join(workdir, "sweep.csv")

    def build(self, m, seed):
        return m.scenario.ScenarioConfig(edge_sites="center", seed=seed)

    def op(self, m, cfg):
        return m.scenario.run_sweep(cfg, SWEEP_METHODS, axes=SWEEP_AXES,
                                    reps=SWEEP_REPS, budget=_budget(m), jobs=1)

    def signature(self, records):
        return tuple((r.objective_gflops_s, r.accepted) for r in records)

    def check(self, m, cfg, records, ref):
        problems = []
        m.scenario.export_csv(records, self.csv_path)
        if m.scenario.read_csv(self.csv_path) != records:
            problems.append("records change in an export_csv/read_csv round trip")
        if len(records) != len(ref["instance_optimum"]):
            return problems + [f"{len(records)} records, expected {len(ref['instance_optimum'])}"]
        for rec, point, free in zip(records, sweep_points(), ref["instance_optimum"]):
            if (rec.method, rec.size, rec.d0_m) != point[:3]:
                problems.append(f"record {rec.scenario} {rec.method} out of order")
            elif rec.accepted == rec.size and not _at_least(rec.objective_gflops_s, free):
                # An accepted chain set is latency-feasible, so free is finite here.
                problems.append(f"record {rec.scenario} {rec.method} below the optimum")
        return problems

    def quality(self, cfg, records, ref):
        ratios = [r.objective_gflops_s / free
                  for r, free in zip(records, ref["instance_optimum"])
                  if r.accepted == r.size]
        return {"obj_ratio": sum(ratios) / len(ratios),
                "accepted_frac": sum(r.accepted for r in records)
                / sum(r.size for r in records)}


class Files:
    """gen -> solve --method b-first --emit-lp: YAML round trip, validation, ILP text."""

    def __init__(self, workdir):
        self.yaml_path = os.path.join(workdir, "instance.yaml")

    def build(self, m, seed):
        # Uncapacitated, so b_first accepts every chain whatever the seed draws.
        return _uncapped_instance(m, seed, FILES_CHAINS)

    def op(self, m, inst):
        m.config.save_instance(self.yaml_path, inst)
        loaded = m.config.load_instance(self.yaml_path)
        problems = m.model.validate_instance(loaded)
        placed = m.heuristics.b_first(loaded)
        mdl = m.ilp.build_ilp(loaded)
        text = m.ilp.emit_lp_text(mdl)
        return loaded, problems, placed, mdl, text, m.ilp.parse_lp_text(text)

    def signature(self, result):
        _, problems, placed, mdl, text, _ = result
        return (len(problems), placed.solution.objective, placed.evaluations,
                len(placed.accepted_ids), len(mdl.constraints), len(text))

    def check(self, m, inst, result, ref):
        loaded, problems, placed, mdl, _, parsed = result
        out = [f"validate_instance: {p}" for p in problems]
        if loaded != inst:
            out.append("loading the saved file does not give back the instance")
        if parsed != mdl:
            out.append("parsing the emitted LP does not give back the model")
        if not _at_least(placed.solution.objective, self._free_optimum(inst, placed, ref)):
            out.append("b_first objective below the optimum of its chains")
        return out

    @staticmethod
    def _free_optimum(inst, placed, ref):
        kept = set(placed.accepted_ids)
        return sum(opt for chain, opt in zip(inst.chains, ref["chain_optimum"])
                   if chain.id in kept)

    def quality(self, inst, result, ref):
        placed = result[2]
        return {"obj_ratio": placed.solution.objective
                / self._free_optimum(inst, placed, ref),
                "accepted_frac": len(placed.accepted_ids) / len(inst.chains)}


def make(name: str, workdir: str):
    return {"exact": Exact, "scale": Scale,
            "sweep": lambda: Sweep(workdir), "files": lambda: Files(workdir)}[name]()
