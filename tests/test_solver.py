import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import pytest

from util import rand_instance
from vnfplan import heuristics, solver
from vnfplan.model import ChainRequest, CloudNode, Infrastructure, Instance, VnfSpec
from vnfplan.rates import INFEASIBLE, RateTable
from vnfplan.scenario import ScenarioConfig, build_instance
from vnfplan.solver import (
    METHODS,
    BruteForceCapError,
    BudgetExceededError,
    SearchBudget,
    brute_force,
    max_accepted_chains,
    run_method,
    solve_optimal,
)

UNCAPPED = 1e12  # GFLOPS/s: no capacity ever binds


def test_agrees_with_brute_force_sample():
    rng = random.Random(1234)
    for _ in range(25):
        inst = rand_instance(rng)
        exact = solve_optimal(inst)
        oracle = brute_force(inst)
        assert (exact.status == "optimal") == (oracle.status == "optimal")
        if oracle.status == "optimal":
            assert math.isclose(exact.solution.objective,
                                oracle.solution.objective,
                                rel_tol=1e-9, abs_tol=1e-9)
            assert exact.solution.feasible
        else:
            assert exact.status == "infeasible"


def test_pruning_changes_nothing():
    rng = random.Random(77)
    for _ in range(8):
        inst = rand_instance(rng, max_chains=2, max_vnfs=3)
        pruned = solve_optimal(inst)
        full = solve_optimal(inst, use_lower_bound=False)
        assert pruned.status == full.status
        assert full.nodes >= pruned.nodes
        if pruned.solution is not None:
            assert pruned.solution.assignment == full.solution.assignment


def test_deterministic_and_lex_smallest():
    rng = random.Random(5)
    inst = rand_instance(rng)
    first = solve_optimal(inst)
    second = solve_optimal(inst)
    assert first.status == second.status
    if first.solution is not None:
        assert first.solution.assignment == second.solution.assignment
        assert first.solution.objective == second.solution.objective

    # Two identical clouds: among tied optima the all-cloud-0 deployment
    # is lexicographically smallest and must be the one returned.
    infra = Infrastructure(
        clouds=(CloudNode(0, 1e6), CloudNode(1, 1e6)),
        rrh_distances={"r0": {0: 1000.0, 1: 1000.0}},
        cloud_distances={0: {0: 0.0, 1: 5000.0}, 1: {0: 5000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0",
                         vnfs=(VnfSpec(1.0, 1.0, 1.0), VnfSpec(1.0, 1.0, 1.0)))
    res = solve_optimal(Instance(infra=infra, chains=(chain,)))
    assert res.status == "optimal"
    assert [res.solution.assignment.cloud_of("c0", n) for n in (1, 2)] == [0, 0]


def test_infeasible_head_everywhere():
    infra = Infrastructure(
        clouds=(CloudNode(0, 1e6), CloudNode(1, 1e6)),
        rrh_distances={"r0": {0: 50000.0, 1: 41000.0}},
        cloud_distances={0: {0: 0.0, 1: 9000.0}, 1: {0: 9000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0",
                         vnfs=(VnfSpec(1.0, 0.2, 0.2),))
    inst = Instance(infra=infra, chains=(chain,))
    res = solve_optimal(inst)
    assert res.status == "infeasible"
    assert res.infeasible_reason == "first-vnf-placement"
    assert brute_force(inst).status == "infeasible"


def test_infeasible_by_capacity():
    infra = Infrastructure(
        clouds=(CloudNode(0, 10.0),),
        rrh_distances={"r0": {0: 0.0}},
        cloud_distances={0: {0: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0",
                         vnfs=(VnfSpec(1.0, 1.0, 1.0),))
    inst = Instance(infra=infra, chains=(chain,))
    res = solve_optimal(inst)
    assert res.status == "infeasible"
    assert res.infeasible_reason == "capacity"
    oracle = brute_force(inst)
    assert oracle.status == "infeasible"
    assert oracle.infeasible_reason == "capacity"


def test_budget_node_limit():
    rng = random.Random(9)
    inst = rand_instance(rng, max_chains=3, max_vnfs=4)
    res = solve_optimal(inst, budget=SearchBudget(max_nodes=1))
    assert res.status in ("budget-exhausted", "feasible-incumbent")
    assert res.solution is None or res.solution.feasible
    with pytest.raises(BudgetExceededError):
        solve_optimal(inst, budget=SearchBudget(max_nodes=1,
                                                optimality_required=True))


def test_empty_instance_is_trivially_optimal():
    infra = Infrastructure(
        clouds=(CloudNode(0, 10.0),),
        rrh_distances={},
        cloud_distances={0: {0: 0.0}},
    )
    res = solve_optimal(Instance(infra=infra, chains=()))
    assert res.status == "optimal"
    assert res.solution.objective == 0.0
    assert brute_force(Instance(infra=infra, chains=())).status == "optimal"


def test_brute_force_cap():
    rng = random.Random(3)
    inst = rand_instance(rng, max_chains=3, max_vnfs=4)
    with pytest.raises(BruteForceCapError):
        brute_force(inst, cap=2)


def _three_chain_capacity_instance():
    # One cloud of capacity 2500: chains need 1000, 2000, 1000.  The
    # second chain breaks the prefix but the third would still fit.
    infra = Infrastructure(
        clouds=(CloudNode(0, 2500.0),),
        rrh_distances={"r0": {0: 0.0}},
        cloud_distances={0: {0: 0.0}},
    )
    chains = tuple(
        ChainRequest(id=f"c{i}", service=None, rrh="r0",
                     vnfs=(VnfSpec(g, 1.0, 1.0),))
        for i, g in enumerate((1.0, 2.0, 1.0))
    )
    return Instance(infra=infra, chains=chains)


def test_max_accepted_prefix_vs_incremental():
    inst = _three_chain_capacity_instance()
    assert max_accepted_chains(inst, method="optimal", protocol="prefix") == 1
    assert max_accepted_chains(inst, method="optimal",
                               protocol="incremental") == 2
    with pytest.raises(ValueError):
        max_accepted_chains(inst, method="optimal", protocol="nope")
    # The same names as `vnfplan solve`: aliases in, cran-only out.
    for protocol in ("prefix", "incremental"):
        expected = max_accepted_chains(inst, method="b_first", protocol=protocol)
        for alias in ("b-first", "bfirst", "B_FIRST"):
            assert max_accepted_chains(inst, method=alias, protocol=protocol) == expected
    for name in ("mystery", "cran-only", "cran_only"):
        with pytest.raises(ValueError, match="unknown method"):
            max_accepted_chains(inst, method=name)


def test_methods_call_solvers_through_module_attributes(monkeypatch):
    """Registry entries look solvers up at call time, so a wrapper put on
    the module attribute (as a tracer does) sees every call."""
    calls = []
    for mod, name in ((solver, "solve_optimal"), (solver, "brute_force"),
                      (heuristics, "b_first"), (heuristics, "fixed_split"),
                      (heuristics, "fixed_service")):
        def wrapped(*args, _orig=getattr(mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapped)
    inst = _three_chain_capacity_instance()
    assert list(METHODS) == ["optimal", "brute", "b_first", "fixed_split",
                             "fixed_service"]
    for method in METHODS:
        run_method(method, inst)
    assert calls == ["solve_optimal", "brute_force", "b_first", "fixed_split",
                     "fixed_service"]


def test_max_accepted_all_methods_on_feasible_instance():
    rng = random.Random(55)
    while True:
        inst = rand_instance(rng, max_chains=2, max_vnfs=3)
        if brute_force(inst).status == "optimal":
            break
    n = len(inst.chains)
    assert max_accepted_chains(inst, method="optimal") == n
    assert max_accepted_chains(inst, method="brute") == n
    assert 0 <= max_accepted_chains(inst, method="b_first") <= n


def test_solution_loads_match_rates():
    rng = random.Random(14)
    inst = rand_instance(rng)
    res = solve_optimal(inst)
    if res.solution is None:
        return
    sol = res.solution
    recomputed = {k: 0.0 for k in inst.infra.cloud_ids()}
    for (cid, n), (k, rate) in sol.rates.items():
        recomputed[k] += rate
    for k, load in sol.loads.items():
        assert math.isclose(load, recomputed[k], rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(sol.objective, sum(sol.loads.values()),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_incumbent_loads_respect_capacity():
    rng = random.Random(4242)
    for _ in range(15):
        inst = rand_instance(rng)
        res = solve_optimal(inst)
        if res.solution is None:
            continue
        for k in inst.infra.cloud_ids():
            assert res.solution.loads[k] <= inst.infra.capacity(k) + 1e-6


def _without_runtime(res):
    return dataclasses.replace(res, runtime=0.0)


def test_table_reuse_gives_same_answer():
    rng = random.Random(66)
    inst = rand_instance(rng)
    table = RateTable(inst)
    a = solve_optimal(inst, table=table)
    b = solve_optimal(inst)
    assert a.status == b.status
    if a.solution is not None:
        assert a.solution.objective == b.solution.objective
    # max_accepted_chains and the sweep solve every prefix with the full
    # instance's table, whose rows cache their search data on first use.
    cfg = ScenarioConfig(edge_sites="all", seed=0, central_capacity=900.0,
                         edge_capacity=700.0)
    budget = SearchBudget(max_nodes=20_000, time_limit=math.inf)
    for inst in (inst, build_instance(cfg, size=7)):
        table = RateTable(inst)
        ids = [c.id for c in inst.chains]
        for m in range(len(ids) + 1):
            prefix = inst.subset(ids[:m])
            shared = solve_optimal(prefix, budget=budget, table=table)
            own = solve_optimal(prefix, budget=budget)
            assert _without_runtime(shared) == _without_runtime(own), m


def test_deep_instance_does_not_recurse():
    # 200 chains are 1600 search variables, one per VNF.
    cfg = ScenarioConfig(edge_sites="all", seed=0, central_capacity=UNCAPPED,
                         edge_capacity=UNCAPPED)
    inst = build_instance(cfg, size=200)
    res = solve_optimal(inst, budget=SearchBudget(max_nodes=20_000, time_limit=math.inf))
    assert res.status == "feasible-incumbent"
    assert res.nodes == 20_001
    assert res.solution.feasible


def test_time_limit_is_read_every_512_nodes():
    inst = build_instance(ScenarioConfig(edge_sites="all", seed=0), size=7)
    res = solve_optimal(inst, budget=SearchBudget(time_limit=0.0))
    assert res.status == "feasible-incumbent"
    assert res.nodes == 512


# The golden search corpus pins what the branch and bound visits, not only
# what it returns: status, node count, infeasible reason, objective and the
# full placement of every case.  Cases are seeded scenario instances (both
# edge layouts, uncapacitated and capacity-bound) plus random instances,
# each at several node budgets with and without the bound.
GOLDEN_SEARCH = Path(__file__).resolve().parent / "data" / "golden_search.json"
SEARCH_BUDGETS = (1, 513, 20_000)


def golden_search_instances() -> dict:
    instances = {}
    for sites in ("center", "all"):
        for size in (0, 1, 3, 5, 7):
            for label, central, edge in (("uncapped", UNCAPPED, UNCAPPED),
                                         ("cap", 900.0, 700.0)):
                cfg = ScenarioConfig(edge_sites=sites, seed=0,
                                     central_capacity=central, edge_capacity=edge)
                instances[f"{sites}-S{size}-{label}"] = build_instance(
                    cfg, d0_m=45_000.0, size=size)
    rng = random.Random(2718)
    for i in range(60):
        instances[f"rand{i:02d}"] = rand_instance(
            rng, max_chains=4, max_vnfs=5, num_edges=1 + i % 3)
    # The head fits only at cloud 1, which is too small for VNF 2, and the
    # link to cloud 0 breaks VNF 2's backward bound: one rejection of each
    # cause, so the (count, name) tie-break names split-latency.
    infra = Infrastructure(
        clouds=(CloudNode(0, 1e6), CloudNode(1, 1.0)),
        rrh_distances={"r0": {0: 50000.0, 1: 0.0}},
        cloud_distances={0: {0: 0.0, 1: 9000.0}, 1: {0: 9000.0, 1: 0.0}},
    )
    chain = ChainRequest(id="c0", service=None, rrh="r0",
                         vnfs=(VnfSpec(0.0001, 1.0, 0.2), VnfSpec(1.0, 1.0, 0.01),
                               VnfSpec(1.0, 1.0, 0.01)))
    instances["split-latency"] = Instance(infra=infra, chains=(chain,))
    return instances


def _search_record(res) -> dict:
    sol = res.solution
    placement = None
    if sol is not None:
        placement = {}
        for (cid, n), k in sorted(sol.assignment.x.items()):
            placement.setdefault(cid, []).append(k)
    return {"status": res.status, "nodes": res.nodes,
            "infeasible_reason": res.infeasible_reason,
            "objective": sol.objective if sol is not None else None,
            "placement": placement}


def golden_search_results() -> dict:
    results = {}
    for name, inst in golden_search_instances().items():
        for max_nodes in SEARCH_BUDGETS:
            budget = SearchBudget(max_nodes=max_nodes, time_limit=math.inf)
            for bound in (True, False):
                res = solve_optimal(inst, budget=budget, use_lower_bound=bound)
                results[f"{name}/n{max_nodes}/{'lb' if bound else 'nolb'}"] = \
                    _search_record(res)
    return results


def test_search_matches_golden_corpus():
    golden = json.loads(GOLDEN_SEARCH.read_text(encoding="utf-8"))
    results = golden_search_results()
    assert sorted(results) == sorted(golden)
    for case, expected in golden.items():
        assert results[case] == expected, case


if __name__ == "__main__" and sys.argv[1:] == ["--record-golden-search"]:
    # Rewrites the corpus; run as
    #   PYTHONPATH=src:tests python tests/test_solver.py --record-golden-search
    GOLDEN_SEARCH.write_text(json.dumps(golden_search_results(), indent=0, sort_keys=True)
                             + "\n", encoding="utf-8")
