import math
import random

import pytest

from util import rand_instance
from vnfplan import heuristics, solver
from vnfplan.model import ChainRequest, CloudNode, Infrastructure, Instance, VnfSpec
from vnfplan.rates import INFEASIBLE, RateTable
from vnfplan.solver import (
    METHODS,
    BruteForceCapError,
    BudgetExceededError,
    SearchBudget,
    brute_force,
    lower_bound,
    max_accepted_chains,
    run_method,
    solve_optimal,
)


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


def test_lower_bound_is_admissible():
    rng = random.Random(31)
    for _ in range(10):
        inst = rand_instance(rng, max_chains=2, max_vnfs=3)
        oracle = brute_force(inst)
        if oracle.status != "optimal":
            continue
        assert lower_bound(inst, {}) <= oracle.solution.objective + 1e-9
        # A one-variable prefix fixed to the optimal choice stays admissible.
        first_chain = inst.chains[0].id
        k = oracle.solution.assignment.cloud_of(first_chain, 1)
        partial = {(first_chain, 1): k}
        assert lower_bound(inst, partial) <= oracle.solution.objective + 1e-9


def test_lower_bound_rejects_non_prefix():
    rng = random.Random(8)
    inst = rand_instance(rng, max_chains=2, max_vnfs=3)
    last_chain = inst.chains[-1]
    partial = {(last_chain.id, len(last_chain.vnfs)): 0}
    if len(inst.chains) == 1 and len(last_chain.vnfs) == 1:
        return  # that single variable is a legal prefix
    with pytest.raises(ValueError):
        lower_bound(inst, partial)


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


def test_table_reuse_gives_same_answer():
    rng = random.Random(66)
    inst = rand_instance(rng)
    table = RateTable(inst)
    a = solve_optimal(inst, table=table)
    b = solve_optimal(inst)
    assert a.status == b.status
    if a.solution is not None:
        assert a.solution.objective == b.solution.objective
